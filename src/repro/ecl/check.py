"""Static semantic checking of ECL modules (pre-translation).

The translator and the evaluator reject bad programs eventually, but a
production front end reports problems *before* lowering, with source
positions.  :func:`check_module` walks one module and returns
:class:`Diagnostic` records:

errors
    undeclared identifiers; value reads of pure signals; calls to
    unknown functions or with wrong arity; ``break``/``continue``
    outside loops; ``return`` with a value; direct assignment to a
    signal (signals are written with ``emit``); module instantiation
    arity/kind mistakes.

warnings
    signals declared but never used; variables never read; ``present``
    conditions over signals the module cannot receive (always absent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..lang import ast
from ..lang.source import SYNTHETIC
from ..lang.types import PureType


@dataclass
class Diagnostic:
    severity: str          # "error" | "warning"
    message: str
    span: object = None

    def render(self, filename=None):
        """The diagnostic as text.  ``filename`` names the unit being
        built: a cached diagnostic's span keeps the file name of the
        unit that first computed it, which need not be this one."""
        span = self.span
        if span is None:
            return "%s: %s" % (self.severity, self.message)
        if filename and span.filename != SYNTHETIC.filename:
            span = "%s:%s" % (filename, span.start)
        return "%s: %s: %s" % (span, self.severity, self.message)

    def __str__(self):
        return self.render()


class ModuleChecker:
    """Checks one module against its program context."""

    def __init__(self, program, types):
        self.program = program
        self.types = types
        self.module_names = {m.name for m in program.modules()}
        self.functions = {f.name: f for f in program.functions()}

    def check(self, module):
        self.diagnostics: List[Diagnostic] = []
        self.signals = {p.name: p.type for p in module.signals}
        self.signal_dirs = {p.name: p.direction for p in module.signals}
        self.scopes = [dict()]
        self.loop_depth = 0
        self.used_signals = set()
        self.read_vars = set()
        self.declared_vars = {}
        self._stmt(module.body)
        for name, param_span in self.declared_vars.items():
            if name not in self.read_vars:
                self._warn("variable %r is never read" % name, param_span)
        for param in module.signals:
            if param.name not in self.used_signals:
                self._warn("signal %r is never used" % param.name,
                           param.span)
        return self.diagnostics

    # ------------------------------------------------------------------

    def _error(self, message, span=None):
        self.diagnostics.append(Diagnostic("error", message, span))

    def _warn(self, message, span=None):
        self.diagnostics.append(Diagnostic("warning", message, span))

    def _declare(self, name, span):
        self.scopes[-1][name] = span
        self.declared_vars.setdefault(name, span)

    def _is_var(self, name):
        return any(name in scope for scope in self.scopes)

    # ------------------------------------------------------------------
    # Statements

    def _stmt(self, stmt):
        if stmt is None:
            return
        handler = getattr(self, "_stmt_%s" % type(stmt).__name__, None)
        if handler is not None:
            handler(stmt)

    def _stmt_Block(self, stmt):
        self.scopes.append({})
        for child in stmt.body:
            self._stmt(child)
        self.scopes.pop()

    def _stmt_VarDecl(self, stmt):
        if stmt.init is not None:
            self._expr(stmt.init)
        self._declare(stmt.name, stmt.span)

    def _stmt_SignalDecl(self, stmt):
        if stmt.name in self.signals:
            self._error("signal %r shadows an existing signal"
                        % stmt.name, stmt.span)
        self.signals[stmt.name] = stmt.type
        self.signal_dirs[stmt.name] = "local"

    def _stmt_ExprStmt(self, stmt):
        expr = stmt.expr
        if isinstance(expr, ast.Call) and expr.func in self.module_names:
            self._instantiation(expr)
            return
        self._expr(expr)

    def _stmt_If(self, stmt):
        self._expr(stmt.cond)
        self._stmt(stmt.then)
        self._stmt(stmt.otherwise)

    def _stmt_While(self, stmt):
        self._expr(stmt.cond)
        self.loop_depth += 1
        self._stmt(stmt.body)
        self.loop_depth -= 1

    def _stmt_DoWhile(self, stmt):
        self.loop_depth += 1
        self._stmt(stmt.body)
        self.loop_depth -= 1
        self._expr(stmt.cond)

    def _stmt_For(self, stmt):
        self.scopes.append({})
        self._stmt(stmt.init)
        if stmt.cond is not None:
            self._expr(stmt.cond)
        self.loop_depth += 1
        self._stmt(stmt.body)
        self.loop_depth -= 1
        if stmt.step is not None:
            self._expr(stmt.step)
        self.scopes.pop()

    def _stmt_Break(self, stmt):
        if self.loop_depth == 0:
            self._error("break outside of a loop", stmt.span)

    def _stmt_Continue(self, stmt):
        if self.loop_depth == 0:
            self._error("continue outside of a loop", stmt.span)

    def _stmt_Return(self, stmt):
        if stmt.value is not None:
            self._error("modules cannot return a value; emit an output "
                        "signal instead", stmt.span)

    def _stmt_Emit(self, stmt):
        sig_type = self.signals.get(stmt.signal)
        self.used_signals.add(stmt.signal)
        if sig_type is None:
            self._error("emit of undeclared signal %r" % stmt.signal,
                        stmt.span)
        else:
            if self.signal_dirs.get(stmt.signal) == "input":
                self._error("cannot emit input signal %r" % stmt.signal,
                            stmt.span)
            pure = isinstance(sig_type, PureType)
            if pure and stmt.value is not None:
                self._error("emit_v on pure signal %r" % stmt.signal,
                            stmt.span)
            if not pure and stmt.value is None:
                self._error("valued signal %r needs emit_v" % stmt.signal,
                            stmt.span)
        if stmt.value is not None:
            self._expr(stmt.value)

    def _stmt_Await(self, stmt):
        if stmt.cond is not None:
            self._sig_expr(stmt.cond)

    def _stmt_Halt(self, stmt):
        pass

    def _stmt_Present(self, stmt):
        self._sig_expr(stmt.cond)
        self._stmt(stmt.then)
        self._stmt(stmt.otherwise)

    def _stmt_Abort(self, stmt):
        # break/continue must not cross the pre-emption boundary.
        self._stmt(stmt.body)
        self._sig_expr(stmt.cond)
        self._stmt(stmt.handler)

    def _stmt_Suspend(self, stmt):
        self._stmt(stmt.body)
        self._sig_expr(stmt.cond)

    def _stmt_Par(self, stmt):
        saved = self.loop_depth
        self.loop_depth = 0
        for branch in stmt.branches:
            self._stmt(branch)
        self.loop_depth = saved

    # ------------------------------------------------------------------
    # Expressions

    def _expr(self, expr):
        if expr is None:
            return
        if isinstance(expr, ast.Name):
            self._name_read(expr)
            return
        if isinstance(expr, ast.Assign):
            self._assign_target(expr.target)
            self._expr(expr.value)
            return
        if isinstance(expr, ast.IncDec):
            self._assign_target(expr.target)
            return
        if isinstance(expr, ast.Call):
            self._call(expr)
            return
        for child in ast.children(expr):
            if isinstance(child, ast.Expr):
                self._expr(child)

    def _name_read(self, expr):
        name = expr.id
        if self._is_var(name):
            self.read_vars.add(name)
            return
        if name in self.signals:
            self.used_signals.add(name)
            if isinstance(self.signals[name], PureType):
                self._error(
                    "pure signal %r carries no value; use present() to "
                    "test it" % name, expr.span)
            return
        self._error("undeclared identifier %r" % name, expr.span)

    def _assign_target(self, target):
        base = target
        while isinstance(base, (ast.Index, ast.Member)):
            if isinstance(base, ast.Index):
                self._expr(base.index)
            base = base.base
        if isinstance(base, ast.Name):
            if self._is_var(base.id):
                return
            if base.id in self.signals:
                self._error(
                    "cannot assign to signal %r; signals are written "
                    "with emit/emit_v" % base.id, base.span)
                return
            self._error("assignment to undeclared identifier %r"
                        % base.id, base.span)
            return
        self._expr(target)

    def _call(self, expr):
        if expr.func in self.module_names:
            self._error(
                "module %s instantiated inside an expression; module "
                "instantiation is a statement" % expr.func, expr.span)
        else:
            function = self.functions.get(expr.func)
            if function is None:
                self._error("call to unknown function %r" % expr.func,
                            expr.span)
            elif len(expr.args) != len(function.params):
                self._error(
                    "function %s expects %d arguments, got %d"
                    % (expr.func, len(function.params), len(expr.args)),
                    expr.span)
        for arg in expr.args:
            self._expr(arg)

    def _sig_expr(self, cond):
        for name in cond.signal_names():
            self.used_signals.add(name)
            if name not in self.signals:
                self._error("presence test of undeclared signal %r"
                            % name, cond.span)

    # ------------------------------------------------------------------

    def _instantiation(self, call):
        module = self.program.module_named(call.func)
        if len(call.args) != len(module.signals):
            self._error(
                "module %s takes %d signals, got %d"
                % (module.name, len(module.signals), len(call.args)),
                call.span)
            return
        for formal, actual in zip(module.signals, call.args):
            if not isinstance(actual, ast.Name):
                self._error(
                    "module instantiation arguments must be signal "
                    "names", call.span)
                continue
            if actual.id not in self.signals:
                self._error("actual signal %r is not declared"
                            % actual.id, actual.span)
                continue
            self.used_signals.add(actual.id)


def check_module(program, types, module_name):
    """Check one module; returns the diagnostics list."""
    module = program.module_named(module_name)
    return ModuleChecker(program, types).check(module)


def errors_of(diagnostics):
    return [d for d in diagnostics if d.severity == "error"]


def warnings_of(diagnostics):
    return [d for d in diagnostics if d.severity == "warning"]
