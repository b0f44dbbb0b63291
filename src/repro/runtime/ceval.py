"""Interpreter for the C (data) fragment of ECL.

This module evaluates C expressions and executes *data-only* statements
(everything the splitter classifies as non-reactive): variable access,
arithmetic with C wrap-around semantics, struct/union/array access through
the byte-backed :mod:`repro.runtime.memory` model, pointers, and calls to
plain C functions defined in the ECL file.

Reactive constructs never reach this module — the translator turns them
into Esterel kernel statements, and only the residual data actions
(assignments, calls, emitted-value expressions) are evaluated here.

Operation counting: when the environment carries a
:class:`repro.cost.model.CycleCounter`, every evaluated operation reports
its class so the cost model can derive execution cycles (README,
"Semantics and deviations").
"""

from __future__ import annotations

from ..errors import EvalError
from ..lang import ast
from ..lang.types import (
    ArrayType,
    BoolType,
    CHAR,
    INT,
    IntType,
    PointerType,
    StructType,
    UINT,
    UnionType,
    VOID,
    common_type,
)
from .memory import AddressSpace, LValue, Variable, decode_scalar


class BreakUnwind(Exception):
    """Internal: a ``break`` propagating to the nearest loop."""


class ContinueUnwind(Exception):
    """Internal: a ``continue`` propagating to the nearest loop."""


class ReturnUnwind(Exception):
    """Internal: a ``return`` propagating out of a function body."""

    def __init__(self, value):
        self.value = value
        super().__init__()


def _promote(ctype):
    """C integer promotion: small integers and bool become int."""
    if isinstance(ctype, BoolType):
        return INT
    if isinstance(ctype, IntType) and ctype.size < INT.size:
        return INT
    return ctype


def _c_div(left, right):
    """C integer division truncates toward zero."""
    if right == 0:
        raise EvalError("division by zero")
    quotient = abs(left) // abs(right)
    return quotient if (left < 0) == (right < 0) else -quotient


def _c_rem(left, right):
    if right == 0:
        raise EvalError("remainder by zero")
    return left - _c_div(left, right) * right


_ARITH_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _c_div,
    "%": _c_rem,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: a << (b & 31),
    ">>": lambda a, b: a >> (b & 31),
}

_COMPARE_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}


class Env:
    """Execution environment: one address space, a scope chain, the C
    function table, and an optional signal resolver.

    ``signal_resolver(name)`` returns an object with ``.type``, ``.load()``
    and ``.store(value)`` (see :class:`repro.runtime.signals.SignalSlot`)
    or ``None``; it lets C expressions read signal *values*, the
    overloading the paper describes ("value in the context of normal
    C-style expressions").
    """

    __slots__ = ("space", "functions", "signal_resolver", "counter",
                 "_scopes")

    def __init__(self, space=None, functions=None, signal_resolver=None,
                 counter=None):
        self.space = space if space is not None else AddressSpace()
        self.functions = functions if functions is not None else {}
        self.signal_resolver = signal_resolver
        self.counter = counter
        self._scopes = [{}]

    # -- scopes ---------------------------------------------------------

    def push_scope(self):
        self._scopes.append({})

    def pop_scope(self):
        self._scopes.pop()

    def declare(self, name, ctype):
        scope = self._scopes[-1]
        if name in scope:
            raise EvalError("variable %r redeclared in the same scope" % name)
        variable = Variable(name, ctype, self.space)
        scope[name] = variable
        return variable

    def lookup(self, name):
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return None

    def lookup_signal(self, name):
        if self.signal_resolver is None:
            return None
        return self.signal_resolver(name)

    # -- accounting ------------------------------------------------------

    def count(self, kind, amount=1):
        if self.counter is not None:
            self.counter.count(kind, amount)


class Evaluator:
    """Evaluates C expressions and data statements against an Env."""

    def __init__(self, env):
        self.env = env

    # ------------------------------------------------------------------
    # Static type of an expression (enough C to wrap results correctly)

    def type_of(self, expr):
        if isinstance(expr, ast.IntLit):
            return INT
        if isinstance(expr, ast.StrLit):
            return PointerType(CHAR)
        if isinstance(expr, ast.Name):
            variable = self.env.lookup(expr.id)
            if variable is not None:
                return variable.type
            slot = self.env.lookup_signal(expr.id)
            if slot is not None:
                return slot.type
            raise EvalError("undeclared identifier %r" % expr.id, expr.span)
        if isinstance(expr, ast.Unary):
            if expr.op == "!":
                return INT
            if expr.op == "&":
                return PointerType(self.type_of(expr.operand))
            if expr.op == "*":
                operand = self.type_of(expr.operand)
                if not isinstance(operand, PointerType):
                    raise EvalError("dereferencing non-pointer", expr.span)
                return operand.target
            return _promote(self.type_of(expr.operand))
        if isinstance(expr, ast.IncDec):
            return self.type_of(expr.target)
        if isinstance(expr, ast.Binary):
            if expr.op in _COMPARE_OPS or expr.op in ("&&", "||"):
                return INT
            if expr.op == ",":
                return self.type_of(expr.right)
            left = self.type_of(expr.left)
            right = self.type_of(expr.right)
            if isinstance(left, ArrayType):
                left = PointerType(left.element)
            if isinstance(right, ArrayType):
                right = PointerType(right.element)
            if isinstance(left, PointerType) and expr.op in ("+", "-"):
                if expr.op == "-" and isinstance(right, PointerType):
                    return INT
                return left
            if isinstance(right, PointerType) and expr.op == "+":
                return right
            if expr.op in ("<<", ">>"):
                return _promote(left)
            return common_type(_promote(left), _promote(right))
        if isinstance(expr, ast.Assign):
            return self.type_of(expr.target)
        if isinstance(expr, ast.Cond):
            return self.type_of(expr.then)
        if isinstance(expr, ast.Call):
            function = self.env.functions.get(expr.func)
            if isinstance(function, ast.FuncDef):
                return function.return_type
            if isinstance(function, BuiltinFunction):
                return function.return_type
            raise EvalError("call to unknown function %r" % expr.func,
                            expr.span)
        if isinstance(expr, ast.Index):
            base = self.type_of(expr.base)
            if isinstance(base, ArrayType):
                return base.element
            if isinstance(base, PointerType):
                return base.target
            raise EvalError("indexing non-array type %s" % base, expr.span)
        if isinstance(expr, ast.Member):
            base = self.type_of(expr.base)
            if expr.arrow:
                if not isinstance(base, PointerType):
                    raise EvalError("'->' on non-pointer", expr.span)
                base = base.target
            if not isinstance(base, (StructType, UnionType)):
                raise EvalError("member access on non-aggregate %s" % base,
                                expr.span)
            return base.field_named(expr.name).type
        if isinstance(expr, ast.Cast):
            return expr.type
        if isinstance(expr, (ast.SizeofType, ast.SizeofExpr)):
            return UINT
        raise EvalError("cannot type expression %r" % (expr,), expr.span)

    # ------------------------------------------------------------------
    # L-values

    def eval_lvalue(self, expr):
        if isinstance(expr, ast.Name):
            variable = self.env.lookup(expr.id)
            if variable is not None:
                return variable.lvalue
            slot = self.env.lookup_signal(expr.id)
            if slot is not None and slot.lvalue is not None:
                return slot.lvalue
            raise EvalError("undeclared identifier %r" % expr.id, expr.span)
        if isinstance(expr, ast.Index):
            index = self.eval_scalar(expr.index)
            base_type = self.type_of(expr.base)
            if isinstance(base_type, PointerType):
                address = self.eval_scalar(expr.base)
                self.env.count("mem")
                return LValue(self.env.space,
                              address + index * base_type.target.size,
                              base_type.target)
            base = self.eval_lvalue(expr.base)
            self.env.count("mem")
            return base.element(index)
        if isinstance(expr, ast.Member):
            if expr.arrow:
                address = self.eval_scalar(expr.base)
                base_type = self.type_of(expr.base)
                target = base_type.target
                if not isinstance(target, (StructType, UnionType)):
                    raise EvalError("'->' target is not an aggregate",
                                    expr.span)
                member = target.field_named(expr.name)
                return LValue(self.env.space, address + member.offset,
                              member.type)
            base = self.eval_lvalue(expr.base)
            return base.field(expr.name)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            address = self.eval_scalar(expr.operand)
            pointer = self.type_of(expr.operand)
            if not isinstance(pointer, PointerType):
                raise EvalError("dereferencing non-pointer", expr.span)
            self.env.count("mem")
            return LValue(self.env.space, address, pointer.target)
        raise EvalError("expression is not an l-value", expr.span)

    # ------------------------------------------------------------------
    # R-values

    def eval(self, expr):
        """Evaluate to an int (scalar) or bytes (aggregate)."""
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.StrLit):
            raise EvalError("string values are not supported at runtime",
                            expr.span)
        if isinstance(expr, ast.Name):
            variable = self.env.lookup(expr.id)
            if variable is not None:
                self.env.count("mem")
                if isinstance(variable.type, ArrayType):
                    return variable.lvalue.address  # array decay
                return variable.load()
            slot = self.env.lookup_signal(expr.id)
            if slot is not None:
                self.env.count("mem")
                return slot.load()
            raise EvalError("undeclared identifier %r" % expr.id, expr.span)
        if isinstance(expr, ast.Unary):
            return self._eval_unary(expr)
        if isinstance(expr, ast.IncDec):
            return self._eval_incdec(expr)
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr)
        if isinstance(expr, ast.Assign):
            return self._eval_assign(expr)
        if isinstance(expr, ast.Cond):
            self.env.count("branch")
            if self.eval_bool(expr.cond):
                return self.eval(expr.then)
            return self.eval(expr.otherwise)
        if isinstance(expr, ast.Call):
            return self.call(expr.func, [self.eval_arg(a) for a in expr.args],
                             span=expr.span)
        if isinstance(expr, (ast.Index, ast.Member)):
            lvalue = self.eval_lvalue(expr)
            if isinstance(lvalue.type, ArrayType):
                return lvalue.address
            return lvalue.load()
        if isinstance(expr, ast.Cast):
            return self._eval_cast(expr)
        if isinstance(expr, ast.SizeofType):
            return expr.type.size
        if isinstance(expr, ast.SizeofExpr):
            return self.type_of(expr.operand).size
        raise EvalError("cannot evaluate expression %r" % (expr,), expr.span)

    def eval_arg(self, expr):
        """Evaluate a call argument; arrays decay to their address."""
        arg_type = self.type_of(expr)
        if isinstance(arg_type, ArrayType):
            return self.eval_lvalue(expr).address
        return self.eval(expr)

    def eval_scalar(self, expr):
        value = self.eval(expr)
        if not isinstance(value, int):
            raise EvalError("expected a scalar value", expr.span)
        return value

    def eval_bool(self, expr):
        return self.eval_scalar(expr) != 0

    def _eval_unary(self, expr):
        if expr.op == "&":
            return self.eval_lvalue(expr.operand).address
        if expr.op == "*":
            return self.eval_lvalue(expr).load()
        if expr.op == "!":
            self.env.count("alu")
            return 0 if self.eval_bool(expr.operand) else 1
        operand = self.eval_scalar(expr.operand)
        operand_type = self.type_of(expr.operand)
        self.env.count("alu")
        if expr.op == "-":
            return _wrap(-operand, _promote(operand_type))
        if expr.op == "+":
            return operand
        if expr.op == "~":
            # ~ on bool is logical negation (Fig. 3; README, "Semantics
            # and deviations").
            if isinstance(operand_type, BoolType):
                return 0 if operand else 1
            return _wrap(~operand, _promote(operand_type))
        raise EvalError("unknown unary operator %r" % expr.op, expr.span)

    def _eval_incdec(self, expr):
        lvalue = self.eval_lvalue(expr.target)
        old = lvalue.load()
        step = 1 if expr.op == "++" else -1
        if isinstance(lvalue.type, PointerType):
            step *= lvalue.type.target.size
        new = _wrap(old + step, lvalue.type)
        lvalue.store(new)
        self.env.count("alu")
        self.env.count("mem")
        return old if expr.postfix else new

    def _eval_binary(self, expr):
        op = expr.op
        if op == "&&":
            self.env.count("branch")
            return 1 if (self.eval_bool(expr.left) and
                         self.eval_bool(expr.right)) else 0
        if op == "||":
            self.env.count("branch")
            return 1 if (self.eval_bool(expr.left) or
                         self.eval_bool(expr.right)) else 0
        if op == ",":
            self.eval(expr.left)
            return self.eval(expr.right)
        left = self.eval_scalar(expr.left)
        right = self.eval_scalar(expr.right)
        left_type = self.type_of(expr.left)
        right_type = self.type_of(expr.right)
        self.env.count("alu")
        # Pointer arithmetic.
        if isinstance(left_type, ArrayType):
            left_type = PointerType(left_type.element)
        if isinstance(right_type, ArrayType):
            right_type = PointerType(right_type.element)
        if isinstance(left_type, PointerType) and op in ("+", "-"):
            if isinstance(right_type, PointerType) and op == "-":
                return (left - right) // left_type.target.size
            return left + (right if op == "+" else -right) * left_type.target.size
        if isinstance(right_type, PointerType) and op == "+":
            return right + left * right_type.target.size
        if op in _COMPARE_OPS:
            return 1 if _COMPARE_OPS[op](left, right) else 0
        if op in _ARITH_OPS:
            result_type = self.type_of(expr)
            if op in ("<<", ">>") and isinstance(left_type, IntType) \
                    and not left_type.signed and left < 0:
                left &= (1 << (8 * left_type.size)) - 1
            return _wrap(_ARITH_OPS[op](left, right), result_type)
        raise EvalError("unknown binary operator %r" % op, expr.span)

    def _eval_assign(self, expr):
        lvalue = self.eval_lvalue(expr.target)
        if expr.op == "=":
            if lvalue.type.is_scalar():
                value = _wrap(self.eval_scalar(expr.value), lvalue.type)
            else:
                value = self.eval(expr.value)
                if isinstance(value, int):
                    raise EvalError(
                        "cannot assign scalar to aggregate", expr.span)
            lvalue.store(value)
            self.env.count("mem")
            return value
        # Compound assignment a op= b  ==  a = a op b on scalars.
        op = expr.op[:-1]
        left = lvalue.load()
        right = self.eval_scalar(expr.value)
        self.env.count("alu")
        self.env.count("mem")
        if isinstance(lvalue.type, PointerType) and op in ("+", "-"):
            delta = right * lvalue.type.target.size
            result = left + delta if op == "+" else left - delta
        elif op in _ARITH_OPS:
            result = _wrap(_ARITH_OPS[op](left, right), lvalue.type)
        else:
            raise EvalError("unknown compound assignment %r" % expr.op,
                            expr.span)
        lvalue.store(result)
        return result

    def _eval_cast(self, expr):
        target = expr.type
        operand_type = self.type_of(expr.operand)
        # Aggregate -> integer: reinterpret leading bytes (README,
        # "Semantics and deviations").
        if operand_type.is_aggregate() and target.is_scalar() \
                and not isinstance(target, PointerType):
            lvalue = self.eval_lvalue(expr.operand)
            raw = lvalue.space.read_bytes(lvalue.address, target.size)
            self.env.count("mem")
            return decode_scalar(raw, target)
        value = self.eval(expr.operand)
        if isinstance(value, int) and target.is_scalar():
            return _wrap(value, target)
        if target.is_aggregate() and isinstance(value, (bytes, bytearray)):
            return bytes(value)
        raise EvalError("unsupported cast to %s" % target, expr.span)

    # ------------------------------------------------------------------
    # Calls

    def call(self, name, args, span=None):
        function = self.env.functions.get(name)
        if function is None:
            raise EvalError("call to unknown function %r" % name, span)
        self.env.count("call")
        if isinstance(function, BuiltinFunction):
            return function(self.env, args)
        return call_function(self.env, function, args)

    # ------------------------------------------------------------------
    # Data statements

    def exec_stmt(self, stmt):
        """Execute one *data* statement (reactive ones are a bug here)."""
        if isinstance(stmt, ast.Block):
            self.env.push_scope()
            try:
                for child in stmt.body:
                    self.exec_stmt(child)
            finally:
                self.env.pop_scope()
        elif isinstance(stmt, ast.ExprStmt):
            self.eval(stmt.expr)
        elif isinstance(stmt, ast.VarDecl):
            variable = self.env.declare(stmt.name, stmt.type)
            if stmt.init is not None:
                if variable.type.is_scalar():
                    variable.store(_wrap(self.eval_scalar(stmt.init),
                                         variable.type))
                else:
                    variable.store(self.eval(stmt.init))
        elif isinstance(stmt, ast.If):
            self.env.count("branch")
            if self.eval_bool(stmt.cond):
                self.exec_stmt(stmt.then)
            elif stmt.otherwise is not None:
                self.exec_stmt(stmt.otherwise)
        elif isinstance(stmt, ast.While):
            while True:
                self.env.count("branch")
                if not self.eval_bool(stmt.cond):
                    break
                try:
                    self.exec_stmt(stmt.body)
                except BreakUnwind:
                    break
                except ContinueUnwind:
                    continue
        elif isinstance(stmt, ast.DoWhile):
            while True:
                try:
                    self.exec_stmt(stmt.body)
                except BreakUnwind:
                    break
                except ContinueUnwind:
                    pass
                self.env.count("branch")
                if not self.eval_bool(stmt.cond):
                    break
        elif isinstance(stmt, ast.For):
            self.env.push_scope()
            try:
                if stmt.init is not None:
                    self.exec_stmt(stmt.init)
                while True:
                    if stmt.cond is not None:
                        self.env.count("branch")
                        if not self.eval_bool(stmt.cond):
                            break
                    try:
                        self.exec_stmt(stmt.body)
                    except BreakUnwind:
                        break
                    except ContinueUnwind:
                        pass
                    if stmt.step is not None:
                        self.eval(stmt.step)
            finally:
                self.env.pop_scope()
        elif isinstance(stmt, ast.Break):
            raise BreakUnwind()
        elif isinstance(stmt, ast.Continue):
            raise ContinueUnwind()
        elif isinstance(stmt, ast.Return):
            value = None if stmt.value is None else self.eval(stmt.value)
            raise ReturnUnwind(value)
        else:
            raise EvalError(
                "reactive statement %s reached the data evaluator "
                "(splitter bug?)" % type(stmt).__name__, stmt.span)


class BuiltinFunction:
    """A host-provided C-callable (used by test benches and glue code)."""

    def __init__(self, name, return_type, func):
        self.name = name
        self.return_type = return_type
        self._func = func

    def __call__(self, env, args):
        return self._func(*args)


def call_function(env, funcdef, args):
    """Interpret a plain C function with a fresh scope frame."""
    if len(args) != len(funcdef.params):
        raise EvalError(
            "function %s expects %d arguments, got %d"
            % (funcdef.name, len(funcdef.params), len(args)))
    evaluator = Evaluator(env)
    saved_scopes = env._scopes
    env._scopes = [env._scopes[0], {}]  # file scope + fresh frame
    try:
        for param, value in zip(funcdef.params, args):
            variable = env.declare(param.name, param.type)
            variable.store(
                _wrap(value, param.type) if param.type.is_scalar() else value)
        try:
            evaluator.exec_stmt(funcdef.body)
        except ReturnUnwind as unwound:
            if unwound.value is None:
                return None
            if funcdef.return_type.is_scalar():
                return _wrap(unwound.value, funcdef.return_type)
            return unwound.value
        if funcdef.return_type is not VOID:
            return 0
        return None
    finally:
        env._scopes = saved_scopes


def _wrap(value, ctype):
    """Reduce an int to the representable range of ``ctype``."""
    if isinstance(value, (bytes, bytearray)):
        return value
    if isinstance(ctype, (IntType, BoolType)):
        return ctype.wrap(value)
    if isinstance(ctype, PointerType):
        return value & ((1 << (8 * ctype.size)) - 1)
    return value
