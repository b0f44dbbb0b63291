"""Abstract syntax tree for ECL programs.

The tree mirrors the language the paper defines: plain C declarations,
expressions and statements, plus the eight reactive constructs of Section
"ECL Statements" (``emit``/``emit_v``, ``await``, ``halt``, ``present``,
``abort``, ``weak_abort``, ``suspend``, ``par``) and the ``module``/
``signal`` declaration forms.

All nodes are frozen dataclasses so they can be hashed and shared; every
node carries a :class:`~repro.lang.source.Span`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .source import SYNTHETIC, Span


class Term:
    """Base of frozen syntax terms whose structural hash is memoized.

    Residue trees are hashed over and over (every EFSM state lookup),
    so :func:`memoize_hashes` makes each term keep its hash in the
    ``_hash`` slot after the first call.  The slot is not part of the
    pickled state: string hashes depend on the process's hash seed, so
    a memo carried into another process would break dict lookups.
    Being a slot, it also leaves instance ``__dict__`` key sharing alone.
    """

    __slots__ = ("_hash",)

    def __getstate__(self):
        return self.__dict__


def memoize_hashes(root):
    """Wrap the generated ``__hash__`` of every dataclass below ``root``
    so that each instance computes its hash once."""
    for cls in root.__subclasses__():
        generated = cls.__dict__.get("__hash__")
        if generated is not None:
            cls.__hash__ = _memoized(generated)
        memoize_hashes(cls)


def _memoized(generated):
    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            value = generated(self)
            object.__setattr__(self, "_hash", value)
            return value
    return __hash__


@dataclass(frozen=True)
class Node(Term):
    """Common base: every AST node has a source span."""

    span: Span = field(default=SYNTHETIC, compare=False, repr=False)


# ======================================================================
# Expressions


@dataclass(frozen=True)
class Expr(Node):
    pass


@dataclass(frozen=True)
class IntLit(Expr):
    value: int = 0


@dataclass(frozen=True)
class StrLit(Expr):
    value: str = ""


@dataclass(frozen=True)
class Name(Expr):
    """An identifier: variable, signal value, enum constant or function."""

    id: str = ""


@dataclass(frozen=True)
class Unary(Expr):
    """Prefix operator: one of ``- + ! ~ &``."""

    op: str = ""
    operand: Expr = None


@dataclass(frozen=True)
class IncDec(Expr):
    """``++``/``--``, prefix or postfix."""

    op: str = "++"
    target: Expr = None
    postfix: bool = True


@dataclass(frozen=True)
class Binary(Expr):
    op: str = ""
    left: Expr = None
    right: Expr = None


@dataclass(frozen=True)
class Assign(Expr):
    """Assignment, possibly compound (``op`` is ``=``, ``+=``, ...)."""

    op: str = "="
    target: Expr = None
    value: Expr = None


@dataclass(frozen=True)
class Cond(Expr):
    """The ternary ``c ? t : f``."""

    cond: Expr = None
    then: Expr = None
    otherwise: Expr = None


@dataclass(frozen=True)
class Call(Expr):
    """A function call; module instantiation shares this syntax (paper,
    ECL statement 9) and is resolved during translation."""

    func: str = ""
    args: Tuple[Expr, ...] = ()


@dataclass(frozen=True)
class Index(Expr):
    base: Expr = None
    index: Expr = None


@dataclass(frozen=True)
class Member(Expr):
    base: Expr = None
    name: str = ""
    arrow: bool = False


@dataclass(frozen=True)
class Cast(Expr):
    """``(type) expr``; ``type_name`` is resolved against the TypeTable."""

    type: object = None
    operand: Expr = None


@dataclass(frozen=True)
class SizeofType(Expr):
    type: object = None


@dataclass(frozen=True)
class SizeofExpr(Expr):
    operand: Expr = None


# ======================================================================
# Signal (presence) expressions — the restricted Boolean algebra allowed
# in await / present / abort / suspend conditions (paper, statement 2).


@dataclass(frozen=True)
class SigExpr(Node):
    def signal_names(self):
        """All signal names mentioned in this presence expression."""
        raise NotImplementedError


@dataclass(frozen=True)
class SigRef(SigExpr):
    name: str = ""

    def signal_names(self):
        return {self.name}


@dataclass(frozen=True)
class SigNot(SigExpr):
    operand: SigExpr = None

    def signal_names(self):
        return self.operand.signal_names()


@dataclass(frozen=True)
class SigAnd(SigExpr):
    left: SigExpr = None
    right: SigExpr = None

    def signal_names(self):
        return self.left.signal_names() | self.right.signal_names()


@dataclass(frozen=True)
class SigOr(SigExpr):
    left: SigExpr = None
    right: SigExpr = None

    def signal_names(self):
        return self.left.signal_names() | self.right.signal_names()


# ======================================================================
# Statements


@dataclass(frozen=True)
class Stmt(Node):
    pass


@dataclass(frozen=True)
class ExprStmt(Stmt):
    expr: Expr = None


@dataclass(frozen=True)
class VarDecl(Stmt):
    """A local variable declaration (one declarator; the parser splits
    comma-separated declarator lists into several VarDecls)."""

    name: str = ""
    type: object = None
    init: Optional[Expr] = None


@dataclass(frozen=True)
class SignalDecl(Stmt):
    """A local signal declaration inside a module body:
    ``signal pure kill_check;`` or ``signal packet_t packet;``."""

    name: str = ""
    type: object = None  # PURE for pure signals


@dataclass(frozen=True)
class Block(Stmt):
    body: Tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr = None
    then: Stmt = None
    otherwise: Optional[Stmt] = None


@dataclass(frozen=True)
class While(Stmt):
    cond: Expr = None
    body: Stmt = None


@dataclass(frozen=True)
class DoWhile(Stmt):
    body: Stmt = None
    cond: Expr = None


@dataclass(frozen=True)
class For(Stmt):
    init: Optional[Stmt] = None  # ExprStmt or VarDecl or None
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Stmt = None


@dataclass(frozen=True)
class Break(Stmt):
    pass


@dataclass(frozen=True)
class Continue(Stmt):
    pass


@dataclass(frozen=True)
class Return(Stmt):
    value: Optional[Expr] = None


# ----------------------------------------------------------------------
# Reactive statements (paper, Section "ECL Statements")


@dataclass(frozen=True)
class Emit(Stmt):
    """``emit(sig)`` or ``emit_v(sig, value)``."""

    signal: str = ""
    value: Optional[Expr] = None


@dataclass(frozen=True)
class Await(Stmt):
    """``await(sig_expr)``; ``await()`` — the delta-cycle form — has
    ``cond is None``."""

    cond: Optional[SigExpr] = None


@dataclass(frozen=True)
class Halt(Stmt):
    """``halt()``: stop until pre-empted."""


@dataclass(frozen=True)
class Present(Stmt):
    cond: SigExpr = None
    then: Stmt = None
    otherwise: Optional[Stmt] = None


@dataclass(frozen=True)
class Abort(Stmt):
    """``do body abort(cond) [handle handler]``; ``weak`` selects
    ``weak_abort``."""

    body: Stmt = None
    cond: SigExpr = None
    handler: Optional[Stmt] = None
    weak: bool = False


@dataclass(frozen=True)
class Suspend(Stmt):
    """``do body suspend(cond)``."""

    body: Stmt = None
    cond: SigExpr = None


@dataclass(frozen=True)
class Par(Stmt):
    """``par { s1; s2; ... }`` — synchronous parallel branches."""

    branches: Tuple[Stmt, ...] = ()


# ======================================================================
# Top-level declarations


@dataclass(frozen=True)
class SignalParam(Node):
    """One module signal parameter: direction, type (PURE if pure), name."""

    direction: str = "input"  # "input" | "output"
    name: str = ""
    type: object = None


@dataclass(frozen=True)
class FuncParam(Node):
    name: str = ""
    type: object = None


@dataclass(frozen=True)
class ModuleDecl(Node):
    """An ECL module: 'like a subroutine, but may take special parameters
    called signals' (paper, ECL Overview)."""

    name: str = ""
    signals: Tuple[SignalParam, ...] = ()
    body: Block = None


@dataclass(frozen=True)
class FuncDef(Node):
    """A plain C function definition (data-only; checked by the splitter)."""

    name: str = ""
    return_type: object = None
    params: Tuple[FuncParam, ...] = ()
    body: Block = None


@dataclass(frozen=True)
class TypedefDecl(Node):
    name: str = ""
    type: object = None


@dataclass(frozen=True)
class TagDecl(Node):
    """A struct/union definition appearing at file scope."""

    tag: str = ""
    type: object = None


@dataclass(frozen=True)
class Program(Node):
    """A parsed ECL translation unit."""

    items: Tuple[Node, ...] = ()

    def modules(self):
        return [item for item in self.items if isinstance(item, ModuleDecl)]

    def functions(self):
        return [item for item in self.items if isinstance(item, FuncDef)]

    def module_named(self, name):
        for module in self.modules():
            if module.name == name:
                return module
        raise KeyError("no module named %r" % name)


# ======================================================================
# Traversal helpers

def children(node):
    """Yield the direct AST-node children of ``node`` (exprs and stmts)."""
    if node is None:
        return
    for name in node.__dataclass_fields__:
        if name == "span":
            continue
        value = getattr(node, name)
        if isinstance(value, Node):
            yield value
        elif isinstance(value, tuple):
            for item in value:
                if isinstance(item, Node):
                    yield item


def walk(node):
    """Depth-first pre-order traversal of the subtree rooted at ``node``."""
    stack = [node]
    while stack:
        current = stack.pop()
        if current is None:
            continue
        yield current
        stack.extend(reversed(list(children(current))))


def contains_reactive(node):
    """True if the subtree uses any reactive construct.

    This is the predicate the splitter's heuristics are built on: a loop
    with no reactive statement in it is a *data loop* (paper, Section 4).
    """
    reactive_types = (Emit, Await, Halt, Present, Abort, Suspend, Par,
                      SignalDecl)
    return any(isinstance(n, reactive_types) for n in walk(node))


def names_read(expr):
    """All identifier names appearing in an expression subtree."""
    return {n.id for n in walk(expr) if isinstance(n, Name)}


memoize_hashes(Node)
