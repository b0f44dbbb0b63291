"""The Esterel kernel intermediate representation.

The ECL translator (:mod:`repro.ecl.translate`) lowers a module body into
this small statement algebra; the interpreter
(:mod:`repro.esterel.interp`) and the EFSM builder
(:mod:`repro.efsm.build`) both run it, sharing one structural-operational
semantics (:mod:`repro.esterel.react`).

Statements are frozen, hashable dataclasses.  *Residues* — the
continuation of a statement across an instant boundary — are expressed in
the same algebra (plus three ``*Active`` wrappers), so an EFSM control
state is simply a canonical kernel term.

Completion codes follow Berry's encoding:

====  ==========================================
0     terminated
1     paused (an instant boundary was reached)
k+2   ``exit`` of the trap ``k`` levels up
====  ==========================================

Design notes (deviations: README, "Semantics and deviations"):

* ``Await``/``Abort``/``Suspend`` conditions are *signal expressions*
  (:class:`repro.lang.ast.SigExpr`) over presence bits.
* Local signals are hoisted and alpha-renamed by the translator, so the
  kernel has no signal-declaration statement (and hence no schizophrenic
  reincarnation; the paper's examples declare signals at module top).
* ``Halt`` is first class rather than ``loop pause end`` so the runtime
  can tell "sleep forever" from the ``await()`` delta cycle, which must
  re-trigger the module (paper, footnote 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..lang import ast


@dataclass(frozen=True)
class KStmt(ast.Term):
    """Base class of kernel statements."""

    def is_residue(self):
        """True for mid-execution wrappers (never produced by translation)."""
        return False


@dataclass(frozen=True)
class Nothing(KStmt):
    """No-op; terminates instantly."""


#: Shared singleton for the common case.
NOTHING = Nothing()


@dataclass(frozen=True)
class Pause(KStmt):
    """End the current instant; resume at the next one.

    ``delta=True`` marks pauses produced by ECL's ``await()`` — the module
    must be re-triggered by the scheduler even with no input event.
    """

    delta: bool = False


@dataclass(frozen=True)
class Halt(KStmt):
    """Stop forever (until pre-empted from outside)."""


@dataclass(frozen=True)
class Emit(KStmt):
    """Emit ``signal``; ``value`` (an AST expression) is evaluated at emit
    time for ``emit_v``."""

    signal: str = ""
    value: Optional[ast.Expr] = None


@dataclass(frozen=True)
class Action(KStmt):
    """An atomic data statement (assignment, data-function call, ...),
    executed by the C evaluator.  Zero time."""

    stmt: ast.Stmt = None


@dataclass(frozen=True)
class IfData(KStmt):
    """Branch on a C expression over variables/signal values."""

    cond: ast.Expr = None
    then: KStmt = NOTHING
    otherwise: KStmt = NOTHING


@dataclass(frozen=True)
class Present(KStmt):
    """Branch on a signal presence expression."""

    cond: ast.SigExpr = None
    then: KStmt = NOTHING
    otherwise: KStmt = NOTHING


@dataclass(frozen=True)
class Seq(KStmt):
    stmts: Tuple[KStmt, ...] = ()


@dataclass(frozen=True)
class Loop(KStmt):
    body: KStmt = NOTHING


@dataclass(frozen=True)
class Par(KStmt):
    branches: Tuple[KStmt, ...] = ()


@dataclass(frozen=True)
class Trap(KStmt):
    """Catch ``Exit(0)`` thrown inside ``body`` (de Bruijn indexing)."""

    body: KStmt = NOTHING


@dataclass(frozen=True)
class Exit(KStmt):
    """Exit the trap ``depth`` levels up (0 = innermost)."""

    depth: int = 0


@dataclass(frozen=True)
class Await(KStmt):
    """Wait (non-immediately) for a signal expression (paper, stmt 2)."""

    cond: ast.SigExpr = None


@dataclass(frozen=True)
class Abort(KStmt):
    """``do body abort(cond) [handle handler]``; non-immediate, i.e. the
    condition is tested from the second instant on (paper, stmt 5)."""

    body: KStmt = NOTHING
    cond: ast.SigExpr = None
    handler: Optional[KStmt] = None
    weak: bool = False


@dataclass(frozen=True)
class Suspend(KStmt):
    """``do body suspend(cond)``; freezes the body in instants where the
    condition holds (after the first instant)."""

    body: KStmt = NOTHING
    cond: ast.SigExpr = None


# ----------------------------------------------------------------------
# Residue wrappers: a started statement carried across an instant.


@dataclass(frozen=True)
class AwaitActive(KStmt):
    """An Await past its first instant boundary: now watching."""

    cond: ast.SigExpr = None

    def is_residue(self):
        return True


@dataclass(frozen=True)
class AbortActive(KStmt):
    """A started Abort: the condition is live from now on."""

    body: KStmt = NOTHING
    cond: ast.SigExpr = None
    handler: Optional[KStmt] = None
    weak: bool = False

    def is_residue(self):
        return True


@dataclass(frozen=True)
class SuspendActive(KStmt):
    """A started Suspend: the condition is live from now on."""

    body: KStmt = NOTHING
    cond: ast.SigExpr = None

    def is_residue(self):
        return True


@dataclass(frozen=True)
class ParActive(KStmt):
    """A started Par; terminated branches are replaced by ``None``."""

    branches: Tuple[Optional[KStmt], ...] = ()

    def is_residue(self):
        return True


ast.memoize_hashes(KStmt)


# ----------------------------------------------------------------------
# Constructors that keep terms canonical


def seq(*stmts):
    """Build a flattened Seq, dropping Nothing and collapsing singletons."""
    flat = []
    for stmt in stmts:
        if isinstance(stmt, Seq):
            flat.extend(stmt.stmts)
        elif isinstance(stmt, Nothing):
            continue
        elif stmt is not None:
            flat.append(stmt)
    if not flat:
        return NOTHING
    if len(flat) == 1:
        return flat[0]
    return Seq(tuple(flat))


def par(*branches):
    flat = [b for b in branches if b is not None]
    if not flat:
        return NOTHING
    if len(flat) == 1:
        return flat[0]
    return Par(tuple(flat))


# ----------------------------------------------------------------------
# Structural queries


def may_pause(stmt):
    """Can ``stmt`` consume an instant on some path?  Used to reject
    obviously-instantaneous reactive loops at translation time."""
    if isinstance(stmt, (Pause, Halt, Await, AwaitActive)):
        return True
    if isinstance(stmt, (Nothing, Emit, Action, Exit)):
        return False
    if isinstance(stmt, (IfData, Present)):
        return may_pause(stmt.then) or may_pause(stmt.otherwise)
    if isinstance(stmt, Seq):
        return any(may_pause(s) for s in stmt.stmts)
    if isinstance(stmt, Loop):
        return may_pause(stmt.body)
    if isinstance(stmt, (Par, ParActive)):
        branches = getattr(stmt, "branches")
        return any(may_pause(b) for b in branches if b is not None)
    if isinstance(stmt, Trap):
        return may_pause(stmt.body)
    if isinstance(stmt, (Abort, AbortActive, Suspend, SuspendActive)):
        result = may_pause(stmt.body)
        handler = getattr(stmt, "handler", None)
        if handler is not None:
            result = result or may_pause(handler)
        return result
    raise TypeError("unknown kernel statement %r" % (stmt,))


def must_terminate_instantly(stmt):
    """Does every path through ``stmt`` terminate without pausing or
    exiting?  (Conservative; used for instantaneous-loop detection.)"""
    if isinstance(stmt, (Nothing, Emit, Action)):
        return True
    if isinstance(stmt, (Pause, Halt, Await, AwaitActive, Exit)):
        return False
    if isinstance(stmt, (IfData, Present)):
        return must_terminate_instantly(stmt.then) and \
            must_terminate_instantly(stmt.otherwise)
    if isinstance(stmt, Seq):
        return all(must_terminate_instantly(s) for s in stmt.stmts)
    if isinstance(stmt, Loop):
        return False  # loops never terminate by themselves
    if isinstance(stmt, (Par, ParActive)):
        return all(must_terminate_instantly(b) for b in stmt.branches
                   if b is not None)
    if isinstance(stmt, Trap):
        return must_terminate_instantly(stmt.body)
    if isinstance(stmt, (Abort, AbortActive, Suspend, SuspendActive)):
        return must_terminate_instantly(stmt.body)
    raise TypeError("unknown kernel statement %r" % (stmt,))


def emitted_signals(stmt):
    """Signal names ``stmt`` may emit."""
    names = set()
    _visit_kernel(stmt, lambda node: names.add(node.signal)
                  if isinstance(node, Emit) else None)
    return names


def tested_signals(stmt):
    """Signal names whose presence ``stmt`` may test."""
    names = set()

    def collect(node):
        cond = getattr(node, "cond", None)
        if isinstance(cond, ast.SigExpr):
            names.update(cond.signal_names())

    _visit_kernel(stmt, collect)
    return names


def _visit_kernel(stmt, callback):
    if stmt is None:
        return
    callback(stmt)
    for attr in ("then", "otherwise", "body", "handler"):
        child = getattr(stmt, attr, None)
        if isinstance(child, KStmt):
            _visit_kernel(child, callback)
    for attr in ("stmts", "branches"):
        children = getattr(stmt, attr, None)
        if children:
            for child in children:
                if isinstance(child, KStmt):
                    _visit_kernel(child, callback)


def schedule_branches(branches):
    """Order parallel branches so emitters run before testers.

    This is the causality-based scheduling the Esterel compiler performs:
    if branch ``j`` emits a signal branch ``i`` tests, ``j`` should run
    first within the instant, so that by the time ``i``'s test executes
    the signal's status is already justified.  A stable topological order
    is used (original order is kept among unconstrained branches);
    genuine cycles are left in source order and handled by the
    assumption/fixed-point machinery downstream.
    """
    n = len(branches)
    emits = [emitted_signals(b) for b in branches]
    tests = [tested_signals(b) for b in branches]
    # edge j -> i  when j emits something i tests (j must precede i)
    predecessors = [set() for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and emits[j] & tests[i]:
                predecessors[i].add(j)
    order = []
    placed = set()
    while len(order) < n:
        progress = False
        for i in range(n):
            if i in placed:
                continue
            if predecessors[i] <= placed:
                order.append(i)
                placed.add(i)
                progress = True
        if not progress:
            # Causality cycle between branches: keep source order for the
            # remainder; the downstream validity check decides.
            for i in range(n):
                if i not in placed:
                    order.append(i)
                    placed.add(i)
    return tuple(branches[i] for i in order)


def signals_used(stmt):
    """All signal names a kernel term emits or tests."""
    names = set()

    def visit(node):
        if node is None:
            return
        if isinstance(node, Emit):
            names.add(node.signal)
        for attr in ("cond",):
            cond = getattr(node, attr, None)
            if isinstance(cond, ast.SigExpr):
                names.update(cond.signal_names())
        for attr in ("then", "otherwise", "body", "handler"):
            child = getattr(node, attr, None)
            if isinstance(child, KStmt):
                visit(child)
        for attr in ("stmts", "branches"):
            children = getattr(node, attr, None)
            if children:
                for child in children:
                    if isinstance(child, KStmt):
                        visit(child)

    visit(stmt)
    return names
