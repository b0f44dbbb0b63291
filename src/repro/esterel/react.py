"""Structural operational semantics of the Esterel kernel.

:func:`react` runs one statement for one instant against a
:class:`ReactContext` and returns ``(completion_code, residue)``.  The same
function drives both execution engines:

* the concrete interpreter (:mod:`repro.esterel.interp`) supplies a
  context that executes data actions against real memory and resolves
  presence via the per-instant fixed point;
* the EFSM builder (:mod:`repro.efsm.build`) supplies a context that
  *records* actions and forks on undetermined tests.

Completion codes: 0 terminate, 1 pause, k+2 exit of trap ``k`` levels up.
"""

from __future__ import annotations

from ..errors import InstantaneousLoopError
from ..lang import ast
from . import kernel as k


class ReactContext:
    """What the semantics needs from an execution engine."""

    def signal_status(self, name):
        """Presence of ``name`` in the current instant."""
        raise NotImplementedError

    def data_test(self, expr):
        """Truth of a C condition in the current micro-state."""
        raise NotImplementedError

    def emit(self, name, value_expr):
        """Perform/record an emission."""
        raise NotImplementedError

    def action(self, stmt):
        """Perform/record an atomic data statement."""
        raise NotImplementedError

    def delta_pause(self):
        """Note that a ``Pause(delta=True)`` was reached (paper fn. 3)."""


def eval_sig_expr(ctx, sig_expr):
    """Evaluate a presence expression through the context."""
    if isinstance(sig_expr, ast.SigRef):
        return ctx.signal_status(sig_expr.name)
    if isinstance(sig_expr, ast.SigNot):
        return not eval_sig_expr(ctx, sig_expr.operand)
    if isinstance(sig_expr, ast.SigAnd):
        # No short-circuit: both sides are resolved so that symbolic
        # exploration enumerates the same decisions on every path.
        left = eval_sig_expr(ctx, sig_expr.left)
        right = eval_sig_expr(ctx, sig_expr.right)
        return left and right
    if isinstance(sig_expr, ast.SigOr):
        left = eval_sig_expr(ctx, sig_expr.left)
        right = eval_sig_expr(ctx, sig_expr.right)
        return left or right
    raise TypeError("unknown signal expression %r" % (sig_expr,))


def react(stmt, ctx):
    """Run ``stmt`` for one instant; return ``(code, residue)``.

    The residue is only meaningful when ``code == 1``; by convention it is
    :data:`~repro.esterel.kernel.NOTHING` otherwise.  Dispatch is one
    lookup of ``type(stmt)`` in :data:`_REACT`.
    """
    handler = _REACT.get(type(stmt))
    if handler is None:
        raise TypeError("unknown kernel statement %r" % (stmt,))
    return handler(stmt, ctx)


def _react_nothing(stmt, ctx):
    return 0, k.NOTHING


def _react_pause(stmt, ctx):
    if stmt.delta:
        ctx.delta_pause()
    return 1, k.NOTHING


def _react_halt(stmt, ctx):
    return 1, stmt


def _react_emit(stmt, ctx):
    ctx.emit(stmt.signal, stmt.value)
    return 0, k.NOTHING


def _react_action(stmt, ctx):
    ctx.action(stmt.stmt)
    return 0, k.NOTHING


def _react_exit(stmt, ctx):
    return stmt.depth + 2, k.NOTHING


def _react_if_data(stmt, ctx):
    branch = stmt.then if ctx.data_test(stmt.cond) else stmt.otherwise
    return react(branch, ctx)


def _react_present(stmt, ctx):
    branch = stmt.then if eval_sig_expr(ctx, stmt.cond) else stmt.otherwise
    return react(branch, ctx)


def _react_await(stmt, ctx):
    # Non-immediate: the first instant always pauses.
    return 1, k.AwaitActive(stmt.cond)


def _react_await_active(stmt, ctx):
    if eval_sig_expr(ctx, stmt.cond):
        return 0, k.NOTHING
    return 1, stmt


def _react_abort(stmt, ctx):
    # First instant: the body runs unconditionally.
    return _arm_abort(react(stmt.body, ctx), stmt.cond, stmt.handler,
                      stmt.weak)


def _react_abort_active(stmt, ctx):
    if not stmt.weak and eval_sig_expr(ctx, stmt.cond):
        # Strong abort: the body does not run this instant; the
        # handler (if any) runs immediately.
        handler = stmt.handler if stmt.handler is not None else k.NOTHING
        return react(handler, ctx)
    code, residue = react(stmt.body, ctx)
    if stmt.weak and eval_sig_expr(ctx, stmt.cond):
        # Weak abort: the body ran for the last time this instant.
        if code == 1:
            handler = stmt.handler if stmt.handler is not None \
                else k.NOTHING
            return react(handler, ctx)
        return code, k.NOTHING
    return _arm_abort((code, residue), stmt.cond, stmt.handler, stmt.weak)


def _react_suspend(stmt, ctx):
    code, residue = react(stmt.body, ctx)
    if code == 1:
        return 1, k.SuspendActive(residue, stmt.cond)
    return code, k.NOTHING


def _react_suspend_active(stmt, ctx):
    if eval_sig_expr(ctx, stmt.cond):
        return 1, stmt  # frozen this instant
    return _react_suspend(stmt, ctx)


def _arm_abort(result, cond, handler, weak):
    code, residue = result
    if code == 1:
        return 1, k.AbortActive(residue, cond, handler, weak)
    return code, k.NOTHING


def _react_seq(seq, ctx):
    stmts = seq.stmts
    for index, stmt in enumerate(stmts):
        code, residue = react(stmt, ctx)
        if code == 0:
            continue
        if code == 1:
            rest = stmts[index + 1:]
            return 1, k.seq(residue, *rest)
        return code, k.NOTHING
    return 0, k.NOTHING


def _react_loop(loop, ctx):
    """Run a loop from its body.  (A resumed loop is ``seq(residue,
    loop)``.)  A body that terminates twice without consuming an instant
    is an instantaneous loop."""
    restarted = False
    while True:
        code, residue = react(loop.body, ctx)
        if code == 1:
            return 1, k.seq(residue, loop)
        if code != 0:
            return code, k.NOTHING
        if restarted:
            raise InstantaneousLoopError(
                "loop body terminates without passing an instant boundary; "
                "the Esterel compiler rejects such loops (extract the loop "
                "as a data function or add await())")
        restarted = True


def _react_par(par, ctx):
    """Run parallel branches left to right; combine with max-code."""
    codes = []
    residues = []
    for branch in par.branches:
        if branch is None:  # already terminated in an earlier instant
            codes.append(0)
            residues.append(None)
            continue
        code, residue = react(branch, ctx)
        codes.append(code)
        residues.append(residue if code == 1 else None)
    top = max(codes) if codes else 0
    if top == 1:
        return 1, k.ParActive(tuple(residues))
    # 0: all done; >=2: an exit kills every sibling at the instant's end.
    return top, k.NOTHING


def _react_trap(trap, ctx):
    code, residue = react(trap.body, ctx)
    if code == 1:
        return 1, k.Trap(residue)
    if code == 0 or code == 2:
        return 0, k.NOTHING
    return code - 1, k.NOTHING


_REACT = {
    k.Nothing: _react_nothing,
    k.Pause: _react_pause,
    k.Halt: _react_halt,
    k.Emit: _react_emit,
    k.Action: _react_action,
    k.Exit: _react_exit,
    k.IfData: _react_if_data,
    k.Present: _react_present,
    k.Seq: _react_seq,
    k.Loop: _react_loop,
    k.Await: _react_await,
    k.AwaitActive: _react_await_active,
    k.Par: _react_par,
    k.ParActive: _react_par,
    k.Trap: _react_trap,
    k.Abort: _react_abort,
    k.AbortActive: _react_abort_active,
    k.Suspend: _react_suspend,
    k.SuspendActive: _react_suspend_active,
}
