"""Concrete execution of kernel programs: one instant at a time.

This is the reference semantics of the reproduction (README, "Semantics
and deviations"): the EFSM path is cross-checked against it.  A reaction
resolves signal presence by iterating to a fixed point of *presence
assumptions*:

1. run the instant assuming every not-yet-justified non-input signal is
   absent, recording every assumption actually consulted and every
   emission performed;
2. if some consulted assumption disagrees with what was emitted, restore
   the memory snapshot, fold the observed emissions into the assumption
   table, and re-run;
3. a run whose assumptions all match its emissions is the reaction.

Programs with no self-consistent assignment raise
:class:`~repro.errors.CausalityError` (the iteration either stops making
progress or exceeds its round budget).  Signal *values* follow program
order: a reader that runs before the writer in the final round sees the
previous instant's value (the paper's shared-signal rule; README,
"Semantics and deviations").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Set

from ..errors import CausalityError, EvalError
from ..runtime.ceval import Evaluator
from . import kernel as k
from .react import ReactContext, react


@dataclass
class ReactionResult:
    """Outcome of one instant."""

    code: int                  # 0 terminated, 1 paused (k+2 cannot escape)
    residue: k.KStmt
    emitted: Set[str] = field(default_factory=set)
    delta_requested: bool = False  # an await() pause wants a re-trigger
    rounds: int = 1            # fixed-point iterations used

    @property
    def terminated(self):
        return self.code == 0


class ConcreteContext(ReactContext):
    """ReactContext that executes data code for real."""

    def __init__(self, evaluator, signals, belief):
        self.evaluator = evaluator
        self.signals = signals
        self.belief = belief       # name -> assumed presence (non-inputs)
        self.assumed = {}          # assumptions actually consulted
        self.emitted = set()
        self.delta = False

    def signal_status(self, name):
        slot = self.signals.get(name)
        if slot is None:
            raise EvalError("presence test of unknown signal %r" % name)
        if slot.direction == "input":
            return slot.present
        if name in self.emitted:
            return True  # already justified this round
        value = self.belief.get(name, False)
        self.assumed[name] = value
        return value

    def data_test(self, expr):
        return self.evaluator.eval_bool(expr)

    def emit(self, name, value_expr):
        slot = self.signals.get(name)
        if slot is None:
            raise EvalError("emission of unknown signal %r" % name)
        if slot.direction == "input":
            raise EvalError("cannot emit input signal %r" % name)
        value = None
        if value_expr is not None:
            if slot.is_pure:
                raise EvalError(
                    "emit_v on pure signal %r (it carries no value)" % name)
            value = self.evaluator.eval(value_expr)
        elif not slot.is_pure:
            raise EvalError(
                "emit on valued signal %r requires emit_v" % name)
        slot.emit(value)
        self.emitted.add(name)

    def action(self, stmt):
        self.evaluator.exec_stmt(stmt)

    def delta_pause(self):
        self.delta = True


def run_instant(stmt, signals, env, max_rounds=None):
    """Execute one reaction of ``stmt``.

    ``signals`` is a :class:`~repro.runtime.signals.SignalTable` whose
    input slots have already been set for this instant; ``env`` is the
    module's C environment.  Returns a :class:`ReactionResult`; the
    signal table afterwards reflects the committed emissions.
    """
    evaluator = Evaluator(env)
    snapshot = env.space.snapshot()
    non_inputs = [s for s in signals if s.direction != "input"]
    if max_rounds is None:
        max_rounds = 2 * len(non_inputs) + 4
    belief = {}
    rounds = 0
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise CausalityError(
                "no consistent signal assignment after %d rounds "
                "(signals: %s)" % (rounds - 1,
                                   ", ".join(sorted(belief)) or "none"))
        env.space.restore(snapshot)
        for slot in non_inputs:
            slot.new_instant()
        ctx = ConcreteContext(evaluator, signals, belief)
        code, residue = react(stmt, ctx)
        consistent = all(
            assumed == (name in ctx.emitted)
            for name, assumed in ctx.assumed.items()
        )
        if consistent:
            return ReactionResult(
                code=code,
                residue=residue if code == 1 else k.NOTHING,
                emitted=ctx.emitted,
                delta_requested=ctx.delta,
                rounds=rounds,
            )
        updated = dict(belief)
        for name in ctx.assumed:
            updated[name] = name in ctx.emitted
        if updated == belief:
            raise CausalityError(
                "signal feedback has no fixed point (program is "
                "non-constructive): %s"
                % ", ".join(sorted(n for n, v in ctx.assumed.items()
                                   if v != (n in ctx.emitted))))
        belief = updated


class KernelRunner:
    """Drives a kernel statement over many instants (testing aid and the
    engine behind interpreter-backed reactors)."""

    def __init__(self, stmt, signals, env):
        self.initial = stmt
        self.residue = stmt
        self.signals = signals
        self.env = env
        self.terminated = False
        self.instant_count = 0

    def step(self, inputs=None, values=None):
        """Run one instant.

        ``inputs`` is an iterable of input-signal names present this
        instant; ``values`` maps valued input names to the value carried.
        Returns the :class:`ReactionResult`.
        """
        if self.terminated:
            return ReactionResult(code=0, residue=k.NOTHING)
        self.signals.new_instant()
        for name in inputs or ():
            slot = self.signals.get(name)
            if slot is None or slot.direction != "input":
                raise EvalError("unknown input signal %r" % name)
            slot.set_input()
        for name, value in (values or {}).items():
            slot = self.signals.get(name)
            if slot is None or slot.direction != "input":
                raise EvalError("unknown input signal %r" % name)
            slot.set_input(value)
        result = run_instant(self.residue, self.signals, self.env)
        self.instant_count += 1
        if result.terminated:
            self.terminated = True
            self.residue = k.NOTHING
        else:
            self.residue = result.residue
        return result

    def reset(self):
        self.residue = self.initial
        self.terminated = False
        self.instant_count = 0
