"""Implementation verification: cross-engine trace equivalence.

The paper claims "implementation verification" as one of the FSM-level
payoffs.  In this reproduction the kernel interpreter is the semantic
reference (DESIGN.md §7); this module checks that a compiled engine
produces identical observable behaviour on input traces — used by the
integration and property-based tests and available to users as a
sanity check after optimization.

Both sides are selectable by engine name (any engine tagged ``step``
in :mod:`repro.engines`: ``interp``, ``efsm`` or ``native``), so
legacy observer/equivalence checks run at native-engine speed:
``compare_on_trace(kernel, efsm, trace, engine="native")`` checks the
closure-compiled reactions against the interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engines import get_engine


@dataclass
class TraceMismatch:
    """First divergence between the two engines."""

    instant: int
    inputs: dict
    interp_emitted: set
    efsm_emitted: set
    interp_values: dict
    efsm_values: dict
    reference: str = "interp"
    engine: str = "efsm"

    def describe(self):
        return ("instant %d (inputs %r): %s emitted %s %r, "
                "%s emitted %s %r"
                % (self.instant, self.inputs,
                   self.reference,
                   sorted(self.interp_emitted), self.interp_values,
                   self.engine,
                   sorted(self.efsm_emitted), self.efsm_values))


def compare_on_trace(kernel_module, efsm, trace, builtins=None,
                     engine="efsm", reference="interp"):
    """Run two engines over ``trace`` and report the first mismatch.

    ``trace`` is a list of instants; each instant is a dict mapping
    input signal names to ``None`` (pure event) or a value.  ``engine``
    and ``reference`` name the two sides (any of ``interp``, ``efsm``,
    ``native``).  Returns ``None`` on full agreement.
    """
    left = get_engine(reference).bind(kernel_module, efsm, builtins=builtins)
    right = get_engine(engine).bind(kernel_module, efsm, builtins=builtins)
    for instant, step in enumerate(trace):
        pure = [name for name, value in step.items() if value is None]
        valued = {name: value for name, value in step.items()
                  if value is not None}
        out_left = left.react(inputs=pure, values=valued)
        out_right = right.react(inputs=pure, values=valued)
        if out_left.emitted != out_right.emitted or \
                out_left.values != out_right.values or \
                out_left.terminated != out_right.terminated:
            return TraceMismatch(
                instant=instant,
                inputs=step,
                interp_emitted=out_left.emitted,
                efsm_emitted=out_right.emitted,
                interp_values=out_left.values,
                efsm_values=out_right.values,
                reference=reference,
                engine=engine,
            )
        if out_left.terminated:
            break
    return None


def assert_equivalent_on_trace(kernel_module, efsm, trace, builtins=None,
                               engine="efsm", reference="interp"):
    """Raise AssertionError with a readable message on divergence."""
    mismatch = compare_on_trace(kernel_module, efsm, trace,
                                builtins=builtins, engine=engine,
                                reference=reference)
    if mismatch is not None:
        raise AssertionError("engines diverge: " + mismatch.describe())
