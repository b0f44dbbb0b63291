"""FSM-level analysis (the paper's verification claims, S10).

* :mod:`repro.analysis.explore` — sound control-space exploration;
* :mod:`repro.analysis.properties` — safety checks and behavioural
  sinks;
* :mod:`repro.analysis.equivalence` — interpreter-vs-EFSM
  implementation verification.
"""

from .equivalence import (
    TraceMismatch,
    assert_equivalent_on_trace,
    compare_on_trace,
)
from .explore import Edge, explore, state_edges
from .observer import TraceCounterexample, verify_with_observer
from .properties import (
    Counterexample,
    check_emission_implies,
    check_never_emitted,
    check_never_terminates,
    possible_emissions,
    quiescent_states,
)

__all__ = [
    "TraceCounterexample",
    "TraceMismatch",
    "assert_equivalent_on_trace",
    "compare_on_trace",
    "Edge",
    "explore",
    "state_edges",
    "verify_with_observer",
    "Counterexample",
    "check_emission_implies",
    "check_never_emitted",
    "check_never_terminates",
    "possible_emissions",
    "quiescent_states",
]
