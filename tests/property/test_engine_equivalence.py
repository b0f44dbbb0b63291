"""Property-based cross-validation of the two execution engines.

The central invariant of the reproduction (README, "Semantics and
deviations"): for any input trace, the compiled EFSM behaves exactly
like the reference kernel interpreter — and optimization must not
change that.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import compare_on_trace
from repro.codegen.py_backend import EfsmReactor
from repro.efsm.optimize import optimize
from repro.pipeline import Pipeline

MODULES = {
    "debounce": """
module m (input pure tick, input pure button, output pure press)
{
    while (1) {
        await (button);
        do {
            await (tick);
            await (tick);
            present (button) { emit (press); }
        } abort (~button);
    }
}
""",
    "counter_guard": """
module m (input pure tick, input pure button, output pure press)
{
    int n;
    n = 0;
    while (1) {
        await (tick | button);
        present (button) { n = 0; } else { n = n + 1; }
        if (n >= 3) {
            emit (press);
            n = 0;
        }
    }
}
""",
    "preemption_nest": """
module m (input pure tick, input pure button, output pure press)
{
    while (1) {
        do {
            par {
                { await (tick); await (tick); emit (press); }
                do { halt (); } abort (tick);
            }
        } suspend (button);
        await ();
    }
}
""",
    "valued_pipeline": """
module m (input pure tick, input pure button, output int press)
{
    int acc;
    acc = 0;
    while (1) {
        await (tick);
        acc = acc * 2 + 1;
        present (button) { emit_v (press, acc); acc = 0; }
    }
}
""",
}


def trace_strategy():
    instant = st.builds(
        lambda tick, button: {name: None for name, present in
                              [("tick", tick), ("button", button)]
                              if present},
        st.booleans(), st.booleans())
    return st.lists(instant, min_size=1, max_size=30)


@pytest.fixture(scope="module")
def compiled():
    designs = {}
    for name, source in MODULES.items():
        module = Pipeline().compile_text(source).module("m")
        designs[name] = (module.kernel(), module.efsm(optimized=False),
                         optimize(module.efsm(optimized=False)))
    return designs


@pytest.mark.parametrize("name", sorted(MODULES))
class TestEngineEquivalence:
    @given(trace=trace_strategy())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_interpreter_matches_raw_efsm(self, compiled, name, trace):
        kernel, raw, _optimized = compiled[name]
        assert compare_on_trace(kernel, raw, trace) is None

    @given(trace=trace_strategy())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_interpreter_matches_optimized_efsm(self, compiled, name,
                                                trace):
        kernel, _raw, optimized = compiled[name]
        assert compare_on_trace(kernel, optimized, trace) is None

    @given(trace=trace_strategy())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_efsm_state_stays_in_range(self, compiled, name, trace):
        _kernel, raw, _optimized = compiled[name]
        reactor = EfsmReactor(raw)
        for step in trace:
            reactor.react(inputs=[n for n in step])
            if reactor.terminated:
                break
            assert 0 <= reactor.state < raw.state_count
