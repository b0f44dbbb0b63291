"""Property tests over randomly *generated* ECL modules.

A hypothesis strategy builds well-formed reactive modules (loops always
pause, only declared signals are referenced, single writer per parallel
signal).  For every generated module:

* printing and re-parsing is a fixed point (printer/parser agreement);
* the full pipeline (split, translate, EFSM) runs without internal
  errors;
* the compiled automaton matches the reference interpreter on random
  input traces — the reproduction's core invariant, exercised far from
  the hand-written designs.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import compare_on_trace
from repro.errors import EclError
from repro.lang import parse_text, to_text
from repro.pipeline import Pipeline

INPUTS = ["i0", "i1", "i2"]
OUTPUTS = ["o0", "o1"]


@st.composite
def reactive_statements(draw, outputs, depth):
    """One well-formed reactive statement using the fixed interface."""
    choices = ["emit", "await", "awaitdelta", "halt"]
    if depth > 0:
        choices += ["present", "abort", "suspend", "seq", "loop", "ifvar"]
    kind = draw(st.sampled_from(choices))
    if kind == "emit":
        return "emit (%s);" % draw(st.sampled_from(outputs))
    if kind == "await":
        return "await (%s);" % draw(_sig_expr(draw))
    if kind == "awaitdelta":
        return "await ();"
    if kind == "halt":
        return "halt ();"
    sub = reactive_statements(outputs, depth - 1)
    if kind == "present":
        then = draw(sub)
        otherwise = draw(sub)
        return "present (%s) { %s } else { %s }" % (
            draw(_sig_expr(draw)), then, otherwise)
    if kind == "abort":
        body = draw(sub)
        weak = draw(st.booleans())
        keyword = "weak_abort" if weak else "abort"
        return "do { %s } %s (%s);" % (body, keyword, draw(_sig_expr(draw)))
    if kind == "suspend":
        return "do { %s } suspend (%s);" % (draw(sub),
                                            draw(_sig_expr(draw)))
    if kind == "seq":
        return "%s %s" % (draw(sub), draw(sub))
    if kind == "loop":
        # Loops always pause: body ends with await so the translation
        # can never be instantaneous.
        return "while (1) { %s await (%s); }" % (
            draw(sub), draw(st.sampled_from(INPUTS)))
    if kind == "ifvar":
        return ("n = n + 1; if (n %% 3 == %d) { %s } else { %s }"
                % (draw(st.integers(0, 2)), draw(sub), draw(sub)))
    raise AssertionError(kind)


def _sig_expr(draw):
    atoms = st.sampled_from(INPUTS)
    return st.one_of(
        atoms,
        st.builds(lambda a: "~%s" % a, atoms),
        st.builds(lambda a, b: "%s & %s" % (a, b), atoms, atoms),
        st.builds(lambda a, b: "%s | %s" % (a, b), atoms, atoms),
    )


@st.composite
def module_sources(draw):
    body = draw(reactive_statements(OUTPUTS, depth=3))
    params = ", ".join(["input pure %s" % name for name in INPUTS]
                       + ["output pure %s" % name for name in OUTPUTS])
    return ("module gen (%s)\n{\n    int n;\n    n = 0;\n    %s\n}\n"
            % (params, body))


def trace_strategy():
    instant = st.sets(st.sampled_from(INPUTS), max_size=3)
    return st.lists(instant, min_size=1, max_size=16)


class TestGeneratedModules:
    @given(source=module_sources())
    @settings(max_examples=60, deadline=None)
    def test_print_parse_fixed_point(self, source):
        program, _ = parse_text(source)
        printed = to_text(program)
        reparsed, _ = parse_text(printed)
        assert to_text(reparsed) == printed

    @given(source=module_sources())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_pipeline_never_crashes_internally(self, source):
        try:
            module = Pipeline().compile_text(source).module("gen")
            module.check()
            module.efsm()
        except EclError:
            # Library-defined rejections (causality, state budget, ...)
            # are legitimate outcomes; anything else is a bug.
            pass

    @given(source=module_sources(), trace=trace_strategy())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_engines_agree_on_generated_module(self, source, trace):
        try:
            module = Pipeline().compile_text(source).module("gen")
            module.check()
            efsm = module.efsm()
        except EclError:
            return  # legitimately rejected program
        trace_dicts = [{name: None for name in instant}
                       for instant in trace]
        mismatch = compare_on_trace(module.kernel(), efsm, trace_dicts)
        assert mismatch is None, "\n%s\n%s" % (source,
                                               mismatch.describe())
