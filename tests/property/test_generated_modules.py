"""Property tests over randomly *generated* ECL modules.

A hypothesis strategy builds well-formed reactive modules (loops always
pause, only declared signals are referenced, single writer per parallel
signal).  A module is one thread over the inputs, or two parallel
threads that also talk through two local signals, so the EFSM builder
has assumptions to fork on.  For every generated module:

* printing and re-parsing is a fixed point (printer/parser agreement);
* the full pipeline (split, translate, EFSM) runs without internal
  errors;
* the compiled automaton matches the reference interpreter on random
  input traces — the reproduction's core invariant, exercised far from
  the hand-written designs;
* no symbolic run emits a signal outside its state's
  ``instant_emits`` set, the set the builder prunes assumptions with.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import compare_on_trace
from repro.efsm import build as efsm_build
from repro.errors import EclError
from repro.esterel import kernel as k
from repro.lang import parse_text, to_text
from repro.pipeline import Pipeline

INPUTS = ["i0", "i1", "i2"]
OUTPUTS = ["o0", "o1"]
LOCALS = ["l0", "l1"]
# About half the modules are single-threaded, half parallel: each
# shape gets about 60 examples.
EXAMPLES = 120


@st.composite
def reactive_statements(draw, outputs, tested, depth):
    """One well-formed reactive statement that emits only ``outputs``
    and tests only the signals in ``tested``."""
    choices = ["emit", "await", "awaitdelta", "halt"]
    if depth > 0:
        choices += ["present", "abort", "suspend", "seq", "loop", "ifvar"]
    kind = draw(st.sampled_from(choices))
    if kind == "emit":
        return "emit (%s);" % draw(st.sampled_from(outputs))
    if kind == "await":
        return "await (%s);" % draw(_sig_expr(tested))
    if kind == "awaitdelta":
        return "await ();"
    if kind == "halt":
        return "halt ();"
    sub = reactive_statements(outputs, tested, depth - 1)
    if kind == "present":
        then = draw(sub)
        otherwise = draw(sub)
        return "present (%s) { %s } else { %s }" % (
            draw(_sig_expr(tested)), then, otherwise)
    if kind == "abort":
        body = draw(sub)
        weak = draw(st.booleans())
        keyword = "weak_abort" if weak else "abort"
        return "do { %s } %s (%s);" % (body, keyword, draw(_sig_expr(tested)))
    if kind == "suspend":
        return "do { %s } suspend (%s);" % (draw(sub),
                                            draw(_sig_expr(tested)))
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


def _sig_expr(tested):
    atoms = st.sampled_from(tested)
    return st.one_of(
        atoms,
        st.builds(lambda a: "~%s" % a, atoms),
        st.builds(lambda a, b: "%s & %s" % (a, b), atoms, atoms),
        st.builds(lambda a, b: "%s | %s" % (a, b), atoms, atoms),
    )


PARAMS = ", ".join(["input pure %s" % name for name in INPUTS]
                   + ["output pure %s" % name for name in OUTPUTS])


def module_sources():
    """One thread over the inputs, or two threads that also talk
    through the locals."""
    return st.one_of(_single_thread_sources(), _par_sources())


@st.composite
def _single_thread_sources(draw):
    body = draw(reactive_statements(OUTPUTS, INPUTS, depth=3))
    return ("module gen (%s)\n{\n    int n;\n    n = 0;\n    %s\n}\n"
            % (PARAMS, body))


@st.composite
def _par_sources(draw):
    # Each branch writes its own output and local (single writer).  A
    # branch may end by emitting its local, often after it has paused:
    # an emit the other branch can test for before it may run.
    branches = []
    for output, local in zip(OUTPUTS, LOCALS):
        body = draw(reactive_statements([output, local], INPUTS + LOCALS,
                                        depth=3))
        if draw(st.booleans()):
            body += " emit (%s);" % local
        branches.append(body)
    locals_ = "".join("    signal pure %s;\n" % name for name in LOCALS)
    return ("module gen (%s)\n{\n%s    int n;\n    n = 0;\n"
            "    par { { %s } { %s } }\n}\n" % (PARAMS, locals_, *branches))


def trace_strategy():
    instant = st.sets(st.sampled_from(INPUTS), max_size=3)
    return st.lists(instant, min_size=1, max_size=16)


class TestGeneratedModules:
    @given(source=module_sources())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_print_parse_fixed_point(self, source):
        program, _ = parse_text(source)
        printed = to_text(program)
        reparsed, _ = parse_text(printed)
        assert to_text(reparsed) == printed

    @given(source=module_sources())
    @settings(max_examples=EXAMPLES, deadline=None,
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
    @settings(max_examples=EXAMPLES, deadline=None,
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

    @given(source=module_sources())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_runs_emit_within_instant_emits(self, source):
        real_react = efsm_build.react
        runs = []

        def checking_react(stmt, ctx):
            result = real_react(stmt, ctx)
            runs.append(1)
            allowed = k.instant_emits(stmt)
            assert ctx.emitted <= allowed, "\n%s\nstate %r emits %s" % (
                source, stmt, sorted(ctx.emitted - allowed))
            return result

        with mock.patch.object(efsm_build, "react", checking_react):
            try:
                module = Pipeline().compile_text(source).module("gen")
                module.check()
                module.efsm()
            except EclError:
                return
        assert runs
