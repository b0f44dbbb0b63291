"""Unit tests for the FSM-level analysis tools."""


import pytest

from repro.analysis import (
    check_emission_implies,
    check_never_emitted,
    check_never_terminates,
    compare_on_trace,
    possible_emissions,
    quiescent_states,
)
from repro.pipeline import Pipeline


def efsm_of(src, name="m"):
    return Pipeline().compile_text(src).module(name).efsm()


SERVER = """
module m (input pure req, output pure ack)
{
    while (1) { await (req); emit (ack); }
}
"""

TERMINATING = """
module m (input pure go, output pure done)
{
    await (go);
    emit (done);
}
"""

HALTING = """
module m (input pure go, output pure once)
{
    await (go);
    emit (once);
    halt ();
}
"""

GUARDED = """
module m (input pure a, input pure b, output pure both,
          output pure witness)
{
    while (1) {
        await (a & b);
        emit (both);
        emit (witness);
    }
}
"""


class TestNeverEmitted:
    def test_emittable_signal_found(self):
        counterexample = check_never_emitted(efsm_of(SERVER), "ack")
        assert counterexample is not None
        assert "ack" in counterexample.describe()

    def test_truly_dead_signal(self):
        src = ("module m (input pure req, output pure ack,"
               " output pure never) {"
               " while (1) { await (req); emit (ack); } }")
        assert check_never_emitted(efsm_of(src), "never") is None

    def test_counterexample_is_a_path(self):
        counterexample = check_never_emitted(efsm_of(GUARDED), "both")
        assert counterexample.length >= 1
        final = counterexample.edges[-1]
        assert {"a", "b"} <= final.inputs


class TestTermination:
    def test_server_never_terminates(self):
        assert check_never_terminates(efsm_of(SERVER)) is None

    def test_terminating_module_detected(self):
        counterexample = check_never_terminates(efsm_of(TERMINATING))
        assert counterexample is not None


class TestImplications:
    def test_paired_emissions_hold(self):
        assert check_emission_implies(
            efsm_of(GUARDED), "both", "witness") is None

    def test_violation_found(self):
        src = ("module m (input pure a, output pure x, output pure y) {"
               " while (1) { await (a); emit (x);"
               " await (a); emit (x); emit (y); } }")
        counterexample = check_emission_implies(efsm_of(src), "x", "y")
        assert counterexample is not None


class TestEmissionsAndSinks:
    def test_possible_emissions(self):
        assert possible_emissions(efsm_of(GUARDED)) == {"both", "witness"}

    def test_halting_module_has_quiescent_state(self):
        assert quiescent_states(efsm_of(HALTING))

    def test_live_server_has_none(self):
        assert quiescent_states(efsm_of(SERVER)) == []


class TestPaperDesignProperties:
    def test_stack_no_match_without_input(self):
        from repro.designs import PROTOCOL_STACK_ECL
        design = Pipeline().compile_text(PROTOCOL_STACK_ECL)
        efsm = design.module("toplevel").efsm()
        # addr_match is reachable (the design works)...
        assert check_never_emitted(efsm, "addr_match") is not None
        # ...and the stack never terminates (it is a server).
        assert check_never_terminates(efsm) is None

    def test_audio_buffer_dac_needs_pop(self):
        from repro.designs import AUDIO_BUFFER_ECL
        design = Pipeline().compile_text(AUDIO_BUFFER_ECL)
        efsm = design.module("fifo_ctrl").efsm()
        # Every dac_out emission happens in an instant with fifo_level
        # re-emitted (the bookkeeping invariant of the FIFO).
        assert check_emission_implies(efsm, "dac_out", "fifo_level") is None


class TestEquivalenceChecker:
    def test_detects_divergence(self):
        design_a = Pipeline().compile_text(SERVER)
        module = design_a.module("m")
        other = Pipeline().compile_text(
            SERVER.replace("emit (ack)", "emit(ack); emit (ack)"))
        # Compare module A's kernel against itself: no mismatch.
        trace = [{}, {"req": None}, {}, {"req": None}]
        assert compare_on_trace(module.kernel(), module.efsm(), trace) is None

    def test_mismatch_reported(self):
        from repro.efsm.machine import Efsm, Leaf, State
        design = Pipeline().compile_text(SERVER)
        module = design.module("m")
        # A bogus machine that never emits anything.
        dead = Efsm(name="m", states=[State(0, Leaf(0))], initial=0,
                    inputs=("req",), outputs=("ack",),
                    module=module.kernel())
        mismatch = compare_on_trace(module.kernel(), dead,
                                    [{}, {"req": None}])
        assert mismatch is not None
        assert "ack" in mismatch.describe()

    def test_any_engine_pair_selectable(self):
        design = Pipeline().compile_text(SERVER)
        module = design.module("m")
        trace = [{}, {"req": None}, {}, {"req": None}]
        for engine in ("interp", "efsm", "native"):
            assert compare_on_trace(module.kernel(), module.efsm(), trace,
                                    engine=engine) is None
        # compiled vs compiled, no interpreter anywhere
        assert compare_on_trace(module.kernel(), module.efsm(), trace,
                                engine="native",
                                reference="efsm") is None

    def test_engine_names_appear_in_mismatch(self):
        from repro.efsm.machine import Efsm, Leaf, State
        design = Pipeline().compile_text(SERVER)
        module = design.module("m")
        dead = Efsm(name="m", states=[State(0, Leaf(0))], initial=0,
                    inputs=("req",), outputs=("ack",),
                    module=module.kernel())
        mismatch = compare_on_trace(module.kernel(), dead,
                                    [{}, {"req": None}],
                                    engine="native")
        assert mismatch is None or "native" in mismatch.describe()
        # the dead machine also fails under the efsm engine; the text
        # names whichever side diverged
        mismatch = compare_on_trace(module.kernel(), dead,
                                    [{}, {"req": None}], engine="efsm")
        assert "efsm" in mismatch.describe()

    def test_unknown_engine_rejected(self):
        from repro.errors import EclError
        design = Pipeline().compile_text(SERVER)
        module = design.module("m")
        with pytest.raises(EclError):
            compare_on_trace(module.kernel(), module.efsm(), [{}],
                             engine="warp")
