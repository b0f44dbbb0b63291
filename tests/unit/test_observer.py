"""Unit tests for observer-based safety verification."""

import pytest

from repro.analysis import verify_with_observer
from repro.errors import EclError
from repro.pipeline import Pipeline

#: A traffic light with a mutual-exclusion property that holds.
GOOD = """
module light (input pure tick, output pure green, output pure red)
{
    while (1) {
        await (tick);
        emit (green);
        await (tick);
        emit (red);
    }
}

module exclusion (input pure green, input pure red, output pure error)
{
    while (1) {
        await (green & red);
        emit (error);
    }
}
"""

#: The same design with the bug the observer is written to catch.
BAD = GOOD.replace("emit (red);", "emit (red); emit (green);", 1)


class TestVerifyWithObserver:
    def test_property_holds(self):
        design = Pipeline().compile_text(GOOD)
        assert verify_with_observer(design, "light", "exclusion") is None

    def test_violation_found_with_counterexample(self):
        design = Pipeline().compile_text(BAD)
        counterexample = verify_with_observer(design, "light", "exclusion")
        assert counterexample is not None
        assert "error" in counterexample.describe()

    def test_missing_error_signal_rejected(self):
        src = GOOD.replace("output pure error", "output pure oops") \
                  .replace("emit (error)", "emit (oops)")
        design = Pipeline().compile_text(src)
        with pytest.raises(EclError):
            verify_with_observer(design, "light", "exclusion")

    def test_observer_must_not_drive_design(self):
        meddling = GOOD.replace(
            "module exclusion (input pure green, input pure red, "
            "output pure error)",
            "module exclusion (input pure green, output pure red, "
            "output pure error)").replace("await (green & red)",
                                          "await (green)")
        design = Pipeline().compile_text(meddling)
        with pytest.raises(EclError):
            verify_with_observer(design, "light", "exclusion")

    def test_observer_with_own_environment_input(self):
        src = """
module light (input pure tick, output pure green)
{
    while (1) { await (tick); emit (green); }
}

module armed_check (input pure arm, input pure green,
                    output pure error)
{
    while (1) {
        await (arm);
        do {
            await (green);
            emit (error);
        } abort (~arm);
    }
}
"""
        design = Pipeline().compile_text(src)
        # green *is* emittable while armed: violation found.
        assert verify_with_observer(design, "light", "armed_check") \
            is not None

    DEADLINE_OBSERVER = """
module deadline (input pure req, input pure tick, input pure ack,
                 output pure error)
{
    while (1) {
        await (req);
        do {
            await (tick);
            await (tick);
            await (tick);
            emit (error);
        } abort (ack);
    }
}
"""

    def test_temporal_property_holds(self):
        """Bounded response: ack within three ticks of req."""
        src = """
module server (input pure req, input pure tick, output pure ack)
{
    while (1) {
        await (req);
        await (tick);
        emit (ack);
    }
}
""" + self.DEADLINE_OBSERVER
        design = Pipeline().compile_text(src)
        # The server answers on the first tick after every request it
        # accepts; the observer tracks requests with the same
        # one-at-a-time discipline, so the deadline always aborts it.
        assert verify_with_observer(design, "server", "deadline") is None

    def test_temporal_property_violated_by_slow_server(self):
        src = """
module server (input pure req, input pure tick, output pure ack)
{
    while (1) {
        await (req);
        await (tick);
        await (tick);
        await (tick);
        await (tick);
        emit (ack);
    }
}
""" + self.DEADLINE_OBSERVER
        design = Pipeline().compile_text(src)
        counterexample = verify_with_observer(design, "server", "deadline")
        assert counterexample is not None
        # The witness needs a request and at least three tick instants.
        assert counterexample.length >= 4


class TestObserverOnEngines:
    """The dynamic mode: the composed observer runs over a trace on a
    selectable engine — native included, so legacy observer checks run
    at compiled-reaction speed."""

    TRACE = [{}, {"tick": None}, {"tick": None}, {"tick": None},
             {"tick": None}]

    @pytest.mark.parametrize("engine", ["interp", "efsm", "native"])
    def test_good_design_stays_silent_on_every_engine(self, engine):
        design = Pipeline().compile_text(GOOD)
        assert verify_with_observer(design, "light", "exclusion",
                                    engine=engine,
                                    trace=self.TRACE) is None

    @pytest.mark.parametrize("engine", ["interp", "efsm", "native"])
    def test_buggy_design_caught_with_located_witness(self, engine):
        design = Pipeline().compile_text(BAD)
        witness = verify_with_observer(design, "light", "exclusion",
                                       engine=engine, trace=self.TRACE)
        assert witness is not None
        # green+red fire together on the second tick; the synchronous
        # composition raises error in the same instant
        assert witness.instant == 2
        assert witness.length == 3
        assert "<-- error" in witness.describe()

    def test_engines_agree_on_the_witness_instant(self):
        design = Pipeline().compile_text(BAD)
        instants = [
            verify_with_observer(design, "light", "exclusion",
                                 engine=engine, trace=self.TRACE).instant
            for engine in ("interp", "efsm", "native")]
        assert len(set(instants)) == 1

    def test_engine_without_trace_rejected(self):
        design = Pipeline().compile_text(GOOD)
        with pytest.raises(EclError):
            verify_with_observer(design, "light", "exclusion",
                                 engine="native")

    def test_unknown_engine_rejected(self):
        design = Pipeline().compile_text(GOOD)
        with pytest.raises(EclError):
            verify_with_observer(design, "light", "exclusion",
                                 engine="warp", trace=self.TRACE)


class TestSingleWriterRule:
    def test_two_parallel_writers_rejected(self):
        from repro.errors import TranslationError
        src = """
module m (input pure s, output pure t)
{
    par {
        { await (s); emit (t); }
        { await (s); emit (t); }
    }
}
"""
        design = Pipeline().compile_text(src)
        with pytest.raises(TranslationError):
            design.module("m").kernel()

    def test_sequential_writers_allowed(self):
        src = """
module m (input pure s, output pure t)
{
    while (1) { await (s); emit (t); emit (t); }
}
"""
        design = Pipeline().compile_text(src)
        assert design.module("m").efsm().state_count >= 2
