"""Unit coverage of the native reaction engine's runtime surface.

The cross-engine behavioural guarantees live in
``tests/property/test_native_equivalence.py``; these tests pin the
integration seams: input diagnostics parity, the pipeline stage and
backend registration, code-bundle caching, the standalone emitted
module, and the reactor conveniences.
"""

import copy
import gc
import pickle
import weakref

import pytest

from repro.designs import AUDIO_BUFFER_ECL, DOOR_CTRL_ECL, PROTOCOL_STACK_ECL
from repro.errors import CompileError, EvalError
from repro.pipeline import ArtifactCache, Pipeline
from repro.pipeline.registry import DEFAULT_REGISTRY
from repro.runtime.native import NativeReactor, compile_native

COUNTER_ECL = """
module counter (input pure tick, input int load,
                output int level, output pure high)
{
    int value;

    while (1) {
        await (tick | load);
        present (load) { value = load; }
        present (tick) { value = value + 1; }
        emit_v (level, value);
        if (value > 5) { emit (high); }
    }
}
"""


#: Driver value ranges: byte-wide, width 1 at zero and offset,
#: widths that are not a power of two, a negative low, a wide range.
VALUE_RANGES = [(0, 255), (0, 0), (7, 7), (3, 200), (-5, 5), (0, 2**20)]


def range_id(value_range):
    return "%d..%d" % value_range

#: label -> (source, module under test)
PAPER_DESIGNS = {
    "stack": (PROTOCOL_STACK_ECL, "toplevel"),
    "audio": (AUDIO_BUFFER_ECL, "audio_buffer"),
    "door": (DOOR_CTRL_ECL, "door_ctrl"),
}


@pytest.fixture(scope="module")
def handle():
    build = Pipeline().compile_text(COUNTER_ECL, filename="counter.ecl")
    return build.module("counter")


class TestDiagnosticsParity:
    """Bad stimulus must produce the exact same messages as the other
    engines — the CLI's trace-line diagnostics rely on them."""

    def _messages(self, reactor, **kwargs):
        with pytest.raises(EvalError) as caught:
            reactor.react(**kwargs)
        return str(caught.value)

    def test_unknown_input_matches_efsm_reactor(self, handle):
        native = handle.reactor(engine="native")
        efsm = handle.reactor(engine="efsm")
        assert self._messages(native, inputs=["ghost"]) == \
            self._messages(efsm, inputs=["ghost"])

    def test_non_input_direction_rejected(self, handle):
        native = handle.reactor(engine="native")
        message = self._messages(native, inputs=["level"])
        assert "does not declare input signal 'level'" in message
        assert "load, tick" in message

    def test_value_on_pure_input_matches_efsm_reactor(self, handle):
        native = handle.reactor(engine="native")
        efsm = handle.reactor(engine="efsm")
        assert self._messages(native, values={"tick": 3}) == \
            self._messages(efsm, values={"tick": 3})


class TestReactorSurface:
    def test_drop_in_convenience_methods(self, handle):
        native = handle.reactor(engine="native")
        assert native.input_signals() == ["load", "tick"]
        native.react()
        native.react(values={"load": 4})
        out = native.react(inputs=["tick"])
        assert out.emitted == {"level"}
        assert out.values == {"level": 5}
        assert native.signal_value("level") == 5
        assert native.variable("value") == 5
        assert native.instants == 3

    def test_reset_restarts_from_initial_state(self, handle):
        native = handle.reactor(engine="native")
        native.react()
        native.react(values={"load": 9})
        native.reset()
        assert native.state == native.code.initial
        assert not native.terminated
        assert native.instants == 0

    def test_counter_counts_react_instants(self, handle):
        from repro.cost import CycleCounter

        counter = CycleCounter()
        native = handle.reactor(engine="native")
        counted = NativeReactor(handle.efsm(), counter=counter)
        for reactor in (native, counted):
            reactor.react()
            reactor.react(inputs=["tick"])
        assert counter.counts.get("react") == 2

    def test_react_after_termination_is_inert(self, handle):
        native = handle.reactor(engine="native")
        native.terminated = True
        out = native.react(inputs=["tick"])
        assert out.terminated
        assert native.react_many([{"tick": None}]) == []


class TestPipelineIntegration:
    def test_reactor_engine_native(self, handle):
        native = handle.reactor(engine="native")
        assert isinstance(native, NativeReactor)

    def test_unknown_engine_names_native(self, handle):
        with pytest.raises(CompileError) as caught:
            handle.reactor(engine="warp")
        assert "'native'" in str(caught.value)

    def test_native_stage_is_cached(self):
        pipeline = Pipeline(cache=ArtifactCache.memory())
        build = pipeline.compile_text(COUNTER_ECL, filename="counter.ecl")
        code = build.module("counter").native_code()
        hits = pipeline.cache.stats.as_dict()["hits"]
        again = pipeline.compile_text(COUNTER_ECL, filename="counter.ecl")
        assert again.module("counter").native_code() is code
        assert pipeline.cache.stats.as_dict()["hits"] > hits

    def test_backend_registered(self):
        assert "native" in DEFAULT_REGISTRY.names()
        backend = DEFAULT_REGISTRY.get("native")
        assert backend.requires == ("efsm",)

    def test_emitted_files(self, handle):
        files = handle.emit("native")
        assert sorted(files) == ["counter_native.py",
                                 "counter_reactions.py"]
        assert "STATE_FUNCS" in files["counter_reactions.py"]

    def test_standalone_module_round_trip(self, handle):
        files = handle.emit("native")
        namespace = {}
        exec(compile(files["counter_native.py"], "counter_native.py",
                     "exec"), namespace)
        reactor = namespace["reactor"]()
        reactor.react()
        reactor.react(values={"load": 2})
        out = reactor.react(inputs=["tick"])
        assert out.values == {"level": 3}

    def test_cli_simulate_engine_native(self, tmp_path, capsys):
        from repro.cli import main

        design = tmp_path / "counter.ecl"
        design.write_text(COUNTER_ECL)
        trace = tmp_path / "trace.txt"
        trace.write_text("\nload=4\ntick\ntick\n")
        outputs = {}
        for engine in ("efsm", "native"):
            assert main(["simulate", str(design), "-m", "counter",
                         "--trace", str(trace), "--engine", engine]) == 0
            outputs[engine] = capsys.readouterr().out
        assert outputs["native"] == outputs["efsm"]
        assert "level=6" in outputs["native"]

    def test_cli_simulate_native_trace_diagnostics(self, tmp_path,
                                                   capsys):
        from repro.cli import main

        design = tmp_path / "counter.ecl"
        design.write_text(COUNTER_ECL)
        trace = tmp_path / "trace.txt"
        trace.write_text("\nghost\n")
        assert main(["simulate", str(design), "-m", "counter",
                     "--trace", str(trace),
                     "--engine", "native"]) == 1
        err = capsys.readouterr().err
        assert "trace line 2" in err
        assert "does not declare input signal 'ghost'" in err


FALLBACK_IN_LOOP_ECL = """
int helper (int v) { return v * 2 + 1; }

module looper (input pure tick, output int acc)
{
    int total;
    int i;

    while (1) {
        await (tick);
        for (i = 0; i < 4; i++) {
            total = helper(total);
        }
        emit_v (acc, total);
    }
}
"""


class TestFallbackInsideNestedBlocks:
    """An unlowerable construct (here: a C function call) reached
    *after* the lowerer entered a nested block must roll the indent
    back too — a regression here produces syntactically invalid
    generated source (IndentationError at bind time)."""

    def test_call_inside_lowered_loop_falls_back_cleanly(self):
        build = Pipeline().compile_text(FALLBACK_IN_LOOP_ECL,
                                        filename="looper.ecl")
        handle = build.module("looper")
        code = compile_native(handle.efsm())
        assert code.fallback_ops > 0  # the helper() call is residue
        native = handle.reactor(engine="native")
        efsm = handle.reactor(engine="efsm")
        for reactor in (native, efsm):
            reactor.react()
        for _ in range(3):
            out_native = native.react(inputs=["tick"])
            out_efsm = efsm.react(inputs=["tick"])
            assert out_native.emitted == out_efsm.emitted
            assert out_native.values == out_efsm.values
        assert native.variable("total") == efsm.variable("total")


class TestCompiledCode:
    def test_counter_design_lowers_completely(self, handle):
        code = compile_native(handle.efsm())
        assert code.fallback_ops == 0
        assert code.lowered_ops > 0
        assert code.state_count == handle.efsm().state_count
        assert "native counter" in code.describe()

    def test_code_bundle_pickles(self, handle):
        import pickle

        code = compile_native(handle.efsm())
        clone = pickle.loads(pickle.dumps(code))
        assert clone.source == code.source
        reactor = NativeReactor(handle.efsm(), code=clone)
        reactor.react()
        assert reactor.react(inputs=["tick"]).values == {"level": 1}


class TestHotObjectLayout:
    """The __slots__ satellite: per-instant objects carry no dict."""

    def test_signal_slot_and_tree_nodes_are_compact(self):
        from repro.efsm.machine import (DoAction, DoEmit, Leaf, TestData,
                                        TestSignal)
        from repro.lang.types import PURE
        from repro.runtime.ceval import Env
        from repro.runtime.memory import AddressSpace
        from repro.runtime.signals import SignalSlot

        slot = SignalSlot("s", PURE, AddressSpace(), "input")
        assert not hasattr(slot, "__dict__")
        assert not hasattr(Env(), "__dict__")
        for node in (Leaf(), TestSignal(), TestData(), DoAction(),
                     DoEmit()):
            assert not hasattr(node, "__dict__")

    def test_efsm_walks_are_cached(self, handle):
        efsm = handle.efsm()
        assert efsm.transition_count() == efsm.transition_count()
        assert efsm._transition_count is not None
        assert efsm.emitted_signals() is efsm.emitted_signals()
        assert efsm.tested_inputs() is efsm.tested_inputs()


class TestWholeTraceDrivers:
    """compile_trace_driver / run_trace: the farm's zero-dict fast path."""

    def _records_by_steps(self, handle, driver, seed):
        import random

        from repro.farm.jobs import random_instant

        reactor = NativeReactor(handle.efsm(), code=handle.native_code())
        rng = random.Random(seed)
        alphabet = [(s.name, s.is_pure) for s in reactor.signals.inputs()
                    if s.is_pure or s.type.is_scalar()]
        records = []
        for _ in range(driver.length):
            instant = random_instant(rng, alphabet, driver.present_prob,
                                     driver.value_range)
            out = reactor.react(
                inputs=[n for n, v in instant.items() if v is None],
                values={n: v for n, v in instant.items() if v is not None})
            records.append((dict(sorted(instant.items())),
                            sorted(out.emitted),
                            dict(sorted(out.values.items()))))
        for _ in range(driver.budget - driver.length):
            out = reactor.react()
            records.append(({}, sorted(out.emitted),
                            dict(sorted(out.values.items()))))
        return records

    @pytest.mark.parametrize("value_range", VALUE_RANGES, ids=range_id)
    def test_driver_matches_step_loop(self, handle, value_range):
        driver = handle.trace_driver(20, 0.5, value_range, budget=26)
        assert driver.length == 20 and driver.budget == 26
        reactor = NativeReactor(handle.efsm(), code=handle.native_code())
        got = reactor.run_trace(driver, seed=99)
        expected = self._records_by_steps(handle, driver, seed=99)
        assert len(got) == 26
        for record, (inputs, emitted, values) in zip(got, expected):
            assert dict(sorted(record["inputs"].items())) == inputs
            assert record["emitted"] == emitted
            assert record["values"] == values
        # Same (design, spec) pair -> the cached stage artifact.
        assert handle.trace_driver(20, 0.5, value_range, budget=26) is driver
        other = handle.trace_driver(21, 0.5, value_range, budget=26)
        assert other is not driver
        # The driver is a picklable compile artifact.
        import pickle

        clone = pickle.loads(pickle.dumps(driver))
        reactor2 = NativeReactor(handle.efsm(), code=handle.native_code())
        assert reactor2.run_trace(clone, seed=99) == got

    @pytest.mark.parametrize("value_range", [(10, 5), (0, 2.5)])
    def test_driver_refuses_bad_value_range(self, handle, value_range):
        # An empty range would never leave the inlined rejection loop.
        with pytest.raises(EvalError, match="value range"):
            handle.trace_driver(8, 0.5, value_range)

    @pytest.mark.parametrize("value_range", VALUE_RANGES, ids=range_id)
    @pytest.mark.parametrize("label", sorted(PAPER_DESIGNS))
    def test_engines_agree_on_value_range(self, label, value_range):
        from repro.engines import get_engine
        from repro.farm.jobs import StimulusSpec

        pytest.importorskip("numpy")
        source, module = PAPER_DESIGNS[label]
        paper = Pipeline().compile_text(source, filename=label).module(module)
        spec = StimulusSpec.random(length=24, present_prob=0.7,
                                   value_range=value_range, salt=5)
        outcomes = {
            name: get_engine(name).run_spec(paper, spec, n_instances=2)
            for name in ("native", "vector", "efsm", "interp")
        }
        native = outcomes.pop("native")
        for name, outcome in outcomes.items():
            assert outcome.records == native.records, name
            assert outcome.terminated == native.terminated, name

    def test_driver_horizon_clips_drawn_prefix(self, handle):
        driver = handle.trace_driver(30, 0.5, (0, 255), budget=5)
        assert driver.length == 5 and driver.budget == 5
        reactor = NativeReactor(handle.efsm(), code=handle.native_code())
        assert len(reactor.run_trace(driver, seed=4)) == 5

    def test_driver_marks_coverage(self, handle):
        from repro.verify.coverage import CoverageMap

        driver = handle.trace_driver(40, 0.7, (0, 9), budget=40)
        reactor = NativeReactor(handle.efsm(), code=handle.native_code())
        coverage = CoverageMap.for_efsm(handle.efsm())
        reactor.enable_coverage(coverage)
        reactor.run_trace(driver, seed=11)
        assert coverage.covered_states > 0
        assert coverage.covered_transitions > 0


DIVIDER_ECL = """
module divider (input int x, output int q)
{
    int total;
    int seen[4];

    while (1) {
        await (x);
        total = total + x;
        seen[x & 3] = seen[x & 3] + 1;
        emit_v (q, (total + seen[x & 3]) / (x - 7));
    }
}
"""


class TestRestore:
    """NativeReactor.restore(): one bound reactor reused per job must
    run exactly like a freshly constructed one."""

    def _fresh(self, handle):
        return NativeReactor(handle.efsm(), code=handle.native_code())

    @pytest.mark.parametrize("label", sorted(PAPER_DESIGNS))
    def test_restored_reactor_replays_like_a_fresh_one(self, label):
        from repro.verify.coverage import CoverageMap

        source, module = PAPER_DESIGNS[label]
        paper = Pipeline().compile_text(source, filename=label).module(module)
        driver = paper.trace_driver(48, 0.6, (0, 255))
        reused = self._fresh(paper)
        reused.enable_coverage(CoverageMap.for_efsm(paper.efsm()))
        for seed in range(6):
            reused.restore()
            assert reused.coverage is None
            fresh = self._fresh(paper)
            assert reused.run_trace(driver, seed) == fresh.run_trace(driver, seed)
            assert reused.space._data == fresh.space._data
            assert (reused.state, reused.terminated, reused.instants) == (
                fresh.state, fresh.terminated, fresh.instants)

    def test_restore_after_a_mid_drive_error(self):
        divider = Pipeline().compile_text(DIVIDER_ECL).module("divider")
        driver = divider.trace_driver(40, 0.8, (0, 15))
        reused = self._fresh(divider)
        outcomes = []
        for seed in range(12):
            reused.restore()
            try:
                got = reused.run_trace(driver, seed)
            except EvalError as error:
                got = str(error)
            try:
                expected = self._fresh(divider).run_trace(driver, seed)
            except EvalError as error:
                expected = str(error)
            assert got == expected
            outcomes.append(isinstance(got, str))
        # the sequence really mixes failed and completed drives
        assert any(outcomes) and not all(outcomes)


class TestCodeMemo:
    """Each generated-code payload compiles its source once and keeps
    the code for exactly as long as the payload lives."""

    def test_compiling_twice_returns_one_code_object(self, handle):
        code = handle.native_code()
        assert code.compiled() is code.compiled()
        assert handle.native_code().compiled() is code.compiled()

    def test_monitors_compile_through_the_native_memo(self):
        from repro.runtime.native import GeneratedCode
        from repro.verify import monitor
        from repro.verify.props import never

        program = monitor.compile_bundle([never("bad")])
        assert isinstance(program, GeneratedCode)
        first = monitor.Monitor(program)
        second = monitor.Monitor(program)
        assert first._step.__code__ is second._step.__code__

    def test_memo_never_crosses_a_pickle(self, handle):
        code = handle.native_code()
        driver = handle.trace_driver(4, 0.5, (0, 255))
        code.compiled()
        driver.function()
        for payload in (code, driver):
            clone = pickle.loads(pickle.dumps(payload))
            assert "_code" not in clone.__dict__
            assert "_drive" not in clone.__dict__
            assert clone == payload

    def test_memo_lives_with_its_payload(self, handle):
        driver = copy.copy(handle.trace_driver(4, 0.5, (0, 255)))
        function = weakref.ref(driver.function())
        assert driver.function() is function()
        del driver
        gc.collect()
        assert function() is None
