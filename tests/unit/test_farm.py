"""Unit tests for the simulation farm: jobs, engines, workers, farm."""

import pytest

from repro.engines import (compare_records, engine_names, get_engine,
                           make_record)
from repro.errors import EclError
from repro.farm import (
    SimJob,
    SimulationFarm,
    StimulusSpec,
    WorkerState,
    expand_jobs,
)
from repro.farm.farm import FarmReport
from repro.farm.jobs import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TERMINATED,
    SimResult,
)

ECHO = """
module echo (input pure ping, output pure pong)
{
    while (1) { await (ping); emit (pong); }
}
"""

ONCE = """
module once (input pure go, output pure done)
{
    await (go);
    emit (done);
}
"""

COUNTER = """
module counter (input pure tick, input unsigned char load,
                output int total)
{
    int n;
    n = 0;
    while (1) {
        await (tick | load);
        present (load) { n = load; } else { n = n + 1; }
        emit_v (total, n);
    }
}
"""

DESIGNS = {"echo": ECHO, "once": ONCE, "counter": COUNTER}


@pytest.fixture(scope="module")
def state():
    return WorkerState(DESIGNS)


def job(module="echo", design=None, engine="efsm", length=8, index=0,
        **kwargs):
    return SimJob(design=design or module, module=module, engine=engine,
                  stimulus=StimulusSpec.random(length=length),
                  index=index, **kwargs)


class TestJobModel:
    def test_job_id_is_deterministic_and_index_sensitive(self):
        a, b = job(index=1), job(index=1)
        assert a.job_id == b.job_id and a.seed == b.seed
        assert job(index=2).job_id != a.job_id
        assert job(index=2).seed != a.seed

    def test_job_id_is_cached_but_identity_stays_field_based(self):
        import dataclasses
        import pickle

        a = job(index=1)
        assert "_job_id" not in a.__getstate__()
        revived = pickle.loads(pickle.dumps(a))
        assert revived == a and hash(revived) == hash(a)
        assert revived.job_id == a.job_id
        moved = dataclasses.replace(a, index=2)
        assert moved.job_id == job(index=2).job_id != a.job_id

    def test_salt_changes_identity(self):
        plain = job()
        salted = SimJob(design="echo", module="echo",
                        stimulus=StimulusSpec.random(length=8, salt=5))
        assert plain.job_id != salted.job_id

    def test_unknown_engine_rejected(self):
        with pytest.raises(EclError, match="unknown engine"):
            job(engine="quantum")

    def test_random_stimulus_is_seed_deterministic(self):
        spec = StimulusSpec.random(length=20)
        inputs = [("ping", True), ("load", False)]
        assert spec.materialize(inputs, 42) == \
            spec.materialize(inputs, 42)
        assert spec.materialize(inputs, 42) != \
            spec.materialize(inputs, 43)
        for instant in spec.materialize(inputs, 42):
            for name, value in instant.items():
                if name == "ping":
                    assert value is None
                else:
                    assert 0 <= value <= 255

    def test_explicit_stimulus_replays_verbatim(self):
        instants = [{"ping": None}, {}, {"load": 7}]
        spec = StimulusSpec.explicit(instants)
        assert spec.materialize([("ping", True)], 123) == instants
        assert "explicit:3" in spec.describe()

    def test_expand_jobs_matrix_and_indices(self):
        jobs = expand_jobs([("echo", "echo"), ("once", "once")],
                           engines=("efsm", "interp"), traces=3)
        assert len(jobs) == 2 * 2 * 3
        assert [j.index for j in jobs] == list(range(12))
        assert len({j.job_id for j in jobs}) == len(jobs)
        engines = {j.engine for j in jobs}
        assert engines == {"efsm", "interp"}


class TestEngines:
    def test_every_declared_engine_is_registered(self):
        from repro.errors import EngineUnavailable
        from repro.runtime.vector import NUMPY_AVAILABLE

        for name in engine_names():
            if name == "equivalence":
                continue
            if name == "vector" and not NUMPY_AVAILABLE:
                # Registered, but degrades without the optional numpy.
                with pytest.raises(EngineUnavailable):
                    get_engine(name).build(
                        WorkerState(DESIGNS).handles("echo"), job())
                continue
            get_engine(name).build(WorkerState(DESIGNS).handles("echo"),
                                   job())

    def test_unknown_engine_name(self, state):
        with pytest.raises(EclError, match="unknown engine"):
            get_engine("nope").build(state.handles("echo"), job())

    def test_step_records_are_json_plain(self, state):
        engine = get_engine("efsm").build(state.handles("echo"), job())
        # Instant 1 is the start-up instant (non-immediate await), so
        # the first ping only arms the loop; the second one answers.
        assert engine.step({"ping": None})["emitted"] == []
        record = engine.step({"ping": None})
        assert record == {"inputs": {"ping": None},
                          "emitted": ["pong"], "values": {}}

    def test_interp_and_efsm_agree_on_counter(self, state):
        j = job("counter", length=12)
        interp = get_engine("interp").build(state.handles("counter"), j)
        efsm = get_engine("efsm").build(state.handles("counter"), j)
        stimulus = j.stimulus.materialize(efsm.input_alphabet(), j.seed)
        for instant in stimulus:
            assert compare_records(interp.step(instant),
                                   efsm.step(instant)) is None

    def test_rtos_engine_runs_single_task(self, state):
        engine = get_engine("rtos").build(state.handles("echo"), job())
        record = engine.step({"ping": None})
        assert record["emitted"] == ["pong"]
        assert engine.input_alphabet() == [("ping", True)]

    def test_aggregate_inputs_excluded_from_random_alphabet(self):
        """checkcrc's ``inpkt`` input is a union: random int stimulus
        must never drive it (regression: is_scalar is a method)."""
        from repro.designs import PROTOCOL_STACK_ECL

        stack_state = WorkerState({"stack": PROTOCOL_STACK_ECL})
        for engine_name in ("efsm", "rtos"):
            engine = get_engine(engine_name).build(
                stack_state.handles("stack"),
                job("checkcrc", design="stack", engine=engine_name),
            )
            names = [name for name, _pure in engine.input_alphabet()]
            assert "inpkt" not in names
            assert "reset" in names
        result = stack_state.run_job(
            job("checkcrc", design="stack", length=6))
        assert result.ok, result.error

    def test_make_record_hexes_bytes(self):
        record = make_record({"a": b"\x01\x02"}, {"out"},
                             {"out": b"\xff"})
        assert record["inputs"]["a"] == "0x0102"
        assert record["values"]["out"] == "0xff"

    def test_compare_records_reports_mismatch(self):
        left = make_record({}, {"a"}, {})
        right = make_record({}, {"b"}, {})
        assert "['a']" in compare_records(left, right)
        assert compare_records(left, left) is None


class TestWorkerState:
    def test_run_job_ok(self, state):
        result = state.run_job(job(length=10))
        assert result.status == STATUS_OK
        assert result.instants == 10
        assert result.ok

    def test_run_job_terminated_early(self, state):
        result = state.run_job(SimJob(
            design="once", module="once",
            stimulus=StimulusSpec.explicit(
                [{"go": None}, {"go": None}, {}])))
        assert result.status == STATUS_TERMINATED
        assert result.instants == 2   # start-up instant + the reaction
        assert result.ok

    def test_horizon_pads_short_stimulus(self, state):
        result = state.run_job(SimJob(
            design="echo", module="echo", horizon=9,
            stimulus=StimulusSpec.explicit([{"ping": None}])))
        assert result.instants == 9

    def test_unknown_module_is_job_error(self, state):
        result = state.run_job(job("nope", design="echo"))
        assert result.status == STATUS_ERROR
        assert "no module named" in result.error
        assert not result.ok

    def test_unknown_design_is_job_error(self, state):
        result = state.run_job(job("echo", design="ghost"))
        assert result.status == STATUS_ERROR
        assert "no design labelled" in result.error

    def test_bad_explicit_signal_is_job_error(self, state):
        result = state.run_job(SimJob(
            design="echo", module="echo",
            stimulus=StimulusSpec.explicit([{"bogus": None}])))
        assert result.status == STATUS_ERROR
        assert "does not declare input signal" in result.error

    def test_equivalence_mode_agrees(self, state):
        result = state.run_job(job("counter", engine="equivalence",
                                   length=16))
        assert result.status == STATUS_OK
        assert result.divergence is None

    def test_design_compiled_once_per_worker(self):
        state = WorkerState(DESIGNS)
        build_a = state.build("echo")
        state.run_job(job(length=2))
        state.run_job(job(length=2, index=1))
        assert state.build("echo") is build_a


class TestSimulationFarm:
    def test_inline_run_collects_ordered_results(self, tmp_path):
        farm = SimulationFarm(DESIGNS, workers=1,
                              ledger_root=str(tmp_path / "ledger"))
        jobs = expand_jobs([("echo", "echo"), ("counter", "counter")],
                           engines=("efsm", "interp"), traces=2,
                           length=6)
        report = farm.run(jobs)
        assert report.total == 8 and report.ok
        assert [r.index for r in report.results] == list(range(8))
        assert report.reactions == 48
        assert report.reactions_per_sec > 0
        assert report.status_counts() == {"ok": 8}
        assert "8 job(s)" in report.summary()
        assert all(r.trace_digest for r in report.results)

    def test_unknown_design_raises_before_dispatch(self):
        farm = SimulationFarm({"echo": ECHO})
        with pytest.raises(EclError, match="unknown design"):
            farm.run([job(design="ghost")])

    def test_job_error_does_not_abort_batch(self):
        farm = SimulationFarm(DESIGNS, workers=1)
        report = farm.run([job(length=3),
                           job("nope", design="echo", index=1)])
        assert not report.ok
        assert report.status_counts() == {"error": 1, "ok": 1}
        assert len(report.errors) == 1

    def test_process_pool_run(self, tmp_path):
        farm = SimulationFarm(DESIGNS, workers=2,
                              ledger_root=str(tmp_path / "ledger"))
        jobs = expand_jobs([("echo", "echo"), ("once", "once")],
                           traces=3, length=4)
        report = farm.run(jobs)
        assert report.ok and report.total == 6
        assert report.workers == 2
        assert all(r.worker_pid for r in report.results)

    def test_report_as_dict_roundtrips_to_json(self):
        import json
        report = FarmReport(results=[SimResult(
            job_id="x", design="d", module="m", engine="efsm",
            index=0, instants=4)], elapsed=0.5, designs=1)
        data = json.loads(json.dumps(report.as_dict()))
        assert data["total"] == 1
        assert data["reactions"] == 4


class TestRtosTaskEngineSelection:
    """job.task_engine: what runs inside each rtos task."""

    def test_task_engine_enters_job_id_only_when_set(self):
        plain = job(engine="rtos")
        default = SimJob(design="echo", module="echo", engine="rtos",
                         stimulus=plain.stimulus, index=0, task_engine="")
        native = SimJob(design="echo", module="echo", engine="rtos",
                        stimulus=plain.stimulus, index=0,
                        task_engine="native")
        assert plain.job_id == default.job_id
        assert native.job_id != plain.job_id

    def test_unknown_task_engine_rejected(self):
        with pytest.raises(EclError, match="task engine"):
            SimJob(design="echo", module="echo", engine="rtos",
                   task_engine="turbo")

    def test_native_tasks_bind_from_partition_bundle(self, state):
        engine = get_engine("rtos").build(
            state.handles("echo"), job(engine="rtos", task_engine="native"))
        assert all(task.uses_native_path
                   for task in engine.kernel.tasks)
        # kernel.start() already ran the start-up instant, so the
        # first posted ping answers (same as the efsm-task engine).
        assert engine.step({"ping": None})["emitted"] == ["pong"]
        assert engine.step({"ping": None})["emitted"] == ["pong"]

    def test_kernel_stats_surface(self, state):
        engine = get_engine("rtos").build(state.handles("echo"),
                                          job(engine="rtos"))
        engine.step({"ping": None})
        stats = engine.kernel_stats()
        assert stats["dispatches"] >= 2
        assert "lost_events" in stats

    def test_result_carries_kernel_stats(self, state):
        result = state.run_job(job(engine="rtos", length=4))
        assert result.ok
        assert result.kernel_stats is not None
        assert result.kernel_stats["dispatches"] > 0
        plain = state.run_job(job(length=4))
        assert plain.kernel_stats is None

    def test_expand_jobs_applies_task_engine_to_rtos_only(self):
        jobs = expand_jobs([("echo", "echo")],
                           engines=("efsm", "rtos"),
                           task_engine="native")
        by_engine = {j.engine: j for j in jobs}
        assert by_engine["rtos"].task_engine == "native"
        assert by_engine["efsm"].task_engine == ""

    def test_report_aggregates_kernel_stats(self, state):
        results = [state.run_job(job(engine="rtos", length=4, index=i))
                   for i in range(2)]
        report = FarmReport(results=results, elapsed=0.1)
        totals = report.kernel_stats()
        assert totals["dispatches"] == sum(
            r.kernel_stats["dispatches"] for r in results)
        assert "rtos: dispatches=" in report.summary()
        assert report.as_dict()["kernel_stats"] == totals


class TestEquivalenceCoverage:
    """Cross-engine jobs merge full bitmaps via the efsm candidate."""

    def test_equivalence_job_collects_transition_coverage(self, state):
        result = state.run_job(
            job("counter", engine="equivalence", length=10,
                collect_coverage=True))
        assert result.ok, result.error
        assert result.coverage is not None
        assert result.coverage["covered_transitions"] > 0
        assert result.coverage["covered_states"] > 0


class TestResultSerialization:
    """SimResult/FarmReport to_dict: the service's wire format."""

    def test_to_dict_has_stable_field_order(self, state):
        result = state.run_job(job(length=4))
        keys = list(result.to_dict())
        from repro.farm.jobs import RESULT_FIELDS, RESULT_VOLATILE_FIELDS
        assert keys == list(RESULT_FIELDS) + list(RESULT_VOLATILE_FIELDS)

    def test_stable_form_drops_volatile_fields(self, state):
        result = state.run_job(job(length=4))
        stable = result.to_dict(volatile=False)
        for name in ("elapsed", "trace_path", "worker_pid"):
            assert name not in stable
        assert stable["job_id"] == result.job_id
        assert stable["status"] == "ok"

    def test_stable_bytes_identical_across_runs(self, state):
        import json
        fresh = WorkerState(DESIGNS)
        a = state.run_job(job("counter", length=6))
        b = fresh.run_job(job("counter", length=6))
        dump = lambda r: json.dumps(r.to_dict(volatile=False),  # noqa: E731
                                    sort_keys=True)
        assert dump(a) == dump(b)

    def test_from_dict_round_trip(self, state):
        result = state.run_job(job(length=4))
        clone = SimResult.from_dict(result.to_dict())
        assert clone.to_dict() == result.to_dict()
        # unknown keys from a newer peer are ignored, not fatal
        payload = result.to_dict()
        payload["future_field"] = 1
        assert SimResult.from_dict(payload).job_id == result.job_id

    def test_report_to_dict_volatile_toggle(self, state):
        report = FarmReport(results=[state.run_job(job(length=4))],
                            elapsed=0.5)
        full = report.to_dict()
        assert "elapsed" in full and "reactions_per_sec" in full
        stable = report.to_dict(volatile=False)
        for name in ("elapsed", "reactions_per_sec", "ledger_root"):
            assert name not in stable
        assert "elapsed" not in stable["results"][0]
        assert stable["total"] == 1


DUO = """
module echo (input pure ping, output pure pong)
{
    while (1) { await (ping); emit (pong); }
}

module once (input pure go, output pure done)
{
    await (go);
    emit (done);
}
"""


class TestPartitionedRtosCoverage:
    """Partitioned rtos jobs: one coverage map per member module."""

    def test_maps_sized_per_member_module(self):
        state = WorkerState({"duo": DUO})
        j = SimJob(design="duo", module="echo", engine="rtos",
                   stimulus=StimulusSpec.random(length=8),
                   tasks=(("e", "echo", 2), ("o", "once", 1)),
                   collect_coverage=True)
        coverage = state._coverage_for(j)
        assert set(coverage) == {"echo", "once"}
        # each map is sized by its own module's EFSM, not job.module's
        for name, cov in coverage.items():
            assert cov.module == name

    def test_partitioned_result_merges_per_module(self):
        state = WorkerState({"duo": DUO})
        j = SimJob(design="duo", module="echo", engine="rtos",
                   stimulus=StimulusSpec.random(length=16),
                   tasks=(("e", "echo", 2), ("o", "once", 1)),
                   collect_coverage=True)
        result = state.run_job(j)
        assert result.ok, result.error
        payload = result.coverage
        assert set(payload["modules"]) == {"echo", "once"}
        # the echo task reacted, so its module's map has marks
        assert payload["modules"]["echo"]["covered_states"] > 0

    def test_same_module_tasks_share_one_map(self, state):
        j = SimJob(design="echo", module="echo", engine="rtos",
                   stimulus=StimulusSpec.random(length=8),
                   tasks=(("a", "echo", 2), ("b", "echo", 1)),
                   collect_coverage=True)
        coverage = state._coverage_for(j)
        # member modules == [job.module]: the classic single map
        assert not isinstance(coverage, dict)
        result = state.run_job(j)
        assert result.ok, result.error
        assert "modules" not in result.coverage
        assert result.coverage["covered_states"] > 0


class TestTraceDriverFastPath:
    """The native engine's run_spec must match the generic paths."""

    def test_run_spec_records_match_step_records(self, state):
        j = job("counter", engine="native", length=16)
        driver_engine = get_engine("native").build(state.handles("counter"), j)
        records = driver_engine.run_spec(j)
        step_engine = get_engine("native").build(state.handles("counter"), j)
        stimulus = j.stimulus.materialize(step_engine.input_alphabet(),
                                          j.seed)
        expected = [step_engine.step(instant) for instant in stimulus]
        assert records == expected

    def test_run_spec_declines_explicit_stimulus(self, state):
        spec = StimulusSpec.explicit([{"tick": None}] * 3)
        j = SimJob(design="counter", module="counter", engine="native",
                   stimulus=spec, index=0)
        engine = get_engine("native").build(state.handles("counter"), j)
        assert engine.run_spec(j) is None

    def test_run_job_uses_driver_and_matches_efsm_trace(self, state):
        # Same stimulus spec, engines differ only in execution style;
        # compare via a shared ledger-free run through run_job.
        native = state.run_job(job("counter", engine="native", length=12))
        assert native.ok
        assert native.instants == 12
