"""Chaos suite: the serving layer under deterministic fault injection.

Every test drives a :class:`~repro.serve.chaos.FaultPlan` — seeded
worker crashes, crash-after-record deaths, journal/ledger write
OSErrors, queue stalls, slow jobs — through a live SimulationService
and asserts the robustness invariants hold *exactly*:

* zero lost rows: every admitted job reports exactly one result;
* zero duplicated rows: no job id appears twice, even when a worker
  dies between recording a result and acknowledging it;
* byte-identical stable rows: surviving faults never perturbs the
  reproducible payload a fault-free farm run of the same spec yields;
* determinism: the same seed replays the same faults and the same
  outcome, so a chaos failure is a normal, debuggable test failure.
"""

import json
import os
from collections import Counter, defaultdict
from time import monotonic

import pytest

from repro import telemetry
from repro.farm import WorkerState
from repro.farm.spec import expand_document, load_designs
from repro.serve import BatchJournal, FaultPlan, SimulationService
from repro.serve.chaos import InjectedCrash
from repro.serve.pool import backoff_delay

ECHO = """
module echo (input pure ping, output pure pong)
{
    while (1) { await (ping); emit (pong); }
}
"""

JOBS = 8

DOCUMENT = {
    "spec_version": 2,
    "designs": {"d": {"text": ECHO}},
    "jobs": [{"design": "d", "modules": ["echo"], "engine": "efsm",
              "n_instances": JOBS, "length": 8}],
}

#: The seed matrix: one plan per fault family, fixed seeds so CI runs
#: replay the identical schedules.  Crash limits stay below the pool's
#: max_attempts, so every injected fault is survivable.
PLANS = [
    pytest.param(
        dict(seed=11, crash_prob=0.6, crash_limit=2),
        id="worker-crashes"),
    pytest.param(
        dict(seed=23, post_crash_prob=0.5, stall_prob=0.5,
             stall_s=0.002),
        id="crash-after-record-plus-stalls"),
    pytest.param(
        dict(seed=37, journal_prob=0.5, journal_limit=None),
        id="journal-write-errors"),
    pytest.param(
        dict(seed=53, ledger_prob=1.0, ledger_limit=1, slow_prob=0.4,
             slow_s=0.002),
        id="ledger-write-errors-plus-slow-jobs"),
]


def stable_rows(results):
    return sorted(json.dumps(r.to_dict(volatile=False), sort_keys=True)
                  for r in results)


def expected_rows(tmp_path, document=DOCUMENT):
    """Fault-free ground truth: a direct worker run of the same spec
    (own ledger root; trace digests are content-addressed, so they
    match the service's)."""
    designs = load_designs(document["designs"], None, "<chaos>")
    jobs = expand_document(document, designs)
    state = WorkerState(designs, ledger_root=str(tmp_path / "truth"))
    return stable_rows([state.run_job(job) for job in jobs])


def run_under_plan(root, plan_kwargs, max_attempts=3,
                   pool_mode="thread", workers=3):
    service = SimulationService(data_root=str(root), workers=workers,
                                max_attempts=max_attempts,
                                pool_mode=pool_mode, start=False)
    plan = FaultPlan(**plan_kwargs).install(service)
    service.pool.start()
    try:
        batch = service.submit(DOCUMENT)
        assert batch.wait(timeout=120), "chaos batch hung"
        results = list(batch.results)
    finally:
        plan.uninstall()
        service.shutdown(drain=True, timeout=30)
    return plan, service, results


def amputated_file(root, closed_files, earlier_rows):
    """Restore the one closed batch file as a crash mid-batch would
    leave it, plus ``earlier_rows`` journaled through
    :meth:`BatchJournal.row`, the way an earlier release journaled
    every worker row; returns the file's lines as it closed."""
    (lines,) = closed_files.values()
    assert [json.loads(line)["kind"] for line in lines] == ["admit"]
    batch_id = json.loads(lines[0])["batch"]
    shard = root / "journal" / "default" / (batch_id + ".jsonl")
    shard.write_text(lines[0] + "\n")
    journal = BatchJournal(str(root / "journal"))
    for result in earlier_rows:
        journal.row("default", batch_id, result)
    return lines


class TestChaosInvariants:
    @pytest.mark.parametrize("plan_kwargs", PLANS)
    def test_zero_lost_zero_duplicated_byte_identical(self, tmp_path,
                                                      plan_kwargs):
        plan, service, results = run_under_plan(tmp_path / "svc",
                                                plan_kwargs)
        # the plan actually exercised its seams
        assert any(plan.injected.values()), plan.describe()
        # zero lost, zero duplicated
        assert len(results) == JOBS
        assert len({r.job_id for r in results}) == JOBS
        # every fault was survivable: no error rows, and the stable
        # payload equals the fault-free farm run byte for byte.
        assert all(r.ok for r in results), \
            [r.error for r in results if not r.ok]
        assert stable_rows(results) == expected_rows(tmp_path)

    @pytest.mark.parametrize("plan_kwargs", PLANS)
    def test_same_seed_replays_identical_faults(self, tmp_path,
                                                plan_kwargs):
        first_plan, _, first = run_under_plan(tmp_path / "a",
                                              plan_kwargs)
        second_plan, _, second = run_under_plan(tmp_path / "b",
                                                plan_kwargs)
        assert first_plan.injected == second_plan.injected
        assert stable_rows(first) == stable_rows(second)

    def test_telemetry_never_perturbs_stable_rows(self, tmp_path):
        """The determinism guard: telemetry only observes.  The same
        seeded chaos run replays byte-identical stable rows with
        telemetry enabled and disabled — and the fault occurrences the
        plan injected show up as counters, not printed warnings."""
        plan_kwargs = dict(seed=23, crash_prob=0.4, crash_limit=2,
                           journal_prob=0.5, journal_limit=None)
        telemetry.disable()
        telemetry.reset()
        off_plan, _, off = run_under_plan(tmp_path / "off", plan_kwargs)
        telemetry.reset()
        telemetry.enable()
        try:
            on_plan, _, on = run_under_plan(tmp_path / "on", plan_kwargs)
            # byte-identical rows, identical fault schedule
            assert stable_rows(on) == stable_rows(off)
            assert on_plan.injected == off_plan.injected
            # injected faults became counters (per scope), not prints
            registry = telemetry.get_registry()
            for scope, times in on_plan.injected.items():
                if not times:
                    continue
                assert registry.counter("ecl_chaos_injected_total",
                                        scope=scope).value == times
            # failed journal appends were counted too
            if on_plan.injected.get("journal"):
                snapshot = telemetry.snapshot()
                names = {f["name"] for f in snapshot["metrics"]}
                assert "ecl_serve_journal_errors_total" in names
        finally:
            telemetry.disable()
            telemetry.reset()

    def test_unsurvivable_poison_quarantines_not_hangs(self, tmp_path):
        """crash_limit=None removes the survivability bound: every
        attempt of every job crashes, so every job must quarantine —
        and the batch still completes with one row per job."""
        plan, service, results = run_under_plan(
            tmp_path, dict(seed=71, crash_prob=1.0, crash_limit=None),
            max_attempts=2)
        assert len(results) == JOBS
        assert len({r.job_id for r in results}) == JOBS
        assert all(r.status == "error" for r in results)
        assert all(r.error.startswith("quarantined: ")
                   for r in results)
        assert service.quarantined == JOBS
        assert plan.injected["crash"] == JOBS * 2  # every attempt

    def test_quarantine_rows_replay_after_restart(self, tmp_path,
                                                  closed_files):
        """A quarantine row is journaled (a re-run cannot reproduce
        it): restored as a crash right before the close would leave
        it, the batch replays every poison job's row and runs none."""
        root = tmp_path / "svc"
        _plan, service, results = run_under_plan(
            root, dict(seed=71, crash_prob=1.0, crash_limit=None),
            max_attempts=2)
        assert service.quarantined == JOBS
        (lines,) = closed_files.values()
        kinds = Counter(json.loads(line)["kind"] for line in lines)
        assert kinds == {"admit": 1, "row": JOBS}
        batch_id = json.loads(lines[0])["batch"]
        shard = root / "journal" / "default" / (batch_id + ".jsonl")
        shard.write_text("\n".join(lines) + "\n")
        revived = SimulationService(data_root=str(root), workers=2)
        try:
            assert revived.recovery["replayed_rows"] == JOBS
            assert revived.recovery["resumed_jobs"] == 0
            recovered = revived.batch(batch_id)
            assert recovered.done
            assert stable_rows(recovered.results) == stable_rows(results)
            assert revived.pool.jobs_executed == 0
        finally:
            revived.shutdown(drain=True, timeout=30)

    def test_sigkilled_worker_process_degrades_nothing(self, tmp_path):
        """Process-mode chaos: SIGKILL the live worker subprocess right
        before dispatch — a real ``kill -9``, broken pipe and all.  The
        dispatcher must recycle the child, retry the in-hand job, and
        finish the batch with zero lost rows, zero duplicates, and
        byte-identical stable payloads."""
        plan, service, results = run_under_plan(
            tmp_path / "svc",
            dict(seed=131, kill_prob=1.0, kill_limit=1),
            pool_mode="process", workers=2)
        # every job's first dispatch was killed, once each
        assert plan.injected["proc_kill"] == JOBS
        pool_stats = service.pool.stats_dict()
        assert pool_stats["mode"] == "process"
        assert pool_stats["proc_crashes"] == JOBS
        assert pool_stats["proc_restarts"] >= 1
        # zero lost, zero duplicated, byte-identical
        assert len(results) == JOBS
        assert len({r.job_id for r in results}) == JOBS
        assert all(r.ok for r in results), \
            [r.error for r in results if not r.ok]
        assert stable_rows(results) == expected_rows(tmp_path)

    def test_process_chaos_same_seed_same_outcome(self, tmp_path):
        kwargs = dict(seed=139, kill_prob=0.5, kill_limit=1)
        first_plan, _, first = run_under_plan(
            tmp_path / "a", kwargs, pool_mode="process", workers=2)
        second_plan, _, second = run_under_plan(
            tmp_path / "b", kwargs, pool_mode="process", workers=2)
        assert first_plan.injected == second_plan.injected
        assert first_plan.injected["proc_kill"] > 0
        assert stable_rows(first) == stable_rows(second)

    def test_chaos_survives_crash_recovery(self, tmp_path, closed_files):
        """Faults before the crash, recovery after: replayed rows plus
        re-executed ones still reconstruct the fault-free batch."""
        root = tmp_path / "svc"
        service = SimulationService(data_root=str(root), workers=2,
                                    start=False)
        plan = FaultPlan(97, crash_prob=0.5, crash_limit=2,
                         post_crash_prob=0.4).install(service)
        service.pool.start()
        batch = service.submit(DOCUMENT)
        assert batch.wait(timeout=120)
        plan.uninstall()
        service.shutdown(drain=True, timeout=30)
        # amputate mid-batch: the file held its admit alone; add the
        # first 3 rows as an earlier release would have journaled them
        lines = amputated_file(root, closed_files, batch.results[:3])
        revived = SimulationService(data_root=str(root), workers=2)
        try:
            assert revived.recovery["recovered_batches"] == 1
            assert revived.recovery["replayed_rows"] == 3
            assert revived.recovery["resumed_jobs"] == JOBS - 3
            recovered = revived.batch(json.loads(lines[0])["batch"])
            assert recovered.wait(timeout=120)
            assert stable_rows(recovered.results) == \
                expected_rows(tmp_path)
        finally:
            revived.shutdown(drain=True, timeout=30)

    def test_process_crash_then_recovery_replay(self, tmp_path,
                                                closed_files):
        """Recovery compose, process edition: a run whose worker
        children get SIGKILLed, then a service crash (amputated WAL),
        then a *process-mode* revival replaying the journal.  Replayed
        rows plus re-executed ones reconstruct the fault-free batch."""
        root = tmp_path / "svc"
        plan, service, results = run_under_plan(
            root, dict(seed=149, kill_prob=0.6, kill_limit=1),
            pool_mode="process", workers=2)
        assert plan.injected["proc_kill"] > 0
        assert len(results) == JOBS
        # amputate mid-batch: the file held its admit alone; add the
        # first 3 rows as an earlier release would have journaled them
        lines = amputated_file(root, closed_files, results[:3])
        revived = SimulationService(data_root=str(root), workers=2,
                                    pool_mode="process")
        try:
            assert revived.recovery["recovered_batches"] == 1
            assert revived.recovery["replayed_rows"] == 3
            assert revived.recovery["resumed_jobs"] == JOBS - 3
            recovered = revived.batch(json.loads(lines[0])["batch"])
            assert recovered.wait(timeout=120)
            assert stable_rows(recovered.results) == \
                expected_rows(tmp_path)
        finally:
            revived.shutdown(drain=True, timeout=30)


#: One worker drains a 15-job batch queued up front in dispatch groups
#: of 1, 2, 4 and 8 jobs (a group holds one job more than the rows its
#: batch has landed), so jobs 7..14 form the 8-job group.
GROUP_DOCUMENT = {
    "spec_version": 2,
    "designs": {"d": {"text": ECHO}},
    "jobs": [{"design": "d", "modules": ["echo"], "engine": "efsm",
              "n_instances": 15, "length": 8}],
}
GROUP = range(7, 15)
#: Member 3 of the 8-job group: the job every fault strikes.
STRUCK = GROUP[3]


class LedgerFaultOnce:
    """A picklable ``TraceLedger.fault_hook``: the first trace put of
    one job raises OSError, in whichever process runs it (a marker file
    carries "first" across a recycled worker child)."""

    def __init__(self, job_id, marker):
        self.job_id = job_id
        self.marker = marker

    def __call__(self, op, key):
        if key != self.job_id:
            return
        try:
            os.close(os.open(self.marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return
        raise OSError("injected ledger failure")


def run_group_fault(root, pool_mode, fault):
    """Run GROUP_DOCUMENT with one fault striking STRUCK's first
    attempt; returns (service, batch, group sizes, hook visits by job
    index as (attempts, not_before, when))."""
    service = SimulationService(data_root=str(root), workers=1,
                                pool_mode=pool_mode, start=False)
    visits = defaultdict(list)
    sizes = []

    def visit(entry):
        visits[entry.job.index].append(
            (entry.attempts, entry.not_before, monotonic()))
        if (fault == "crash" and entry.job.index == STRUCK
                and entry.attempts == 0):
            raise InjectedCrash("member 3 crashes before it runs")

    def kill(entry, worker):
        if entry.job.index == STRUCK and entry.attempts == 0:
            worker.kill()

    def logged(space, batch, jobs, worker, on_rows):
        sizes.append(len(jobs))
        return dispatch(space, batch, jobs, worker, on_rows)

    dispatch = service._dispatch_job
    service._dispatch_job = logged
    service.pool.fault_hook = visit
    if fault == "kill":
        service.pool.process_fault_hook = kill
    try:
        batch = service.submit(GROUP_DOCUMENT)
        if fault == "ledger":
            hook = LedgerFaultOnce(batch.jobs[STRUCK].job_id,
                                   str(root / "ledger-fault"))
            service.pool.process_config["ledger_fault_hook"] = hook
        service.pool.start()
        assert batch.wait(timeout=120), "group fault batch hung"
        assert service.pool.wait_idle(timeout=30)
    finally:
        service.shutdown(drain=True, timeout=30)
    return service, batch, sizes, visits


class TestGroupFaultAttribution:
    """A fault inside a dispatch group is charged to the one member it
    struck: members before it stay recorded once, members after it
    requeue untouched."""

    @pytest.mark.parametrize("pool_mode,fault", [
        ("thread", "crash"), ("thread", "ledger"),
        ("process", "crash"), ("process", "ledger"), ("process", "kill"),
    ])
    def test_fault_charges_only_the_struck_member(self, tmp_path,
                                                  offered_results,
                                                  pool_mode, fault):
        service, batch, sizes, visits = run_group_fault(
            tmp_path / "svc", pool_mode, fault)
        assert sizes[:4] == [1, 2, 4, 8]
        # members 0-2 (and everything outside the group) ran once
        for index in range(15):
            if index != STRUCK:
                assert len(visits[index]) == 1, (index, visits[index])
        # member 3: one attempt charged, with the deterministic backoff
        first, retry = visits[STRUCK]
        assert (first[0], retry[0]) == (0, 1)
        delay = backoff_delay(batch.jobs[STRUCK].job_id, 1)
        assert delay <= retry[1] - first[2] <= delay + 5.0
        # members 4-7 went back with attempts and not_before untouched
        for index in GROUP[4:]:
            ((attempts, not_before, _),) = visits[index]
            assert (attempts, not_before) == (0, 0.0)
        # every job's row offered exactly once
        assert sorted(offered_results.values()) == [1] * 15
        assert set(offered_results) == {job.job_id for job in batch.jobs}
        assert service.pool.worker_deaths == 1
        assert service.quarantined == 0
        recycled = 0 if fault == "crash" else 1
        assert service.pool.proc_crashes == recycled
        assert stable_rows(batch.results) == \
            expected_rows(tmp_path, GROUP_DOCUMENT)
