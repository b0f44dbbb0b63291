"""Unit tests for SimulationService: warmth, tenancy, faults, drain."""

import json
import re
import threading
import time
import warnings

import pytest

from repro.errors import EclError, NotFoundError
from repro.farm.ledger import canonical_json
from repro.serve import BatchJournal, QueueFullError, SimulationService

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

#: ``echo``'s interface under other source: it never answers.
MUTE = """
module echo (input pure ping, output pure pong)
{
    while (1) { await (ping); }
}
"""


def document(source=ECHO, module="echo", engines=("efsm",), traces=2,
             length=8, label="d"):
    return {
        "designs": {label: {"text": source}},
        "jobs": [{"design": label, "modules": [module],
                  "engines": list(engines), "traces": traces,
                  "length": length}],
    }


def make_service(**kwargs):
    kwargs.setdefault("workers", 2)
    return SimulationService(**kwargs)


def record_states(service):
    """The WorkerStates the service's thread workers build, in order:
    wraps the pool's state factory, so call it before the first
    submission."""
    states = []
    factory = service.pool.process_config["worker_state"]

    def recording(**kwargs):
        states.append(factory(**kwargs))
        return states[-1]

    service.pool.process_config["worker_state"] = recording
    return states


def direct_rows(doc, ledger_root=None):
    """The stable rows of ``doc``'s jobs run by a fresh WorkerState."""
    from repro.farm import WorkerState
    from repro.farm.spec import expand_document, load_designs

    designs = load_designs(doc["designs"], None, "<test>")
    state = WorkerState(designs, ledger_root=ledger_root)
    return [state.run_job(job).to_dict(volatile=False)
            for job in expand_document(doc, designs)]


class TestSubmission:
    def test_submit_runs_batch_and_streams_results(self):
        service = make_service()
        try:
            batch = service.submit(document(traces=3))
            rows = list(batch.stream(timeout=30))
            assert len(rows) == 3
            assert all(r.status == "ok" for r in rows)
            assert batch.done
        finally:
            service.shutdown()

    def test_results_match_fresh_worker_state(self):
        """Service results are the farm's results: same jobs, same
        seeds, same stable serialization."""
        from repro.farm import WorkerState
        from repro.farm.spec import expand_document, load_designs

        doc = document(traces=2)
        service = make_service()
        try:
            batch = service.submit(doc)
            assert batch.wait(timeout=30)
        finally:
            service.shutdown()
        designs = load_designs(doc["designs"], None, "<test>")
        jobs = expand_document(doc, designs)
        direct = [WorkerState(designs).run_job(j) for j in jobs]
        service_rows = sorted(batch.results, key=lambda r: r.index)
        assert [r.to_dict(volatile=False) for r in service_rows] == \
            [r.to_dict(volatile=False) for r in direct]

    def test_file_path_designs_rejected(self):
        service = make_service(workers=0)
        doc = {"designs": {"d": "evil/../../etc/passwd"},
               "jobs": [{"design": "d"}]}
        with pytest.raises(EclError, match="inline"):
            service.submit(doc)

    def test_bad_document_rejected(self):
        service = make_service(workers=0)
        with pytest.raises(EclError, match="JSON object"):
            service.submit(["not", "a", "dict"])
        with pytest.raises(EclError, match="designs"):
            service.submit({"jobs": [{"design": "d"}]})

    def test_unknown_batch_raises(self):
        service = make_service(workers=0)
        with pytest.raises(NotFoundError, match="unknown batch"):
            service.batch("nope")


class TestBackpressure:
    def test_queue_full_rejects_batch_atomically(self):
        # workers=0: nothing drains the queue, so depth is exact.
        service = make_service(workers=0, queue_depth=3)
        service.submit(document(traces=2))
        with pytest.raises(QueueFullError, match="queue_full"):
            service.submit(document(traces=2))
        # the rejected batch admitted nothing; a fitting one still goes
        service.submit(document(traces=1))
        stats = service.queue.stats_dict()
        assert stats["queued"] == 3
        assert stats["rejected"] == 2

    def test_priority_orders_queued_work(self):
        service = make_service(workers=0, queue_depth=16)
        low = service.submit(document(traces=1), priority=0)
        high = service.submit(document(traces=1), priority=9)
        mid = service.submit(document(traces=1), priority=4)
        order = []
        while True:
            entry = service.queue.get(timeout=0)
            if entry is None:
                break
            order.append(entry.batch.id)
        assert order == [high.id, mid.id, low.id]


class TestWarmPool:
    def test_repeat_submission_has_zero_compile_misses(
            self, tmp_path, artifact_files):
        service = make_service(data_root=str(tmp_path))
        try:
            first = service.submit(document(traces=2))
            assert first.wait(timeout=30)
            stored = artifact_files(tmp_path)
            assert stored
            second = service.submit(document(traces=2))
            assert second.wait(timeout=30)
            assert artifact_files(tmp_path) == stored
            assert [r.status for r in second.results] == ["ok", "ok"]
        finally:
            service.shutdown()

    def test_changed_design_builds_beside_the_warm_one(self):
        service = make_service(workers=1)
        states = record_states(service)
        try:
            batch = service.submit(document())
            assert batch.wait(timeout=30)
            (state,) = states
            warm = state._builds[("d", ECHO)]
            # same source: the warm build serves again
            service.submit(document()).wait(timeout=30)
            assert state._builds[("d", ECHO)] is warm
            # different source under the same label: its own build
            changed = service.submit(
                document(source=ONCE, module="once"))
            assert changed.wait(timeout=30)
            assert state._builds[("d", ONCE)] is not warm
            # the design really is `once` (terminates on go; "ok" when
            # the random trace never presents go)
            assert all(r.status in ("ok", "terminated")
                       for r in changed.results)
            assert all(r.module == "once" for r in changed.results)
            assert state.designs == {}
        finally:
            service.shutdown()

    def test_revisions_are_bounded_by_resident_builds(self):
        """A tenant served 30 distinct revisions keeps no label map and
        at most RESIDENT_BUILDS builds."""
        from repro.farm.worker import RESIDENT_BUILDS

        service = make_service(workers=1)
        states = record_states(service)
        try:
            for number in range(30):
                source = ECHO.replace("echo", "echo_r%d" % number)
                batch = service.submit(document(
                    source=source, module="echo_r%d" % number, traces=1,
                    label="d%d" % number))
                assert batch.wait(timeout=30)
                assert batch.results[0].status == "ok"
            (state,) = states
            assert state.designs == {}
            assert len(state._builds) <= RESIDENT_BUILDS
        finally:
            service.shutdown()


class TestBatchSources:
    """A batch runs against the sources it was admitted with, whatever
    another batch binds the same label to."""

    def _rows(self, batch):
        return [r.to_dict(volatile=False)
                for r in sorted(batch.results, key=lambda r: r.index)]

    @pytest.mark.parametrize("pool_mode", ["thread", "process"])
    def test_same_label_two_sources_admitted_before_either_runs(
            self, pool_mode, tmp_path):
        docs = [document(source=ECHO, engines=("native",), traces=3),
                document(source=MUTE, engines=("native",), traces=3)]
        truths = [direct_rows(doc, str(tmp_path / "direct"))
                  for doc in docs]
        emitted = [sum(row["emitted_events"] for row in truth)
                   for truth in truths]
        assert emitted[0] > 0 and emitted[1] == 0
        service = make_service(workers=1, start=False, pool_mode=pool_mode,
                               data_root=str(tmp_path / "serve"))
        try:
            batches = [service.submit(doc) for doc in docs]
            service.pool.start()
            for batch in batches:
                assert batch.wait(timeout=60)
        finally:
            service.shutdown()
        assert [self._rows(batch) for batch in batches] == truths
        # one label, one job id per index: the ledger index keeps an
        # entry for each revision's trace
        ids = [[row["job_id"] for row in truth] for truth in truths]
        assert ids[0] == ids[1]
        entries = service.ledger_entries("default")
        assert len(entries) == 6
        assert sorted(entry["job_id"] for entry in entries) == \
            sorted(ids[0] * 2)


class TestVectorDispatch:
    """Vector jobs group by the one per-batch rule and run per job on
    the resident native driver: the service never builds a sweep.
    Without numpy every vector row is the same error row either way."""

    def test_vector_jobs_group_within_their_batch(self):
        doc = document(engines=("vector",), traces=4)
        service = make_service(workers=1, start=False)
        log = log_dispatches(service)
        try:
            batches = [service.submit(doc) for _ in range(3)]
            service.pool.start()
            for batch in batches:
                assert batch.wait(timeout=30)
            assert service.pool.wait_idle(timeout=30)
        finally:
            service.shutdown()
        # per batch: the first job alone, then 2, then the last one
        assert [len(jobs) for _, jobs in log] == [1, 2, 1] * 3
        for _, jobs in log:
            owners = {batch.id for batch in batches
                      for job in jobs if job in batch}
            assert len(owners) == 1
        truth = direct_rows(doc)
        for batch in batches:
            rows = sorted(batch.results, key=lambda r: r.index)
            assert all(r.engine == "vector" for r in rows)
            assert [r.to_dict(volatile=False) for r in rows] == truth

    def test_wide_record_free_batch_never_sweeps(self, monkeypatch):
        """Even a batch of SWEEP_MIN_LANES record-free vector jobs (no
        ledger: no data_root) runs per job through the service."""
        from repro.farm.worker import SWEEP_MIN_LANES, WorkerState

        def no_sweep(state, jobs):
            raise AssertionError("the service built a sweep")

        monkeypatch.setattr(WorkerState, "run_sweep", no_sweep)
        doc = document(engines=("vector",), traces=SWEEP_MIN_LANES,
                       length=4)
        service = make_service(workers=1)
        try:
            batch = service.submit(doc)
            assert batch.wait(timeout=60)
        finally:
            service.shutdown()
        assert len(batch.results) == SWEEP_MIN_LANES
        assert all(r.engine == "vector" for r in batch.results)

    def test_vector_groups_are_capped_by_group_limit(self):
        from repro.serve.service import GROUP_LIMIT

        doc = document(engines=("vector",), traces=4 * GROUP_LIMIT)
        service = make_service(workers=1, start=False)
        log = log_dispatches(service)
        try:
            batch = service.submit(doc)
            service.pool.start()
            assert batch.wait(timeout=60)
            assert service.pool.wait_idle(timeout=30)
        finally:
            service.shutdown()
        sizes = [len(jobs) for _, jobs in log]
        assert sizes[0] == 1
        assert max(sizes) == GROUP_LIMIT
        assert sum(sizes) == 4 * GROUP_LIMIT
        rows = sorted(batch.results, key=lambda r: r.index)
        assert [r.to_dict(volatile=False) for r in rows] \
            == direct_rows(doc)


def log_dispatches(service, gate=None):
    """Wrap the service's dispatch entry point; returns the list each
    dispatch appends its tenant and jobs to.  ``gate(tenant)`` runs
    after a dispatch is logged and before it executes, so a test can
    hold a dispatch there."""
    log = []
    dispatch = service._dispatch_job

    def logged(space, batch, jobs, worker, on_rows):
        log.append((space.name, list(jobs)))
        if gate is not None:
            gate(space.name)
        return dispatch(space, batch, jobs, worker, on_rows)

    service._dispatch_job = logged
    return log


class TestDispatchGroups:
    """Jobs of one batch share a dispatch: a group holds one job more
    than the rows its batch has landed, capped by GROUP_LIMIT."""

    def test_first_dispatch_alone_and_groups_bounded(self):
        from repro.serve.service import GROUP_LIMIT

        service = make_service(workers=1, start=False)
        log = log_dispatches(service)
        try:
            batch = service.submit(document(engines=("native",),
                                            traces=64, length=16))
            service.pool.start()
            assert batch.wait(timeout=60)
            assert service.pool.wait_idle(timeout=30)
        finally:
            service.shutdown()
        sizes = [len(jobs) for _, jobs in log]
        assert sizes[0] == 1
        assert max(sizes) == GROUP_LIMIT
        assert sum(sizes) == 64
        assert service.pool.dispatches == len(sizes)
        assert service.pool.jobs_executed == 64
        health = service.health_dict()
        assert health["dispatches"] < health["jobs_executed"] == 64
        assert all(r.ok for r in batch.results)

    def test_groups_never_mix_batches(self):
        service = make_service(workers=1, start=False)
        log = log_dispatches(service)
        try:
            batches = [service.submit(document(engines=("native",),
                                               traces=8))
                       for _ in range(3)]
            service.pool.start()
            for batch in batches:
                assert batch.wait(timeout=60)
        finally:
            service.shutdown()
        for _, jobs in log:
            owners = {batch.id for batch in batches
                      for job in jobs if job in batch}
            assert len(owners) == 1
        assert sum(len(jobs) for _, jobs in log) == 24

    def test_light_tenant_lands_within_two_heavy_dispatches(self):
        # The third heavy dispatch is held in the wrapper until the
        # light batch is queued: the test depends on dispatch order
        # alone, never on how fast the heavy jobs run.
        held, release = threading.Event(), threading.Event()

        def gate(tenant):
            heavy_dispatches = sum(name == "heavy" for name, _ in log)
            if tenant == "heavy" and heavy_dispatches == 3:
                held.set()
                release.wait(timeout=60)

        service = make_service(workers=1)
        log = log_dispatches(service, gate)
        try:
            heavy = service.submit(document(engines=("native",),
                                            traces=256, length=64),
                                   tenant="heavy")
            assert held.wait(timeout=60)
            before = len(log)
            light = service.submit(document(engines=("native",),
                                            traces=1), tenant="light")
            release.set()
            assert light.wait(timeout=60)
        finally:
            release.set()
            service.shutdown()
        tenants = [tenant for tenant, _ in log[before:]]
        assert tenants.index("light") <= 2
        heavy_first = sum(len(jobs) for tenant, jobs
                          in log[:before + tenants.index("light")]
                          if tenant == "heavy")
        assert heavy_first < heavy.total

    def test_every_engine_groups_by_one_rule(self):
        from repro.engines import adapter_names

        for engine in adapter_names():
            service = make_service(workers=1, start=False)
            try:
                batches = [service.submit(document(engines=(engine,),
                                                   traces=3))
                           for _ in range(2)]
                service.pool.start()
                for batch in batches:
                    assert batch.wait(timeout=60)
                assert service.pool.wait_idle(timeout=30)
                # per batch: the first job alone, then the other two
                assert service.pool.dispatches == 4, engine
                assert service.pool.jobs_executed == 6, engine
            finally:
                service.shutdown()


class TestWorkerDeath:
    def test_crashed_worker_retries_job_to_success(self):
        service = make_service(workers=1, max_attempts=3)
        crashes = {"left": 2}

        def fault(entry):
            if crashes["left"] > 0:
                crashes["left"] -= 1
                raise MemoryError("injected")

        service.pool.fault_hook = fault
        try:
            batch = service.submit(document(traces=1))
            assert batch.wait(timeout=30)
            assert [r.status for r in batch.results] == ["ok"]
            assert service.pool.worker_deaths == 2
        finally:
            service.shutdown()

    def test_exhausted_retries_become_error_result_not_hang(self):
        service = make_service(workers=1, max_attempts=2)
        service.pool.fault_hook = lambda entry: (_ for _ in ()).throw(
            MemoryError("always"))
        try:
            batch = service.submit(document(traces=1))
            assert batch.wait(timeout=30)
            (row,) = batch.results
            assert row.status == "error"
            assert "worker died (2 attempt(s))" in row.error
            # the synthesized row still identifies its job
            assert row.job_id == batch.jobs[0].job_id
        finally:
            service.shutdown()

    def test_quarantine_is_structured_and_counted(self):
        service = make_service(workers=1, max_attempts=2)
        service.pool.fault_hook = lambda entry: (_ for _ in ()).throw(
            MemoryError("poison"))
        try:
            batch = service.submit(document(traces=1))
            assert batch.wait(timeout=30)
            (row,) = batch.results
            assert row.error.startswith("quarantined: ")
            assert service.quarantined == 1
            assert service.health_dict()["quarantined"] == 1
        finally:
            service.shutdown()

    def test_crash_after_record_does_not_duplicate_result(self):
        """The post-execute crash window: the result landed (and was
        journaled), then the worker died.  The retry must dedupe, not
        re-run — one row per job, always."""
        service = make_service(workers=1)
        crashes = {"left": 1}

        def post_fault(entry):
            if crashes["left"] > 0:
                crashes["left"] -= 1
                raise MemoryError("crash after record")

        service.pool.post_fault_hook = post_fault
        try:
            batch = service.submit(document(traces=2))
            assert batch.wait(timeout=30)
            assert service.pool.worker_deaths == 1
            assert len(batch.results) == 2
            assert len({r.job_id for r in batch.results}) == 2
            assert all(r.status == "ok" for r in batch.results)
        finally:
            service.shutdown()


class TestOneWorkerPath:
    """Both pool modes run every job on a pool worker: the service
    process builds no worker state, and a thread slot recycles a dead
    worker the way a process slot recycles its child."""

    def test_process_batch_needs_no_parent_worker_state(
            self, monkeypatch, tmp_path):
        from repro.farm.worker import WorkerState

        def refuse(state, *args, **kwargs):
            raise AssertionError("the service process built a WorkerState")

        monkeypatch.setattr(WorkerState, "__init__", refuse)
        service = make_service(workers=1, pool_mode="process",
                               data_root=str(tmp_path))
        try:
            batch = service.submit(document(traces=2))
            assert batch.wait(timeout=120)
        finally:
            service.shutdown()
        assert [r.status for r in batch.results] == ["ok", "ok"]
        assert service.status_dict()["tenants"] == [
            {"tenant": "default", "jobs_run": 2}]

    def test_thread_slot_recycles_a_dead_worker(self, tmp_path):
        service = make_service(workers=1, start=False,
                               data_root=str(tmp_path))
        slots = []
        failed = []

        def fail_first_put(op, key):
            if not failed:
                failed.append(key)
                raise OSError("injected ledger failure")

        service.pool.fault_hook = lambda entry: slots.append(
            threading.current_thread())
        service.pool.process_config["ledger_fault_hook"] = fail_first_put
        service.pool.start()
        try:
            batch = service.submit(document(traces=1))
            assert batch.wait(timeout=30)
        finally:
            service.shutdown()
        # the worker reported "dead"; the job retried and landed
        assert [r.status for r in batch.results] == ["ok"]
        assert len(failed) == 1
        stats = service.pool.stats_dict()
        assert stats["worker_deaths"] == 1
        assert (stats["proc_crashes"], stats["proc_restarts"]) == (1, 1)
        # one slot thread ran both attempts
        assert len(slots) == 2 and slots[0] is slots[1]
        assert service.pool._threads == [slots[0]]


class TestDeadlines:
    def test_deadline_exceeded_in_queue_refuses_execution(self):
        # start=False: jobs age in the queue past their deadline, then
        # the late-started pool refuses instead of running stale work.
        service = make_service(workers=1, start=False)
        doc = document(traces=2)
        doc["jobs"][0]["deadline_s"] = 0.05
        batch = service.submit(doc)
        time.sleep(0.15)
        service.pool.start()
        try:
            assert batch.wait(timeout=30)
            assert all(r.status == "error" for r in batch.results)
            assert all(r.error.startswith("deadline_exceeded")
                       for r in batch.results)
            assert service.deadline_misses == 2
        finally:
            service.shutdown()

    def test_batch_ttl_expires_unexecuted_jobs(self):
        service = make_service(workers=1, start=False)
        doc = document(traces=2)
        doc["ttl_s"] = 0.05
        batch = service.submit(doc)
        time.sleep(0.15)
        service.pool.start()
        try:
            assert batch.wait(timeout=30)
            assert all(r.error.startswith("expired")
                       for r in batch.results)
            assert service.expired_jobs == 2
        finally:
            service.shutdown()

    def test_deadline_does_not_change_job_identity(self):
        from repro.farm.spec import expand_document, load_designs
        doc = document(traces=1)
        designs = load_designs(doc["designs"], None, "<test>")
        (plain,) = expand_document(doc, designs)
        doc["jobs"][0]["deadline_s"] = 5.0
        (bounded,) = expand_document(doc, designs)
        assert bounded.deadline_s == 5.0
        # policy, not identity: same trace either way
        assert bounded.job_id == plain.job_id

    def test_bad_ttl_rejected(self):
        service = make_service(workers=0)
        for ttl in (0, -1, "soon", True):
            doc = document()
            doc["ttl_s"] = ttl
            with pytest.raises(EclError, match="ttl_s"):
                service.submit(doc)

    def test_fast_jobs_beat_generous_deadlines(self):
        service = make_service()
        doc = document(traces=2)
        doc["jobs"][0]["deadline_s"] = 60.0
        try:
            batch = service.submit(doc)
            assert batch.wait(timeout=30)
            assert all(r.status == "ok" for r in batch.results)
            assert service.deadline_misses == 0
        finally:
            service.shutdown()


def journal_earlier_rows(root, batch_id, results):
    """Append worker rows to a batch file the way an earlier release
    journaled every row: through :meth:`BatchJournal.row`."""
    journal = BatchJournal(str(root / "journal"))
    for result in results:
        journal.row("default", batch_id, result)


class TestJournalRecovery:
    def test_clean_run_journals_admit_then_end(self, tmp_path,
                                               closed_files,
                                               journal_files):
        service = make_service(data_root=str(tmp_path))
        try:
            batch = service.submit(document(traces=2))
            assert batch.wait(timeout=30)
        finally:
            service.shutdown()
        # worker rows are never journaled: the file held the admit
        # and nothing else when its close deleted it
        kinds = [json.loads(line)["kind"]
                 for line in closed_files[batch.id] if line]
        assert kinds == ["admit"]
        assert journal_files(tmp_path) == []

    def test_finished_batches_leave_no_journal_file(self, tmp_path,
                                                   journal_files):
        service = make_service(data_root=str(tmp_path), start=False,
                               queue_depth=6)
        try:
            held = service.submit(document(traces=4))
            # admitted, then refused for the room left (HTTP 429)
            with pytest.raises(QueueFullError):
                service.submit(document(traces=3))
            service.pool.start()
            assert held.wait(timeout=30)
            for length in (4, 6, 8):
                batch = service.submit(document(traces=2, length=length))
                assert batch.wait(timeout=30)
        finally:
            assert service.shutdown()
        assert journal_files(tmp_path) == []
        # a batch cancelled by a shutdown without drain closes too
        stopped = make_service(data_root=str(tmp_path), workers=0)
        assert stopped.recovery["recovered_batches"] == 0
        cancelled = stopped.submit(document(traces=3))
        stopped.shutdown(drain=False, timeout=5)
        assert all(r.error.startswith("cancelled")
                   for r in cancelled.results)
        assert journal_files(tmp_path) == []

    def test_open_batch_holds_exactly_its_file(self, tmp_path,
                                               journal_files):
        service = make_service(data_root=str(tmp_path), workers=0)
        batch = service.submit(document(traces=2))
        try:
            assert journal_files(tmp_path) == \
                ["default/%s.jsonl" % batch.id]
        finally:
            service.shutdown(drain=False, timeout=5)
        assert journal_files(tmp_path) == []

    def test_legacy_tenant_wal_refuses_to_start(self, tmp_path):
        (tmp_path / "journal").mkdir()
        shard = tmp_path / "journal" / "default.jsonl"
        shard.write_text('{"kind": "admit", "batch": "b"}\n')
        with pytest.raises(EclError, match=re.escape(str(shard))):
            make_service(data_root=str(tmp_path), workers=0)
        assert shard.exists()

    def test_crash_recovery_reruns_every_worker_job(self, tmp_path,
                                                    closed_files):
        doc = document(traces=4)
        service = make_service(data_root=str(tmp_path))
        try:
            batch = service.submit(doc)
            assert batch.wait(timeout=30)
            stable = sorted(
                json.dumps(r.to_dict(volatile=False), sort_keys=True)
                for r in batch.results)
        finally:
            service.shutdown()
        # simulate a kill -9 mid-batch: restore the batch file as it
        # stood (its admit alone), and add a torn tail.
        lines = closed_files[batch.id]
        assert len(lines) == 1
        shard = tmp_path / "journal" / "default" / (batch.id + ".jsonl")
        shard.write_text(lines[0] + '\n{"kind": "row", "ba')
        with pytest.warns(UserWarning, match="torn"):
            revived = make_service(data_root=str(tmp_path))
        try:
            assert revived.recovery["recovered_batches"] == 1
            assert revived.recovery["replayed_rows"] == 0
            assert revived.recovery["resumed_jobs"] == batch.total
            assert revived.recovery["torn_lines"] == 1
            batch_id = json.loads(lines[0])["batch"]
            recovered = revived.batch(batch_id)
            assert recovered.recovered
            assert recovered.wait(timeout=30)
            # zero lost, zero duplicated, byte-identical stable rows
            assert sorted(
                json.dumps(r.to_dict(volatile=False), sort_keys=True)
                for r in recovered.results) == stable
        finally:
            revived.shutdown()

    def test_journal_with_parent_format_rows_recovers(self, tmp_path,
                                                      closed_files,
                                                      journal_files):
        """A batch file from earlier releases, which journaled worker
        rows — as stable bytes, and before that as ``canonical_json``
        objects — recovers: both formats replay, the other jobs
        re-run."""
        service = make_service(data_root=str(tmp_path))
        try:
            batch = service.submit(document(traces=4))
            assert batch.wait(timeout=30)
            stable = sorted(r.stable_json() for r in batch.results)
        finally:
            service.shutdown()
        lines = closed_files[batch.id]
        shard = tmp_path / "journal" / "default" / (batch.id + ".jsonl")
        shard.write_text(lines[0] + "\n")
        journal_earlier_rows(tmp_path, batch.id, batch.results[:2])
        first, second = shard.read_text().splitlines()[1:]
        shard.write_text("\n".join(
            [lines[0], canonical_json(json.loads(first)), second]) + "\n")
        revived = make_service(data_root=str(tmp_path))
        try:
            assert revived.recovery["replayed_rows"] == 2
            assert revived.recovery["resumed_jobs"] == 2
            recovered = revived.batch(json.loads(lines[0])["batch"])
            assert recovered.wait(timeout=30)
            assert sorted(r.stable_json() for r in recovered.results) \
                == stable
        finally:
            revived.shutdown()
        # the revival closed the batch, and its file as it closed
        # still holds both earlier rows, one per format
        assert journal_files(tmp_path) == []
        copy = tmp_path / "copy" / "default" / (batch.id + ".jsonl")
        copy.parent.mkdir(parents=True)
        copy.write_text("\n".join(closed_files[batch.id]) + "\n")
        replay = BatchJournal(str(tmp_path / "copy")).replay("default")
        (record,) = replay.batches.values()
        assert sorted(json.dumps(row, sort_keys=True, separators=(",", ":"))
                      .encode() for row in record.rows.values()) == \
            sorted(r.stable_json() for r in batch.results[:2])

    def test_recovered_complete_batch_is_closed_not_rerun(self, tmp_path,
                                                          closed_files):
        service = make_service(data_root=str(tmp_path))
        try:
            batch = service.submit(document(traces=2))
            assert batch.wait(timeout=30)
        finally:
            service.shutdown()
        # a file an earlier release left with every row journaled:
        # the batch finished, the close was lost to the crash.
        lines = closed_files[batch.id]
        shard = tmp_path / "journal" / "default" / (batch.id + ".jsonl")
        shard.write_text(lines[0] + "\n")
        journal_earlier_rows(tmp_path, batch.id, batch.results)
        revived = make_service(data_root=str(tmp_path), workers=0)
        try:
            assert revived.recovery["recovered_batches"] == 1
            assert revived.recovery["replayed_rows"] == 2
            assert revived.recovery["resumed_jobs"] == 0
            recovered = revived.batch(json.loads(lines[0])["batch"])
            assert recovered.done  # complete purely from replay
            assert sorted(r.stable_json() for r in recovered.results) \
                == sorted(r.stable_json() for r in batch.results)
        finally:
            revived.shutdown(drain=False, timeout=5)
        # the close was journaled again: a third start recovers nothing
        assert not shard.exists()
        third = make_service(data_root=str(tmp_path), workers=0)
        assert third.recovery["recovered_batches"] == 0
        third.shutdown(drain=False, timeout=5)

    def test_last_row_is_visible_only_after_batch_close_out(self,
                                                             tmp_path):
        """While the ``end`` append is stalled, no reader holds the
        completing row; once it lands, the batch's completion metrics
        already have."""
        import threading

        from repro import telemetry

        entered, release = threading.Event(), threading.Event()

        def stall_end(kind, key):
            if kind == "end":
                entered.set()
                release.wait(timeout=30)

        telemetry.reset()
        telemetry.enable()
        service = make_service(data_root=str(tmp_path), workers=1)
        service.journal.fault_hook = stall_end
        try:
            batch = service.submit(document(traces=2))
            assert entered.wait(timeout=30)
            assert not batch.done
            assert batch.wait(timeout=0) is False
            assert len(list(batch.stream(timeout=0.05))) == 1
            release.set()
            assert batch.wait(timeout=30)
            families = {family["name"]: family for family in
                        telemetry.snapshot()["metrics"]}
            (latency,) = families["ecl_serve_batch_seconds"]["samples"]
            assert latency["count"] == 1
            (closed,) = families[
                "ecl_serve_batches_completed_total"]["samples"]
            assert closed["value"] == 1
        finally:
            release.set()
            service.journal.fault_hook = None
            service.shutdown()
            telemetry.disable()
            telemetry.reset()

    def test_journal_failure_degrades_durability_not_results(self,
                                                             tmp_path):
        service = make_service(data_root=str(tmp_path))

        def fail(kind, key):
            raise OSError("disk full")

        service.journal.fault_hook = fail
        try:
            # Journal faults are counted, never warned/printed (the
            # signal lives in journal_errors and the telemetry counter).
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                batch = service.submit(document(traces=2))
                assert batch.wait(timeout=30)
            assert all(r.status == "ok" for r in batch.results)
            assert service.journal_errors >= 1
        finally:
            service.journal.fault_hook = None
            service.shutdown()

    def test_rejected_batch_leaves_no_file(self, tmp_path, journal_files):
        service = make_service(data_root=str(tmp_path), workers=0,
                               queue_depth=4)
        held = service.submit(document(traces=3))
        # fits the depth but not the room left: admitted, then closed
        with pytest.raises(QueueFullError):
            service.submit(document(traces=3))
        # past the depth itself: refused before expansion, unjournaled
        with pytest.raises(QueueFullError, match="expands to"):
            service.submit(document(traces=5))
        # only the held batch keeps its file
        assert journal_files(tmp_path) == ["default/%s.jsonl" % held.id]
        assert service.queue.stats_dict()["rejected"] == 3 + 5
        # only the held batch resurrects on restart
        revived = make_service(data_root=str(tmp_path), workers=0)
        assert revived.recovery["recovered_batches"] == 1
        assert revived.recovery["resumed_jobs"] == held.total
        revived.shutdown(drain=False, timeout=5)

    def test_batch_over_tenant_quota_writes_no_admit(self, tmp_path,
                                                     journal_files):
        service = make_service(data_root=str(tmp_path), workers=0,
                               max_queued_per_tenant=3)
        kinds = []
        service.journal.fault_hook = lambda kind, key: kinds.append(kind)
        try:
            held = service.submit(document(traces=2))
            with pytest.raises(EclError, match="tenant_quota"):
                service.submit(document(traces=2))
            # the refused batch never touched the journal
            assert kinds == ["admit"]
            assert journal_files(tmp_path) == \
                ["default/%s.jsonl" % held.id]
        finally:
            service.journal.fault_hook = None
            service.shutdown(drain=False, timeout=5)

    def test_cancelled_rows_replay_and_are_not_rerun(self, tmp_path,
                                                     closed_files):
        """A shutdown without drain cuts a batch: its ``cancelled``
        rows were journaled, its worker rows were not.  Restored as a
        crash right before the close would leave it, the batch replays
        the cancellations and re-runs only the jobs that ran."""
        service = make_service(data_root=str(tmp_path), workers=1)
        reached, release = threading.Event(), threading.Event()

        def hold(entry):
            # the group after the first row: jobs 1 and 2
            if entry.job.index == 2:
                reached.set()
                release.wait(timeout=30)

        service.pool.fault_hook = hold
        batch = service.submit(document(traces=5))
        assert reached.wait(timeout=30)
        stopper = threading.Thread(
            target=service.shutdown, kwargs={"drain": False, "timeout": 30})
        stopper.start()
        try:
            deadline = time.monotonic() + 30
            while len(batch.results) < 4 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            release.set()
            stopper.join(timeout=30)
        assert batch.wait(timeout=30)
        cancelled = sorted(r.stable_json() for r in batch.results
                           if (r.error or "").startswith("cancelled"))
        assert len(cancelled) == 2
        lines = closed_files[batch.id]
        assert [json.loads(line)["kind"] for line in lines] == \
            ["admit", "row", "row"]
        shard = tmp_path / "journal" / "default" / (batch.id + ".jsonl")
        shard.write_text("\n".join(lines) + "\n")
        revived = make_service(data_root=str(tmp_path), workers=1)
        try:
            assert revived.recovery["replayed_rows"] == 2
            assert revived.recovery["resumed_jobs"] == 3
            recovered = revived.batch(batch.id)
            assert recovered.wait(timeout=30)
            assert sorted(r.stable_json() for r in recovered.results) == \
                sorted(r.stable_json() for r in batch.results)
            assert sorted(r.stable_json() for r in recovered.results
                          if not r.ok) == cancelled
        finally:
            revived.shutdown()

    def test_recovered_batch_outlives_its_ttl_and_deadlines(self,
                                                             tmp_path):
        """A recovered batch re-runs jobs whose rows a client may have
        seen before the crash, so its TTL and its jobs' deadlines,
        whose clocks did not survive the crash, refuse none of them."""
        doc = document(traces=3)
        doc["ttl_s"] = 0.05
        doc["jobs"][0]["deadline_s"] = 0.05
        service = make_service(data_root=str(tmp_path), start=False)
        batch = service.submit(doc)
        shard = tmp_path / "journal" / "default" / (batch.id + ".jsonl")
        # the batch file as a kill -9 before any job ran leaves it
        admitted = shard.read_text()
        service.shutdown(drain=False, timeout=5)
        shard.write_text(admitted)
        revived = make_service(data_root=str(tmp_path), start=False)
        try:
            assert revived.recovery["resumed_jobs"] == batch.total
            time.sleep(0.15)  # past both budgets before any job runs
            revived.pool.start()
            recovered = revived.batch(batch.id)
            assert recovered.wait(timeout=30)
            assert [r.status for r in recovered.results] == ["ok"] * 3
            assert (revived.expired_jobs, revived.deadline_misses) == (0, 0)
        finally:
            revived.shutdown()

    def test_rerun_jobs_keep_their_trace_digests(self, tmp_path,
                                                 closed_files):
        """Recovery re-runs the worker jobs of an open batch: the
        ledger finds each job's same digest, and its tenant shard keeps
        one more index line per re-run job."""
        from repro.farm.ledger import TraceLedger

        service = make_service(data_root=str(tmp_path))
        try:
            batch = service.submit(document(traces=3))
            assert batch.wait(timeout=30)
        finally:
            service.shutdown()
        ledger = TraceLedger(str(tmp_path / "traces"), tenant="default")
        digests = {job.job_id: ledger.find(job.job_id)["trace"]
                   for job in batch.jobs}
        assert digests == {r.job_id: r.trace_digest for r in batch.results}
        lines_before = len(ledger.entries())
        shard = tmp_path / "journal" / "default" / (batch.id + ".jsonl")
        shard.write_text("\n".join(closed_files[batch.id]) + "\n")
        revived = make_service(data_root=str(tmp_path))
        try:
            assert revived.recovery["resumed_jobs"] == batch.total
            assert revived.batch(batch.id).wait(timeout=30)
        finally:
            revived.shutdown()
        assert {job_id: ledger.find(job_id)["trace"]
                for job_id in digests} == digests
        assert len(ledger.entries()) == lines_before + batch.total


class TestRetention:
    def test_finished_batches_are_evicted_past_the_row_bound(
            self, monkeypatch):
        from repro.serve import service as service_module

        monkeypatch.setattr(service_module, "RETAINED_ROWS", 4)
        service = make_service(workers=1, start=False, queue_depth=64)
        release = threading.Event()

        def hold(entry):
            if entry.batch is held:
                release.wait(timeout=60)

        service.pool.fault_hook = hold
        try:
            # the held batch sits below the others in priority: the
            # pool runs them first, then holds its first job open
            held = service.submit(document(traces=2), priority=0)
            finished = [service.submit(document(traces=2), priority=5)
                        for _ in range(5)]
            service.pool.start()
            for batch in finished:
                assert batch.wait(timeout=30)
            listed = service.status_dict()["batches"]
            assert sum(b["completed"] for b in listed if b["done"]) <= 4
            for old in finished[:3]:
                with pytest.raises(EclError, match="unknown batch"):
                    service.batch(old.id)
            newest = service.batch(finished[-1].id)
            assert len(list(newest.stream(timeout=5))) == 2
            assert service.batch(held.id) is held and not held.done
            assert service.health_dict()["batches_open"] == 1
        finally:
            release.set()
            service.shutdown(drain=False, timeout=5)

    def test_only_the_completing_row_retires_a_batch(self):
        from repro.farm import SimJob, StimulusSpec
        from repro.farm.jobs import STATUS_ERROR, SimResult
        from repro.serve.service import Batch

        jobs = [SimJob(design="d", module="m", index=index,
                       stimulus=StimulusSpec.random(length=2))
                for index in range(4)]
        rows = [SimResult(job_id=job.job_id, design=job.design,
                          module=job.module, engine=job.engine,
                          index=job.index, status=STATUS_ERROR, error="x")
                for job in jobs]
        # decided under the batch's lock: two threads landing the last
        # two rows at once cannot both see themselves as the closer
        single = Batch("single", "default", jobs)
        assert [single.add_result(row) for row in rows] == [
            False, False, False, True]
        assert single.add_result(rows[-1]) is False  # duplicate

        service = make_service(workers=0)
        try:
            batch = Batch("b", "default", jobs)
            service._batches[batch.id] = batch
            for row in rows + rows:
                service._record_result(batch, row)
            assert list(service._finished) == [batch]
            assert service._finished_rows == len(jobs)
        finally:
            service.shutdown(drain=False, timeout=5)

    def test_racing_rows_close_out_once_before_completion_shows(self):
        import sys
        import threading

        from repro.farm import SimJob, StimulusSpec
        from repro.farm.jobs import STATUS_ERROR, SimResult
        from repro.serve.service import Batch

        jobs = [SimJob(design="d", module="m", index=index,
                       stimulus=StimulusSpec.random(length=2))
                for index in range(64)]
        rows = [SimResult(job_id=job.job_id, design=job.design,
                          module=job.module, engine=job.engine,
                          index=job.index, status=STATUS_ERROR, error="x")
                for job in jobs]
        batch = Batch("b", "default", jobs)
        seen_done = []

        def land(chunk):
            for row in chunk + chunk:  # every row twice: dedup races too
                batch.add_result(
                    row, on_complete=lambda: seen_done.append(batch.done))

        threads = [threading.Thread(target=land, args=(rows[i::8],))
                   for i in range(8)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        # one close-out, run while the batch still showed incomplete
        assert seen_done == [False]
        assert batch.wait(timeout=0)
        assert sorted(r.job_id for r in batch.results) == sorted(
            job.job_id for job in jobs)


class TestHealth:
    def test_health_dict_shape_and_counters(self):
        service = make_service(workers=0)
        health = service.health_dict()
        assert health["ok"] is True
        assert health["accepting"] is True
        assert health["queued"] == 0
        assert health["queue_depth"] == service.queue.depth
        assert health["quarantined"] == 0
        assert health["journal"] is False
        assert health["recovery"] is None
        service.submit(document(traces=2))
        assert service.health_dict()["queued"] == 2
        service.shutdown(drain=False, timeout=5)
        assert service.health_dict()["ok"] is False


class TestTenancy:
    def test_tenants_get_isolated_ledger_shards(self, tmp_path):
        service = make_service(data_root=str(tmp_path))
        try:
            alice = service.submit(document(traces=1), tenant="alice")
            bob = service.submit(document(source=ONCE, module="once",
                                          traces=1), tenant="bob")
            assert alice.wait(timeout=30) and bob.wait(timeout=30)
            alice_rows = service.ledger_entries("alice")
            bob_rows = service.ledger_entries("bob")
            assert len(alice_rows) == 1 and len(bob_rows) == 1
            assert alice_rows[0]["module"] == "echo"
            assert bob_rows[0]["module"] == "once"
        finally:
            service.shutdown()

    def test_trace_fetch_denied_across_tenants(self, tmp_path):
        service = make_service(data_root=str(tmp_path))
        try:
            batch = service.submit(document(traces=1), tenant="alice")
            assert batch.wait(timeout=30)
            digest = batch.results[0].trace_digest
            header, records = service.fetch_trace("alice", digest)
            assert header["module"] == "echo"
            assert len(records) == header["instants"]
            # same digest, other tenant: not servable, even though the
            # content-addressed object exists on disk.
            with pytest.raises(EclError, match="no trace"):
                service.fetch_trace("bob", digest)
        finally:
            service.shutdown()

    def test_missing_trace_is_not_found_but_no_ledger_is_not(
            self, tmp_path):
        service = make_service(data_root=str(tmp_path))
        try:
            batch = service.submit(document(traces=1), tenant="alice")
            assert batch.wait(timeout=30)
            with pytest.raises(NotFoundError, match="no trace"):
                service.fetch_trace("alice", "0" * 64)
            with pytest.raises(NotFoundError, match="no trace"):
                service.fetch_trace("ghost", "0" * 64)
        finally:
            service.shutdown()
        bare = make_service(workers=0)
        try:
            with pytest.raises(EclError, match="no trace ledger") as info:
                bare.fetch_trace("alice", "0" * 64)
            assert not isinstance(info.value, NotFoundError)
        finally:
            bare.shutdown()

    def test_tenant_caches_are_namespaced_on_disk(self, tmp_path):
        service = make_service(data_root=str(tmp_path))
        try:
            service.submit(document(traces=1), tenant="alice") \
                .wait(timeout=30)
            service.submit(document(traces=1), tenant="bob") \
                .wait(timeout=30)
            ns = tmp_path / "artifacts" / "ns"
            assert (ns / "alice").is_dir()
            assert (ns / "bob").is_dir()
        finally:
            service.shutdown()

    def test_bad_tenant_name_rejected(self):
        service = make_service(workers=0)
        for name in ("", "../escape", "a/b", ".hidden", "x" * 80):
            with pytest.raises(EclError, match="tenant"):
                service.submit(document(), tenant=name)


class TestShutdown:
    def test_graceful_drain_finishes_queued_work(self):
        service = make_service(workers=1)
        batch = service.submit(document(traces=4))
        assert service.shutdown(drain=True, timeout=60)
        assert batch.done
        assert all(r.status == "ok" for r in batch.results)
        with pytest.raises(EclError, match="shutting down"):
            service.submit(document())

    def test_non_drain_shutdown_cancels_queued_jobs(self):
        # workers=0: every job is still queued at shutdown time.
        service = make_service(workers=0, queue_depth=16)
        batch = service.submit(document(traces=3))
        service.shutdown(drain=False, timeout=5)
        assert batch.done
        assert all(r.status == "error" for r in batch.results)
        assert all("cancelled" in r.error for r in batch.results)

    def test_status_dict_shape(self):
        service = make_service(workers=0)
        status = service.status_dict()
        assert status["accepting"] is True
        assert status["queue"]["depth"] == service.queue.depth
        assert status["pool"]["workers"] == service.pool.workers
        assert status["batches"] == []
        assert status["tenants"] == []
