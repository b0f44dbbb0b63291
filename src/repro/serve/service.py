"""SimulationService: the long-lived core behind ``eclc serve``.

Where :class:`~repro.farm.farm.SimulationFarm` is batch-oriented —
build jobs, block, collect one report, pay compile and warm-up every
time — the service is *resident*: it accepts job batches continuously,
executes them on a warm worker pool, and streams per-job results as
they complete.  The pieces:

* **intake** — submissions carry the same JSON document schema as
  ``eclc farm run --spec`` (designs inline as ``{"text": ...}``), are
  expanded through the *same* code path
  (:func:`repro.farm.spec.expand_document`), and are admitted
  atomically into a bounded priority queue; a batch that does not fit
  is rejected with ``queue_full`` instead of growing the heap;
* **warmth** — each tenant owns one long-lived
  :class:`~repro.farm.worker.WorkerState` over a namespaced
  :class:`~repro.pipeline.cache.ArtifactCache`: the first batch
  compiles, every identical later batch is served entirely from cache
  (zero compile-stage misses — the acceptance bar), because a worker
  keys its builds by ``(label, source)``;
* **sources** — a batch owns the design sources it was admitted (or
  recovered) with, and every dispatch ships its jobs' one source from
  the batch, so two batches binding one label to different sources
  never see each other's.  A job id does not cover the source text:
  two revisions under one label share job ids, and the tenant's
  ledger index keeps an entry for each;
* **tenancy** — artifact namespaces (``<data>/artifacts/ns/<tenant>``)
  and trace-ledger index shards (``<data>/traces/index/<tenant>.jsonl``)
  isolate tenants; trace storage (pack segments) is shared, but a
  digest is only servable to a tenant whose shard records it;
* **fault containment** — the pool requeues a dying worker's job
  (bounded attempts with deterministic backoff) and the service
  quarantines it with a structured ``quarantined`` error row when the
  budget is exhausted, so a poison job degrades a batch, never hangs
  it or hot-loops the pool;
* **durability** — with a ``data_root`` (or explicit
  ``journal_root``), every admission and every completed job is
  journaled to a per-tenant append-only WAL
  (:class:`~repro.serve.journal.BatchJournal`); on startup the service
  *recovers*: incomplete batches are resurrected, already-journaled
  rows replay without re-execution, and only unfinished jobs are
  re-admitted — a ``kill -9`` mid-batch followed by a restart yields
  the same stable result rows as an uninterrupted run, with zero lost
  and zero duplicated jobs;
* **deadlines** — a job's ``deadline_s`` (spec v2) bounds its queue
  wait and a batch's ``ttl_s`` bounds the whole submission; breaching
  either yields a structured ``deadline_exceeded`` / ``expired`` error
  row instead of silently running stale work;
* **graceful shutdown** — intake closes first, in-flight and queued
  jobs drain (or are cancelled with explicit, journaled results on a
  non-drain stop), then workers exit; no stream is ever left waiting
  on a job that will not run.

Determinism contract: a batch submitted to the service produces the
same jobs, the same derived seeds, and therefore (volatile fields
aside) byte-identically serialized results as ``eclc farm run`` of the
same spec — including across a crash and recovery, because replayed
journal rows carry the stable serialization and re-executed jobs
regenerate it.
"""

from __future__ import annotations

import functools
import os
import threading
import uuid
import warnings
from collections import deque
from time import monotonic, perf_counter
from typing import Dict, Iterator, List, Optional

from .. import telemetry
from ..errors import EclError, NotFoundError, QueueFullError
from ..farm.jobs import STATUS_ERROR, SimResult
from ..farm.ledger import TraceLedger, check_tenant
from ..farm.spec import expand_document, load_designs, submission
from ..farm.worker import WorkerState
from .journal import BatchJournal
from .pool import DEFAULT_MAX_ATTEMPTS, WorkerPool
from .queue import DEFAULT_QUEUE_DEPTH, JobQueue, ServiceClosedError

#: Default number of resident worker threads.
DEFAULT_WORKERS = 2

#: Most jobs one dispatch group may carry (lead entry plus
#: companions), the service's and the pooled farm's.  Bounds both the
#: latency a grouped job can add to its groupmates and the work one
#: dispatch holds out of the queue.  Far below the worker's
#: ``SWEEP_MIN_LANES``, so a dispatch group never sweeps.
GROUP_LIMIT = 16

#: Result rows of *finished* batches kept in memory for polling and
#: streaming.  Past it the oldest finished batches are forgotten (their
#: ids then answer "unknown batch"); open batches are never dropped.
RETAINED_ROWS = 4096


def take_group(queue, entry):
    """Claim the queued entries riding along with ``entry`` (at most
    :data:`GROUP_LIMIT` in all) — the one grouping rule of every pool
    dispatch, the service's and the pooled farm's, for every engine:
    same (design, module, engine) jobs of ``entry``'s own batch, one
    more than the rows that batch has landed — a batch's first
    dispatch runs alone, so its first row is never held back.  Each
    member keeps its own job id, batch and row."""
    batch = entry.batch
    if batch is None:
        return []
    job = entry.job
    key = (job.design, job.module, job.engine)
    landed = len(batch.results)
    return queue.take_matching(
        entry,
        lambda other: (other in batch
                       and (other.design, other.module,
                            other.engine) == key),
        min(GROUP_LIMIT, 1 + landed, batch.total - landed) - 1,
    )


def synthetic_result(entry, error_text):
    """An error row for a queue entry that produced none of its own."""
    job = entry.job
    return SimResult(
        job_id=job.job_id,
        design=job.design,
        module=job.module,
        engine=job.engine,
        index=job.index,
        status=STATUS_ERROR,
        error=error_text,
    )


def quarantine_result(entry, error_text):
    """The row of a poison job whose retry budget ran out."""
    return synthetic_result(entry, "quarantined: " + error_text)


class Batch:
    """One admitted submission: its jobs, and results as they land."""

    def __init__(self, batch_id, tenant, jobs, priority=0, ttl_s=None,
                 recovered=False, designs=None):
        self.id = batch_id
        self.tenant = tenant
        self.jobs = list(jobs)
        #: design label -> source text: what this batch's jobs run
        #: against, whoever else binds the same labels.
        self.designs = dict(designs or {})
        self.priority = priority
        self.created = monotonic()
        self.ttl_s = ttl_s
        #: monotonic() instant past which unexecuted jobs expire
        #: (None = no TTL).  A recovered batch's TTL clock restarts at
        #: recovery time — monotonic time does not survive a reboot.
        self.expires_at = None if ttl_s is None else self.created + ttl_s
        self.recovered = recovered
        self.results: List[SimResult] = []
        self._recorded = set()
        #: identities of this batch's job objects: an identical spec
        #: submitted twice expands to equal jobs, never the same ones.
        self._members = {id(job) for job in self.jobs}
        self._cond = threading.Condition()

    # -- recording -----------------------------------------------------

    def add_result(self, result, on_complete=None):
        """Record one job's result; returns True when this call
        completed the batch, so exactly one caller closes it out —
        through ``on_complete()``, which runs before the completing row
        becomes visible to :meth:`wait` and :meth:`stream`, so a reader
        holding every row also sees the batch closed out.  Records
        nothing when a result for that job id already landed — the
        dedup that makes crash-after-record retries and journal
        replays idempotent."""
        with self._cond:
            if result.job_id in self._recorded:
                return False
            self._recorded.add(result.job_id)
            if len(self._recorded) < self.total:
                self.results.append(result)
                self._cond.notify_all()
                return False
        try:
            if on_complete is not None:
                on_complete()
        finally:
            with self._cond:
                self.results.append(result)
                self._cond.notify_all()
        return True

    def __contains__(self, job):
        return id(job) in self._members

    def has_result(self, job_id):
        with self._cond:
            return job_id in self._recorded

    @property
    def expired(self):
        return self.expires_at is not None and monotonic() > self.expires_at

    # -- observation ---------------------------------------------------

    @property
    def total(self):
        return len(self.jobs)

    @property
    def done(self):
        return len(self.results) >= self.total

    def wait(self, timeout=None):
        """Block until every job reported; True when complete."""
        deadline = None if timeout is None else monotonic() + timeout
        with self._cond:
            while len(self.results) < self.total:
                if deadline is None:
                    remaining = None
                else:
                    remaining = deadline - monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(timeout=remaining)
            return True

    def stream(self, timeout=None) -> Iterator[SimResult]:
        """Yield results in completion order, blocking for the next
        one until the batch is complete.  ``timeout`` bounds the wait
        *between* results; on expiry the stream ends early."""
        served = 0
        while True:
            with self._cond:
                if served >= self.total:
                    return
                if served >= len(self.results):
                    if not self._cond.wait(timeout=timeout):
                        return
                    continue
                result = self.results[served]
            served += 1
            yield result

    def status_dict(self):
        with self._cond:
            statuses: Dict[str, int] = {}
            for result in self.results:
                statuses[result.status] = statuses.get(result.status, 0) + 1
            return {
                "id": self.id,
                "tenant": self.tenant,
                "priority": self.priority,
                "total": self.total,
                "completed": len(self.results),
                "done": len(self.results) >= self.total,
                "recovered": self.recovered,
                "status_counts": dict(sorted(statuses.items())),
            }


class TenantSpace:
    """One tenant's warm, namespaced slice of the service."""

    def __init__(self, name, data_root, options=None):
        self.name = check_tenant(name)
        #: the warm core: builds stay resident across batches.
        #: Storage faults (ledger OSErrors) escalate to worker deaths
        #: here instead of becoming error rows, so the pool's bounded
        #: backoff retries them — a transient disk hiccup must not
        #: corrupt a deterministic result row.  Worker *processes*
        #: build their own state through the same factory, so either
        #: execution side yields identical stable rows.
        self.state = WorkerState.for_tenant(
            name, data_root=data_root, options=options,
        )
        self.cache = self.state.pipeline.cache
        self.jobs_run = 0

    @property
    def ledger(self) -> Optional[TraceLedger]:
        return self.state.ledger

    def status_dict(self):
        return {
            "tenant": self.name,
            "jobs_run": self.jobs_run,
            "cache": self.cache.stats.as_dict(),
        }


class SimulationService:
    """The resident simulation service: queue + warm pool + tenants."""

    def __init__(
        self,
        data_root=None,
        workers=DEFAULT_WORKERS,
        queue_depth=DEFAULT_QUEUE_DEPTH,
        max_attempts=DEFAULT_MAX_ATTEMPTS,
        options=None,
        start=True,
        journal_root=None,
        pool_mode="thread",
        tenant_weights=None,
        max_queued_per_tenant=None,
        max_in_flight_per_tenant=None,
        journal_compact=False,
    ):
        """``data_root=None`` keeps everything in memory (no trace
        persistence, no artifact disk layer) — the unit-test mode.
        With a directory, artifacts live under ``<data_root>/artifacts``
        (per-tenant namespaces), traces under ``<data_root>/traces``
        (per-tenant index shards), the batch journal under
        ``<data_root>/journal`` (per-tenant WAL shards).
        ``journal_root`` overrides (or, without a data_root, solely
        enables) the journal location.  Whenever there is a journal,
        startup replays it: incomplete batches are resurrected and
        their unfinished jobs re-admitted before the worker pool
        starts.

        ``pool_mode="process"`` runs jobs in long-lived spawned worker
        processes sharing the persistent artifact cache — the
        CPU-bound scaling mode.  ``tenant_weights`` /
        ``max_queued_per_tenant`` / ``max_in_flight_per_tenant``
        configure the queue's weighted-fair rotation and quotas;
        ``journal_compact=True`` compacts per-tenant WALs at startup
        (post-recovery) and on graceful shutdown."""
        self.data_root = data_root
        self.options = options
        if data_root:
            os.makedirs(data_root, exist_ok=True)
        if journal_root is None and data_root:
            journal_root = os.path.join(data_root, "journal")
        self.journal = BatchJournal(journal_root) if journal_root else None
        self.journal_compact = bool(journal_compact)
        self.compactions: Optional[dict] = None
        self.queue = JobQueue(
            depth=queue_depth,
            tenant_weights=tenant_weights,
            max_queued_per_tenant=max_queued_per_tenant,
            max_in_flight_per_tenant=max_in_flight_per_tenant,
        )
        self.pool = WorkerPool(
            self.queue,
            on_dead_job=self._report_dead_job,
            workers=workers,
            max_attempts=max_attempts,
            mode=pool_mode,
            execute_group=self._execute_entry,
            take_group=functools.partial(take_group, self.queue),
            process_config={
                "worker_state": functools.partial(
                    WorkerState.for_tenant, data_root=data_root,
                    options=options,
                ),
            },
        )
        self._tenants: Dict[str, TenantSpace] = {}
        self._batches: Dict[str, Batch] = {}
        #: finished batches still in ``_batches``, oldest first, and
        #: their row total (bounded by RETAINED_ROWS).
        self._finished: deque = deque()
        self._finished_rows = 0
        self._lock = threading.Lock()
        self._accepting = True
        #: robustness counters, surfaced by ``GET /v1/health``.
        self.quarantined = 0
        self.deadline_misses = 0
        self.expired_jobs = 0
        self.journal_errors = 0
        self.recovery: Optional[dict] = None
        self.started = monotonic()
        if self.journal is not None:
            self._recover()
        if self.journal_compact and self.journal is not None:
            # Post-recovery, pre-pool: the WAL is quiescent, and the
            # ``end`` records recovery appended for batches that
            # finished just before the crash compact away with them.
            self.compactions = self.journal.compact()
        if start:
            self.pool.start()

    # -- intake --------------------------------------------------------

    def submit(self, document, tenant=None, priority=None) -> Batch:
        """Admit one batch document (the farm spec schema, designs
        inline).  Returns the :class:`Batch`; raises
        :class:`~repro.serve.queue.QueueFullError` on backpressure,
        :class:`~repro.serve.queue.ServiceClosedError` on a draining
        service and :class:`EclError` on bad requests."""
        if not self._accepting:
            raise ServiceClosedError(
                "service is shutting down (not accepting jobs)")
        batch_id = uuid.uuid4().hex[:16]
        origin = "<batch %s>" % batch_id
        envelope = submission(document, tenant, priority, origin)
        tenant, priority = envelope["tenant"], envelope["priority"]
        ttl_s = envelope["ttl_s"]
        designs = load_designs(
            document.get("designs"), base=None, spec_path=origin,
            allow_paths=False,
        )
        try:
            # Bounded before any job exists: a batch larger than the
            # whole queue could never be admitted.
            jobs = expand_document(document, designs, origin,
                                   limit=self.queue.depth)
        except QueueFullError as error:
            self.queue.refuse(error.jobs)
            raise
        self._space(tenant)  # a tenant is listed from its first batch
        batch = Batch(batch_id, tenant, jobs, priority=priority,
                      ttl_s=ttl_s, designs=designs)
        # WAL discipline: the admit record lands *before* the jobs can
        # run (a result row must never reference an unjournaled
        # batch); a failed enqueue closes the batch right back out.
        self._journal(
            "admit", tenant, batch_id, document,
            [job.job_id for job in jobs],
            priority=priority, ttl_s=ttl_s,
        )
        # Registered before its jobs can run, so a batch that finishes
        # at once is retired like any other.
        with self._lock:
            self._batches[batch_id] = batch
        try:
            self.queue.put_batch(
                jobs, batch=batch, tenant=tenant, priority=priority
            )
        except EclError:
            with self._lock:
                del self._batches[batch_id]
            self._journal("end", tenant, batch_id, reason="rejected")
            raise
        telemetry.counter(
            "ecl_serve_batches_submitted_total",
            help="Batches admitted past intake, by tenant.",
            tenant=tenant,
        ).inc()
        return batch

    def _space(self, tenant) -> TenantSpace:
        with self._lock:
            space = self._tenants.get(tenant)
            if space is None:
                space = TenantSpace(tenant, self.data_root,
                                    options=self.options)
                self._tenants[tenant] = space
            return space

    # -- execution (pool callbacks) ------------------------------------

    def _execute_entry(self, group, worker, visit, settled):
        """The pool's group callback: dedup and refusal checks, then one
        dispatch whose rows are journaled and delivered as each
        arrives, each bracketed by the pool's ``visit(member)`` and
        ``settled(member)`` fault seams."""
        runnable = []
        for member in group:
            if member.batch is not None and member.batch.has_result(
                    member.job.job_id):
                # A crash-after-record retry: the result already landed
                # (and was journaled); re-running would duplicate it.
                visit(member)
                settled(member)
                continue
            if member.admitted_at:
                telemetry.histogram(
                    "ecl_serve_queue_wait_seconds",
                    help="Admission-to-execution queue wait, by tenant.",
                    tenant=member.tenant,
                ).observe(monotonic() - member.admitted_at)
            refusal = self._refusal(member)
            if refusal is not None:
                visit(member)
                self._record_result(
                    member.batch, synthetic_result(member, refusal),
                )
                settled(member)
                continue
            runnable.append(member)
        if not runnable:
            return
        lead = runnable[0]
        space = self._space(lead.tenant)

        def on_rows(pairs):
            # Units arrive in position order, one row each.
            with self._lock:
                space.jobs_run += len(pairs)
            for position, result in pairs:
                member = runnable[position]
                self._record_result(member.batch, result)
                settled(member)
                if position + 1 < len(runnable):
                    visit(runnable[position + 1])

        jobs = [member.job for member in runnable]
        started = perf_counter()
        with telemetry.span("serve.job", tenant=lead.tenant,
                            engine=lead.job.engine):
            if len(jobs) > 1:
                telemetry.histogram(
                    "ecl_serve_fused_jobs",
                    help="Jobs per grouped dispatch.",
                    buckets=telemetry.SIZE_BUCKETS,
                ).observe(len(jobs))
            visit(lead)
            self._dispatch_job(space, lead.batch, jobs, worker, on_rows)
        telemetry.histogram(
            "ecl_serve_execute_seconds",
            help="Job execution time on the warm pool, by tenant.",
            tenant=lead.tenant,
        ).observe(perf_counter() - started)

    def _execute(self, entry):
        """Run one entry alone in this thread, outside the pool."""
        def no_seam(member):
            return None

        self._execute_entry([entry], None, no_seam, no_seam)

    def _dispatch_job(self, space, batch, jobs, worker, on_rows):
        """Run one dispatch group of ``batch``, handing each finished
        unit of ``(position, result)`` pairs to ``on_rows``: in-process
        through the tenant's warm state, or over one streamed round
        trip to ``worker``.  The group's one design source ships from
        the batch with every dispatch: a warm worker finds its build
        by ``(label, source)``, and a *replacement* child learns the
        source without any replay protocol."""
        design = jobs[0].design
        designs = {design: batch.designs[design]}
        if worker is None:
            for pairs in space.state.stream(jobs, designs):
                on_rows(pairs)
            return
        worker.run(
            space.name, designs, jobs,
            lambda pairs: on_rows([(position, SimResult.from_dict(row))
                                   for position, row in pairs]),
        )

    #: The name sweeps once dispatched under; the service no longer
    #: sweeps, but ``servebench/launcher.py`` still wraps it by name.
    _dispatch_sweep = _dispatch_job

    def _refusal(self, entry):
        """Why this entry must not execute (None = run it): its batch
        outlived its TTL, or the job waited past its deadline."""
        now = monotonic()
        batch = entry.batch
        if batch is not None and batch.expired:
            self.expired_jobs += 1
            telemetry.counter(
                "ecl_serve_expired_total",
                help="Jobs refused because their batch TTL elapsed.",
            ).inc()
            return (
                "expired: batch ttl_s=%.3f elapsed before the job ran"
                % batch.ttl_s
            )
        deadline_s = getattr(entry.job, "deadline_s", 0.0) or 0.0
        if deadline_s > 0 and entry.admitted_at:
            waited = now - entry.admitted_at
            if waited > deadline_s:
                self.deadline_misses += 1
                telemetry.counter(
                    "ecl_serve_deadline_misses_total",
                    help="Jobs refused after waiting past their deadline.",
                ).inc()
                return (
                    "deadline_exceeded: job waited %.3fs in queue, "
                    "deadline_s=%.3f" % (waited, deadline_s)
                )
        return None

    def _report_dead_job(self, entry, error_text):
        """Quarantine a poison job: its retry budget is exhausted, it
        will never requeue again, and its batch gets a structured
        ``quarantined`` error row instead of a hang."""
        self.quarantined += 1
        telemetry.counter(
            "ecl_serve_quarantined_total",
            help="Poison jobs quarantined after exhausting retries.",
        ).inc()
        self._record_result(
            entry.batch,
            quarantine_result(entry, error_text),
        )

    def _record_result(self, batch, result):
        """The single recording path: journal first (durability), then
        deliver to the batch (dedup by job id); the row completing the
        batch closes its journal entry, retires it and lands its
        metrics before any reader sees that row."""
        if batch is None:
            return
        # Encode the stable row once: the journal embeds these bytes,
        # and every ?stable=1 stream writes them.
        result.stable_json()

        def close_out():
            self._journal("end", batch.tenant, batch.id)
            self._retire(batch)
            telemetry.counter(
                "ecl_serve_batches_completed_total",
                help="Batches run to completion, by tenant.",
                tenant=batch.tenant,
            ).inc()
            telemetry.histogram(
                "ecl_serve_batch_seconds",
                help="Batch latency, admission to last result, by tenant.",
                tenant=batch.tenant,
            ).observe(monotonic() - batch.created)

        if not batch.has_result(result.job_id):
            self._journal("row", batch.tenant, batch.id, result)
        batch.add_result(result, on_complete=close_out)

    def _retire(self, batch):
        """Keep a finished batch for polling and streaming, forgetting
        the oldest finished ones once their rows pass RETAINED_ROWS
        (the newest always stays, however large).  Every job has its
        row, so nothing dispatches it again: its sources go."""
        batch.designs = {}
        with self._lock:
            self._finished.append(batch)
            self._finished_rows += batch.total
            while (self._finished_rows > RETAINED_ROWS
                   and len(self._finished) > 1):
                old = self._finished.popleft()
                self._finished_rows -= old.total
                self._batches.pop(old.id, None)

    def _journal(self, kind, tenant, batch_id, *args, **kwargs):
        """Best-effort journal append: an OSError degrades durability
        (the record would replay as unfinished work), never the live
        result path."""
        if self.journal is None:
            return
        try:
            getattr(self.journal, kind)(tenant, batch_id, *args, **kwargs)
        except OSError:
            # Counted, not printed: a journal fault under load would
            # otherwise spam one warning per record.  The counter (and
            # the health payload's journal_errors) carries the signal.
            self.journal_errors += 1
            telemetry.counter(
                "ecl_serve_journal_errors_total",
                help="Journal appends that failed (durability degraded).",
                kind=kind,
            ).inc()

    # -- recovery ------------------------------------------------------

    def _recover(self):
        """Resurrect journaled state: replay completed rows, re-admit
        only unfinished jobs, and close out batches that finished just
        before the crash.  Runs before the pool starts, so recovered
        work queues ahead of anything newly submitted."""
        summary = {
            "recovered_batches": 0,
            "resumed_jobs": 0,
            "replayed_rows": 0,
            "torn_lines": 0,
            "failed_batches": 0,
        }
        for tenant in self.journal.tenants():
            replay = self.journal.replay(tenant)
            summary["torn_lines"] += replay.torn_lines
            for record in replay.open_batches():
                try:
                    self._recover_batch(tenant, record, summary)
                except EclError as error:
                    summary["failed_batches"] += 1
                    warnings.warn(
                        "journal recovery skipped batch %s: %s"
                        % (record.batch_id, error),
                        stacklevel=2,
                    )
        self.recovery = summary
        for key, metric in (
            ("replayed_rows", "ecl_serve_recovery_replayed_rows_total"),
            ("resumed_jobs", "ecl_serve_recovery_resumed_jobs_total"),
            ("recovered_batches", "ecl_serve_recovery_batches_total"),
            ("torn_lines", "ecl_serve_recovery_torn_lines_total"),
        ):
            if summary[key]:
                telemetry.counter(
                    metric, help="Journal recovery: %s." % key.replace("_", " "),
                ).inc(summary[key])

    def _recover_batch(self, tenant, record, summary):
        origin = "<journal %s>" % record.batch_id
        envelope = submission(record.spec, tenant, record.priority, origin)
        designs = load_designs(
            record.spec.get("designs"), base=None, spec_path=origin,
            allow_paths=False,
        )
        jobs = expand_document(record.spec, designs, origin)
        self._space(tenant)
        batch = Batch(record.batch_id, tenant, jobs,
                      priority=envelope["priority"],
                      ttl_s=envelope["ttl_s"], recovered=True,
                      designs=designs)
        pending = []
        for job in jobs:
            row = record.rows.get(job.job_id)
            if row is None:
                pending.append(job)
            else:
                batch.add_result(SimResult.from_dict(row))
                summary["replayed_rows"] += 1
        with self._lock:
            self._batches[batch.id] = batch
        if pending:
            # force=True: the original admission already paid the
            # backpressure toll; recovery must never drop its jobs.
            self.queue.put_batch(pending, batch=batch, tenant=tenant,
                                 priority=envelope["priority"], force=True)
            summary["resumed_jobs"] += len(pending)
        else:
            # complete before the crash, just never marked: close it.
            self._journal("end", tenant, batch.id)
            self._retire(batch)
        summary["recovered_batches"] += 1

    # -- observation ---------------------------------------------------

    def batch(self, batch_id) -> Batch:
        with self._lock:
            batch = self._batches.get(batch_id)
        if batch is None:
            raise NotFoundError("unknown batch %r" % (batch_id,))
        return batch

    def _ledger(self, tenant) -> Optional[TraceLedger]:
        """``tenant``'s ledger shard, for reading: its resident space's,
        else a fresh view of the shard on disk (a tenant from before a
        restart) — a read never creates a tenant space.  None without a
        ``data_root``."""
        check_tenant(tenant)
        with self._lock:
            space = self._tenants.get(tenant)
        if space is not None:
            return space.ledger
        if not self.data_root:
            return None
        return TraceLedger(os.path.join(self.data_root, "traces"),
                           tenant=tenant)

    def fetch_trace(self, tenant, digest):
        """``(header, records)`` of a trace *this tenant's* ledger
        shard recorded; other tenants' digests are not servable even
        when the shared object store holds them."""
        ledger = self._ledger(tenant)
        if ledger is None:
            raise EclError("service has no trace ledger (no data_root)")
        entry = ledger.locate(digest)
        if entry is None:
            raise NotFoundError(
                "tenant %r has no trace %s" % (tenant, digest)
            )
        return ledger.load(digest, entry)

    def ledger_entries(self, tenant) -> List[dict]:
        ledger = self._ledger(tenant)
        return [] if ledger is None else ledger.entries()

    def status_dict(self):
        with self._lock:
            batches = [b.status_dict() for b in self._batches.values()]
            tenants = [t.status_dict() for t in self._tenants.values()]
        return {
            "accepting": self._accepting,
            "uptime": monotonic() - self.started,
            "queue": self.queue.stats_dict(),
            "pool": self.pool.stats_dict(),
            "health": self.health_dict(),
            "batches": sorted(batches, key=lambda b: b["id"]),
            "tenants": sorted(tenants, key=lambda t: t["tenant"]),
        }

    def health_dict(self):
        """The ``GET /v1/health`` payload: queue depth, quarantine and
        deadline counters, journal/recovery state — what an operator
        (or a backing-off client) needs to decide whether to retry."""
        with self._lock:
            batches_open = sum(
                1 for batch in self._batches.values() if not batch.done
            )
        return {
            "ok": bool(self._accepting),
            "accepting": self._accepting,
            "queued": len(self.queue),
            "queue_depth": self.queue.depth,
            "active": self.pool.stats_dict()["active"],
            "batches_open": batches_open,
            "jobs_executed": self.pool.jobs_executed,
            "dispatches": self.pool.dispatches,
            "quarantined": self.quarantined,
            "deadline_misses": self.deadline_misses,
            "expired_jobs": self.expired_jobs,
            "worker_deaths": self.pool.worker_deaths,
            "pool_mode": self.pool.mode,
            "worker_proc_crashes": self.pool.proc_crashes,
            "worker_proc_restarts": self.pool.proc_restarts,
            "journal": self.journal is not None,
            "journal_errors": self.journal_errors,
            "recovery": self.recovery,
            "telemetry": telemetry.is_enabled(),
            "uptime": monotonic() - self.started,
        }

    def record_gauges(self):
        """Refresh the live-state gauges from the queue, pool and batch
        map — called by the metrics endpoints right before rendering,
        so a scrape always sees current depth without the staleness
        hazards of per-service callbacks on the global registry."""
        queue_stats = self.queue.stats_dict()
        pool_stats = self.pool.stats_dict()
        with self._lock:
            batches_open = sum(
                1 for batch in self._batches.values() if not batch.done
            )
            tenants = len(self._tenants)
        telemetry.gauge(
            "ecl_serve_queue_depth", help="Jobs queued, not yet executing.",
        ).set(queue_stats["queued"])
        telemetry.gauge(
            "ecl_serve_queue_in_flight",
            help="Jobs popped and executing right now.",
        ).set(queue_stats["in_flight"])
        telemetry.gauge(
            "ecl_serve_workers", help="Configured worker threads.",
        ).set(pool_stats["workers"])
        telemetry.gauge(
            "ecl_serve_workers_active",
            help="Worker threads holding a job right now.",
        ).set(pool_stats["active"])
        telemetry.gauge(
            "ecl_serve_batches_open",
            help="Admitted batches still awaiting results.",
        ).set(batches_open)
        telemetry.gauge(
            "ecl_serve_tenants", help="Tenant spaces resident in memory.",
        ).set(tenants)
        telemetry.gauge(
            "ecl_pool_mode",
            help="Worker pool mode in effect (1 = this mode).",
            mode=pool_stats["mode"],
        ).set(1)
        for tenant, lane in queue_stats.get("tenants", {}).items():
            telemetry.gauge(
                "ecl_serve_tenant_deficit",
                help="Fair-share credits currently held, by tenant.",
                tenant=tenant,
            ).set(lane["deficit"])
            telemetry.gauge(
                "ecl_serve_tenant_queued",
                help="Jobs queued right now, by tenant.",
                tenant=tenant,
            ).set(lane["queued"])

    # -- shutdown ------------------------------------------------------

    def shutdown(self, drain=True, timeout=None):
        """Stop the service.

        ``drain=True`` (graceful): close intake, let queued and
        in-flight jobs finish, then stop the workers.  ``drain=False``:
        cancel queued jobs — each gets an explicit (and journaled)
        ``status="error"`` cancellation result, so no stream hangs and
        no restart resurrects deliberately cancelled work — and stop
        as soon as in-flight jobs return.  Returns True when fully
        stopped within ``timeout``."""
        self._accepting = False
        if drain:
            idle = self.pool.wait_idle(timeout=timeout)
        else:
            for entry in self.queue.drain():
                self._record_result(
                    entry.batch,
                    synthetic_result(entry, "cancelled: service "
                                     "shutdown without drain"),
                )
            idle = self.pool.wait_idle(timeout=timeout)
        self.queue.close()
        self.pool.join(timeout=timeout)
        with self._lock:
            ledgers = [space.ledger for space in self._tenants.values()
                       if space.ledger is not None]
        for ledger in ledgers:
            ledger.close()
        if self.journal is not None:
            if self.journal_compact and idle:
                # Quiesced (drained + joined): closed batches leave the
                # WAL now instead of replaying forever at every boot.
                try:
                    self.compactions = self.journal.compact()
                except OSError:
                    self.journal_errors += 1
            self.journal.close()
        return idle
