"""Warm worker pool: resident threads (or processes) draining the queue.

Each worker slot is a daemon thread looping ``queue.get() -> execute``
over *dispatch groups*: an entry plus the companions riding along.
In **thread** mode the slot executes in-process; warmth lives one level
down — the per-tenant :class:`~repro.farm.worker.WorkerState` instances
the service owns keep compiled designs, lowered native code and
partition bundles resident in the shared
:class:`~repro.pipeline.cache.ArtifactCache` — so a worker thread is
deliberately stateless: it can die and be replaced without losing any
warmth.

In **process** mode each slot is a *dispatcher*: it owns one long-lived
worker subprocess (:class:`WorkerProcess`, spawn-start so no live lock
or thread state is forked mid-operation) and ships each group to it in
one streamed pipe round trip.  CPU-bound tenants then scale with cores
instead of serializing on the GIL, and warmth survives differently:
the children warm-start from the persistent artifact cache, so a
replacement child skips codegen even though it shares no memory with
its predecessor.

Worker death is the fault model the pool exists to contain.
``WorkerState.run_job`` already converts *job-level* failures into
``status="error"`` results, so anything that escapes the execute
callback is a *worker* fault (a harness bug, a ``MemoryError``, a
storage-layer ``OSError`` escalated by the serving worker state, the
test suite's injected crashes — or, in process mode, the child dying
outright: a ``SIGKILL``, an OOM kill, a segfault surface as
:class:`ProcessDeath` when the pipe breaks).  The fault is charged to
the group member it struck, which requeues (bounded by ``max_attempts``
total tries); members after it requeue untouched.  The pool reports a
synthesized error result once the bound is exhausted — so a crashed
worker degrades the batch rather than hanging it — and replaces itself
(thread mode: a fresh thread; process mode: the dispatcher survives
and lazily respawns a fresh child) before taking the next job.

Retries back off: each requeue carries an exponentially growing delay
with *deterministic* jitter (derived from the job identity and the
attempt number, never the wall clock or a shared RNG), so a poison job
cannot hot-loop a worker to death, retry schedules are reproducible
run to run, and two retrying jobs do not thundering-herd the same
instant.  A job that exhausts ``max_attempts`` is *quarantined* by the
service layer: reported through ``on_dead_job`` exactly once, never
requeued again.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import threading
import traceback
from time import monotonic

from .. import telemetry

#: Total tries a job gets before a worker-death error is reported.
DEFAULT_MAX_ATTEMPTS = 3

#: First retry delay (seconds); doubles per attempt up to the cap.
DEFAULT_BACKOFF_BASE = 0.02
DEFAULT_BACKOFF_CAP = 2.0

#: Worker pool modes.
POOL_MODES = ("thread", "process")


def backoff_delay(job_key, attempts, base=DEFAULT_BACKOFF_BASE,
                  cap=DEFAULT_BACKOFF_CAP):
    """Retry delay before attempt ``attempts + 1`` of one job.

    Exponential in the attempt count, with up to +50% jitter derived
    from sha256(job_key, attempts) — fully deterministic for a given
    job identity, so chaos runs replay the identical retry schedule.
    """
    if attempts <= 0:
        return 0.0
    digest = hashlib.sha256(
        ("%s:%d" % (job_key, attempts)).encode("utf-8")
    ).hexdigest()
    jitter = int(digest[:8], 16) / float(0xFFFFFFFF)
    return min(cap, base * (2 ** (attempts - 1)) * (1.0 + 0.5 * jitter))


class ProcessDeath(RuntimeError):
    """A worker subprocess died (or poisoned itself) mid-job.

    Raised by :meth:`WorkerProcess.run` when the pipe breaks — the
    child was SIGKILLed, segfaulted, or OOM-killed — *and* when the
    child reports an error that escaped job execution inside it (the
    child's equivalent of a thread worker's death).  Either way the
    dispatcher recycles the child and routes the entry through the
    bounded-backoff retry path."""


class WorkerProcess:
    """Parent-side handle on one long-lived worker subprocess.

    Spawn-start, deliberately: the service has live dispatcher threads
    holding locks (telemetry registry, journal shard lock) whenever a
    replacement child is created, and a ``fork`` at that instant could
    deadlock the child on a lock its copied owner will never release.
    Spawn children pay an interpreter start per (re)spawn — amortized
    away by being long-lived and by warm-starting from the persistent
    artifact cache.
    """

    def __init__(self, config, name="serve-proc"):
        ctx = multiprocessing.get_context("spawn")
        self._conn, child_conn = ctx.Pipe()
        from .procworker import child_main

        self._proc = ctx.Process(
            target=child_main, args=(child_conn, config),
            name=name, daemon=True,
        )
        self._proc.start()
        self.killed = False
        # The parent's copy of the child end must close, or a dead
        # child would never surface as EOF on this pipe.
        child_conn.close()

    @property
    def pid(self):
        return self._proc.pid

    def alive(self):
        return not self.killed and self._proc.is_alive()

    def run(self, tenant, designs, jobs, on_rows):
        """One streamed round trip for a dispatch group: ship ``jobs``,
        then hand each reply's ``(position, row)`` pairs to
        ``on_rows`` as it arrives — each row the moment the child has
        it — so the caller journals row *k* while the child already
        runs job *k+1*.
        Raises :class:`ProcessDeath` when the child dies (or was
        killed) before its last row, or reports a worker fault."""
        replies = self._replies((tenant, designs, jobs), len(jobs))
        for pairs in replies:
            try:
                on_rows(pairs)
            except BaseException:
                # Drain the group's remaining rows so a surviving child
                # stays in step; one that dies meanwhile is killed, and
                # the next dispatch spawns a fresh one.
                try:
                    for _ in replies:
                        pass
                except ProcessDeath:
                    self.kill()
                raise

    def _replies(self, request, rows):
        try:
            self._conn.send(request)
            while rows > 0:
                if self.killed:
                    # Never read a row a killed child left in the
                    # pipe: the kill is charged to the job it struck.
                    raise EOFError("killed")
                status, data = self._conn.recv()
                if status != "ok":
                    # The child survived but a fault escaped job
                    # execution in it; treat exactly like a thread
                    # worker death (and recycle the child — its
                    # internal state is no longer trusted).
                    raise ProcessDeath(str(data))
                rows -= len(data)
                yield data
        except (EOFError, OSError) as error:
            raise ProcessDeath(
                "worker process (pid %s) died mid-job: %s"
                % (self.pid, error or type(error).__name__)
            ) from None

    def kill(self):
        """SIGKILL the child (the chaos harness's process-crash seam)."""
        self.killed = True
        try:
            self._proc.kill()
        except (OSError, ValueError):
            pass

    def close(self, kill=False, timeout=5.0):
        """Retire the child: graceful ``exit`` request by default,
        SIGKILL when ``kill=True`` (or when the graceful join times
        out — a wedged child must not block shutdown)."""
        if not kill:
            try:
                self._conn.send(("exit",))
            except (EOFError, OSError, ValueError):
                pass
        else:
            self.kill()
        try:
            self._conn.close()
        except OSError:
            pass
        self._proc.join(timeout=timeout)
        if self._proc.is_alive():
            self.kill()
            self._proc.join(timeout=timeout)


class WorkerPool:
    """Self-healing worker pool over a :class:`~repro.serve.queue.JobQueue`."""

    def __init__(self, queue, execute_group, on_dead_job=None,
                 workers=2, max_attempts=DEFAULT_MAX_ATTEMPTS,
                 mode="thread", take_group=None, process_config=None):
        """``execute_group(group, worker, visit, settled)`` runs one
        dispatch group — an entry plus the companions
        ``take_group(entry)`` pops to ride along with it — to
        completion (``worker``: the slot's :class:`WorkerProcess`, None
        in thread mode), calling ``visit(member)`` before it records a
        member's result and ``settled(member)`` after;
        ``on_dead_job(entry, error)`` reports an entry whose retry
        budget is exhausted.  ``process_config`` is shipped to each
        spawned child."""
        if mode not in POOL_MODES:
            raise ValueError(
                "pool mode must be one of %r, got %r" % (POOL_MODES, mode)
            )
        self.queue = queue
        self.execute_group = execute_group
        self.take_group = take_group
        self.on_dead_job = on_dead_job
        self.mode = mode
        self.process_config = process_config or {}
        # workers=0 is a paused pool: jobs queue but nothing drains
        # them (the deterministic mode the backpressure tests use).
        self.workers = max(0, workers)
        self.max_attempts = max(1, max_attempts)
        # The fault seams visit every group member once per attempt,
        # so per-job fault schedules do not depend on the grouping.
        #: test seam: ``fault_hook(entry)`` runs before the entry's
        #: result is recorded and may raise to simulate a worker crash
        #: mid-job.
        self.fault_hook = None
        #: test seam: ``post_fault_hook(entry)`` runs *after* the
        #: entry's result was recorded and may raise — the
        #: crash-after-record window the dedup machinery must absorb.
        self.post_fault_hook = None
        #: process-mode seam: ``process_fault_hook(entry, worker)``
        #: runs right after ``fault_hook`` and may ``worker.kill()`` —
        #: the real-SIGKILL chaos scope (the entry's row is then never
        #: read, and the pipe breaks mid-group).
        self.process_fault_hook = None
        self._threads = []
        self._children = set()
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._active = 0
        self._spawned = 0
        self._stopping = False
        self.worker_deaths = 0
        self.jobs_executed = 0
        self.dispatches = 0
        self.proc_spawned = 0
        self.proc_restarts = 0
        self.proc_crashes = 0

    # -- lifecycle -----------------------------------------------------

    def start(self):
        with self._lock:
            for _ in range(self.workers):
                self._spawn_locked()

    def _spawn_locked(self):
        self._spawned += 1
        thread = threading.Thread(
            target=self._worker_loop,
            name="serve-worker-%d" % self._spawned,
            daemon=True,
        )
        self._threads.append(thread)
        thread.start()

    def join(self, timeout=None):
        """Wait for worker threads to exit (queue must be closed); in
        process mode each dispatcher retires its child on the way out."""
        with self._lock:
            self._stopping = True
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=timeout)
        # Orphan sweep: children whose dispatcher did not exit in time.
        with self._lock:
            children, self._children = list(self._children), set()
        for child in children:
            child.close(kill=True, timeout=1.0)

    def wait_idle(self, timeout=None):
        """Block until no worker holds a job and the queue is empty.
        Returns True when idle was reached, False on timeout.

        The wait polls: queue-size changes are not signalled on this
        pool's condition (the queue has its own lock), so a short
        bounded wait re-checks both sides of the idle predicate."""
        deadline = None if timeout is None else monotonic() + timeout
        with self._idle:
            while self._active > 0 or not self.queue.is_idle():
                wait = 0.05
                if deadline is not None:
                    remaining = deadline - monotonic()
                    if remaining <= 0:
                        return False
                    wait = min(wait, remaining)
                self._idle.wait(timeout=wait)
            return True

    # -- the slot loop -------------------------------------------------

    def _worker_loop(self):
        """One pool slot.  A process slot owns one worker child, spawned
        lazily and recycled after a :class:`ProcessDeath` (a parent-side
        fault leaves it warm); a thread slot dies with any fault and is
        replaced."""
        worker = None
        try:
            while True:
                entry = self.queue.get()
                if entry is None:
                    return
                with self._lock:
                    self._active += 1
                try:
                    fault, worker = self._run_group(entry, worker)
                finally:
                    # Balance the pop *after* any death-path requeue,
                    # so the entry is never invisible to is_idle().
                    self.queue.task_done(entry)
                    with self._idle:
                        self._active -= 1
                        self._idle.notify_all()
                if fault is not None and self.mode == "thread":
                    with self._lock:
                        if not self._stopping and not self.queue.closed:
                            self._spawn_locked()
                    return
        finally:
            if worker is not None:
                with self._lock:
                    self._children.discard(worker)
                worker.close(kill=False)

    def _run_group(self, entry, worker):
        """Dispatch and settle the group ``entry`` leads (process mode:
        on ``worker``, respawned when dead); returns ``(fault or None,
        worker)``.  A fault costs one attempt of the member that
        visited the hooks last; members that never visited requeue
        with ``attempts`` and ``not_before`` untouched."""
        group = [entry]
        visited = []

        def visit(member):
            visited.append(member)
            if self.fault_hook is not None:
                self.fault_hook(member)
            if worker is not None and self.process_fault_hook is not None:
                self.process_fault_hook(member, worker)

        def settled(member):
            with self._lock:
                self.jobs_executed += 1
            telemetry.counter(
                "ecl_serve_jobs_executed_total",
                help="Jobs the serve worker pool ran to completion.",
            ).inc()
            if self.post_fault_hook is not None:
                self.post_fault_hook(member)

        try:
            if self.mode == "process" and (worker is None
                                           or not worker.alive()):
                worker = self._spawn_process(stale=worker)
            if self.take_group is not None:
                group.extend(self.take_group(entry))
            with self._lock:
                self.dispatches += 1
            telemetry.counter(
                "ecl_serve_dispatches_total",
                help="Dispatch groups the serve worker pool ran (one "
                     "pipe round trip each in process mode).",
            ).inc()
            self.execute_group(group, worker, visit, settled)
            return None, worker
        except BaseException as fault:
            if isinstance(fault, ProcessDeath):
                # The child is gone (or poisoned): recycle it; the
                # dispatcher survives and respawns lazily.
                self._drop_process(worker)
                error_text = str(fault)
            else:
                error_text = traceback.format_exc(limit=4)
            self._count_death()
            culprit = (visited or [entry])[-1]
            reached = {id(member) for member in visited + [culprit]}
            for member in group:
                if id(member) not in reached:
                    self._retry_or_report(member, error_text,
                                          charge=False)
            self._retry_or_report(culprit, error_text)
            return fault, worker
        finally:
            for member in group[1:]:
                self.queue.task_done(member)

    def _spawn_process(self, stale=None):
        if stale is not None:
            # A replacement: the corpse either died idle between jobs
            # (no entry lost, no crash counted) or was already dropped.
            with self._lock:
                self._children.discard(stale)
            stale.close(kill=True, timeout=1.0)
        worker = WorkerProcess(self.process_config)
        with self._lock:
            self._children.add(worker)
            self.proc_spawned += 1
            if stale is not None:
                self.proc_restarts += 1
        if stale is not None:
            telemetry.counter(
                "ecl_serve_worker_proc_restarts_total",
                help="Replacement worker processes spawned after a "
                     "child was lost.",
            ).inc()
        return worker

    def _drop_process(self, worker):
        if worker is None:
            return
        with self._lock:
            self._children.discard(worker)
            self.proc_crashes += 1
        telemetry.counter(
            "ecl_serve_worker_proc_crashes_total",
            help="Worker processes lost mid-job (killed, segfaulted, "
                 "or poisoned).",
        ).inc()
        worker.close(kill=True, timeout=1.0)

    # -- death handling (shared) ---------------------------------------

    def _count_death(self):
        with self._lock:
            self.worker_deaths += 1
        telemetry.counter(
            "ecl_serve_worker_deaths_total",
            help="Workers lost to faults escaping job execution.",
        ).inc()

    def _retry_or_report(self, entry, error_text, charge=True):
        """Requeue (bounded, backing off) or report one entry a dying
        worker held; ``charge=False`` requeues a group member the fault
        never reached, without spending an attempt.  Returns True when
        the entry was requeued."""
        if charge:
            entry.attempts += 1
        requeued = False
        if entry.attempts < self.max_attempts:
            if charge:
                job_key = (getattr(entry.job, "job_id", None)
                           or repr(entry.job))
                entry.not_before = monotonic() + backoff_delay(
                    job_key, entry.attempts)
            requeued = self.queue.requeue(entry)
        if not requeued and self.on_dead_job is not None:
            self.on_dead_job(
                entry,
                "worker died (%d attempt(s)): %s"
                % (entry.attempts, error_text.strip().splitlines()[-1]),
            )
        return requeued

    def stats_dict(self):
        with self._lock:
            stats = {
                "mode": self.mode,
                "workers": self.workers,
                "active": self._active,
                "spawned": self._spawned,
                "worker_deaths": self.worker_deaths,
                "jobs_executed": self.jobs_executed,
                "dispatches": self.dispatches,
            }
            if self.mode == "process":
                stats["proc_spawned"] = self.proc_spawned
                stats["proc_restarts"] = self.proc_restarts
                stats["proc_crashes"] = self.proc_crashes
                stats["process_pids"] = sorted(
                    child.pid for child in self._children
                    if child.alive()
                )
        return stats
