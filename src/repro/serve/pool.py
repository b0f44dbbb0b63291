"""Warm worker pool: resident slots draining the queue.

Each pool slot is a daemon thread looping ``queue.get() -> execute``
over *dispatch groups*: an entry plus the companions riding along.
Every slot owns one worker (:class:`WorkerProcess`) answering through
the request/reply protocol of :mod:`repro.serve.procworker`, one
streamed round trip per group.  The pool mode only chooses where that
worker's request step runs:

* **process** — in a long-lived spawned child behind a pipe
  (spawn-start, so no live lock or thread state is forked
  mid-operation).  CPU-bound tenants scale with cores instead of
  serializing on the GIL;
* **thread** — in the slot thread itself, which costs no thread switch
  per request or row.

Either way the rows come back as dicts and decode the same way, the
worker keeps its builds warm across groups, and a replacement worker
warm-starts from the persistent artifact cache, so it skips codegen
even though it shares no memory with its predecessor.

Worker death is the fault model the pool exists to contain.
``WorkerState.run_job`` already converts *job-level* failures into
``status="error"`` results, so anything that escapes the execute
callback is a *worker* fault: a harness bug or ``MemoryError`` in the
slot, the test suite's injected crashes, or a :class:`ProcessDeath` —
the worker reporting a fault that escaped its request loop (a
storage-layer ``OSError`` the serving worker state escalates, say), or
a child dying outright (a ``SIGKILL``, an OOM kill or a segfault
breaks the pipe).  The fault is charged to the group member it struck,
which requeues (bounded by ``max_attempts`` total tries); members after
it requeue untouched.  The pool reports a synthesized error result once
the bound is exhausted — so a crashed worker degrades the batch rather
than hanging it.  The slot itself survives every fault: after a
:class:`ProcessDeath` it drops its worker and lazily starts a fresh one
before the next group; a fault in the slot leaves the worker warm.

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
import os
import threading
import traceback
from time import monotonic

from .. import telemetry
from . import procworker

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
    """A pool worker died (or poisoned itself) mid-job.

    Raised by :meth:`WorkerProcess.run` when the pipe breaks — a child
    was SIGKILLed, segfaulted or OOM-killed, or a worker was killed —
    *and* when the worker reports an error that escaped job execution
    inside it.  Either way the slot recycles the worker and routes the
    entry through the bounded-backoff retry path."""


class WorkerProcess:
    """Parent-side handle on one long-lived pool worker.  The worker
    answers each request through :func:`~repro.serve.procworker.
    respond`, the request step of the child loop: in a spawned child
    process behind a pipe or, with ``inline=True``, in the calling slot
    thread itself (thread mode), which hands rows over without any
    thread switch.

    Spawn-start, deliberately: the service has live dispatcher threads
    holding locks (telemetry registry, queue lock) whenever a
    replacement child is created, and a ``fork`` at that instant could
    deadlock the child on a lock its copied owner will never release.
    Spawn children pay an interpreter start per (re)spawn — amortized
    away by being long-lived and by warm-starting from the persistent
    artifact cache.
    """

    def __init__(self, config, name="serve-proc", inline=False):
        self.inline = inline
        self.killed = False
        if inline:
            self._config, self._states = config, {}
            return
        ctx = multiprocessing.get_context("spawn")
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(
            target=procworker.child_main, args=(child_conn, config),
            name=name, daemon=True,
        )
        self._proc.start()
        # The parent's copy of the child end must close, or a dead
        # child would never surface as EOF on this pipe.
        child_conn.close()

    @property
    def pid(self):
        return os.getpid() if self.inline else self._proc.pid

    def alive(self):
        return not self.killed and (self.inline or self._proc.is_alive())

    def run(self, tenant, designs, jobs, on_rows):
        """One streamed round trip for a dispatch group: ship ``jobs``,
        then hand each reply's ``(position, row)`` pairs to
        ``on_rows`` as it arrives — each row the moment the worker has
        it, so in process mode the caller delivers row *k* while the
        child already runs job *k+1*.
        Raises :class:`ProcessDeath` when the worker dies (or was
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
            if self.inline:
                replies = procworker.respond(self._states, self._config,
                                             request)
                receive = replies.__next__
            else:
                self._conn.send(request)
                receive = self._conn.recv
            while rows > 0:
                if self.killed:
                    # Never read a row a killed worker left behind: the
                    # kill is charged to the job it struck.
                    raise EOFError("killed")
                status, data = receive()
                if status != "ok":
                    # The worker survived but a fault escaped job
                    # execution in it: recycle it, its internal state
                    # is no longer trusted.
                    raise ProcessDeath(str(data))
                rows -= len(data)
                yield data
        except (EOFError, OSError) as error:
            raise ProcessDeath(
                "worker process (pid %s) died mid-job: %s"
                % (self.pid, error or type(error).__name__)
            ) from None

    def kill(self):
        """SIGKILL the child (the chaos harness's process-crash seam);
        an inline worker answers no further request."""
        self.killed = True
        if not self.inline:
            try:
                self._proc.kill()
            except (OSError, ValueError):
                pass

    def close(self, kill=False, timeout=5.0):
        """Retire the worker: graceful ``exit`` request by default,
        SIGKILL when ``kill=True`` (or when the graceful join times
        out — a wedged child must not block shutdown).  An inline
        worker drops its states."""
        if self.inline:
            self.killed = True
            self._states.clear()
            return
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
        completion on ``worker``, the slot's :class:`WorkerProcess`,
        calling ``visit(member)`` before it records a member's result
        and ``settled(member)`` after; ``on_dead_job(entry, error)``
        reports an entry whose retry budget is exhausted.
        ``process_config`` is every worker's
        :func:`~repro.serve.procworker.respond` config (pickled for a
        spawned child, shared as is by an inline worker)."""
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
        #: test seam: ``process_fault_hook(entry, worker)`` runs right
        #: after ``fault_hook`` and may ``worker.kill()`` — a real
        #: SIGKILL in process mode (the entry's row is then never read,
        #: and the pipe breaks mid-group).
        self.process_fault_hook = None
        self._threads = []
        self._children = set()
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._active = 0
        self.worker_deaths = 0
        self.jobs_executed = 0
        self.dispatches = 0
        self.proc_spawned = 0
        self.proc_restarts = 0
        self.proc_crashes = 0

    # -- lifecycle -----------------------------------------------------

    def start(self):
        with self._lock:
            for number in range(1, self.workers + 1):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name="serve-worker-%d" % number,
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()

    def join(self, timeout=None):
        """Wait for the slot threads to exit (queue must be closed);
        each slot retires its worker on the way out."""
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=timeout)
        # Orphan sweep: workers whose slot did not exit in time.
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
        """One pool slot.  It owns one worker, started lazily and
        recycled after a :class:`ProcessDeath`; a fault in the slot
        itself leaves the worker warm."""
        worker = None
        try:
            while True:
                entry = self.queue.get()
                if entry is None:
                    return
                with self._lock:
                    self._active += 1
                try:
                    worker = self._run_group(entry, worker)
                finally:
                    # Balance the pop *after* any death-path requeue,
                    # so the entry is never invisible to is_idle().
                    self.queue.task_done(entry)
                    with self._idle:
                        self._active -= 1
                        self._idle.notify_all()
        finally:
            if worker is not None:
                with self._lock:
                    self._children.discard(worker)
                worker.close(kill=False)

    def _run_group(self, entry, worker):
        """Dispatch and settle the group ``entry`` leads on ``worker``
        (started when absent or dead); returns the worker the slot
        keeps.  A fault costs one attempt of the member that visited
        the hooks last; members that never visited requeue with
        ``attempts`` and ``not_before`` untouched."""
        group = [entry]
        visited = []

        def visit(member):
            visited.append(member)
            if self.fault_hook is not None:
                self.fault_hook(member)
            if self.process_fault_hook is not None:
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
            if worker is None or not worker.alive():
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
            return worker
        except BaseException as fault:
            if isinstance(fault, ProcessDeath):
                # The worker is gone (or poisoned): recycle it; the
                # slot survives and starts a fresh one lazily.
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
            return worker
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
        worker = WorkerProcess(self.process_config,
                               inline=self.mode == "thread")
        with self._lock:
            self._children.add(worker)
            self.proc_spawned += 1
            if stale is not None:
                self.proc_restarts += 1
        if stale is not None:
            telemetry.counter(
                "ecl_serve_worker_proc_restarts_total",
                help="Replacement pool workers started after one was "
                     "lost.",
            ).inc()
        return worker

    def _drop_process(self, worker):
        with self._lock:
            self._children.discard(worker)
            self.proc_crashes += 1
        telemetry.counter(
            "ecl_serve_worker_proc_crashes_total",
            help="Pool workers lost mid-job (killed, segfaulted, "
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
                "worker_deaths": self.worker_deaths,
                "jobs_executed": self.jobs_executed,
                "dispatches": self.dispatches,
                "proc_spawned": self.proc_spawned,
                "proc_restarts": self.proc_restarts,
                "proc_crashes": self.proc_crashes,
            }
            if self.mode == "process":
                stats["process_pids"] = sorted(
                    child.pid for child in self._children
                    if child.alive()
                )
        return stats
