"""Deterministic fault injection for the serving layer.

The robustness claims of :mod:`repro.serve` — zero lost rows, zero
duplicated rows, bounded retries, quarantine instead of hangs — are
only claims until something actually fails.  This module is the
failure generator: a :class:`FaultPlan` drives every fault seam the
stack exposes

* ``WorkerPool.fault_hook`` — worker crashes *before* a job's result
  is recorded (and slow jobs, injected as sleeps at the same point);
* ``WorkerPool.post_fault_hook`` — crashes *after* the result was
  recorded: the crash-after-record window the dedup machinery must
  absorb without duplicating a row;
* ``JobQueue.fault_hook`` — dequeue stalls (scheduling jitter);
* ``BatchJournal.fault_hook`` — journal append ``OSError``\\ s
  (best-effort durability degrades, live results must not);
* ``TraceLedger.fault_hook`` — trace-store write ``OSError``\\ s,
  which the serving worker state escalates into worker deaths so the
  pool's bounded backoff retries them

from one integer seed.  Every decision is a pure function of
``(seed, scope, key, occurrence)`` where ``key`` identifies the job
(or batch) and ``occurrence`` counts that key's own visits to the
seam — never of wall-clock time, thread identity, or global call
order.  Two runs of the same plan over the same batch therefore
inject the *same* faults at the *same* per-job points regardless of
how the worker threads interleave, which is what lets the chaos suite
assert exact outcomes instead of statistical ones.

Crash decisions are bounded by ``crash_limit`` (occurrences per job),
kept below the pool's ``max_attempts`` by default so every injected
crash is survivable and the batch still completes with correct rows.
A plan with ``crash_limit=None`` removes the bound — the poison-job
mode that drives a job into quarantine.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Dict

from .. import telemetry

#: Seconds :meth:`FaultPlan.uninstall` waits for the pool to go idle.
SETTLE_S = 30.0

#: Raised by the crash hooks: distinguishable from real bugs in the
#: execute path when a chaos test inspects quarantine error text.
class InjectedCrash(RuntimeError):
    """A fault-plan-scheduled worker crash."""


def decision_fraction(seed, scope, key, occurrence):
    """Deterministic uniform fraction in [0, 1) for one fault decision.

    Pure in ``(seed, scope, key, occurrence)`` — the whole determinism
    contract of the harness lives in this function.
    """
    digest = hashlib.sha256(
        ("%d:%s:%s:%d" % (seed, scope, key, occurrence)).encode("utf-8")
    ).hexdigest()
    return int(digest[:12], 16) / float(0x1000000000000)


class FaultPlan:
    """One seeded, reproducible schedule of injected faults.

    Probabilities are per *seam visit* (per attempt, per append, per
    dequeue), decided deterministically per job/batch key.  ``install``
    wires the plan into a live ``SimulationService``; ``uninstall``
    detaches it.  ``injected`` counts what actually fired, keyed by
    scope — a chaos test asserts both the service outcome *and* that
    the plan really exercised the seams it claims to.
    """

    SCOPES = ("crash", "post_crash", "slow", "stall", "journal",
              "ledger", "proc_kill")

    def __init__(self, seed, crash_prob=0.0, crash_limit=2,
                 post_crash_prob=0.0, post_crash_limit=1,
                 slow_prob=0.0, slow_s=0.01,
                 stall_prob=0.0, stall_s=0.005,
                 journal_prob=0.0, journal_limit=None,
                 ledger_prob=0.0, ledger_limit=1,
                 kill_prob=0.0, kill_limit=1):
        self.seed = int(seed)
        self.crash_prob = crash_prob
        self.crash_limit = crash_limit
        self.post_crash_prob = post_crash_prob
        self.post_crash_limit = post_crash_limit
        self.slow_prob = slow_prob
        self.slow_s = slow_s
        self.stall_prob = stall_prob
        self.stall_s = stall_s
        self.journal_prob = journal_prob
        self.journal_limit = journal_limit
        self.ledger_prob = ledger_prob
        self.ledger_limit = ledger_limit
        self.kill_prob = kill_prob
        self.kill_limit = kill_limit
        #: scope -> how many faults actually fired.
        self.injected: Dict[str, int] = {scope: 0 for scope in self.SCOPES}
        self._occurrences: Dict[tuple, int] = {}
        self._lock = threading.Lock()
        self._service = None

    # -- decisions -----------------------------------------------------

    def _decide(self, scope, key, prob, limit) -> bool:
        """One seam visit for ``(scope, key)``: bump that key's own
        occurrence counter and decide.  The counter makes repeated
        visits (retries of one job) see fresh — but still fully
        deterministic — draws, and ``limit`` bounds how many times the
        fault may fire for one key."""
        if prob <= 0.0:
            return False
        with self._lock:
            occurrence = self._occurrences.get((scope, key), 0) + 1
            self._occurrences[(scope, key)] = occurrence
            if limit is not None and occurrence > limit:
                return False
            if decision_fraction(self.seed, scope, key, occurrence) >= prob:
                return False
            self.injected[scope] += 1
        # Counted, never printed: fault occurrences surface through the
        # metrics endpoint (and plan.injected), outside the plan lock.
        telemetry.counter(
            "ecl_chaos_injected_total",
            help="Faults the chaos plan actually fired, by scope.",
            scope=scope,
        ).inc()
        return True

    @staticmethod
    def _job_key(entry):
        return getattr(entry.job, "job_id", None) or repr(entry.job)

    # -- seam hooks ----------------------------------------------------

    def on_execute(self, entry):
        """``WorkerPool.fault_hook``: slow the job, then maybe crash
        the worker before any result is recorded."""
        key = self._job_key(entry)
        if self._decide("slow", key, self.slow_prob, None):
            time.sleep(self.slow_s)
        if self._decide("crash", key, self.crash_prob, self.crash_limit):
            raise InjectedCrash("chaos: worker crash before result "
                                "(job %s)" % key[:12])

    def on_recorded(self, entry):
        """``WorkerPool.post_fault_hook``: crash *after* the result was
        recorded — the retry must dedupe, not re-run."""
        key = self._job_key(entry)
        if self._decide("post_crash", key, self.post_crash_prob,
                        self.post_crash_limit):
            raise InjectedCrash("chaos: worker crash after record "
                                "(job %s)" % key[:12])

    def on_process(self, entry, worker):
        """``WorkerPool.process_fault_hook``: SIGKILL the slot's live
        worker subprocess right before dispatch — a *real* process
        death (the pipe breaks mid-job), not a simulated one.  The
        decision keys on the job id like the crash scopes, so retries
        of one job see fresh deterministic draws."""
        if self._decide("proc_kill", self._job_key(entry), self.kill_prob,
                        self.kill_limit):
            worker.kill()

    def on_dequeue(self, entry):
        """``JobQueue.fault_hook``: stall a dequeue (scheduling
        jitter)."""
        if self._decide("stall", self._job_key(entry), self.stall_prob,
                        None):
            time.sleep(self.stall_s)

    def on_journal(self, kind, key):
        """``BatchJournal.fault_hook``: fail an append with OSError.

        Row appends (synthesized rows only) key on the (stable) job
        id; admit/end appends key on the kind alone — their natural
        key, the batch id, is a fresh uuid every run and would break
        seed reproducibility."""
        decision_key = "%s/%s" % (kind, key) if kind == "row" else kind
        if self._decide("journal", decision_key,
                        self.journal_prob, self.journal_limit):
            raise OSError("chaos: injected journal %s append failure"
                          % kind)

    def on_ledger(self, op, key):
        """``TraceLedger.fault_hook``: fail a trace write with OSError
        (escalates to a worker death under the serving worker state,
        so the pool retries it).  Inert once uninstalled: the workers'
        ledgers keep the hook they were built with."""
        if self._service is not None and self._decide(
                "ledger", "%s/%s" % (op, key), self.ledger_prob,
                self.ledger_limit):
            raise OSError("chaos: injected ledger %s failure" % op)

    # -- wiring --------------------------------------------------------

    def install(self, service):
        """Attach this plan to every fault seam of ``service``.

        The workers' ledgers get :meth:`on_ledger` through the pool's
        ``process_config["ledger_fault_hook"]``, which a worker reads
        when it builds a tenant's state: install before the first
        batch runs.  Thread mode only: a spawned child would decide on
        its own copy of the occurrence counters.  Returns ``self`` (so
        tests can ``plan = FaultPlan(...).install(service)``)."""
        if self._service is not None:
            raise RuntimeError("FaultPlan is already installed")
        self._service = service
        service.pool.fault_hook = self.on_execute
        service.pool.post_fault_hook = self.on_recorded
        service.pool.process_fault_hook = self.on_process
        service.queue.fault_hook = self.on_dequeue
        if service.journal is not None:
            service.journal.fault_hook = self.on_journal
        if service.pool.mode == "thread":
            service.pool.process_config["ledger_fault_hook"] = self.on_ledger
        return self

    def uninstall(self):
        """Detach from the service, restoring every seam to None.

        Waits (up to SETTLE_S) for the pool to go idle first: a
        worker still between recording its last result and its
        post-record hook, or a retry that crash queued, must see the
        same plan on every run, or same-seed runs inject different
        fault counts."""
        service = self._service
        if service is None:
            return
        service.pool.wait_idle(timeout=SETTLE_S)
        self._service = None
        service.pool.fault_hook = None
        service.pool.post_fault_hook = None
        service.pool.process_fault_hook = None
        service.queue.fault_hook = None
        if service.journal is not None:
            service.journal.fault_hook = None
        service.pool.process_config.pop("ledger_fault_hook", None)

    def describe(self):
        fired = {k: v for k, v in self.injected.items() if v}
        return "FaultPlan(seed=%d, injected=%r)" % (self.seed, fired)
