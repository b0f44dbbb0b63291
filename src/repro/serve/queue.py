"""Bounded weighted-fair priority queue of simulation jobs.

The queue is the backpressure point of :mod:`repro.serve`: depth is
bounded, and a submission that does not fit is rejected *atomically*
with :class:`QueueFullError` (either every job of a batch is admitted
or none is) instead of growing without bound until the process dies.
Rejection is cheap and explicit — the HTTP layer turns it into a 429 —
so a client under load sees ``queue_full`` and backs off, and the
service itself never OOMs on intake.

Scheduling is **weighted-fair across tenants, strict priority within
a tenant**.  Each tenant owns one lane (a heap ordered by
``(-priority, seq)`` — higher priority first, FIFO within a priority
class), and lanes with backlog take turns under deficit round robin:
a lane earns ``weight`` credits when its turn comes around, spends
one credit per dequeued job, and yields the floor when its credits
run out.  A tenant with weight 3 therefore drains three jobs for
every one of a weight-1 tenant, but a tenant can never monopolize
the pool however deep its backlog grows — the starvation mode a
single strict-priority heap invites in a multi-tenant service.

Per-tenant quotas bound one tenant's footprint independently of the
global depth: ``max_queued_per_tenant`` rejects a batch (atomically,
with a structured :class:`TenantQuotaError` — ``tenant_quota`` on the
wire) when the tenant's own backlog would exceed it, and
``max_in_flight_per_tenant`` holds a tenant's queued entries back
while too many of its jobs are already executing, without blocking
other tenants' lanes.

Retries may carry a *backoff*: an entry whose ``not_before`` lies in
the future is held back without blocking the entries behind it, and a
getter with nothing eligible condition-waits exactly until the
earliest ``not_before`` matures (never a fixed poll interval), so
retry latency is the backoff itself, not the backoff rounded up to
the next poll tick.  A *requeued* entry (worker-death retry) keeps
its original sequence number and therefore its place in line, and
requeues bypass the depth bound and the tenant quotas: a retry must
never be dropped by backpressure that admitted the job in the first
place.  Recovery re-admission (``put_batch(..., force=True)``)
bypasses them the same way — a batch journaled as admitted before a
crash already paid the backpressure toll.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import deque
from dataclasses import dataclass, field
from time import monotonic
from typing import Dict, List, Optional

from .. import telemetry
from ..errors import EclError, QueueFullError

#: Default bound on queued (not yet executing) jobs.
DEFAULT_QUEUE_DEPTH = 1024

#: Weight of a tenant with no configured weight.
DEFAULT_TENANT_WEIGHT = 1.0


class ServiceClosedError(EclError):
    """A submission reached a service (or queue) that no longer admits
    work — it is draining or shut down (HTTP 503)."""


class TenantQuotaError(QueueFullError):
    """A submission exceeded its tenant's queued-jobs quota.

    Subclasses :class:`QueueFullError` so existing backpressure
    handling (HTTP 429, client backoff) applies unchanged; the API
    layer distinguishes the two by type to report a structured
    ``tenant_quota`` error."""


@dataclass(order=True)
class QueueEntry:
    """One queued job plus its scheduling metadata.

    The dataclass ordering (``sort_key`` only) is what heapq uses:
    ``(-priority, seq)`` — higher priority first, FIFO within a
    priority class.  Fairness *across* tenants is the queue's deficit
    round robin, not the sort key: the key only orders entries inside
    one tenant's lane.
    """

    sort_key: tuple
    job: object = field(compare=False)
    batch: object = field(compare=False, default=None)
    tenant: str = field(compare=False, default="default")
    priority: int = field(compare=False, default=0)
    seq: int = field(compare=False, default=0)
    attempts: int = field(compare=False, default=0)
    #: monotonic() instant the entry was (first) admitted — what job
    #: deadlines measure queue wait against.
    admitted_at: float = field(compare=False, default=0.0)
    #: earliest monotonic() instant the entry may dequeue (retry
    #: backoff); 0.0 = immediately eligible.
    not_before: float = field(compare=False, default=0.0)
    #: ``attempts`` when the dequeue fault seam last saw the entry.
    hooked: int = field(compare=False, default=-1)

    @classmethod
    def make(cls, job, batch=None, tenant="default", priority=0, seq=0):
        return cls(
            sort_key=(-priority, seq),
            job=job,
            batch=batch,
            tenant=tenant,
            priority=priority,
            seq=seq,
            admitted_at=monotonic(),
        )


class _TenantLane:
    """One tenant's slice of the queue: its heap plus its DRR state."""

    __slots__ = ("name", "heap", "weight", "deficit", "in_flight",
                 "dequeued")

    def __init__(self, name, weight=DEFAULT_TENANT_WEIGHT):
        self.name = name
        self.heap: List[QueueEntry] = []
        self.weight = max(1e-6, float(weight))
        #: DRR credits: earned (``weight`` at a time) when the lane's
        #: turn comes around, spent one per dequeued job.
        self.deficit = 0.0
        #: entries of this tenant popped but not yet task_done'd.
        self.in_flight = 0
        #: lifetime dequeues, surfaced per tenant by stats/telemetry.
        self.dequeued = 0

    def pop_eligible(self, now):
        """Pop the lane's best entry whose backoff has matured;
        entries still backing off are pushed straight back (keeping
        their order)."""
        held = []
        found = None
        while self.heap:
            entry = heapq.heappop(self.heap)
            if entry.not_before <= now:
                found = entry
                break
            held.append(entry)
        for entry in held:
            heapq.heappush(self.heap, entry)
        return found

    def stats_dict(self):
        return {
            "queued": len(self.heap),
            "in_flight": self.in_flight,
            "weight": self.weight,
            "deficit": round(self.deficit, 6),
            "dequeued": self.dequeued,
        }


class JobQueue:
    """Thread-safe bounded multi-tenant queue with atomic admission."""

    def __init__(self, depth=DEFAULT_QUEUE_DEPTH, tenant_weights=None,
                 max_queued_per_tenant=None,
                 max_in_flight_per_tenant=None):
        if depth < 1:
            raise EclError("queue depth must be >= 1, got %r" % (depth,))
        self.depth = depth
        self.tenant_weights = dict(tenant_weights or {})
        if max_queued_per_tenant is not None and max_queued_per_tenant < 1:
            raise EclError("max_queued_per_tenant must be >= 1, got %r"
                           % (max_queued_per_tenant,))
        if (max_in_flight_per_tenant is not None
                and max_in_flight_per_tenant < 1):
            raise EclError("max_in_flight_per_tenant must be >= 1, got %r"
                           % (max_in_flight_per_tenant,))
        self.max_queued_per_tenant = max_queued_per_tenant
        self.max_in_flight_per_tenant = max_in_flight_per_tenant
        self._lanes: Dict[str, _TenantLane] = {}
        #: lanes with backlog, in round-robin order (front = current
        #: turn).  Invariant: a lane is in the ring iff its heap is
        #: non-empty.
        self._ring = deque()
        self._queued = 0
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._seq = itertools.count()
        self._closed = False
        #: lifetime counters, surfaced by the status endpoint.
        self.admitted = 0
        self.rejected = 0
        self.quota_rejected = 0
        self.requeued = 0
        #: entries popped but not yet :meth:`task_done`'d.  Updated
        #: under the queue lock at the pop itself, so "queued or in
        #: flight" is one atomic predicate (:meth:`is_idle`) — there is
        #: no instant where a live entry is counted by neither side.
        self.in_flight = 0
        #: test seam: ``fault_hook(entry)`` runs (outside the queue
        #: lock) once per attempt when an entry leaves the queue
        #: (``get`` or ``take_matching``) and may sleep to simulate a
        #: queue stall.
        self.fault_hook = None

    # -- tenant lanes --------------------------------------------------

    def _lane(self, tenant) -> _TenantLane:
        lane = self._lanes.get(tenant)
        if lane is None:
            lane = _TenantLane(
                tenant,
                weight=self.tenant_weights.get(tenant,
                                               DEFAULT_TENANT_WEIGHT),
            )
            self._lanes[tenant] = lane
        return lane

    def _activate(self, lane):
        """Put a lane (back) in the round-robin ring when its heap
        just went non-empty."""
        if len(lane.heap) and lane not in self._ring:
            self._ring.append(lane)

    # -- intake --------------------------------------------------------

    def put_batch(self, jobs, batch=None, tenant="default", priority=0,
                  force=False, on_admit=None):
        """Admit every job of a batch, or none.

        Raises :class:`QueueFullError` when the batch does not fit in
        the remaining global depth and :class:`TenantQuotaError` when
        it would exceed the tenant's own queued quota — partially
        admitted batches would stream partial results forever, so
        admission is all-or-nothing either way.  ``force=True``
        (journal recovery re-admission) bypasses both bounds: the
        batch's original admission already paid the backpressure toll.
        ``on_admit()`` runs once the batch passed both bounds, before
        any of its entries can be taken, under the queue lock: the
        service writes its pre-encoded journal admission there.
        """
        jobs = list(jobs)
        with self._lock:
            if self._closed:
                raise ServiceClosedError(
                    "job queue is closed (service shutting down)")
            lane = self._lane(tenant)
            if (not force and self.max_queued_per_tenant is not None
                    and len(lane.heap) + len(jobs)
                    > self.max_queued_per_tenant):
                self.quota_rejected += len(jobs)
                self.rejected += len(jobs)
                telemetry.counter(
                    "ecl_serve_tenant_quota_rejected_total",
                    help="Jobs rejected by per-tenant queued quotas.",
                    tenant=tenant,
                ).inc(len(jobs))
                raise TenantQuotaError(
                    "tenant_quota: tenant %r has %d queued + %d "
                    "submitted, quota %d"
                    % (tenant, len(lane.heap), len(jobs),
                       self.max_queued_per_tenant)
                )
            if not force and self._queued + len(jobs) > self.depth:
                self.rejected += len(jobs)
                telemetry.counter(
                    "ecl_serve_rejected_total",
                    help="Jobs rejected by queue backpressure.",
                ).inc(len(jobs))
                raise QueueFullError(
                    "queue_full: %d queued + %d submitted exceeds depth %d"
                    % (self._queued, len(jobs), self.depth)
                )
            if on_admit is not None:
                on_admit()
            entries = [
                QueueEntry.make(
                    job,
                    batch=batch,
                    tenant=tenant,
                    priority=priority,
                    seq=next(self._seq),
                )
                for job in jobs
            ]
            for entry in entries:
                heapq.heappush(lane.heap, entry)
            self._queued += len(entries)
            self._activate(lane)
            self.admitted += len(entries)
            telemetry.counter(
                "ecl_serve_admitted_total",
                help="Jobs admitted past queue backpressure.",
            ).inc(len(entries))
            self._not_empty.notify(len(entries))
            return entries

    def refuse(self, jobs):
        """Count ``jobs`` a batch was refused with before reaching
        :meth:`put_batch` (spec expansion already saw it cannot fit)."""
        with self._lock:
            self.rejected += jobs
        telemetry.counter(
            "ecl_serve_rejected_total",
            help="Jobs rejected by queue backpressure.",
        ).inc(jobs)

    def requeue(self, entry):
        """Re-admit a retried entry, bypassing the depth bound and the
        tenant quotas (its original admission already paid the
        backpressure toll) and keeping its original sequence number
        (its place in line)."""
        with self._lock:
            if self._closed:
                return False
            lane = self._lane(entry.tenant)
            heapq.heappush(lane.heap, entry)
            self._queued += 1
            self._activate(lane)
            self.requeued += 1
            telemetry.counter(
                "ecl_serve_requeued_total",
                help="Retried jobs re-admitted after a worker death.",
            ).inc()
            self._not_empty.notify()
            return True

    # -- draining ------------------------------------------------------

    def get(self, timeout=None) -> Optional[QueueEntry]:
        """Block for the next *eligible* entry under the fair-share
        rotation.  Returns None when the queue is closed and drained
        (the worker's signal to exit), or on timeout.

        An entry whose ``not_before`` lies in the future (retry
        backoff) is skipped over, not waited on: eligible entries
        behind it (and other tenants' lanes) dequeue first, and a
        getter facing only backing-off entries condition-waits exactly
        until the earliest one matures — woken early by any admission,
        requeue or (when in-flight quotas gate a lane) task_done.
        """
        deadline = None if timeout is None else monotonic() + timeout
        entry = None
        with self._not_empty:
            while True:
                now = monotonic()
                entry = self._pop_eligible_locked(now)
                if entry is not None:
                    break
                if self._closed and not self._queued:
                    return None
                waits = []
                if deadline is not None:
                    remaining = deadline - now
                    if remaining <= 0:
                        return None
                    waits.append(remaining)
                earliest = self._earliest_not_before_locked()
                if earliest is not None:
                    # everything queued is backing off: sleep until
                    # the earliest not_before matures (or a notify).
                    waits.append(max(1e-4, earliest - now))
                self._not_empty.wait(timeout=min(waits) if waits else None)
        self._dequeued(entry)
        return entry

    def _dequeued(self, entry):
        """The dequeue fault seam, once per attempt: a group member
        requeued untouched does not see it twice."""
        if self.fault_hook is not None and entry.hooked != entry.attempts:
            entry.hooked = entry.attempts
            self.fault_hook(entry)

    def _earliest_not_before_locked(self):
        """Earliest backoff maturity across every queued entry, or
        None when nothing is queued (a getter then waits for a
        notify).  Entries gated by an in-flight quota rather than a
        backoff report no wake-up time — task_done notifies."""
        earliest = None
        for lane in self._ring:
            if self._gated_locked(lane):
                continue
            for queued in lane.heap:
                if earliest is None or queued.not_before < earliest:
                    earliest = queued.not_before
        return earliest

    def _gated_locked(self, lane):
        """True when the lane may not dequeue right now because too
        many of its jobs are already in flight."""
        return (self.max_in_flight_per_tenant is not None
                and lane.in_flight >= self.max_in_flight_per_tenant)

    def _pop_eligible_locked(self, now):
        """One deficit-round-robin step: give each backlogged lane (in
        ring order, starting with the current turn-holder) a chance to
        spend a credit on its best eligible entry.

        Sweeps repeat while some lane earned fractional credit without
        reaching a full one: turns against empty, gated, or backing-off
        lanes cost nothing, so the holdout accumulates to 1.0 within
        ``ceil(1/weight)`` sweeps instead of stranding eligible work.
        """
        ring = self._ring
        while True:
            accumulated = False
            for _ in range(len(ring)):
                lane = ring[0]
                if self._gated_locked(lane):
                    ring.rotate(-1)
                    continue
                entry = lane.pop_eligible(now)
                if entry is None:
                    # nothing eligible (all backing off): no credit
                    # earned, no credit burned — not this lane's turn.
                    ring.rotate(-1)
                    continue
                if lane.deficit < 1.0:
                    lane.deficit += lane.weight
                if lane.deficit < 1.0:
                    # fractional weight still accumulating credit: the
                    # entry stays queued, the lane keeps its carry.
                    heapq.heappush(lane.heap, entry)
                    ring.rotate(-1)
                    accumulated = True
                    continue
                lane.deficit -= 1.0
                self._account_pop_locked(lane, entry)
                if not lane.heap:
                    ring.popleft()
                    lane.deficit = 0.0
                elif lane.deficit < 1.0:
                    # credits spent: the turn passes to the next lane.
                    ring.rotate(-1)
                return entry
            if not accumulated:
                return None

    def _account_pop_locked(self, lane, entry):
        self._queued -= 1
        self.in_flight += 1
        lane.in_flight += 1
        lane.dequeued += 1
        telemetry.counter(
            "ecl_serve_tenant_dequeues_total",
            help="Jobs dequeued under the fair-share rotation, "
                 "by tenant.",
            tenant=lane.name,
        ).inc()

    def take_matching(self, entry, match, limit):
        """Pop up to ``limit`` additional *eligible* entries from
        ``entry``'s tenant lane whose job satisfies ``match(job)`` —
        the dispatch-group intake: the caller already holds ``entry``
        and will execute the whole group as one dispatch.

        Taken entries count as in flight (the caller owes one
        :meth:`task_done` per entry) but spend no DRR credit: a group
        rides on the credit its lead entry already paid, so grouping
        never lets a tenant out-run its fair share of *dispatches*.
        Entries still backing off, and entries beyond
        the tenant's in-flight quota, stay queued.  Returns the taken
        entries in lane (priority, admission) order.
        """
        if limit <= 0:
            return []
        now = monotonic()
        taken = []
        with self._lock:
            lane = self._lanes.get(entry.tenant)
            if lane is None or not lane.heap:
                return []
            if self.max_in_flight_per_tenant is not None:
                limit = min(limit,
                            self.max_in_flight_per_tenant - lane.in_flight)
            held = []
            while lane.heap and len(taken) < limit:
                candidate = heapq.heappop(lane.heap)
                if candidate.not_before <= now and match(candidate.job):
                    taken.append(candidate)
                else:
                    held.append(candidate)
            for candidate in held:
                heapq.heappush(lane.heap, candidate)
            for candidate in taken:
                self._account_pop_locked(lane, candidate)
            if not lane.heap and lane in self._ring:
                self._ring.remove(lane)
                lane.deficit = 0.0
        for candidate in taken:
            self._dequeued(candidate)
        return taken

    def task_done(self, entry=None):
        """The getter finished (or requeued) its popped entry —
        balances every successful :meth:`get` (and every entry taken
        by :meth:`take_matching`).  Passing the entry keeps the
        per-tenant in-flight accounting exact; without it only the
        global count adjusts."""
        with self._lock:
            self.in_flight = max(0, self.in_flight - 1)
            if entry is not None:
                lane = self._lanes.get(entry.tenant)
                if lane is not None:
                    lane.in_flight = max(0, lane.in_flight - 1)
                    if self.max_in_flight_per_tenant is not None:
                        # a quota-gated lane may have become eligible.
                        self._not_empty.notify_all()

    def is_idle(self):
        """True when nothing is queued *and* nothing popped is still
        in a worker's hands — one atomic snapshot, so an idle-waiter
        cannot slip through the pop-to-execute window."""
        with self._lock:
            return not self._queued and self.in_flight == 0

    def drain(self) -> List[QueueEntry]:
        """Remove and return every queued entry (non-graceful
        shutdown: the service synthesizes cancelled results so no
        stream hangs on jobs that will never run)."""
        with self._lock:
            entries = []
            for lane in self._lanes.values():
                entries.extend(lane.heap)
                lane.heap = []
                lane.deficit = 0.0
            self._ring.clear()
            self._queued = 0
            return sorted(entries)

    def close(self):
        """Stop admissions and wake every blocked getter; queued
        entries remain drainable."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    @property
    def closed(self):
        return self._closed

    def __len__(self):
        with self._lock:
            return self._queued

    def stats_dict(self):
        with self._lock:
            return {
                "depth": self.depth,
                "queued": self._queued,
                "in_flight": self.in_flight,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "quota_rejected": self.quota_rejected,
                "requeued": self.requeued,
                "max_queued_per_tenant": self.max_queued_per_tenant,
                "max_in_flight_per_tenant": self.max_in_flight_per_tenant,
                "tenants": {
                    name: lane.stats_dict()
                    for name, lane in sorted(self._lanes.items())
                    if lane.heap or lane.in_flight or lane.dequeued
                },
            }
