"""Unit tests for the serving layer's intake: JobQueue + WorkerPool."""

import threading
from time import monotonic

import pytest

from repro.errors import EclError
from repro.serve import (JobQueue, QueueEntry, QueueFullError,
                         TenantQuotaError, WorkerPool, backoff_delay)


def entries_of(queue):
    out = []
    while True:
        entry = queue.get(timeout=0)
        if entry is None:
            return out
        out.append(entry)


class TestJobQueue:
    def test_fifo_within_one_priority(self):
        queue = JobQueue(depth=8)
        queue.put_batch(["a", "b", "c"])
        assert [e.job for e in entries_of(queue)] == ["a", "b", "c"]

    def test_higher_priority_dequeues_first(self):
        queue = JobQueue(depth=8)
        queue.put_batch(["low"], priority=0)
        queue.put_batch(["high"], priority=5)
        queue.put_batch(["mid"], priority=2)
        assert [e.job for e in entries_of(queue)] == ["high", "mid", "low"]

    def test_admission_is_atomic_all_or_nothing(self):
        queue = JobQueue(depth=4)
        queue.put_batch(["a", "b", "c"])
        with pytest.raises(QueueFullError, match="queue_full"):
            queue.put_batch(["d", "e"])  # 3 + 2 > 4
        # the oversized batch left nothing behind
        assert len(queue) == 3
        assert queue.stats_dict()["rejected"] == 2
        # a batch that fits is still admitted after a rejection
        queue.put_batch(["d"])
        assert len(queue) == 4

    def test_requeue_bypasses_depth_and_keeps_place_in_line(self):
        queue = JobQueue(depth=2)
        (first, second) = queue.put_batch(["a", "b"])
        got = queue.get(timeout=0)
        assert got is first
        # the queue is at depth again after the requeue (2 entries),
        # yet requeue never rejects — its admission already paid.
        assert queue.requeue(got)
        assert len(queue) == 2
        # the retried entry keeps its original (earlier) sequence
        # number, so it dequeues before later arrivals.
        assert queue.get(timeout=0) is got
        assert queue.get(timeout=0) is second

    def test_get_blocks_until_put(self):
        queue = JobQueue(depth=4)
        seen = []

        def getter():
            seen.append(queue.get(timeout=5))

        thread = threading.Thread(target=getter)
        thread.start()
        queue.put_batch(["x"])
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert seen[0].job == "x"

    def test_close_wakes_getters_and_stops_admission(self):
        queue = JobQueue(depth=4)
        results = []

        def getter():
            results.append(queue.get(timeout=10))

        thread = threading.Thread(target=getter)
        thread.start()
        queue.close()
        thread.join(timeout=5)
        assert results == [None]
        with pytest.raises(EclError, match="closed"):
            queue.put_batch(["x"])
        assert queue.requeue(QueueEntry.make("x")) is False

    def test_drain_empties_in_priority_order(self):
        queue = JobQueue(depth=8)
        queue.put_batch(["low"], priority=0)
        queue.put_batch(["high"], priority=9)
        drained = queue.drain()
        assert [e.job for e in drained] == ["high", "low"]
        assert len(queue) == 0

    def test_bad_depth_rejected(self):
        with pytest.raises(EclError, match="depth"):
            JobQueue(depth=0)

    def test_force_put_bypasses_depth_bound(self):
        queue = JobQueue(depth=2)
        queue.put_batch(["a", "b"])
        with pytest.raises(QueueFullError):
            queue.put_batch(["c"])
        # recovery re-admission: the original admission already paid
        # the backpressure toll, so force never rejects.
        queue.put_batch(["c", "d"], force=True)
        assert len(queue) == 4

    def test_backing_off_entry_does_not_block_ready_ones(self):
        queue = JobQueue(depth=8)
        (retry,) = queue.put_batch(["retry"], priority=9)
        queue.put_batch(["ready"], priority=0)
        queue.get(timeout=0)  # pop the high-priority entry...
        retry.not_before = monotonic() + 30.0
        assert queue.requeue(retry)
        # ...requeued with a far-future backoff: despite its better
        # priority it must not starve the eligible entry behind it.
        got = queue.get(timeout=0.2)
        assert got is not None and got.job == "ready"
        assert queue.get(timeout=0) is None  # retry still backing off
        assert len(queue) == 1  # and still queued, not lost

    def test_getter_sleeps_until_backoff_matures(self):
        queue = JobQueue(depth=8)
        (entry,) = queue.put_batch(["x"])
        entry.not_before = monotonic() + 0.1
        assert queue.requeue(entry)
        started = monotonic()
        got = queue.get(timeout=5)
        assert got is entry
        assert monotonic() - started >= 0.08

    def test_requeue_dequeues_ahead_of_many_later_arrivals(self):
        """The retried entry's original sequence number beats every
        arrival that was admitted after it — retries of old work are
        never penalized, however deep the queue has grown since."""
        queue = JobQueue(depth=256)
        (victim,) = queue.put_batch(["victim"])
        assert queue.get(timeout=0) is victim
        queue.put_batch(["later-%d" % i for i in range(16)])
        assert queue.requeue(victim)
        assert queue.get(timeout=0) is victim

    def test_concurrent_drain_with_requeue_loses_nothing(self):
        """Four workers drain while the retry lands mid-flight: the
        retried entry is neither lost nor duplicated, and every other
        entry still drains exactly once."""
        queue = JobQueue(depth=256)
        (victim,) = queue.put_batch(["victim"])
        queue.put_batch(["later-%d" % i for i in range(32)])
        assert queue.get(timeout=0) is victim
        barrier = threading.Barrier(5)
        drained = []
        lock = threading.Lock()

        def drain():
            barrier.wait()
            while True:
                entry = queue.get(timeout=0.5)
                if entry is None:
                    return
                with lock:
                    drained.append(entry)

        def put_back():
            barrier.wait()
            queue.requeue(victim)

        threads = [threading.Thread(target=drain) for _ in range(4)]
        threads.append(threading.Thread(target=put_back))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(drained) == 33
        assert len(set(id(e) for e in drained)) == 33  # no duplicates
        assert victim in drained  # the retry was not lost
        assert len(queue) == 0


class TestWeightedFairness:
    """The deficit-round-robin rotation across tenant lanes."""

    def test_backlogged_tenant_cannot_starve_another(self):
        """Fifty queued heavy-tenant jobs, one light-tenant job: the
        light job dequeues within the first rotation turn, not after
        the heavy backlog drains."""
        queue = JobQueue(depth=256)
        queue.put_batch(["heavy-%d" % i for i in range(50)],
                        tenant="heavy")
        queue.put_batch(["light"], tenant="light")
        order = [e.job for e in entries_of(queue)]
        assert order.index("light") <= 1
        assert len(order) == 51

    def test_priority_cannot_cross_tenant_lanes(self):
        """Priority orders within a tenant; the rotation — not
        priority — decides between tenants, so a tenant cannot jump
        the ring by inflating its priorities."""
        queue = JobQueue(depth=64)
        queue.put_batch(["a-hi"], tenant="a", priority=9)
        queue.put_batch(["a-lo"], tenant="a", priority=0)
        queue.put_batch(["b"], tenant="b", priority=0)
        order = [e.job for e in entries_of(queue)]
        assert order.index("a-hi") < order.index("a-lo")
        assert order.index("b") <= 1  # one turn, despite priority 0

    def test_weights_split_dequeues_proportionally(self):
        """Weight 3 vs weight 1 with deep backlogs on both sides: the
        first dequeues split ~3:1 (exactly 3:1 per full rotation)."""
        queue = JobQueue(depth=256,
                         tenant_weights={"gold": 3.0, "basic": 1.0})
        queue.put_batch(["g%d" % i for i in range(30)], tenant="gold")
        queue.put_batch(["b%d" % i for i in range(30)], tenant="basic")
        first = [queue.get(timeout=0).job for _ in range(20)]
        gold = sum(1 for job in first if job.startswith("g"))
        assert gold == 15  # 3 of every 4

    def test_fractional_weight_accumulates_credit(self):
        """A weight-0.5 lane dequeues once per two turns — held back,
        never locked out."""
        queue = JobQueue(depth=256,
                         tenant_weights={"slow": 0.5, "fast": 1.0})
        queue.put_batch(["s%d" % i for i in range(8)], tenant="slow")
        queue.put_batch(["f%d" % i for i in range(8)], tenant="fast")
        first = [queue.get(timeout=0).job for _ in range(12)]
        slow = sum(1 for job in first if job.startswith("s"))
        assert 3 <= slow <= 5
        # and the slow lane fully drains once the fast one is empty
        rest = [e.job for e in entries_of(queue)]
        assert len(first) + len(rest) == 16

    def test_single_tenant_degenerates_to_strict_priority(self):
        queue = JobQueue(depth=64, tenant_weights={"default": 2.0})
        queue.put_batch(["lo"], priority=0)
        queue.put_batch(["hi"], priority=5)
        queue.put_batch(["mid"], priority=2)
        assert [e.job for e in entries_of(queue)] == ["hi", "mid", "lo"]


class TestTenantQuotas:
    def test_queued_quota_rejects_structured_and_atomic(self):
        queue = JobQueue(depth=64, max_queued_per_tenant=3)
        queue.put_batch(["a", "b"], tenant="greedy")
        with pytest.raises(TenantQuotaError, match="tenant_quota"):
            queue.put_batch(["c", "d"], tenant="greedy")  # 2 + 2 > 3
        # structured: a TenantQuotaError IS a QueueFullError (the 429
        # backpressure contract), distinguishable by type.
        assert issubclass(TenantQuotaError, QueueFullError)
        # atomic: the rejected batch left nothing behind...
        assert len(queue) == 2
        stats = queue.stats_dict()
        assert stats["quota_rejected"] == 2
        # ...and another tenant is untouched by the greedy one's quota
        queue.put_batch(["x", "y", "z"], tenant="modest")
        assert len(queue) == 5

    def test_quota_bypassed_by_force_and_requeue(self):
        queue = JobQueue(depth=64, max_queued_per_tenant=1)
        (entry,) = queue.put_batch(["a"], tenant="t")
        # recovery re-admission bypasses the quota
        queue.put_batch(["b"], tenant="t", force=True)
        assert queue.get(timeout=0) is entry
        # a worker-death retry bypasses it too
        assert queue.requeue(entry)
        assert len(queue) == 2

    def test_in_flight_cap_gates_lane_without_blocking_others(self):
        queue = JobQueue(depth=64, max_in_flight_per_tenant=1)
        queue.put_batch(["t1-a", "t1-b"], tenant="t1")
        queue.put_batch(["t2-a"], tenant="t2")
        first = queue.get(timeout=0)
        assert first.job == "t1-a"
        # t1 is at its cap: its second entry is gated, t2's is not
        assert queue.get(timeout=0).job == "t2-a"
        assert queue.get(timeout=0.05) is None
        assert len(queue) == 1  # gated, not lost
        # task_done(entry) releases the lane (and wakes waiters)
        queue.task_done(first)
        assert queue.get(timeout=1).job == "t1-b"

    def test_in_flight_release_wakes_blocked_getter(self):
        queue = JobQueue(depth=64, max_in_flight_per_tenant=1)
        queue.put_batch(["a", "b"], tenant="t")
        held = queue.get(timeout=0)
        got = []

        def getter():
            got.append(queue.get(timeout=5))

        thread = threading.Thread(target=getter)
        thread.start()
        queue.task_done(held)
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert got[0].job == "b"


class TestTakeMatching:
    def test_takes_matching_same_lane_entries_up_to_limit(self):
        queue = JobQueue(depth=64)
        queue.put_batch(["v1", "v2", "s1", "v3"], tenant="t")
        queue.put_batch(["other-v"], tenant="other")
        lead = queue.get(timeout=0)
        assert lead.job == "v1"
        taken = queue.take_matching(
            lead, lambda job: job.startswith("v"), limit=8)
        # same lane only, matching only, lane order preserved
        assert [e.job for e in taken] == ["v2", "v3"]
        assert queue.stats_dict()["in_flight"] == 3
        for entry in taken:
            queue.task_done(entry)
        queue.task_done(lead)
        # rotation hands the turn to the other tenant after the lead
        # pop; the skipped same-lane entry follows.
        assert [e.job for e in entries_of(queue)] == ["other-v", "s1"]

    def test_limit_and_backoff_respected(self):
        queue = JobQueue(depth=64)
        entries = queue.put_batch(["v1", "v2", "v3", "v4"])
        lead = queue.get(timeout=0)
        entries[2].not_before = monotonic() + 30.0  # v3 backing off
        taken = queue.take_matching(lead, lambda job: True, limit=1)
        assert [e.job for e in taken] == ["v2"]
        taken = queue.take_matching(lead, lambda job: True, limit=8)
        assert [e.job for e in taken] == ["v4"]  # v3 skipped, kept
        assert len(queue) == 1

    def test_respects_in_flight_quota(self):
        queue = JobQueue(depth=64, max_in_flight_per_tenant=2)
        queue.put_batch(["v1", "v2", "v3"], tenant="t")
        lead = queue.get(timeout=0)
        taken = queue.take_matching(lead, lambda job: True, limit=8)
        # lead holds one in-flight slot; only one companion fits
        assert [e.job for e in taken] == ["v2"]


class TestBackoffDelay:
    def test_deterministic_and_exponential(self):
        first = backoff_delay("job-a", 1)
        assert first == backoff_delay("job-a", 1)  # pure function
        assert backoff_delay("job-a", 1) != backoff_delay("job-b", 1)
        assert backoff_delay("job-a", 0) == 0.0
        # base growth dominates the +-50% jitter band
        assert backoff_delay("job-a", 4) > backoff_delay("job-a", 1)

    def test_jitter_stays_in_band_and_cap_holds(self):
        for attempt in range(1, 12):
            delay = backoff_delay("k", attempt, base=0.02, cap=2.0)
            assert delay <= 2.0
            assert delay >= min(2.0, 0.02 * (2 ** (attempt - 1)))


class TestWorkerPool:
    def make_pool(self, workers=2, max_attempts=3, depth=64):
        queue = JobQueue(depth=depth)
        done = []
        dead = []
        lock = threading.Lock()

        def execute_group(group, worker, visit, settled):
            for entry in group:
                visit(entry)
                with lock:
                    done.append(entry.job)
                settled(entry)

        def on_dead(entry, error):
            with lock:
                dead.append((entry.job, error))

        pool = WorkerPool(queue, execute_group, on_dead_job=on_dead,
                          workers=workers, max_attempts=max_attempts)
        return queue, pool, done, dead

    def stop(self, queue, pool):
        queue.close()
        pool.join(timeout=5)

    def test_executes_every_queued_job(self):
        queue, pool, done, _dead = self.make_pool()
        queue.put_batch(list(range(20)))
        pool.start()
        assert pool.wait_idle(timeout=10)
        self.stop(queue, pool)
        assert sorted(done) == list(range(20))
        assert pool.stats_dict()["jobs_executed"] == 20

    def test_worker_death_retries_then_succeeds(self):
        queue, pool, done, dead = self.make_pool(workers=1)
        crashes = {"left": 2}

        def fault(entry):
            if entry.job == "fragile" and crashes["left"] > 0:
                crashes["left"] -= 1
                raise RuntimeError("injected worker crash")

        pool.fault_hook = fault
        queue.put_batch(["fragile", "solid"])
        pool.start()
        assert pool.wait_idle(timeout=10)
        self.stop(queue, pool)
        # two crashes burned two attempts; the third (== max_attempts)
        # succeeded, and the healthy job was never lost.
        assert sorted(done) == ["fragile", "solid"]
        assert dead == []
        assert pool.stats_dict()["worker_deaths"] == 2
        # the slot survived both deaths, its worker untouched
        assert len(pool._threads) == 1
        assert pool.stats_dict()["proc_restarts"] == 0

    def test_retry_budget_exhaustion_reports_dead_job(self):
        queue, pool, done, dead = self.make_pool(workers=1, max_attempts=2)

        def fault(entry):
            if entry.job == "doomed":
                raise RuntimeError("always crashes")

        pool.fault_hook = fault
        queue.put_batch(["doomed", "fine"])
        pool.start()
        assert pool.wait_idle(timeout=10)
        self.stop(queue, pool)
        assert done == ["fine"]
        assert len(dead) == 1
        assert dead[0][0] == "doomed"
        assert "worker died (2 attempt(s))" in dead[0][1]

    def test_wait_idle_times_out_when_work_remains(self):
        queue, pool, _done, _dead = self.make_pool(workers=1)
        queue.put_batch(["never-run"])
        # pool not started: the queue stays non-empty
        assert pool.wait_idle(timeout=0.2) is False

    def test_exhaustion_under_concurrent_workers_reports_once(self):
        """A poison job crashing four concurrent workers is reported
        dead exactly once after max_attempts, and every healthy job
        around it still executes exactly once."""
        queue, pool, done, dead = self.make_pool(workers=4,
                                                 max_attempts=3)

        def fault(entry):
            if entry.job == "poison":
                raise RuntimeError("always crashes")

        pool.fault_hook = fault
        queue.put_batch(["poison"] + ["ok-%d" % i for i in range(20)])
        pool.start()
        assert pool.wait_idle(timeout=20)
        self.stop(queue, pool)
        assert sorted(done) == sorted("ok-%d" % i for i in range(20))
        assert len(dead) == 1
        assert dead[0][0] == "poison"
        assert "worker died (3 attempt(s))" in dead[0][1]
        assert pool.stats_dict()["worker_deaths"] == 3

    def test_retry_carries_backoff_not_before(self):
        """The second attempt arrives with a future not_before set by
        the deterministic backoff — the retry waited, the first
        attempt did not."""
        queue, pool, _done, _dead = self.make_pool(workers=1)
        seen = []
        crashes = {"left": 1}

        def fault(entry):
            seen.append((entry.attempts, entry.not_before, monotonic()))
            if crashes["left"] > 0:
                crashes["left"] -= 1
                raise RuntimeError("injected")

        pool.fault_hook = fault
        queue.put_batch(["x"])
        pool.start()
        assert pool.wait_idle(timeout=10)
        self.stop(queue, pool)
        assert [attempts for attempts, _, _ in seen] == [0, 1]
        first, retry = seen
        assert first[1] == 0.0
        assert retry[1] > 0.0  # backoff scheduled...
        assert retry[2] >= retry[1]  # ...and honored by the queue
