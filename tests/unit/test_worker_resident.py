"""Resident adapters: a WorkerState binds each (design, module, engine)
reactor once and restores it per job.

The oracle is a fresh WorkerState per job: one long-lived state running
the same job sequence on resident adapters must produce identical rows
and identical persisted records.
"""

import sys
import threading
import typing

import pytest

from repro import engines
from repro.designs import AUDIO_BUFFER_ECL
from repro.farm import SimJob, StimulusSpec, WorkerState, worker
from repro.farm.ledger import TraceLedger
from repro.pipeline import ArtifactCache

MIXED = """
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

module once (input pure go, input int v, output int done)
{
    int kept;

    await (go);
    kept = v;
    await (go);
    emit_v (done, kept);
}
"""

OTHER = """
module once (input pure go, input int v, output int done)
{
    await (go);
    emit_v (done, v + 1000);
}
"""

DESIGNS = {"mixed": MIXED, "audio": AUDIO_BUFFER_ECL}

#: Compiled artifacts shared by every fresh state below, so a fresh
#: state per job rebinds its reactors without recompiling the design.
CACHE = ArtifactCache.memory()


def fresh_state(designs=None, **kwargs):
    return WorkerState(designs or DESIGNS, cache=CACHE, **kwargs)


def job_sequence():
    """Jobs that stress restore(): mid-drive runtime errors (divider
    divides by zero when x == 7), early termination (once), C-memory
    writes (audio_buffer's FIFO), coverage-collecting jobs, explicit
    stimulus, and native/vector interleaved on one module."""
    small = StimulusSpec.random(length=24, present_prob=0.8, value_range=(0, 15))
    jobs = []
    for index in range(36):
        module, design, stimulus = [
            ("divider", "mixed", small),
            ("once", "mixed", small),
            ("audio_buffer", "audio", StimulusSpec.random(length=40)),
        ][index % 3]
        if index % 7 == 6:
            stimulus = StimulusSpec.explicit(
                [{"x": 3}, {"x": 7}] if module == "divider" else [{}, {}]
            )
        jobs.append(
            SimJob(
                design=design,
                module=module,
                engine="vector" if index % 5 == 4 else "native",
                stimulus=stimulus,
                index=index,
                collect_coverage=index % 4 == 1,
            )
        )
    return jobs


def stable(result):
    return result.to_dict(volatile=False)


def records_of(root, result):
    if result.trace_digest is None:
        return None
    return TraceLedger(root).load(result.trace_digest)


class TestResidentAdapters:
    def test_one_state_matches_a_fresh_state_per_job(self, tmp_path):
        pytest.importorskip("numpy")
        jobs = job_sequence()
        shared_root = str(tmp_path / "shared")
        fresh_root = str(tmp_path / "fresh")
        shared = WorkerState(DESIGNS, ledger_root=shared_root)
        reused = [shared.run_job(job) for job in jobs]
        fresh = [
            fresh_state(ledger_root=fresh_root).run_job(job) for job in jobs
        ]
        statuses = {result.status for result in reused}
        assert {"ok", "terminated", "error"} <= statuses
        for left, right in zip(reused, fresh):
            assert stable(left) == stable(right)
            assert records_of(shared_root, left) == records_of(fresh_root, right)
        # one adapter per (module, engine) served the whole sequence
        for label, bound in shared._builds.items():
            assert all(len(idle) == 1 for idle in bound.idle.values()), label

    def test_scalar_jobs_bind_once_per_module(self, monkeypatch):
        binds = []
        build = engines.Engine.build

        def counting(self, handles, job):
            binds.append((job.module, self.name))
            return build(self, handles, job)

        monkeypatch.setattr(engines.Engine, "build", counting)
        state = WorkerState(DESIGNS)
        state.run_jobs(
            [job for job in job_sequence() if job.engine == "native"]
        )
        assert sorted(binds) == [
            ("audio_buffer", "native"),
            ("divider", "native"),
            ("once", "native"),
        ]

    def test_rebound_label_never_serves_the_old_adapter(self):
        stimulus = StimulusSpec.random(length=16, present_prob=0.9)
        job = SimJob(design="mixed", module="once", engine="native",
                     stimulus=stimulus)
        state = WorkerState(DESIGNS)
        before = state.run_job(job)
        old = state._builds["mixed"]
        (stale,) = old.idle[("once", "native")]
        state.adopt_designs({"mixed": OTHER})
        after = state.run_job(job)
        expected = fresh_state({"mixed": OTHER}).run_job(job)
        assert stable(after) == stable(expected)
        assert stable(after) != stable(before)
        (current,) = state._builds["mixed"].idle[("once", "native")]
        assert current is not stale

    def test_adapter_checked_out_across_a_rebind_is_dropped(self, monkeypatch):
        stimulus = StimulusSpec.random(length=16, present_prob=0.9)
        job = SimJob(design="mixed", module="once", engine="native",
                     stimulus=stimulus)
        state = WorkerState(DESIGNS)
        state.run_job(job)
        (stale,) = state._builds["mixed"].idle[("once", "native")]
        run_spec = engines.NativeAdapter.run_spec

        def rebinding(adapter, job, *args):
            # the label is re-bound while this adapter is checked out
            state.adopt_designs({"mixed": OTHER})
            return run_spec(adapter, job, *args)

        monkeypatch.setattr(engines.NativeAdapter, "run_spec", rebinding)
        state.run_job(job)
        monkeypatch.setattr(engines.NativeAdapter, "run_spec", run_spec)
        after = state.run_job(job)
        assert stable(after) == stable(fresh_state({"mixed": OTHER}).run_job(job))
        (current,) = state._builds["mixed"].idle[("once", "native")]
        assert current is not stale

    def test_threads_sharing_a_state_never_share_an_adapter(self, tmp_path):
        # more threads than cores, each job once per thread in a row:
        # the threads run the same job at the same time
        threads = 3
        jobs = [
            job
            for job in job_sequence()
            if job.engine == "native"
            for _ in range(threads)
        ]
        root = str(tmp_path / "traces")
        expected = [
            stable(fresh_state(ledger_root=root).run_job(job)) for job in jobs
        ]
        state = WorkerState(DESIGNS, ledger_root=root)
        # compile and bind up front, so the threads drive at once
        for module in {job.module: job for job in jobs}.values():
            state.run_job(module)
        got = {}
        start = threading.Barrier(threads)

        def worker(offset):
            start.wait(timeout=30)
            for position in range(offset, len(jobs), threads):
                got[position] = stable(state.run_job(jobs[position]))

        workers = [
            threading.Thread(target=worker, args=(n,)) for n in range(threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers)
        assert [got.get(position) for position in range(len(jobs))] == expected


def _job(label, module):
    return SimJob(design=label, module=module, engine="native",
                  stimulus=StimulusSpec.random(length=8, present_prob=0.7))


def _memory_sources(cache):
    return {key.source for key in cache._memory}


class TestRetention:
    """A long-lived worker keeps its last RESIDENT_BUILDS builds.  With
    a disk layer a retired build's artifacts leave the memory layer; a
    memory-only cache keeps them, so no revisit recompiles."""

    DESIGNS = {"a": MIXED, "b": OTHER, "c": AUDIO_BUFFER_ECL}

    def test_least_recently_used_build_is_retired(self, monkeypatch, tmp_path):
        monkeypatch.setattr(worker, "RESIDENT_BUILDS", 2)
        state = WorkerState(self.DESIGNS, cache_dir=str(tmp_path))
        state.run_job(_job("a", "once"))
        state.run_job(_job("b", "once"))
        assert list(state._builds) == ["a", "b"]
        retired = state._builds["b"].build.source_digest
        state.run_job(_job("a", "once"))
        state.run_job(_job("c", "sampler"))
        assert list(state._builds) == ["a", "c"]
        assert retired not in _memory_sources(state.pipeline.cache)
        again = state.run_job(_job("b", "once"))
        expected = fresh_state(self.DESIGNS).run_job(_job("b", "once"))
        assert stable(again) == stable(expected)
        assert list(state._builds) == ["c", "b"]

    def test_builds_under_the_bound_stay_resident(self, monkeypatch):
        monkeypatch.setattr(worker, "RESIDENT_BUILDS", 4)
        state = WorkerState(self.DESIGNS)
        for label, module in (("a", "once"), ("b", "once"), ("c", "sampler")):
            state.run_job(_job(label, module))
        assert list(state._builds) == ["a", "b", "c"]

    def test_revisits_past_the_bound_never_recompile(self, monkeypatch, tmp_path):
        monkeypatch.setattr(worker, "RESIDENT_BUILDS", 2)
        for cache in (ArtifactCache.memory(),
                      ArtifactCache.persistent(str(tmp_path))):
            state = WorkerState(self.DESIGNS, cache=cache)
            jobs = [_job("a", "once"), _job("b", "once"), _job("c", "sampler")]
            first = [stable(state.run_job(job)) for job in jobs]
            stores = cache.stats.stores
            for _ in range(2):
                assert [stable(state.run_job(job)) for job in jobs] == first
                assert len(state._builds) == 2
            assert cache.stats.stores == stores

    def test_running_build_is_never_retired(self, monkeypatch, tmp_path):
        monkeypatch.setattr(worker, "RESIDENT_BUILDS", 1)
        state = WorkerState(self.DESIGNS, cache_dir=str(tmp_path))
        state.run_job(_job("a", "once"))
        running = state._builds["a"].build.source_digest
        with state._running_on("a"):
            state.run_job(_job("b", "once"))
            assert list(state._builds) == ["a", "b"]
        assert running in _memory_sources(state.pipeline.cache)
        state.run_job(_job("c", "sampler"))
        assert list(state._builds) == ["c"]
        assert running not in _memory_sources(state.pipeline.cache)

    def test_shared_source_keeps_its_artifacts(self, monkeypatch, tmp_path):
        monkeypatch.setattr(worker, "RESIDENT_BUILDS", 2)
        state = WorkerState({"a": MIXED, "twin": MIXED, "b": OTHER},
                            cache_dir=str(tmp_path))
        state.run_job(_job("a", "once"))
        shared = state._builds["a"].build.source_digest
        state.run_job(_job("twin", "once"))
        state.run_job(_job("b", "once"))
        assert list(state._builds) == ["twin", "b"]
        assert shared in _memory_sources(state.pipeline.cache)

    def test_rebinding_a_label_releases_the_old_source(self, tmp_path):
        state = WorkerState({"a": MIXED}, cache_dir=str(tmp_path))
        state.run_job(_job("a", "once"))
        old = state._builds["a"].build.source_digest
        state.adopt_designs({"a": OTHER})
        assert "a" not in state._builds
        assert old not in _memory_sources(state.pipeline.cache)


def test_worker_state_type_hints_resolve():
    for name in dir(WorkerState):
        member = getattr(WorkerState, name)
        if not name.startswith("_") and callable(member):
            typing.get_type_hints(member)
