"""Resident adapters: a WorkerState binds each (design, module, engine)
reactor once and restores it per job.

The oracle is a fresh WorkerState per job: one long-lived state running
the same job sequence on resident adapters must produce identical rows
and identical persisted records.
"""

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
        modules = {(job.module, job.engine) for job in jobs}
        bound = [key for b in shared._builds.values() for key in b.adapters]
        assert sorted(bound) == sorted(modules)

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

    def test_new_source_under_a_label_never_serves_the_old_adapter(self):
        stimulus = StimulusSpec.random(length=16, present_prob=0.9)
        job = SimJob(design="mixed", module="once", engine="native",
                     stimulus=stimulus)
        state = WorkerState(DESIGNS)
        before = state.run_job(job)
        stale = state._builds[("mixed", MIXED)].adapters[("once", "native")]
        after = state.run_job(job, {"mixed": OTHER})
        expected = fresh_state({"mixed": OTHER}).run_job(job)
        assert stable(after) == stable(expected)
        assert stable(after) != stable(before)
        current = state._builds[("mixed", OTHER)].adapters[("once", "native")]
        assert current is not stale
        # the constructor's source still serves its own jobs, warm
        assert stable(state.run_job(job)) == stable(before)
        assert state._builds[("mixed", MIXED)].adapters[("once", "native")] \
            is stale

    def test_two_sources_under_one_label_interleave(self):
        """Four dispatches bind one label to two sources, alternately,
        and advance in turn, one unit each: every row is its own
        source's."""
        stimulus = StimulusSpec.random(length=16, present_prob=0.9)
        jobs = [SimJob(design="mixed", module="once", engine="native",
                       stimulus=stimulus, index=index)
                for index in range(6)]
        sources = [{"mixed": MIXED}, {"mixed": OTHER}]
        expected = [[stable(fresh_state(designs).run_job(job))
                     for job in jobs] for designs in sources]
        assert expected[0] != expected[1]
        state = WorkerState({})
        dispatches = 4
        streams = [state.stream(jobs, sources[n % 2]) for n in range(dispatches)]
        got = [[None] * len(jobs) for _ in range(dispatches)]
        for _ in jobs:
            for n, stream in enumerate(streams):
                for position, result in next(stream):
                    got[n][position] = stable(result)
        assert got == [expected[n % 2] for n in range(dispatches)]
        assert state.designs == {}
        assert sorted(state._builds) == sorted(
            ("mixed", source) for source in (MIXED, OTHER))


def _job(label, module):
    return SimJob(design=label, module=module, engine="native",
                  stimulus=StimulusSpec.random(length=8, present_prob=0.7))


def _memory_sources(cache):
    return {key.source for key in cache._memory}


def _labels(state):
    """The labels of a state's resident builds, least recent first."""
    return [label for label, _source in state._builds]


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
        assert _labels(state) == ["a", "b"]
        retired = state.build("b").source_digest
        state.run_job(_job("a", "once"))
        state.run_job(_job("c", "sampler"))
        assert _labels(state) == ["a", "c"]
        assert retired not in _memory_sources(state.pipeline.cache)
        again = state.run_job(_job("b", "once"))
        expected = fresh_state(self.DESIGNS).run_job(_job("b", "once"))
        assert stable(again) == stable(expected)
        assert _labels(state) == ["c", "b"]

    def test_builds_under_the_bound_stay_resident(self, monkeypatch):
        monkeypatch.setattr(worker, "RESIDENT_BUILDS", 4)
        state = WorkerState(self.DESIGNS)
        for label, module in (("a", "once"), ("b", "once"), ("c", "sampler")):
            state.run_job(_job(label, module))
        assert _labels(state) == ["a", "b", "c"]

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

    def test_shared_source_keeps_its_artifacts(self, monkeypatch, tmp_path):
        monkeypatch.setattr(worker, "RESIDENT_BUILDS", 2)
        state = WorkerState({"a": MIXED, "twin": MIXED, "b": OTHER},
                            cache_dir=str(tmp_path))
        state.run_job(_job("a", "once"))
        shared = state.build("a").source_digest
        state.run_job(_job("twin", "once"))
        state.run_job(_job("b", "once"))
        assert _labels(state) == ["twin", "b"]
        assert shared in _memory_sources(state.pipeline.cache)

    def test_revisions_under_one_label_age_out(self, monkeypatch, tmp_path):
        """A label's old source is just an older key: it leaves under
        the LRU bound like any other build, artifacts and all."""
        monkeypatch.setattr(worker, "RESIDENT_BUILDS", 2)
        state = WorkerState({}, cache_dir=str(tmp_path))
        sources = [MIXED, OTHER, AUDIO_BUFFER_ECL]
        digests = []
        for source, module in zip(sources, ["once", "once", "sampler"]):
            state.run_job(_job("a", module), {"a": source})
            digests.append(state._builds[("a", source)].build.source_digest)
        assert list(state._builds) == [("a", OTHER), ("a", AUDIO_BUFFER_ECL)]
        assert digests[0] not in _memory_sources(state.pipeline.cache)
        assert digests[1] in _memory_sources(state.pipeline.cache)


def test_worker_state_type_hints_resolve():
    for name in dir(WorkerState):
        member = getattr(WorkerState, name)
        if not name.startswith("_") and callable(member):
            typing.get_type_hints(member)
