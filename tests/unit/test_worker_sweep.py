"""Which vector jobs a worker sweeps, and that sweeping changes no row.

A worker sweeps a group of vector jobs through one numpy ``run_specs``
call only when nothing needs the jobs' records (no ledger, no
properties) and the group holds at least ``SWEEP_MIN_LANES`` jobs;
every other vector job runs per job on the resident native driver.
Either path must produce the same stable row.
"""

import pytest

from repro.designs import AUDIO_BUFFER_ECL, DOOR_CTRL_ECL, PROTOCOL_STACK_ECL
from repro.farm import SimJob, SimulationFarm, StimulusSpec, WorkerState
from repro.farm.worker import SWEEP_MIN_LANES
from repro.pipeline import ArtifactCache
from repro.verify import never, present

PAPER_DESIGNS = {
    "stack": PROTOCOL_STACK_ECL,
    "buffer": AUDIO_BUFFER_ECL,
    "door": DOOR_CTRL_ECL,
}

ECHO = """
module echo (input pure ping, output pure pong)
{
    while (1) { await (ping); emit (pong); }
}
"""

#: Compiled artifacts shared by every state below.
CACHE = ArtifactCache.memory()


def vector_jobs(design, module, count, coverage=False, properties=()):
    return [
        SimJob(design=design, module=module, engine="vector",
               stimulus=StimulusSpec.random(length=64, salt=7),
               index=index, collect_coverage=coverage,
               properties=properties)
        for index in range(count)
    ]


def stable(rows):
    return [row.to_dict(volatile=False) for row in rows]


@pytest.mark.parametrize("ledger", [False, True], ids=["no-ledger", "ledger"])
@pytest.mark.parametrize("coverage", [False, True], ids=["plain", "coverage"])
def test_sweep_rows_equal_per_job_rows(tmp_path, coverage, ledger):
    """Every module of the three paper designs, 12 lanes each: the
    rows of ``run_sweep`` and of ``run_job`` are byte-identical,
    status, coverage and trace digest included."""
    roots = {"sweep": None, "job": None}
    if ledger:
        roots = {side: str(tmp_path / side) for side in roots}
    sweeper = WorkerState(PAPER_DESIGNS, cache=CACHE,
                          ledger_root=roots["sweep"])
    single = WorkerState(PAPER_DESIGNS, cache=CACHE,
                         ledger_root=roots["job"])
    modules = 0
    for design in sorted(PAPER_DESIGNS):
        for module in sweeper.build(design).module_names:
            jobs = vector_jobs(design, module, 12, coverage=coverage)
            swept = sweeper.run_sweep(jobs)
            alone = [single.run_job(job) for job in jobs]
            assert stable(swept) == stable(alone), (design, module)
            if ledger:
                assert all(row.trace_digest for row in alone if row.ok)
            modules += 1
    assert modules == 10


def run_specs_calls(monkeypatch):
    """Record the lane count of every ``VectorReactor.run_specs``."""
    from repro.runtime.vector import VectorReactor

    calls = []
    run_specs = VectorReactor.run_specs

    def spy(self, spec, seeds=None, **kwargs):
        calls.append(len(seeds))
        return run_specs(self, spec, seeds=seeds, **kwargs)

    monkeypatch.setattr(VectorReactor, "run_specs", spy)
    return calls


def test_inline_farm_sweeps_only_wide_record_free_groups(tmp_path,
                                                         monkeypatch):
    pytest.importorskip("numpy")
    calls = run_specs_calls(monkeypatch)
    designs = {"e": ECHO}

    wide = vector_jobs("e", "echo", SWEEP_MIN_LANES, coverage=True)
    rows = SimulationFarm(designs, workers=1).run(wide).results
    assert calls == [SWEEP_MIN_LANES]
    assert all(row.ok for row in rows)
    state = WorkerState(designs, cache=CACHE)
    assert stable(rows) == stable(state.run_job(job) for job in wide)

    narrow = vector_jobs("e", "echo", SWEEP_MIN_LANES - 1)
    with_ledger = SimulationFarm(designs, workers=1,
                                 ledger_root=str(tmp_path / "traces"))
    checked = vector_jobs("e", "echo", SWEEP_MIN_LANES,
                          properties=(never(present("pong")),))
    del calls[:]
    for farm, jobs in ((SimulationFarm(designs, workers=1), narrow),
                       (with_ledger, wide),
                       (SimulationFarm(designs, workers=1), checked)):
        report = farm.run(jobs)
        assert len(report.results) == len(jobs)
        assert all(row.status in ("ok", "violated")
                   for row in report.results)
    assert calls == []
