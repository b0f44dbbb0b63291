"""Integration: the pooled farm runs on the serving layer's worker pool.

``SimulationFarm(workers=2)`` ships dispatch groups to spawned serve
worker children.  These tests hold it to the inline path — stable rows
and ledger index byte for byte — and to the pool's fault model: a
SIGKILLed child costs a retry, not the batch, and a job whose retries
run out becomes one ``quarantined:`` row instead of an exception.
Every farm run is joined with a bound, so a wedged child fails the
test instead of hanging it.
"""

import json
import os
import threading

import pytest

from repro.designs import AUDIO_BUFFER_ECL, DOOR_CTRL_ECL, PROTOCOL_STACK_ECL
from repro.farm import (SimJob, SimulationFarm, StimulusSpec, TraceLedger,
                        expand_jobs)
from repro.serve.pool import WorkerPool

#: Terminates on its second ``go``: some traces end early, some not.
ONCE_ECL = """
module once (input pure go, input int v, output int done)
{
    await (go);
    await (go);
    emit_v (done, v);
}
"""

DESIGNS = {
    "stack": PROTOCOL_STACK_ECL,
    "buffer": AUDIO_BUFFER_ECL,
    "door": DOOR_CTRL_ECL,
    "once": ONCE_ECL,
}

STACK_TASKS = (
    ("assemble", "assemble", 3, (("outpkt", "packet"),)),
    ("prochdr", "prochdr", 2, (("inpkt", "packet"),)),
    ("checkcrc", "checkcrc", 1, (("inpkt", "packet"),)),
)

#: Seconds one pooled farm run may take before the test fails.
RUN_BOUND = 180


def paper_jobs():
    """The three paper designs plus a terminating one, over every farm
    engine: scalar efsm/native/equivalence jobs, vector jobs that fuse
    into sweeps, and rtos jobs running a task partition."""
    cells = [("stack", "toplevel"), ("buffer", "audio_buffer"),
             ("door", "door_ctrl"), ("once", "once")]
    jobs = expand_jobs(cells, engines=("efsm", "native", "equivalence"),
                       traces=2, length=24)
    jobs += expand_jobs(cells[1:3], engines=("vector",), traces=4,
                        length=24, start_index=len(jobs))
    for task_engine in ("efsm", "native"):
        jobs.append(SimJob(
            design="stack", module="toplevel", engine="rtos",
            stimulus=StimulusSpec.random(length=24), index=len(jobs),
            tasks=STACK_TASKS, task_engine=task_engine,
        ))
    return jobs


def efsm_jobs(traces=6):
    return expand_jobs([("stack", "toplevel"), ("buffer", "audio_buffer")],
                       engines=("efsm",), traces=traces, length=32)


def stable_rows(report):
    return [json.dumps(result.to_dict(volatile=False), sort_keys=True)
            for result in report.results]


def ledger_index(root):
    return sorted((entry["index"], entry["job_id"], entry["trace"])
                  for entry in TraceLedger(root).entries())


def run_bounded(farm, jobs):
    """``farm.run(jobs)`` on a helper thread, joined with a bound."""
    outcome = {}

    def target():
        try:
            outcome["report"] = farm.run(jobs)
        except BaseException as error:  # re-raised on the test thread
            outcome["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(RUN_BOUND)
    assert not thread.is_alive(), "pooled farm run did not finish"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["report"]


@pytest.fixture()
def pool_hooks(monkeypatch):
    """Install fault hooks on the pool the next farm run builds."""
    hooks = {}
    original = WorkerPool.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        for name, hook in hooks.items():
            setattr(self, name, hook)

    monkeypatch.setattr(WorkerPool, "__init__", init)
    return hooks


def test_pooled_rows_and_ledger_match_inline(tmp_path):
    jobs = paper_jobs()
    inline_root = str(tmp_path / "inline")
    pooled_root = str(tmp_path / "pooled")
    inline = SimulationFarm(DESIGNS, workers=1,
                            ledger_root=inline_root).run(jobs)
    pooled = run_bounded(
        SimulationFarm(DESIGNS, workers=2, ledger_root=pooled_root), jobs)
    assert pooled.workers == 2 and inline.workers == 1
    assert stable_rows(pooled) == stable_rows(inline)
    assert {r.status for r in inline.results} >= {"ok", "terminated"}
    assert ledger_index(pooled_root) == ledger_index(inline_root)
    # the farm's children write the root index, not a tenant shard
    assert os.path.exists(os.path.join(pooled_root, "ledger.jsonl"))
    assert {r.worker_pid for r in pooled.results} - {os.getpid()}


def test_sigkilled_child_loses_no_row(pool_hooks):
    jobs = efsm_jobs()
    killed = []

    def kill_once(entry, worker):
        if entry.job.index == 4 and not killed:
            killed.append(worker.pid)
            worker.kill()

    pool_hooks["process_fault_hook"] = kill_once
    report = run_bounded(SimulationFarm(DESIGNS, workers=2), jobs)
    assert killed, "the fault hook never fired"
    assert [r.index for r in report.results] == list(range(len(jobs)))
    inline = SimulationFarm(DESIGNS, workers=1).run(jobs)
    assert stable_rows(report) == stable_rows(inline)


def test_exhausted_retries_quarantine_one_row(pool_hooks):
    jobs = efsm_jobs(traces=3)
    poison = jobs[2].job_id

    def crash(entry):
        if entry.job.job_id == poison:
            raise RuntimeError("injected fault")

    pool_hooks["fault_hook"] = crash
    report = run_bounded(SimulationFarm(DESIGNS, workers=2), jobs)
    assert [r.index for r in report.results] == list(range(len(jobs)))
    errors = report.errors
    assert [r.job_id for r in errors] == [poison]
    assert errors[0].error.startswith("quarantined: worker died (3 attempt(s))")
    assert report.status_counts() == {"error": 1, "ok": len(jobs) - 1}
