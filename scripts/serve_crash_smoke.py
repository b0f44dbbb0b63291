"""CI smoke test for crash recovery: SIGKILL mid-batch, then resume.

Two phases against real ``eclc serve`` processes:

1. **Server crash + journal replay** — starts ``eclc serve`` with a
   durable data root, submits a batch over HTTP, SIGKILLs the server
   while the batch is partially complete, and restarts it on the same
   data root, whose journal it replays on startup.  The revived
   service must re-admit the unfinished batch from its journal, replay
   the rows that were already recorded, re-execute only the missing
   jobs, and stream a stable NDJSON serialization byte-identical to
   ``eclc farm run`` of the same spec — as if the crash never
   happened.
2. **Worker-process crash** — starts ``eclc serve -j 2`` (more than
   one worker runs the process-backed pool), SIGKILLs one of the worker
   children mid-batch, and asserts the *same* batch still completes
   with the same byte-identical rows, no restart required: a dead
   child degrades one dispatch, never the service.

Each phase, and the fault-free ground truth, works in its own temp
directory, removed on success; a failure keeps it and prints its path.

Usage::

    PYTHONPATH=src python scripts/serve_crash_smoke.py
"""

import json
import os
import re
import signal
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.cli import main as eclc  # noqa: E402
from repro.designs import PROTOCOL_STACK_ECL  # noqa: E402
from repro.serve import ServeClient  # noqa: E402
from serve_smoke import scratch_dir  # noqa: E402

#: ~20 jobs at ~10 ms each: a wide-enough window to land the SIGKILL
#: between the first recorded row and batch completion.
SPEC_JOBS = [
    {"design": "stack", "modules": ["toplevel"],
     "engines": ["native", "efsm"], "traces": 10, "length": 400,
     "seed": 7},
]

STABLE_VOLATILE = ("elapsed", "trace_path", "worker_pid")


def stable_bytes(row):
    payload = {key: value for key, value in row.items()
               if key not in STABLE_VOLATILE}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def start_server(data_root, jobs=1):
    """Launch ``eclc serve`` on a free port; returns (process, port,
    banner lines printed before the listen announcement)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--data-root", data_root, "-j", str(jobs)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(REPO, "src")},
    )
    banner = []
    for _ in range(5):  # recovery summary may precede the listen line
        line = process.stdout.readline()
        if not line:
            break
        banner.append(line.rstrip("\n"))
        match = re.search(r"listening on [^:]+:(\d+)", line)
        if match:
            return process, int(match.group(1)), banner
    process.kill()
    raise SystemExit("serve did not announce a port: %r" % banner)


def kill_mid_batch(process, client, batch_id, total):
    """Poll until the batch is partially complete, then SIGKILL."""
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        completed = client.batch_status(batch_id)["completed"]
        if completed >= 2:
            break
        time.sleep(0.005)
    else:
        raise SystemExit("batch never made progress")
    process.kill()  # SIGKILL: no atexit, no flush, no goodbye
    process.wait(timeout=30)
    assert completed < total, (
        "batch finished (%d/%d) before the kill landed; widen the "
        "spec" % (completed, total))
    print("crash smoke: killed server at %d/%d rows"
          % (completed, total))


def ground_truth(workdir):
    """Fault-free rows: the same spec straight through the farm."""
    stack_path = os.path.join(workdir, "stack.ecl")
    with open(stack_path, "w") as handle:
        handle.write(PROTOCOL_STACK_ECL)
    spec_path = os.path.join(workdir, "batch.json")
    with open(spec_path, "w") as handle:
        json.dump({"workers": 1, "ledger": "direct-ledger",
                   "designs": {"stack": stack_path},
                   "jobs": SPEC_JOBS}, handle)
    report_path = os.path.join(workdir, "report.json")
    rc = eclc(["farm", "run", "--spec", spec_path,
               "--report", report_path])
    assert rc == 0, "eclc farm run exited %d" % rc
    with open(report_path) as handle:
        return sorted(json.load(handle)["results"],
                      key=lambda row: row["index"])


def assert_rows_match(streamed, direct, total, label):
    assert len(streamed) == len(direct) == total, (
        "%s: expected %d rows, got %d streamed / %d direct"
        % (label, total, len(streamed), len(direct)))
    bad = [row["status"] for row in streamed if row["status"] != "ok"]
    assert not bad, "%s: non-ok rows: %r" % (label, bad)
    for service_row, farm_row in zip(streamed, direct):
        left = json.dumps(service_row, sort_keys=True,
                          separators=(",", ":"))
        right = stable_bytes(farm_row)
        assert left == right, (
            "%s: row %d diverged:\n  serve: %s\n  farm:  %s"
            % (label, service_row["index"], left, right))


def batch_document():
    return {
        "designs": {"stack": {"text": PROTOCOL_STACK_ECL}},
        "jobs": [dict(entry) for entry in SPEC_JOBS],
    }


def run(direct, workdir):
    data_root = os.path.join(workdir, "serve-data")
    document = batch_document()

    process, port, _ = start_server(data_root)
    killed = False
    try:
        client = ServeClient(port=port)
        admitted = client.submit(document)
        batch_id, total = admitted["batch"], admitted["jobs"]
        kill_mid_batch(process, client, batch_id, total)
        killed = True
    finally:
        if not killed and process.poll() is None:
            process.kill()

    # restart on the same data root: its journal replays on startup
    process, port, banner = start_server(data_root)
    try:
        recovery = [line for line in banner if "recovered" in line]
        assert recovery, "no recovery banner in %r" % banner
        print("crash smoke: %s" % recovery[0])

        client = ServeClient(port=port)
        streamed = sorted(client.stream_results(batch_id, stable=True),
                          key=lambda row: row["index"])
        health = client.health()
        assert health["ok"], "revived service is not healthy: %r" % health
        client.shutdown()
        process.wait(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()

    assert_rows_match(streamed, direct, total, "server crash")
    print("crash smoke: %d rows byte-identical to eclc farm run "
          "after SIGKILL + recovery" % len(streamed))


def run_worker_kill(direct, workdir):
    """Phase 2: SIGKILL a worker *child* of a process-pool server
    mid-batch; the same server must finish the batch correctly."""
    data_root = os.path.join(workdir, "serve-data")

    # -j 2 runs the process-backed pool
    process, port, banner = start_server(data_root, jobs=2)
    try:
        assert any("process workers" in line for line in banner), (
            "expected a process-pool banner, got %r" % banner)
        client = ServeClient(port=port)
        admitted = client.submit(batch_document())
        batch_id, total = admitted["batch"], admitted["jobs"]

        # wait for a live child pid, then SIGKILL it mid-batch
        deadline = time.monotonic() + 60
        victim = None
        while time.monotonic() < deadline:
            status = client.status()
            pids = status["pool"].get("process_pids", [])
            completed = client.batch_status(batch_id)["completed"]
            if pids and completed < total:
                victim = pids[0]
                break
            if completed >= total:
                raise SystemExit(
                    "batch finished before a child pid appeared; "
                    "widen the spec")
            time.sleep(0.005)
        assert victim is not None, "no worker child pid surfaced"
        os.kill(victim, signal.SIGKILL)
        print("crash smoke: SIGKILLed worker child %d mid-batch"
              % victim)

        streamed = sorted(client.stream_results(batch_id, stable=True),
                          key=lambda row: row["index"])
        # mid-job the kill surfaces as a crash; between jobs it
        # surfaces as a replacement spawn — either way the pool must
        # have noticed.
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            pool = client.status()["pool"]
            if (pool.get("proc_crashes", 0)
                    + pool.get("proc_restarts", 0)) >= 1:
                break
            time.sleep(0.05)
        else:
            raise SystemExit("pool never noticed the dead child: %r"
                             % pool)
        client.shutdown()
        process.wait(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()

    assert_rows_match(streamed, direct, total, "worker kill")
    print("crash smoke: %d rows byte-identical to eclc farm run "
          "after worker-child SIGKILL (no restart)" % len(streamed))


if __name__ == "__main__":
    with scratch_dir("serve-smoke-truth-") as truth_dir:
        direct_rows = ground_truth(truth_dir)
    with scratch_dir("serve-crash-smoke-") as workdir:
        run(direct_rows, workdir)
    with scratch_dir("serve-proc-smoke-") as workdir:
        run_worker_kill(direct_rows, workdir)
