"""CI smoke test for the serving layer, end to end over a real socket.

Starts ``eclc serve`` as a subprocess, submits a batch over HTTP,
streams the stable result rows, runs the identical spec through
``eclc farm run`` directly, and asserts the two serializations are
byte-identical row for row — the serving layer's core determinism
contract, exercised exactly the way a user would.

After the three 8-job batches, ``GET /v1/health`` must report fewer
dispatches than executed jobs (same-batch jobs share dispatch groups).

Also scrapes ``GET /v1/metrics`` while a batch is in flight, asserts
the key telemetry series exist and parse as Prometheus text, and
writes the final exposition + JSON snapshot to ``benchmarks/out/``
for CI to upload next to the BENCH artifacts.

The trace ledger is checked from the outside too: one trace fetched
over ``GET /v1/tenants/<t>/traces/<digest>`` must re-hash to the digest
its row carries, the data root's ``traces/`` must hold pack segments
(at most one per worker process) rather than one file per job, and
``eclc stats --ledger`` must summarise every recorded trace.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.cli import main as eclc  # noqa: E402
from repro.designs import PROTOCOL_STACK_ECL  # noqa: E402
from repro.farm.ledger import PACK_DIR, canonical_json  # noqa: E402
from repro.serve import ServeClient  # noqa: E402
from repro.telemetry import parse_prometheus  # noqa: E402

#: Series every instrumented service run must expose (the stable
#: metric-name contract; see the README catalog).  This smoke runs
#: ``-j 2``, which runs the process-backed pool: compile and
#: execute counters (``ecl_pipeline_cache_requests_total``,
#: ``ecl_farm_jobs_total``) then live in the worker children's own
#: registries, not the parent exposition — the thread-mode
#: integration tests keep those in the contract.
REQUIRED_SERIES = (
    "ecl_serve_queue_depth",
    "ecl_serve_admitted_total",
    "ecl_serve_jobs_executed_total",
    "ecl_serve_dispatches_total",
    "ecl_serve_batch_seconds_count",
    "ecl_serve_journal_appends_total",
    "ecl_pool_mode",
)

SPEC_JOBS = [
    {"design": "stack", "modules": ["toplevel"],
     "engines": ["native", "efsm"], "traces": 4, "length": 12,
     "seed": 7},
]

STABLE_VOLATILE = ("elapsed", "trace_path", "worker_pid")


def stable_bytes(row):
    payload = {key: value for key, value in row.items()
               if key not in STABLE_VOLATILE}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def check_trace_roundtrip(client, row):
    """The fetched trace re-encodes to the bytes its digest names."""
    trace = client.fetch_trace("default", row["trace_digest"])
    assert trace["header"]["job_id"] == row["job_id"], trace["header"]
    assert len(trace["records"]) == row["instants"]
    lines = [canonical_json(line)
             for line in [trace["header"]] + trace["records"]]
    blob = ("\n".join(lines) + "\n").encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == row["trace_digest"], (
        "fetched trace does not re-hash to its digest")


def check_packed_ledger(traces_root, rows, workers):
    """Pack segments, not one file per job; ``eclc stats`` reads it."""
    packs = os.listdir(os.path.join(traces_root, PACK_DIR))
    assert 1 <= len(packs) <= workers, "expected <= %d segments: %r" % (
        workers, packs)
    assert not os.path.exists(os.path.join(traces_root, "objects")), (
        "per-object files written without VCD")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = eclc(["stats", "--ledger", traces_root, "--tenant", "default"])
    assert rc == 0, "eclc stats --ledger exited %d" % rc
    assert "ledger: %d trace(s)" % rows in out.getvalue(), out.getvalue()


def start_server(data_root):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--data-root", data_root, "-j", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(REPO, "src")},
    )
    line = process.stdout.readline()
    match = re.search(r"listening on [^:]+:(\d+)", line)
    if not match:
        process.kill()
        raise SystemExit("serve did not announce a port: %r" % line)
    return process, int(match.group(1))


def run():
    workdir = tempfile.mkdtemp(prefix="serve-smoke-")
    stack_path = os.path.join(workdir, "stack.ecl")
    with open(stack_path, "w") as handle:
        handle.write(PROTOCOL_STACK_ECL)
    spec = {
        "workers": 1,
        "ledger": "direct-ledger",
        "designs": {"stack": stack_path},
        "jobs": SPEC_JOBS,
    }
    spec_path = os.path.join(workdir, "batch.json")
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)

    data_root = os.path.join(workdir, "serve-data")
    process, port = start_server(data_root)
    try:
        client = ServeClient(port=port)
        assert client.healthz(), "healthz failed"

        # scrape /v1/metrics while a batch is in flight: admission is
        # synchronous, so right after submit() returns the batch is
        # live and the exposition must already carry its series
        document = {
            "designs": {"stack": {"text": PROTOCOL_STACK_ECL}},
            "jobs": SPEC_JOBS,
        }
        inflight = client.submit(document)
        midflight = parse_prometheus(client.metrics_text())
        assert "ecl_serve_admitted_total" in midflight, (
            "mid-batch scrape missing admission counter: %r"
            % sorted(midflight))
        assert "ecl_serve_queue_depth" in midflight, (
            "mid-batch scrape missing queue depth gauge")
        appends = {labels.get("kind"): value for labels, value
                   in midflight.get("ecl_serve_journal_appends_total",
                                    [])}
        assert appends.get("admit", 0) >= 1, (
            "admission not journaled before the scrape: %r" % appends)
        drained = list(client.stream_results(inflight["batch"]))
        assert len(drained) == 8, "in-flight batch lost rows"
        check_trace_roundtrip(client, drained[0])

        # submit via the CLI (inlines the design), stream via HTTP
        rows_path = os.path.join(workdir, "rows.json")
        rc = eclc(["submit", spec_path, "--port", str(port), "--watch",
                   "--stable", "--report", rows_path])
        assert rc == 0, "eclc submit exited %d" % rc
        with open(rows_path) as handle:
            streamed = sorted(json.load(handle),
                              key=lambda row: row["index"])

        # second identical submission must be fully cache-served
        before = client.status()
        rc = eclc(["submit", spec_path, "--port", str(port), "--watch"])
        assert rc == 0, "second eclc submit exited %d" % rc
        after = client.status()
        misses = [(t["tenant"],
                   t["cache"]["misses"]) for t in after["tenants"]]
        misses_before = [(t["tenant"], t["cache"]["misses"])
                         for t in before["tenants"]]
        assert misses == misses_before, (
            "repeat submission compiled: %r -> %r"
            % (misses_before, misses))

        # 24 jobs in: same-batch jobs shared dispatches (the counters
        # settle a beat after the last row streams)
        for _ in range(100):
            health = client.health()
            if health["jobs_executed"] >= 24:
                break
            time.sleep(0.05)
        assert health["jobs_executed"] >= 24, health
        assert health["dispatches"] < health["jobs_executed"], (
            "no dispatch carried a group: %r" % health)

        # final scrape: every series in the contract exists and the
        # whole exposition round-trips through the stdlib parser;
        # the snapshot lands next to the BENCH JSONs for upload
        text = client.metrics_text()
        series = parse_prometheus(text)
        missing = [name for name in REQUIRED_SERIES
                   if name not in series]
        assert not missing, "metrics contract broken: %s" % missing
        modes = {labels.get("mode"): value
                 for labels, value in series["ecl_pool_mode"]}
        assert modes.get("process") == 1, (
            "-j 2 should report a process pool: %r" % modes)
        out_dir = os.path.join(REPO, "benchmarks", "out")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "metrics_snapshot.txt"),
                  "w") as handle:
            handle.write(text)
        with open(os.path.join(out_dir, "metrics_snapshot.json"),
                  "w") as handle:
            json.dump(client.metrics_json(), handle, indent=2,
                      sort_keys=True)

        client.shutdown()
        process.wait(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
    # three 8-job batches went through the default tenant
    check_packed_ledger(os.path.join(data_root, "traces"), 24, workers=2)

    # the same spec, straight through the farm
    report_path = os.path.join(workdir, "report.json")
    rc = eclc(["farm", "run", "--spec", spec_path,
               "--report", report_path])
    assert rc == 0, "eclc farm run exited %d" % rc
    with open(report_path) as handle:
        direct = sorted(json.load(handle)["results"],
                        key=lambda row: row["index"])

    assert len(streamed) == len(direct) == 8, (
        "expected 8 rows, got %d streamed / %d direct"
        % (len(streamed), len(direct)))
    for service_row, farm_row in zip(streamed, direct):
        left = json.dumps(service_row, sort_keys=True,
                          separators=(",", ":"))
        right = stable_bytes(farm_row)
        assert left == right, (
            "row %d diverged:\n  serve: %s\n  farm:  %s"
            % (service_row["index"], left, right))
    print("serve smoke: %d rows byte-identical to eclc farm run, "
          "zero compile misses on repeat submission, %d metric "
          "series scraped, packed ledger fetched and summarised"
          % (len(streamed), len(series)))


if __name__ == "__main__":
    run()
