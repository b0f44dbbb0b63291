"""CI smoke test for the serving layer, end to end over a real socket.

Runs one pass at ``-j 1`` (one worker thread speaking the child pipe
protocol) and one at ``-j 2`` (two spawned worker children).  Each
pass starts ``eclc serve`` as a subprocess, submits a batch over HTTP,
streams the stable result rows, runs the identical spec through
``eclc farm run`` directly, and asserts the two serializations are
byte-identical row for row — the serving layer's core determinism
contract, exercised exactly the way a user would.

The pool's workers compile, not the service process, so the check
that a repeat submission is cache-served reads the tenant's persisted
artifacts (``<data_root>/artifacts/ns/<tenant>``): a repeat must leave
every file untouched, and a changed source must add files.

Two revisions of one design label, submitted back to back, must each
stream the stable rows ``eclc farm run`` gives for its own source.

After the three 8-job batches, ``GET /v1/health`` must report fewer
dispatches than executed jobs (same-batch jobs share dispatch groups).

Also scrapes ``GET /v1/metrics`` while a batch is in flight, asserts
the key telemetry series exist and parse as Prometheus text, and
writes the final exposition + JSON snapshot to ``benchmarks/out/``
for CI to upload next to the BENCH artifacts.

The trace ledger is checked from the outside too: one trace fetched
over ``GET /v1/tenants/<t>/traces/<digest>`` must re-hash to the digest
its row carries, the data root's ``traces/`` must hold pack segments
(at most one per worker) rather than one file per job, and
``eclc stats --ledger`` must summarise every recorded trace.  After
the drained shutdown, ``<data_root>/journal`` must hold no batch file.

Each pass works in its own temp directory, removed when the pass
succeeds; a failing pass keeps it and prints its path.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
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
#: metric-name contract; see the README catalog).  At ``-j 2`` the
#: compile and execute counters (``ecl_pipeline_cache_requests_total``,
#: ``ecl_farm_jobs_total``) live in the worker children's own
#: registries, not the parent exposition, so they are not listed here —
#: the thread-mode integration tests keep those in the contract.
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

#: Two revisions of the design labelled ``rev``: the first emits ``x``
#: at every ``tick``, the second never does.
REVISIONS = (
    "module beat (input pure tick, output pure x)\n"
    "{\n    while (1) { await (tick); emit (x); }\n}\n",
    "module beat (input pure tick, output pure x)\n"
    "{\n    while (1) { await (tick); }\n}\n",
)

REV_JOBS = [
    {"design": "rev", "modules": ["beat"], "engines": ["native"],
     "traces": 3, "length": 8, "seed": 3},
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


def check_journal_empty(data_root):
    """Every batch has closed, so ``<data_root>/journal`` holds no
    batch file: a batch's close deletes its file."""
    root = os.path.join(data_root, "journal")
    left = [os.path.join(folder, name)
            for folder, _dirs, names in os.walk(root) for name in names]
    assert not left, "closed batches left journal files: %r" % left


def artifact_files(data_root, tenant="default"):
    """``{path: (inode, mtime)}`` of the tenant's persisted artifacts:
    a store replaces its file, so a recompile shows up even when it
    writes the same keys again."""
    root = os.path.join(data_root, "artifacts", "ns", tenant)
    files = {}
    for folder, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            stat = os.stat(path)
            files[path] = (stat.st_ino, stat.st_mtime_ns)
    return files


def farm_rows(workdir, name, designs, jobs):
    """The stable rows ``eclc farm run`` gives for one spec (designs:
    label -> source), sorted by index."""
    paths = {}
    for label, text in designs.items():
        paths[label] = os.path.join(workdir, "%s-%s.ecl" % (name, label))
        with open(paths[label], "w") as handle:
            handle.write(text)
    spec_path = os.path.join(workdir, name + ".json")
    with open(spec_path, "w") as handle:
        json.dump({"workers": 1, "ledger": name + "-ledger",
                   "designs": paths, "jobs": jobs}, handle)
    report_path = os.path.join(workdir, name + "-report.json")
    rc = eclc(["farm", "run", "--spec", spec_path,
               "--report", report_path])
    assert rc == 0, "eclc farm run exited %d" % rc
    with open(report_path) as handle:
        rows = json.load(handle)["results"]
    return [stable_bytes(row)
            for row in sorted(rows, key=lambda row: row["index"])]


def check_revisions(client, workdir, data_root):
    """Two revisions under one label, admitted back to back: each
    batch streams its own source's rows, and the new sources add
    artifact files."""
    before = len(artifact_files(data_root))
    batches = [client.submit({"designs": {"rev": {"text": text}},
                              "jobs": REV_JOBS})["batch"]
               for text in REVISIONS]
    for number, (batch, text) in enumerate(zip(batches, REVISIONS)):
        streamed = sorted(client.stream_results(batch, stable=True),
                          key=lambda row: row["index"])
        served = [json.dumps(row, sort_keys=True, separators=(",", ":"))
                  for row in streamed]
        direct = farm_rows(workdir, "rev%d" % number, {"rev": text},
                           REV_JOBS)
        assert served == direct, (
            "revision %d diverged:\n  serve: %s\n  farm:  %s"
            % (number, served, direct))
        emitted = sum(json.loads(row)["emitted_events"] for row in direct)
        assert (emitted > 0) == (number == 0), (number, emitted)
    after = len(artifact_files(data_root))
    assert after > before, (
        "new sources persisted no artifacts: %d -> %d" % (before, after))


def start_server(data_root, workers):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--data-root", data_root, "-j", str(workers)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(REPO, "src")},
    )
    line = process.stdout.readline()
    match = re.search(r"listening on [^:]+:(\d+)", line)
    if not match:
        process.kill()
        raise SystemExit("serve did not announce a port: %r" % line)
    return process, int(match.group(1))


@contextlib.contextmanager
def scratch_dir(prefix):
    """A fresh temp directory, removed when the block succeeds; kept,
    with its path printed, when the block fails."""
    workdir = tempfile.mkdtemp(prefix=prefix)
    try:
        yield workdir
    except BaseException:
        print("scratch kept for inspection: %s" % workdir, file=sys.stderr)
        raise
    shutil.rmtree(workdir)


def run(workers):
    """One smoke pass against ``eclc serve -j workers``."""
    with scratch_dir("serve-smoke-j%d-" % workers) as workdir:
        smoke(workers, workdir)


def smoke(workers, workdir):
    """The checks of one pass, with ``workdir`` as scratch."""
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
    process, port = start_server(data_root, workers)
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

        # a second identical submission must be fully cache-served:
        # no artifact is stored again
        before = artifact_files(data_root)
        assert before, "the first submissions persisted no artifacts"
        rc = eclc(["submit", spec_path, "--port", str(port), "--watch"])
        assert rc == 0, "second eclc submit exited %d" % rc
        after = artifact_files(data_root)
        assert after == before, (
            "repeat submission stored artifacts: %d files -> %d, %d "
            "rewritten" % (len(before), len(after),
                           sum(after.get(path) != stamp
                               for path, stamp in before.items())))

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

        check_revisions(client, workdir, data_root)

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
        mode = "process" if workers > 1 else "thread"
        assert modes.get(mode) == 1, (
            "-j %d should report a %s pool: %r" % (workers, mode, modes))
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
    check_journal_empty(data_root)
    # three 8-job batches and two 3-job revisions went through the
    # default tenant
    check_packed_ledger(os.path.join(data_root, "traces"), 30, workers)

    # the same spec, straight through the farm
    direct = farm_rows(workdir, "stack",
                       {"stack": PROTOCOL_STACK_ECL}, SPEC_JOBS)
    assert len(streamed) == len(direct) == 8, (
        "expected 8 rows, got %d streamed / %d direct"
        % (len(streamed), len(direct)))
    for service_row, right in zip(streamed, direct):
        left = json.dumps(service_row, sort_keys=True,
                          separators=(",", ":"))
        assert left == right, (
            "row %d diverged:\n  serve: %s\n  farm:  %s"
            % (service_row["index"], left, right))
    print("serve smoke -j %d: %d rows byte-identical to eclc farm run, "
          "no artifact stored on repeat submission, two revisions of "
          "one label each served its own rows, %d metric series "
          "scraped, packed ledger fetched and summarised"
          % (workers, len(streamed), len(series)))


if __name__ == "__main__":
    # -j 2 last: its exposition is the snapshot left for upload.
    for jobs in (1, 2):
        run(jobs)
