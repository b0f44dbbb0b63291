"""Serve latency benchmark: warm service batches vs cold farm runs.

Operational data for :mod:`repro.serve`: the same batch of native
simulation jobs over the paper's protocol stack is executed two ways —

* **cold** — a fresh :class:`~repro.farm.SimulationFarm` per batch,
  the way every ``eclc farm run`` pays: design compile, native
  lowering and engine construction before the first reaction;
* **warm** — repeated submissions to one resident
  :class:`~repro.serve.SimulationService` (one pool slot, whose worker
  answers in the slot thread through the child's request step), where
  the worker's WorkerState keeps the compiled design and the artifact
  cache keeps every stage product, so only simulation work remains.
  On a service with a data root, a repeat batch must store no artifact
  file again.

Both land in ``benchmarks/out/BENCH_serve.json`` for the CI regression
gate: per-batch latency, jobs/sec, and the warm-over-cold speedup.
The gate's warm-over-cold floor, asserted here too, is the service's
reason to exist — a warm batch must complete well ahead of a cold farm
run of the identical spec.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_serve_latency.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve_latency.py -q
"""

import os
import sys
import tempfile
from time import perf_counter

sys.path.insert(0, os.path.dirname(__file__))

from repro.designs import PROTOCOL_STACK_ECL
from repro.farm import SimulationFarm
from repro.farm.spec import expand_document, load_designs
from repro.serve import SimulationService

import check_regression
from workloads import write_report

#: Batch shape; override via environment for bigger CI machines.
TRACES = int(os.environ.get("SERVE_BENCH_TRACES", "6"))
TRACE_LENGTH = int(os.environ.get("SERVE_BENCH_LENGTH", "96"))

#: Measured warm submissions (after one untimed warm-up batch).
WARM_BATCHES = int(os.environ.get("SERVE_BENCH_BATCHES", "5"))

#: Cold farm runs averaged for the baseline latency.
COLD_BATCHES = 2

#: Telemetry gate: enabling the metrics registry may cost at most 5%
#: of the warm-path latency (plus a small absolute slack so a few ms
#: of CI scheduling noise on a fast batch can't fail the build).
TELEMETRY_OVERHEAD_FRACTION = 0.05
TELEMETRY_OVERHEAD_SLACK_S = 0.015

DOCUMENT = {
    "designs": {"stack": {"text": PROTOCOL_STACK_ECL}},
    "jobs": [
        {"design": "stack", "modules": ["toplevel"],
         "engines": ["native"], "traces": TRACES,
         "length": TRACE_LENGTH},
    ],
}


def cold_batch():
    """One fresh farm run of the batch: compile + simulate, inline."""
    designs = load_designs(DOCUMENT["designs"], None, "<bench>")
    jobs = expand_document(DOCUMENT, designs)
    started = perf_counter()
    report = SimulationFarm(designs, workers=1).run(jobs)
    elapsed = perf_counter() - started
    assert report.ok, report.summary()
    return elapsed, report.total


def warm_batches(service):
    """Per-batch wall latencies of repeated identical submissions."""
    latencies = []
    jobs = 0
    for _ in range(WARM_BATCHES):
        started = perf_counter()
        batch = service.submit(DOCUMENT)
        assert batch.wait(timeout=120)
        latencies.append(perf_counter() - started)
        assert all(r.ok for r in batch.results)
        jobs = batch.total
    return latencies, jobs


def artifact_files(data_root, tenant="default"):
    """``{path: (inode, mtime)}`` of the tenant's persisted artifacts:
    a store replaces its file, so a recompile changes the map."""
    root = os.path.join(data_root, "artifacts", "ns", tenant)
    files = {}
    for folder, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            stat = os.stat(path)
            files[path] = (stat.st_ino, stat.st_mtime_ns)
    return files


def warm_service_run():
    """Mean warm-batch latency of one resident service (journaling on:
    a tempdir WAL, the crash-safety configuration the service ships
    with, so the measured latency includes the admit/row/end
    appends)."""
    with tempfile.TemporaryDirectory(prefix="bench-serve-wal-") as wal:
        service = SimulationService(workers=1, journal_root=wal)
        try:
            # untimed first batch: pays the one compile the service
            # keeps
            first = service.submit(DOCUMENT)
            assert first.wait(timeout=120)
            latencies, warm_jobs = warm_batches(service)
        finally:
            service.shutdown(drain=True, timeout=60)
    return latencies, warm_jobs


def stored_on_repeat():
    """Artifact files a repeat of the batch stores on a resident
    service with a data root: 0 when the repeat is served warm.  Untimed
    and apart from the measured service, whose artifacts live in memory
    only."""
    with tempfile.TemporaryDirectory(prefix="bench-serve-data-") as root:
        service = SimulationService(workers=1, data_root=root)
        try:
            assert service.submit(DOCUMENT).wait(timeout=120)
            before = artifact_files(root)
            assert service.submit(DOCUMENT).wait(timeout=120)
            after = artifact_files(root)
        finally:
            service.shutdown(drain=True, timeout=60)
    assert before, "the first batch persisted no artifacts"
    return len(set(after.items()) - set(before.items()))


def measure():
    from repro import telemetry

    cold_runs = [cold_batch() for _ in range(COLD_BATCHES)]
    cold_elapsed = sum(run[0] for run in cold_runs) / len(cold_runs)
    jobs_per_batch = cold_runs[0][1]

    telemetry.disable()
    telemetry.reset()
    latencies, warm_jobs = warm_service_run()
    assert warm_jobs == jobs_per_batch
    stored = stored_on_repeat()
    assert stored == 0, "a repeat batch stored %d artifact(s)" % stored
    warm_elapsed = sum(latencies) / len(latencies)

    # The same warm path with the metrics registry live: every serve
    # counter/histogram fires, and the latency must stay within the
    # committed overhead gate.
    telemetry.reset()
    telemetry.enable()
    try:
        on_latencies, on_jobs = warm_service_run()
    finally:
        telemetry.disable()
        telemetry.reset()
    assert on_jobs == jobs_per_batch
    telemetry_elapsed = sum(on_latencies) / len(on_latencies)

    return {
        "benchmark": "serve_latency",
        "jobs_per_batch": jobs_per_batch,
        "trace_length": TRACE_LENGTH,
        "cold": {
            "batches": COLD_BATCHES,
            "mean_elapsed": cold_elapsed,
            "jobs_per_sec": jobs_per_batch / max(1e-9, cold_elapsed),
        },
        "warm": {
            "batches": WARM_BATCHES,
            "mean_elapsed": warm_elapsed,
            "best_elapsed": min(latencies),
            "jobs_per_sec": jobs_per_batch / max(1e-9, warm_elapsed),
            "artifacts_stored_on_repeat": stored,
        },
        "warm_speedup": cold_elapsed / max(1e-9, warm_elapsed),
        "telemetry": {
            "batches": WARM_BATCHES,
            "mean_elapsed": telemetry_elapsed,
            "best_elapsed": min(on_latencies),
            "overhead": telemetry_elapsed - warm_elapsed,
            "overhead_fraction": (telemetry_elapsed - warm_elapsed)
            / max(1e-9, warm_elapsed),
            "gate_fraction": TELEMETRY_OVERHEAD_FRACTION,
        },
    }


def test_serve_latency_and_floor():
    data = measure()
    path = write_report(data, "BENCH_serve.json")
    print("\nserve latency: cold %.3fs/batch, warm %.3fs/batch "
          "(x%.1f, %.0f jobs/s warm) -> %s"
          % (data["cold"]["mean_elapsed"], data["warm"]["mean_elapsed"],
             data["warm_speedup"], data["warm"]["jobs_per_sec"], path))
    failures = check_regression.check("BENCH_serve.json", data)
    assert not failures, failures
    overhead = data["telemetry"]["overhead"]
    budget = max(
        TELEMETRY_OVERHEAD_FRACTION * data["warm"]["mean_elapsed"],
        TELEMETRY_OVERHEAD_SLACK_S,
    )
    print("telemetry overhead: %.1f ms/batch (%.1f%%, budget %.1f ms)"
          % (overhead * 1e3,
             100.0 * data["telemetry"]["overhead_fraction"],
             budget * 1e3))
    assert overhead <= budget, (
        "telemetry costs %.1f ms on the warm serve path "
        "(budget %.1f ms = max(%.0f%%, %.0f ms))"
        % (overhead * 1e3, budget * 1e3,
           100 * TELEMETRY_OVERHEAD_FRACTION,
           TELEMETRY_OVERHEAD_SLACK_S * 1e3))


if __name__ == "__main__":
    test_serve_latency_and_floor()
    print("ok")
