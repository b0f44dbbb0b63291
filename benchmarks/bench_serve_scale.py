"""Scale-out serving benchmark: process pool vs threads.

Operational data for the scale-out rung of :mod:`repro.serve`: the
identical two-tenant stream of CPU-bound native batches drained by
``pool_mode="thread"`` and ``pool_mode="process"`` at ``min(4,
cores)`` workers each (one untimed warm-up batch per tenant pays
compile and child spawn).  Thread workers serialize native stepping
behind the GIL; process workers run it in parallel, so throughput
should scale with cores.  The gate's process-over-thread floor applies
only from its minimum core count up; below that the numbers are still
recorded for the regression gate but a single-core box cannot
demonstrate parallel speedup.  (The service groups vector jobs by the
same per-batch rule and runs them on the native driver, so they need
no section of their own.)

Results land in ``benchmarks/out/BENCH_serve_scale.json`` for the CI
regression gate (:mod:`benchmarks.check_regression`), whose floors
are asserted here too; the committed baseline lives in
``benchmarks/baselines/``.

Run standalone (must be a real file, never stdin: the process pool
spawns children that re-import ``__main__``)::

    PYTHONPATH=src python benchmarks/bench_serve_scale.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve_scale.py -q
"""

import os
import sys
import tempfile
from time import perf_counter

sys.path.insert(0, os.path.dirname(__file__))

from repro.designs import PROTOCOL_STACK_ECL
from repro.serve import SimulationService

import check_regression
from workloads import write_report

#: Native workload shape; override via environment for bigger machines.
SCALE_TRACES = int(os.environ.get("SERVE_SCALE_TRACES", "4"))
SCALE_LENGTH = int(os.environ.get("SERVE_SCALE_LENGTH", "64"))

#: Timed batches per tenant (after the untimed warm-up batch).
SCALE_BATCHES = int(os.environ.get("SERVE_SCALE_BATCHES", "3"))

TENANTS = ("acme", "blue")


def scale_document():
    return {
        "designs": {"stack": {"text": PROTOCOL_STACK_ECL}},
        "jobs": [
            {"design": "stack", "modules": ["toplevel"],
             "engines": ["native"], "traces": SCALE_TRACES,
             "length": SCALE_LENGTH},
        ],
    }


def run_mode(mode, workers):
    """Drain the two-tenant native stream under one pool mode."""
    with tempfile.TemporaryDirectory(prefix="bench-serve-scale-") as root:
        service = SimulationService(data_root=root, workers=workers,
                                    pool_mode=mode)
        try:
            # untimed warm-up: compile once per tenant, spawn children
            for tenant in TENANTS:
                warm = service.submit(scale_document(), tenant=tenant)
                assert warm.wait(timeout=300)
            batches = []
            started = perf_counter()
            for _ in range(SCALE_BATCHES):
                for tenant in TENANTS:
                    batches.append(
                        service.submit(scale_document(), tenant=tenant))
            for batch in batches:
                assert batch.wait(timeout=600)
            elapsed = perf_counter() - started
            for batch in batches:
                assert all(r.ok for r in batch.results)
            jobs = sum(batch.total for batch in batches)
        finally:
            service.shutdown(drain=True, timeout=60)
    return {
        "workers": workers,
        "batches": len(batches),
        "jobs": jobs,
        "elapsed": elapsed,
        "jobs_per_sec": jobs / max(1e-9, elapsed),
    }


def measure():
    cores = os.cpu_count() or 1
    workers = min(4, cores)

    thread = run_mode("thread", workers)
    process = run_mode("process", workers)
    return {
        "benchmark": "serve_scale",
        "cores": cores,
        "workers": workers,
        "traces_per_batch": SCALE_TRACES,
        "trace_length": SCALE_LENGTH,
        "thread": thread,
        "process": process,
        "process_vs_thread": process["jobs_per_sec"]
        / max(1e-9, thread["jobs_per_sec"]),
    }


def test_serve_scale_and_floors():
    data = measure()
    path = write_report(data, "BENCH_serve_scale.json")
    print("\nserve scale: thread %.0f jobs/s, process %.0f jobs/s "
          "(x%.2f, %d workers, %d cores) -> %s"
          % (data["thread"]["jobs_per_sec"],
             data["process"]["jobs_per_sec"],
             data["process_vs_thread"], data["workers"], data["cores"],
             path))
    failures = check_regression.check("BENCH_serve_scale.json", data)
    assert not failures, failures


if __name__ == "__main__":
    test_serve_scale_and_floors()
    print("ok")
