"""Farm throughput benchmark: serial vs multi-process reactions/sec.

Operational data for :mod:`repro.farm`: the same batch of EFSM
simulation jobs over the paper's two workloads (protocol stack, audio
buffer) is executed twice — inline in one process (the serial
baseline) and sharded over the farm's pooled worker processes — and both
throughputs land in ``benchmarks/out/BENCH_farm.json`` for the CI
regression gate.

The farm-over-serial speedup floor in :data:`check_regression.GATES`
only applies from its minimum core count up; below that the numbers
are still reported but the floor cannot physically hold.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_farm_throughput.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_farm_throughput.py -q
"""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from repro.designs import AUDIO_BUFFER_ECL, PROTOCOL_STACK_ECL
from repro.farm import SimulationFarm, expand_jobs

import check_regression
from workloads import write_report

#: Batch shape; override via environment for bigger CI machines.
#: Sized so simulation work dominates the one-off parent compile by a
#: wide margin — the speedup floor then measures sharding, not setup.
JOBS_PER_CELL = int(os.environ.get("FARM_BENCH_TRACES", "48"))
TRACE_LENGTH = int(os.environ.get("FARM_BENCH_LENGTH", "640"))

DESIGNS = {"stack": PROTOCOL_STACK_ECL, "buffer": AUDIO_BUFFER_ECL}
CELLS = [("stack", "toplevel"), ("buffer", "audio_buffer")]


def batch_jobs():
    return expand_jobs(CELLS, engines=("efsm",), traces=JOBS_PER_CELL,
                       length=TRACE_LENGTH)


def run_batch(workers):
    farm = SimulationFarm(DESIGNS, workers=workers)
    report = farm.run(batch_jobs())
    assert report.ok, report.summary()
    return report


def measure():
    cores = os.cpu_count() or 1
    serial = run_batch(workers=1)
    farm = run_batch(workers=min(8, cores))
    speedup = farm.reactions_per_sec / max(1e-9,
                                           serial.reactions_per_sec)
    return {
        "benchmark": "farm_throughput",
        "cores": cores,
        "jobs": serial.total,
        "trace_length": TRACE_LENGTH,
        "reactions": serial.reactions,
        "serial": {
            "workers": 1,
            "elapsed": serial.elapsed,
            "reactions_per_sec": serial.reactions_per_sec,
        },
        "farm": {
            "workers": farm.workers,
            "elapsed": farm.elapsed,
            "reactions_per_sec": farm.reactions_per_sec,
        },
        "speedup": speedup,
    }


def test_farm_throughput_and_floor():
    data = measure()
    path = write_report(data, "BENCH_farm.json")
    print("\nfarm throughput: serial %.0f r/s, farm(%d) %.0f r/s "
          "(x%.2f) -> %s"
          % (data["serial"]["reactions_per_sec"],
             data["farm"]["workers"],
             data["farm"]["reactions_per_sec"],
             data["speedup"], path))
    assert data["reactions"] == data["jobs"] * TRACE_LENGTH
    failures = check_regression.check("BENCH_farm.json", data)
    assert not failures, failures


if __name__ == "__main__":
    test_farm_throughput_and_floor()
    print("ok")
