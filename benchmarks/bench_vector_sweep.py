"""Vectorized multi-instance throughput: the vector engine against the
scalar native engine on the protocol-stack workload.

Two paired comparisons, both sweeping ``N_INSTANCES`` lanes of
``LENGTH``-instant random stimulus:

* ``run_spec`` — ``get_engine("vector").run_spec(...)`` against
  ``get_engine("native").run_spec(...)``: the identical unified-API
  call with the identical derived seeds.  The native side runs every
  lane through the engine's per-job path — the compiled whole-trace
  driver the farm uses, the fastest scalar path — and the vector
  engine replaces it with one fused numpy sweep over
  ``(n_instances, n_slots)`` state matrices; outcomes (instants,
  terminations, events, per-lane coverage payloads) are asserted
  identical every round.  The gate's floor applies at 1k instances
  (x5.5, x6.1 and x5.7 in three runs on a 2-vCPU x86-64 machine,
  Python 3.11, numpy 2.4).
* ``campaign`` — one full random-stimulus :class:`VerifyCampaign`
  round per engine: farm dispatch, sweep fusion, coverage admission
  and corpus bookkeeping included, decision-identical outcomes
  asserted.  Both engines share the campaign's scalar costs (spec
  generation, result marshaling, admission) and the scalar side runs
  the compiled whole-trace drivers, so the end-to-end gain is
  necessarily smaller than the raw sweep's; it carries its own floor.

Results land in ``benchmarks/out/BENCH_vector.json`` for the CI
regression gate (:mod:`benchmarks.check_regression`), whose floors
are asserted here too; the committed baseline lives in
``benchmarks/baselines/``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_vector_sweep.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_vector_sweep.py -q
"""

import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(__file__))

from repro.designs import PROTOCOL_STACK_ECL
from repro.engines import get_engine
from repro.farm.jobs import StimulusSpec
from repro.pipeline import Pipeline
from repro.verify import VerifyCampaign

import check_regression
from workloads import write_report

#: Sweep width (the "1k instances" of the acceptance bar) and stimulus
#: length; override via environment for bigger machines.
N_INSTANCES = int(os.environ.get("VECTOR_BENCH_INSTANCES", "1000"))
LENGTH = int(os.environ.get("VECTOR_BENCH_LENGTH", "400"))

#: Interleaved measurement rounds: each round times both engines
#: back-to-back and yields a *paired* speedup; the gates take the
#: cleanest round (maximum ratio), so a transient machine-load spike
#: needs to hit every round to distort the verdict.  Reported rates
#: are each engine's best round.
REPEATS = int(os.environ.get("VECTOR_BENCH_REPEATS", "5"))
CAMPAIGN_REPEATS = int(os.environ.get("VECTOR_BENCH_CAMPAIGN_REPEATS", "3"))


def outcome_key(outcome):
    """The cross-engine identity of a run_spec outcome."""
    return (
        outcome.instants,
        outcome.terminated,
        outcome.emitted_events,
        outcome.errors,
        [cov.as_payload() for cov in outcome.coverage],
    )


def measure_run_spec(handle):
    spec = StimulusSpec.random(length=LENGTH, salt=99)
    native, vector = get_engine("native"), get_engine("vector")
    kwargs = dict(n_instances=N_INSTANCES, coverage=True, records=False)
    vector.run_spec(handle, spec, n_instances=8, coverage=True,
                    records=False)  # bind the sweep template once
    best = {"native": 0.0, "vector": 0.0}
    ratios = []
    reference = None
    for _ in range(REPEATS):
        elapsed = {}
        for label, engine in (("vector", vector), ("native", native)):
            started = perf_counter()
            outcome = engine.run_spec(handle, spec, **kwargs)
            elapsed[label] = perf_counter() - started
            key = outcome_key(outcome)
            if reference is None:
                reference = key
            assert key == reference, "engines diverged on %s" % label
            rate = N_INSTANCES * LENGTH / elapsed[label]
            best[label] = max(best[label], rate)
        ratios.append(elapsed["native"] / elapsed["vector"])
    return {
        "native": best["native"],
        "vector": best["vector"],
        "speedup": max(ratios),
    }


def run_campaign(engine):
    campaign = VerifyCampaign(
        {"stack": PROTOCOL_STACK_ECL},
        "stack",
        "toplevel",
        engine=engine,
        rounds=1,
        jobs_per_round=N_INSTANCES,
        length=LENGTH,
        workers=1,
        salt=1999,
        target=200.0,  # unreachable, so the round always runs fully
    )
    started = perf_counter()
    result = campaign.run()
    elapsed = perf_counter() - started
    outcome = result.as_dict()
    outcome.pop("elapsed")
    return elapsed, result.jobs_run, outcome


def measure_campaign():
    best = {"native": 0.0, "vector": 0.0}
    ratios = []
    reference = None
    for _ in range(CAMPAIGN_REPEATS):
        elapsed = {}
        for label in ("vector", "native"):
            elapsed[label], jobs, outcome = run_campaign(label)
            if reference is None:
                reference = outcome
            assert outcome == reference, "campaigns diverged on %s" % label
            best[label] = max(best[label], jobs / elapsed[label])
        ratios.append(elapsed["native"] / elapsed["vector"])
    return {
        "native": best["native"],
        "vector": best["vector"],
        "speedup": max(ratios),
    }


def measure():
    handle = (
        Pipeline()
        .compile_text(PROTOCOL_STACK_ECL, filename="stack.ecl")
        .module("toplevel")
    )
    return {
        "benchmark": "vector_sweep",
        "workloads": {
            "stack": {
                "n_instances": N_INSTANCES,
                "length": LENGTH,
                "run_spec": measure_run_spec(handle),
                "campaign": measure_campaign(),
            }
        },
    }


def test_vector_sweep_floors():
    data = measure()
    path = write_report(data, "BENCH_vector.json")
    entry = data["workloads"]["stack"]
    sweep, campaign = entry["run_spec"], entry["campaign"]
    print("")
    print(
        "stack   run_spec  native %8.0f r/s   vector %9.0f r/s  (x%.1f)"
        % (sweep["native"], sweep["vector"], sweep["speedup"])
    )
    print(
        "stack   campaign  native %8.0f j/s   vector %9.0f j/s  (x%.1f)"
        % (campaign["native"], campaign["vector"], campaign["speedup"])
    )
    print("wrote %s" % path)
    failures = check_regression.check("BENCH_vector.json", data)
    assert not failures, failures


if __name__ == "__main__":
    test_vector_sweep_floors()
    print("ok")
