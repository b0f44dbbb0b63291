#!/usr/bin/env python
"""Vectorized multi-instance execution behind the unified Engine API.

The ``vector`` engine runs *many* simulation instances as rows of
numpy matrices — one compiled step function per control state advances
every instance sitting in that state at once.  Three views of it:

1. the unified registry (``repro.engines.get_engine``): the same
   ``run_spec`` call sweeps N instances on any engine, so a vector
   sweep is checked lane-for-lane against scalar native runs;
2. a farm batch with ``engine="vector"``: the inline worker sweeps a
   group of 128+ record-free same-sweep jobs as one matrix sweep,
   results stay per-job;
3. a coverage campaign with ``engine="vector"``: each property-free
   fuzzing round of 128+ jobs becomes one sweep and the round's
   coverage bitmaps merge through a vectorized prefix-OR.

Run:  python examples/vector_campaign.py   (needs numpy)
"""

from time import perf_counter

from repro.designs import DOOR_CTRL_ECL, PROTOCOL_STACK_ECL
from repro.engines import get_engine
from repro.farm import SimulationFarm, StimulusSpec, expand_jobs
from repro.pipeline import Pipeline
from repro.verify import VerifyCampaign


def sweep_vs_scalar():
    print("== 1. One spec, many instances, any engine")
    handle = Pipeline().compile_text(
        DOOR_CTRL_ECL, filename="door"
    ).module("door_ctrl")
    spec = StimulusSpec.random(length=64)

    t0 = perf_counter()
    scalar = get_engine("native").run_spec(handle, spec, n_instances=200)
    t_scalar = perf_counter() - t0
    t0 = perf_counter()
    sweep = get_engine("vector").run_spec(handle, spec, n_instances=200,
                                          records=True)
    t_vector = perf_counter() - t0

    assert scalar.records == sweep.records  # lane-for-lane identical
    print("   200 instances x 64 instants: native %.0f ms, vector %.0f ms"
          % (t_scalar * 1e3, t_vector * 1e3))
    print("   identical traces on every lane; %d total emitted events"
          % sum(sweep.emitted_events))


def farm_batch():
    print("\n== 2. A farm batch on the vector engine")
    farm = SimulationFarm({"stack": PROTOCOL_STACK_ECL}, workers=1)
    jobs = expand_jobs([("stack", "toplevel")], engines=["vector"],
                       traces=500, length=48)
    report = farm.run(jobs)
    print("   " + report.summary().splitlines()[1].strip())


def vector_campaign():
    print("\n== 3. Coverage campaign, one sweep per round")
    campaign = VerifyCampaign(
        {"door": DOOR_CTRL_ECL},
        "door",
        "door_ctrl",
        engine="vector",
        rounds=4,
        jobs_per_round=250,
        length=48,
        workers=1,
        salt=2026,
    )
    result = campaign.run()
    print("   " + result.summary().splitlines()[0].strip())
    print("   " + result.report.summary().splitlines()[0].strip())


def main():
    try:
        get_engine("vector").require()
    except Exception as error:  # EngineUnavailable without numpy
        print("vector engine unavailable here: %s" % error)
        return
    sweep_vs_scalar()
    farm_batch()
    vector_campaign()


if __name__ == "__main__":
    main()
