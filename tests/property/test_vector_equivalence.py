"""Property-style equivalence of the vector engine against all three
scalar engines.

The vector engine's contract is *bit-exactness*: lane ``i`` of an
``n``-instance sweep must reproduce the scalar native engine's trace
for the same derived seed byte for byte — records, termination,
coverage bitmaps, monitor verdicts.  This suite holds it to that over
the example designs plus a data-heavy "torture" module (signed
arithmetic, division on negatives, variable shifts, casts, array
reads/writes), at sweep widths 1, 7 and 256, standalone and through
the farm worker's sweep path, and inside a verify campaign.
"""

import pytest

from repro.designs import (AUDIO_BUFFER_ECL, DOOR_CTRL_BUGGY_ECL,
                           DOOR_CTRL_ECL, PROTOCOL_STACK_ECL)
from repro.engines import derive_spec_seed, get_engine
from repro.farm import SimJob, SimulationFarm, StimulusSpec, WorkerState
from repro.farm.worker import SWEEP_MIN_LANES
from repro.pipeline import Pipeline
from repro.verify import VerifyCampaign, never, present
from repro.verify.coverage import CoverageMap

pytest.importorskip("numpy")

TORTURE_ECL = """
typedef unsigned char byte;

module torture (input pure reset, input byte x, input int y,
                output int acc, output bool flag, output byte mix)
{
    int total;
    short s;
    unsigned int u;
    byte buf[8];
    int i;

    while (1) {
        await (x);
        total += x;
        s = s + (x << 3) - y;
        u = (u ^ (x * 2654435761)) >> (x & 3);
        for (i = 0; i < 8; i++) {
            buf[i] = (buf[i] + x + i) % 251;
        }
        {
            int k = (x > 128) ? (x - y) : (x + y);
            total = total + k / ((x & 7) + 1);
        }
        if ((total % 5) == 0) {
            total = -total / 3;
        }
        emit_v (acc, total);
        emit_v (flag, (total > 0) && (s != 0));
        emit_v (mix, (byte)(u ^ total) + buf[x & 7]);
    }
}
"""

#: label -> (source, module under test)
DESIGNS = {
    "stack": (PROTOCOL_STACK_ECL, "toplevel"),
    "buffer": (AUDIO_BUFFER_ECL, "audio_buffer"),
    "door": (DOOR_CTRL_ECL, "door_ctrl"),
    "torture": (TORTURE_ECL, "torture"),
}

_HANDLES = {}


def handle_for(label):
    handle = _HANDLES.get(label)
    if handle is None:
        source, module = DESIGNS[label]
        build = Pipeline().compile_text(source, filename=label)
        handle = _HANDLES[label] = build.module(module)
    return handle


def outcome_fields(outcome):
    return (outcome.instants, outcome.terminated, outcome.emitted_events,
            outcome.errors, outcome.records,
            [cov.as_payload() for cov in outcome.coverage])


@pytest.mark.parametrize("label", sorted(DESIGNS))
@pytest.mark.parametrize("n_instances", [1, 7])
def test_sweep_matches_every_scalar_engine(label, n_instances):
    handle = handle_for(label)
    spec = StimulusSpec.random(length=32, salt=17)
    sweep = get_engine("vector").run_spec(
        handle, spec, n_instances=n_instances, coverage=True, records=True)
    for name in ("native", "efsm", "interp"):
        scalar = get_engine(name).run_spec(
            handle, spec, n_instances=n_instances, coverage=True)
        assert scalar.records == sweep.records, (label, name)
        assert scalar.instants == sweep.instants, (label, name)
        assert scalar.terminated == sweep.terminated, (label, name)
        assert scalar.emitted_events == sweep.emitted_events, (label, name)
        if name == "interp":
            continue  # no EFSM states: emit marks only
        for lane in range(n_instances):
            assert (scalar.coverage[lane].as_payload()
                    == sweep.coverage[lane].as_payload()), (label, name, lane)


def test_wide_sweep_matches_native_on_torture():
    handle = handle_for("torture")
    spec = StimulusSpec.random(length=48, present_prob=0.7)
    sweep = get_engine("vector").run_spec(
        handle, spec, n_instances=256, coverage=True, records=True)
    scalar = get_engine("native").run_spec(
        handle, spec, n_instances=256, coverage=True)
    assert outcome_fields(scalar) == outcome_fields(sweep)
    # Merged coverage across all lanes agrees too.
    merged_scalar = CoverageMap.for_efsm(handle.efsm())
    merged_sweep = CoverageMap.for_efsm(handle.efsm())
    for lane in range(256):
        merged_scalar.merge(scalar.coverage[lane])
        merged_sweep.merge(sweep.coverage[lane])
    assert merged_scalar.as_payload() == merged_sweep.as_payload()


def test_sweep_is_deterministic_and_seed_derived():
    handle = handle_for("torture")
    spec = StimulusSpec.random(length=20, salt=9)
    first = get_engine("vector").run_spec(handle, spec, n_instances=16,
                                          records=True)
    second = get_engine("vector").run_spec(
        handle, spec,
        seeds=[derive_spec_seed(spec, i) for i in range(16)],
        records=True)
    assert first.records == second.records
    assert first.instants == second.instants


def test_farm_fuses_vector_jobs_identically():
    """Vector jobs through the farm (a group of SWEEP_MIN_LANES per
    design, so each sweeps as one) produce the same rows a scalar
    native driver produces for the same per-job seeds — coverage
    payloads included."""
    designs = {label: source for label, (source, _m) in DESIGNS.items()}
    jobs = []
    for position, label in enumerate(sorted(DESIGNS)):
        _source, module = DESIGNS[label]
        for replica in range(SWEEP_MIN_LANES):
            jobs.append(SimJob(
                design=label, module=module, engine="vector",
                stimulus=StimulusSpec.random(length=24, salt=3),
                index=len(jobs), collect_coverage=True))
    report = SimulationFarm(designs, workers=1).run(jobs)
    assert report.ok
    state = WorkerState(designs)
    for job, row in zip(jobs, report.results):
        scalar = get_engine("native").build(state.handles(job.design), job)
        cov = CoverageMap.for_efsm(state.build(job.design)
                                   .module(job.module).efsm())
        scalar.enable_coverage(cov)
        records = scalar.run_spec(job)
        assert row.instants == len(records)
        assert row.emitted_events == sum(
            len(record["emitted"]) for record in records)
        assert row.coverage == cov.as_payload()


def test_campaign_on_vector_engine_finds_the_bug():
    campaign = VerifyCampaign(
        {"door": DOOR_CTRL_BUGGY_ECL},
        "door",
        "door_ctrl",
        engine="vector",
        properties=[never(present("door_open") & present("motor_on"))],
        rounds=4,
        jobs_per_round=64,
        length=48,
        workers=1,
        salt=2024,
    )
    result = campaign.run()
    assert result.violations, "vector campaign missed the seeded bug"
    assert result.violations[0].stimulus  # minimized witness replays


def test_campaign_vector_absorb_matches_scalar_absorb():
    """The numpy prefix-OR coverage admission is decision-identical to
    the per-row adds_to/merge loop: same corpus, same coverage, same
    violations, on both the native and the vector engine."""
    def run(engine, force_scalar):
        campaign = VerifyCampaign(
            {"door": DOOR_CTRL_ECL}, "door", "door_ctrl",
            engine=engine, rounds=3, jobs_per_round=12, length=16,
            workers=1, salt=5, target=200.0)  # unreachable: run all rounds
        if force_scalar:
            campaign._admit_coverage = lambda rows, merged: None
        outcome = campaign.run().as_dict()
        outcome.pop("elapsed")
        return outcome

    for engine in ("native", "vector"):
        assert run(engine, True) == run(engine, False), engine
