"""Byte identity of the trace driver's two record sinks.

A line-sink driver writes each instant's canonical ledger line
directly; it must equal ``canonical_json`` of the dict-sink record for
the same seed, byte for byte — valued and aggregate (``"0x…"``)
outputs, unsorted input declarations and termination included — and
carry the same instant count and emitted-event count.
"""

import pytest

from repro.designs import AUDIO_BUFFER_ECL, DOOR_CTRL_ECL, PROTOCOL_STACK_ECL
from repro.engines import get_engine
from repro.farm.jobs import SimJob, StimulusSpec
from repro.farm.ledger import canonical_json
from repro.pipeline import Pipeline
from repro.runtime.native import NativeReactor, TraceLines

#: Inputs declared out of name order, a negative valued output, an
#: aggregate output and termination after the second ``go``.
FINITE_ECL = """
typedef unsigned char byte;
typedef struct { byte lo; byte hi; byte tag[2]; } pair_t;

module finite (input int zeta, input pure go, input byte alpha,
               output pair_t blob, output int y, output pure done)
{
    pair_t t;

    await (go);
    t.lo = alpha;
    t.hi = zeta;
    t.tag[1] = 7;
    emit_v (blob, t);
    emit_v (y, zeta - 300);
    await (go);
    emit (done);
}
"""

DESIGNS = {
    "stack": PROTOCOL_STACK_ECL,
    "audio": AUDIO_BUFFER_ECL,
    "door": DOOR_CTRL_ECL,
    "finite": FINITE_ECL,
}

#: (length, present_prob, budget): sparse, even and dense stimulus,
#: with horizon padding and a long dense run that fills whole packets.
SHAPES = [(24, 0.2, 30), (40, 0.5, 0), (48, 0.9, 56), (200, 0.95, 0)]


def _modules():
    for label, source in sorted(DESIGNS.items()):
        build = Pipeline().compile_text(source, filename=label)
        for name in build.module_names:
            yield pytest.param(build, name, id="%s-%s" % (label, name))


def _pair(handle, length, prob, budget, value_range=(0, 255)):
    return [handle.trace_driver(length, prob, value_range, budget=budget,
                                sink=sink) for sink in ("dict", "lines")]


@pytest.mark.parametrize("build, name", list(_modules()))
def test_line_sink_equals_canonical_dict_records(build, name):
    handle = build.module(name)
    handle.check()
    for length, prob, budget in SHAPES:
        records_driver, lines_driver = _pair(handle, length, prob, budget)
        assert lines_driver.sink == "lines" and records_driver.sink == "dict"
        for seed in range(4):
            records = NativeReactor(handle.efsm(), code=handle.native_code()
                                    ).run_trace(records_driver, seed)
            reactor = NativeReactor(handle.efsm(), code=handle.native_code())
            lines = reactor.run_trace(lines_driver, seed)
            assert isinstance(lines, TraceLines)
            assert list(lines) == [canonical_json(r) for r in records]
            assert len(lines) == len(records)
            assert lines.emitted == sum(len(r["emitted"]) for r in records)
            assert reactor.instants == len(records)


def test_the_suite_reaches_values_aggregates_and_termination():
    """The shapes above really exercise what the line sink encodes
    specially: valued and aggregate outputs and a terminated trace."""
    seen = {"valued": False, "aggregate": False, "terminated": False}
    for label, module in (("stack", "assemble"), ("finite", "finite")):
        handle = Pipeline().compile_text(DESIGNS[label]).module(module)
        records_driver, lines_driver = _pair(handle, 200, 0.95, 0)
        reactor = NativeReactor(handle.efsm(), code=handle.native_code())
        lines = reactor.run_trace(lines_driver, 3)
        for line in lines:
            seen["valued"] |= '"values": {}' not in line
            seen["aggregate"] |= '"0x' in line
        seen["terminated"] |= reactor.terminated
    assert all(seen.values()), seen


def test_negative_and_offset_value_ranges():
    handle = Pipeline().compile_text(FINITE_ECL).module("finite")
    for value_range in ((-5, 5), (7, 7), (0, 2**20)):
        records_driver, lines_driver = _pair(handle, 30, 0.7, 0, value_range)
        for seed in range(6):
            records = NativeReactor(handle.efsm(), code=handle.native_code()
                                    ).run_trace(records_driver, seed)
            lines = NativeReactor(handle.efsm(), code=handle.native_code()
                                  ).run_trace(lines_driver, seed)
            assert list(lines) == [canonical_json(r) for r in records]


def test_sinks_are_separate_stage_artifacts():
    handle = Pipeline().compile_text(FINITE_ECL).module("finite")
    records_driver, lines_driver = _pair(handle, 10, 0.5, 0)
    assert records_driver.source != lines_driver.source
    assert handle.trace_driver(10, 0.5, (0, 255), sink="lines") is lines_driver
    assert handle.trace_driver(10, 0.5, (0, 255)) is records_driver


@pytest.mark.parametrize("engine", ["native", "vector"])
def test_run_job_lines_match_the_dict_run(engine):
    if engine == "vector":
        pytest.importorskip("numpy")
    build = Pipeline().compile_text(PROTOCOL_STACK_ECL, filename="stack")
    job = SimJob(design="stack", module="toplevel", engine=engine,
                 stimulus=StimulusSpec.random(length=64), index=5)
    runner = get_engine(engine)
    records = runner.run_job(build.module, job)
    lines = runner.run_job(build.module, job, lines=True)
    assert not records.encoded and lines.encoded
    assert list(lines.records) == [canonical_json(r) for r in records.records]
    assert lines.emitted_events == records.emitted_events
    assert lines.terminated == records.terminated


def test_dict_engines_ignore_the_line_request():
    build = Pipeline().compile_text(DOOR_CTRL_ECL, filename="door")
    job = SimJob(design="door", module="door_ctrl", engine="efsm",
                 stimulus=StimulusSpec.random(length=16), index=1)
    run = get_engine("efsm").run_job(build.module, job, lines=True)
    assert not run.encoded and isinstance(run.records[0], dict)
