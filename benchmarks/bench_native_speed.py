"""Native-engine benchmark: interp vs EFSM-walk vs native reactions/sec.

The paper's phase 3 claim, measured end to end on the two Table 1
designs: compiling the reaction code once (the ``native`` engine,
:mod:`repro.runtime.native`) beats interpreting the decision tree every
instant (``efsm``) which in turn beats re-running the kernel term
(``interp``).  Each engine drives the identical stimulus and must
produce the identical functional result (address matches / played
frames), so the numbers always measure equivalent behaviour.

Results land in ``benchmarks/out/BENCH_native.json`` for the CI
regression gate (:mod:`benchmarks.check_regression`); the committed
baseline lives in ``benchmarks/baselines/``.  The gate's floors —
native over the EFSM walker on both workloads, and the native rate
with telemetry on over off — are asserted here too.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_native_speed.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_native_speed.py -q
"""

import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(__file__))

from repro.pipeline import Pipeline

import check_regression
from workloads import GOOD_PACKET, write_report

#: Workload sizes; override via environment for bigger machines.
STACK_PACKETS = int(os.environ.get("NATIVE_BENCH_PACKETS", "50"))
BUFFER_FRAMES = int(os.environ.get("NATIVE_BENCH_FRAMES", "1000"))

ENGINES = ("interp", "efsm", "native")


def drive_stack(reactor, packets):
    """Stream ``packets`` good packets byte-by-byte; returns
    ``(instants, matches)``."""
    reactor.react()  # start-up instant
    matches = 0
    stream = GOOD_PACKET * packets
    for byte in stream:
        out = reactor.react(values={"in_byte": byte})
        if "addr_match" in out.emitted:
            matches += 1
    for _ in range(12):  # drain the pipelined tail
        out = reactor.react()
        if "addr_match" in out.emitted:
            matches += 1
    return len(stream) + 13, matches


def drive_buffer(reactor, frames):
    """Record/playback session: warm-up ticks, then one ADC sample and
    two play ticks per frame; returns ``(instants, played)``."""
    reactor.react()  # start-up instant
    instants = 1
    for name in ("rec_tick", "rec_tick", "play_tick", "play_tick"):
        reactor.react(inputs=[name])
        instants += 1
    played = 0
    for frame in range(frames):
        reactor.react(values={"adc_in": (frame * 37) & 0xFF})
        one = reactor.react(inputs=["play_tick"])
        two = reactor.react(inputs=["play_tick"])
        instants += 3
        if "dac_out" in one.emitted or "dac_out" in two.emitted:
            played += 1
    return instants, played


def drive_stack_batched(reactor, packets):
    """The same stack stimulus through ``react_many`` (native only)."""
    reactor.react()
    instants = [{"in_byte": byte} for byte in GOOD_PACKET * packets]
    instants += [{} for _ in range(13)]
    outputs = reactor.react_many(instants)
    matches = sum(1 for out in outputs if "addr_match" in out.emitted)
    return len(instants) + 1, matches


def _best_rate(module, engine, drive, size, repeats=2):
    """Best-of-N reactions/sec plus the functional result."""
    best = None
    result = None
    for _ in range(repeats):
        reactor = module.reactor(engine=engine)
        started = perf_counter()
        instants, outcome = drive(reactor, size)
        elapsed = perf_counter() - started
        rate = instants / elapsed
        if best is None or rate > best:
            best = rate
        if result is None:
            result = outcome
        else:
            message = "engine %s is non-deterministic: %r vs %r"
            assert result == outcome, message % (engine, result, outcome)
    return best, result


def measure_workload(module, drive, size):
    rates = {}
    results = {}
    for engine in ENGINES:
        rates[engine], results[engine] = _best_rate(module, engine, drive, size)
    baseline = results["interp"]
    for engine in ENGINES:
        message = "functional divergence: %s produced %r, interp %r"
        detail = message % (engine, results[engine], baseline)
        assert results[engine] == baseline, detail
    return rates, baseline


def measure():
    from repro.designs import AUDIO_BUFFER_ECL, PROTOCOL_STACK_ECL

    pipeline = Pipeline()
    stack_build = pipeline.compile_text(PROTOCOL_STACK_ECL, filename="stack.ecl")
    stack = stack_build.module("toplevel")
    buffer_build = pipeline.compile_text(AUDIO_BUFFER_ECL, filename="buffer.ecl")
    buffer_ = buffer_build.module("audio_buffer")

    # The stack must be 100% native: its aggregate packet emits lower
    # as bytearray slice moves since the verify PR (ROADMAP item).
    for name in stack_build.module_names:
        code = stack_build.module(name).native_code()
        assert code.fallback_ops == 0, (
            "stack module %s regressed to evaluator fallbacks: %s"
            % (name, code.describe())
        )

    data = {"benchmark": "native_reaction_speed", "workloads": {}}
    for label, module, drive, size in (
        ("stack", stack, drive_stack, STACK_PACKETS),
        ("buffer", buffer_, drive_buffer, BUFFER_FRAMES),
    ):
        rates, outcome = measure_workload(module, drive, size)
        message = "%s workload broke: expected %d, got %d"
        assert outcome == size, message % (label, size, outcome)
        data["workloads"][label] = {
            "size": size,
            "functional_result": outcome,
            "engines": rates,
            "native_vs_efsm": rates["native"] / rates["efsm"],
            "native_vs_interp": rates["native"] / rates["interp"],
        }

    # Batched-instant loop, informational (the farm's fast path).
    batched, matches = _best_rate(stack, "native", drive_stack_batched, STACK_PACKETS)
    assert matches == STACK_PACKETS
    data["workloads"]["stack"]["native_react_many"] = batched

    # Telemetry-on row: the same native stack workload with the metrics
    # registry live.  The inner reaction loop is not instrumented
    # (instrumentation sits at job granularity), so the rate must hold
    # within measurement noise; the gate's floor absorbs only that.
    from repro import telemetry

    telemetry.reset()
    telemetry.enable()
    try:
        rate_on, matches_on = _best_rate(stack, "native", drive_stack, STACK_PACKETS)
    finally:
        telemetry.disable()
        telemetry.reset()
    assert matches_on == STACK_PACKETS
    rate_off = data["workloads"]["stack"]["engines"]["native"]
    data["telemetry"] = {
        "native_rate_on": rate_on,
        "native_rate_off": rate_off,
        "ratio": rate_on / rate_off,
    }

    # Vectorized multi-instance sweep, informational; needs numpy (the
    # gated native-vs-vector comparison lives in bench_vector_sweep).
    from repro.runtime.vector import NUMPY_AVAILABLE

    if NUMPY_AVAILABLE:
        from repro.engines import get_engine
        from repro.farm.jobs import StimulusSpec

        lanes, length = 256, 200
        spec = StimulusSpec.random(length=length, salt=11)
        vector = get_engine("vector")
        vector.run_spec(stack, spec, n_instances=8, records=False)  # warm
        best = 0.0
        for _ in range(3):
            started = perf_counter()
            vector.run_spec(stack, spec, n_instances=lanes, records=False)
            best = max(best, lanes * length / (perf_counter() - started))
        data["workloads"]["stack"]["vector_sweep"] = {
            "n_instances": lanes,
            "length": length,
            "rate": best,
        }
    return data


def test_native_speedup_floor():
    data = measure()
    path = write_report(data, "BENCH_native.json")
    row = "%-6s interp %8.0f r/s  efsm %8.0f r/s  native %8.0f r/s  (x%.1f)"
    for label, entry in sorted(data["workloads"].items()):
        rates = entry["engines"]
        values = (
            label,
            rates["interp"],
            rates["efsm"],
            rates["native"],
            entry["native_vs_efsm"],
        )
        print("")
        print(row % values)
    print("wrote %s" % path)
    print(
        "telemetry on: %.0f r/s vs %.0f r/s off (x%.3f)"
        % (
            data["telemetry"]["native_rate_on"],
            data["telemetry"]["native_rate_off"],
            data["telemetry"]["ratio"],
        )
    )
    failures = check_regression.check("BENCH_native.json", data)
    assert not failures, failures


if __name__ == "__main__":
    test_native_speedup_floor()
    print("ok")
