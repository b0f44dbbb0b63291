"""Compiled-monitor overhead: bare native engine vs 4 active monitors.

The verify subsystem's acceptance bar: stepping a compiled monitor
bundle (four temporal properties) alongside the native engine must stay
under the gate's overhead ceiling on the audio-buffer workload.  A
coverage-instrumented run is measured too (informational, with its own
regression band) — coverage marks three bitmap writes per instant, so
it should stay close to the monitor budget as well.

The gated ratio steps the bundle through :class:`MonitoredReactor`,
alongside each reaction.  Farm workers and campaigns check properties
another way: the native engine's ``run_job`` produces the job's
records, then :meth:`Monitor.step_record` walks them.  That record
path is measured too, on the same stimulus (``record_path_overhead``,
informational: no gate reads it).

Every measured run must produce the identical functional result (played
frames), and every monitor must finish with zero violations — a
property tripping mid-run would disable it and flatter the numbers.

Results land in ``benchmarks/out/BENCH_verify.json`` for the CI
regression gate (:mod:`benchmarks.check_regression`), whose ceiling
is asserted here too; the committed baseline lives in
``benchmarks/baselines/``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_verify_overhead.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_verify_overhead.py -q
"""

import os
import statistics
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(__file__))

from repro.engines import get_engine
from repro.farm.jobs import SimJob, StimulusSpec
from repro.pipeline import Pipeline
from repro.verify import (
    CoverageMap,
    Monitor,
    MonitoredReactor,
    compile_bundle,
    eventually,
    implies,
    never,
    value,
    within,
)

import check_regression
from workloads import write_report

#: Workload size; override via environment for bigger machines.
BUFFER_FRAMES = int(os.environ.get("VERIFY_BENCH_FRAMES", "1000"))

#: Four properties that all hold on the workload (so no monitor trips
#: and every instant pays the full bundle).
PROPERTIES = (
    never(value("dac_out") > 255),
    implies("almost_full", "fifo_level"),
    within("adc_in", "dac_out", 8),
    eventually("dac_out", 16),
)


def drive_buffer(reactor, frames):
    """Record/playback session (same stimulus as bench_native_speed):
    warm-up ticks, then one ADC sample and two play ticks per frame;
    returns ``(instants, played)``."""
    reactor.react()
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


def buffer_instants(frames):
    """:func:`drive_buffer`'s stimulus as farm instant dicts (present
    input name -> value, None for a pure signal)."""
    instants = [{}] + [{name: None} for name in
                       ("rec_tick", "rec_tick", "play_tick", "play_tick")]
    for frame in range(frames):
        instants += [{"adc_in": (frame * 37) & 0xFF},
                     {"play_tick": None}, {"play_tick": None}]
    return instants


def played_frames(records):
    """Frames whose two play ticks emitted ``dac_out`` (as
    :func:`drive_buffer` counts them)."""
    plays = records[5:]
    return sum(1 for frame in range(0, len(plays), 3)
               if "dac_out" in plays[frame + 1]["emitted"]
               or "dac_out" in plays[frame + 2]["emitted"])


#: Interleaved measurement rounds: each round times every variant
#: back-to-back and yields *paired* overhead ratios, with the variant
#: order reversed every other round, so neither side of a ratio always
#: runs first.  The gate takes the median round: a slow variant run
#: moves one ratio, never the verdict, in either direction.  Reported
#: rates are each variant's best round (the regression-gate band).
REPEATS = int(os.environ.get("VERIFY_BENCH_REPEATS", "9"))


def measure():
    from repro.designs import AUDIO_BUFFER_ECL

    module = (
        Pipeline()
        .compile_text(AUDIO_BUFFER_ECL, filename="buffer.ecl")
        .module("audio_buffer")
    )
    program = compile_bundle(PROPERTIES)

    def bare():
        return module.reactor(engine="native")

    def monitored():
        return MonitoredReactor(module.reactor(engine="native"), program)

    def check_clean(reactor):
        monitor = reactor.monitor
        assert monitor.ok, (
            "a bench property tripped (%s) — the overhead measurement "
            "would be flattered" % monitor.first_violation.describe()
        )

    def covered():
        reactor = module.reactor(engine="native")
        reactor.enable_coverage(CoverageMap.for_efsm(module.efsm()))
        return reactor

    variants = (
        ("bare", bare, None),
        ("monitored", monitored, check_clean),
        ("covered", covered, None),
    )
    engine = get_engine("native")
    job = SimJob(design="buffer", module="audio_buffer", engine="native",
                 stimulus=StimulusSpec.explicit(
                     buffer_instants(BUFFER_FRAMES)))

    def record_path():
        """One job through the native engine, then its records through
        a monitor, as a farm worker checks them; returns the seconds of
        each part."""
        started = perf_counter()
        records = engine.run_job(module.design.module, job).records
        ran = perf_counter()
        monitor = Monitor(program)
        for record in records:
            monitor.step_record(record)
        stepped = perf_counter()
        assert monitor.ok, (
            "a bench property tripped on the record path (%s)"
            % monitor.first_violation.describe())
        assert played_frames(records) == BUFFER_FRAMES
        return ran - started, stepped - ran

    best = {}
    results = {}
    monitor_ratios = []
    coverage_ratios = []
    record_run = record_step = float("inf")
    for round_ in range(REPEATS):
        elapsed = {}
        for label, make, check in (variants if round_ % 2
                                    else variants[::-1]):
            reactor = make()
            started = perf_counter()
            instants, outcome = drive_buffer(reactor, BUFFER_FRAMES)
            elapsed[label] = perf_counter() - started
            rate = instants / elapsed[label]
            if rate > best.get(label, 0.0):
                best[label] = rate
            previous = results.setdefault(label, outcome)
            assert previous == outcome, "non-deterministic workload"
            if check is not None:
                check(reactor)
        monitor_ratios.append(elapsed["monitored"] / elapsed["bare"])
        coverage_ratios.append(elapsed["covered"] / elapsed["bare"])
        # The monitor's share is timed inside one run, so the two parts
        # see the same host load; each part keeps its best round.
        run_s, step_s = record_path()
        record_run = min(record_run, run_s)
        record_step = min(record_step, step_s)
    assert set(results.values()) == {BUFFER_FRAMES}

    return {
        "benchmark": "verify_overhead",
        "workloads": {
            "buffer": {
                "frames": BUFFER_FRAMES,
                "monitors": len(PROPERTIES),
                "rates": {
                    "bare": best["bare"],
                    "monitored": best["monitored"],
                    "covered": best["covered"],
                },
                "monitor_overhead": statistics.median(monitor_ratios),
                "coverage_overhead": statistics.median(coverage_ratios),
                "record_path_overhead": (record_run + record_step)
                / record_run,
            }
        },
    }


def test_monitor_overhead_ceiling():
    data = measure()
    path = write_report(data, "BENCH_verify.json")
    entry = data["workloads"]["buffer"]
    rates = entry["rates"]
    print("")
    print(
        "buffer  bare %8.0f r/s  monitored %8.0f r/s (x%.2f)  "
        "covered %8.0f r/s (x%.2f)  record path x%.2f"
        % (
            rates["bare"],
            rates["monitored"],
            entry["monitor_overhead"],
            rates["covered"],
            entry["coverage_overhead"],
            entry["record_path_overhead"],
        )
    )
    print("wrote %s" % path)
    failures = check_regression.check("BENCH_verify.json", data)
    assert not failures, failures


if __name__ == "__main__":
    test_monitor_overhead_ceiling()
    print("ok")
