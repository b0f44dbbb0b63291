"""CI benchmark-regression gate: current results vs committed baselines.

Compares the benchmark artifacts against their committed baselines
and fails (exit 1) on a >2x regression:

* ``BENCH_reaction.json`` (pytest-benchmark format): each benchmark's
  mean seconds must not exceed twice the baseline mean;
* ``BENCH_farm.json`` (:mod:`benchmarks.bench_farm_throughput`):
  serial and farm reactions/sec must not drop below half the
  baseline;
* ``BENCH_native.json`` (:mod:`benchmarks.bench_native_speed`): every
  per-engine reactions/sec figure must not drop below half the
  baseline, and the native engine must keep its >=3x margin over the
  EFSM walker (the PR's acceptance floor, re-checked on every run);
* ``BENCH_verify.json`` (:mod:`benchmarks.bench_verify_overhead`):
  bare/monitored/covered rates must not drop below half the baseline,
  and monitor overhead must stay inside the verify subsystem's <1.3x
  acceptance band (absolute, not baseline-relative);
* ``BENCH_rtos.json`` (:mod:`benchmarks.bench_rtos_native`): the
  per-task-engine dispatch rates on the multi-task stack partition
  must not drop below half the baseline, and native tasks must keep
  their >=5x margin over efsm tasks (the RTOS rework's acceptance
  floor, re-checked on every run);
* ``BENCH_serve.json`` (:mod:`benchmarks.bench_serve_latency`): warm
  and cold jobs/sec must not drop below half the baseline, and a warm
  service batch must stay >= 1.5x faster than a cold farm run of the
  identical spec (the serving layer's acceptance floor, re-checked on
  every run);
* ``BENCH_serve_scale.json`` (:mod:`benchmarks.bench_serve_scale`):
  thread/process pool and fused/unfused sweep jobs/sec must not drop
  below half the baseline, fused sweeps must stay at least as fast as
  unfused ones, and on >= 4 cores the process pool must keep its >=2x
  throughput margin over the thread pool (skipped below 4 cores,
  where there is no parallelism to demonstrate);
* ``BENCH_vector.json`` (:mod:`benchmarks.bench_vector_sweep`): the
  paired native/vector rates must not drop below half the baseline,
  the vector engine must keep its >=4x margin over the scalar native
  engine's trace driver through the unified ``Engine.run_spec`` API at
  1k instances,
  and a vector verify campaign must stay >=1.3x faster than a native
  one end-to-end (both floors re-checked on every run).

The factor-2 band absorbs runner-to-runner hardware noise while still
catching the algorithmic regressions the gate exists for.  Baselines
live in ``benchmarks/baselines/``; refresh them deliberately (copy the
current artifact over the baseline in the same PR that justifies the
new numbers).

Usage::

    python benchmarks/check_regression.py \
        [--out benchmarks/out] [--baselines benchmarks/baselines]
"""

import argparse
import json
import os
import sys

#: A result may be at most this many times worse than its baseline.
REGRESSION_FACTOR = 2.0

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as handle:
        return json.load(handle)


def reaction_means(data):
    """``{benchmark name: mean seconds}`` from pytest-benchmark JSON."""
    return {bench["name"]: bench["stats"]["mean"]
            for bench in data.get("benchmarks", [])}


def check_reaction(current, baseline, failures):
    means = reaction_means(current)
    for name, base_mean in sorted(reaction_means(baseline).items()):
        mean = means.get(name)
        if mean is None:
            failures.append("reaction: benchmark %r missing from "
                            "current results" % name)
            continue
        ratio = mean / base_mean
        status = "ok" if ratio <= REGRESSION_FACTOR else "REGRESSED"
        print("reaction  %-40s %8.4fs vs %8.4fs  (x%.2f)  %s"
              % (name, mean, base_mean, ratio, status))
        if ratio > REGRESSION_FACTOR:
            failures.append(
                "reaction: %s is x%.2f slower than baseline "
                "(%.4fs vs %.4fs)" % (name, ratio, mean, base_mean))


def check_farm(current, baseline, failures):
    for side in ("serial", "farm"):
        rate = current[side]["reactions_per_sec"]
        base_rate = baseline[side]["reactions_per_sec"]
        ratio = base_rate / max(1e-9, rate)
        status = "ok" if ratio <= REGRESSION_FACTOR else "REGRESSED"
        print("farm      %-40s %8.0f r/s vs %8.0f r/s  (x%.2f)  %s"
              % (side, rate, base_rate, ratio, status))
        if ratio > REGRESSION_FACTOR:
            failures.append(
                "farm: %s throughput dropped to %.0f r/s "
                "(baseline %.0f r/s)" % (side, rate, base_rate))


#: The native engine must stay at least this much faster than the
#: EFSM tree walker (mirrors bench_native_speed.SPEEDUP_FLOOR).
NATIVE_SPEEDUP_FLOOR = 3.0


def check_native(current, baseline, failures):
    for label, base_entry in sorted(baseline["workloads"].items()):
        entry = current["workloads"].get(label)
        if entry is None:
            failures.append("native: workload %r missing from current "
                            "results" % label)
            continue
        for engine, base_rate in sorted(base_entry["engines"].items()):
            rate = entry["engines"].get(engine, 0.0)
            ratio = base_rate / max(1e-9, rate)
            status = "ok" if ratio <= REGRESSION_FACTOR else "REGRESSED"
            print("native    %-40s %8.0f r/s vs %8.0f r/s  (x%.2f)  %s"
                  % ("%s/%s" % (label, engine), rate, base_rate, ratio,
                     status))
            if ratio > REGRESSION_FACTOR:
                failures.append(
                    "native: %s/%s dropped to %.0f r/s (baseline "
                    "%.0f r/s)" % (label, engine, rate, base_rate))
        speedup = entry.get("native_vs_efsm", 0.0)
        if speedup < NATIVE_SPEEDUP_FLOOR:
            failures.append(
                "native: %s speedup over efsm is x%.2f (floor x%.1f)"
                % (label, speedup, NATIVE_SPEEDUP_FLOOR))


#: Native tasks must stay at least this much faster than efsm tasks
#: under the RTOS (mirrors bench_rtos_native.SPEEDUP_FLOOR).
RTOS_SPEEDUP_FLOOR = 5.0


def check_rtos(current, baseline, failures):
    for label, base_entry in sorted(baseline["workloads"].items()):
        entry = current["workloads"].get(label)
        if entry is None:
            failures.append("rtos: workload %r missing from current "
                            "results" % label)
            continue
        for engine, base_rate in sorted(base_entry["engines"].items()):
            rate = entry["engines"].get(engine, 0.0)
            ratio = base_rate / max(1e-9, rate)
            status = "ok" if ratio <= REGRESSION_FACTOR else "REGRESSED"
            print("rtos      %-40s %8.0f r/s vs %8.0f r/s  (x%.2f)  %s"
                  % ("%s/%s" % (label, engine), rate, base_rate, ratio,
                     status))
            if ratio > REGRESSION_FACTOR:
                failures.append(
                    "rtos: %s/%s dropped to %.0f r/s (baseline "
                    "%.0f r/s)" % (label, engine, rate, base_rate))
        speedup = entry.get("native_vs_efsm", 0.0)
        if speedup < RTOS_SPEEDUP_FLOOR:
            failures.append(
                "rtos: %s native-task speedup over efsm tasks is x%.2f "
                "(floor x%.1f)" % (label, speedup, RTOS_SPEEDUP_FLOOR))


#: Monitor overhead ceiling (mirrors bench_verify_overhead
#: .OVERHEAD_CEILING), re-checked against the fresh numbers every run.
VERIFY_OVERHEAD_CEILING = 1.3


def check_verify(current, baseline, failures):
    for label, base_entry in sorted(baseline["workloads"].items()):
        entry = current["workloads"].get(label)
        if entry is None:
            failures.append("verify: workload %r missing from current "
                            "results" % label)
            continue
        for side, base_rate in sorted(base_entry["rates"].items()):
            rate = entry["rates"].get(side, 0.0)
            ratio = base_rate / max(1e-9, rate)
            status = "ok" if ratio <= REGRESSION_FACTOR else "REGRESSED"
            print("verify    %-40s %8.0f r/s vs %8.0f r/s  (x%.2f)  %s"
                  % ("%s/%s" % (label, side), rate, base_rate, ratio,
                     status))
            if ratio > REGRESSION_FACTOR:
                failures.append(
                    "verify: %s/%s dropped to %.0f r/s (baseline "
                    "%.0f r/s)" % (label, side, rate, base_rate))
        overhead = entry.get("monitor_overhead")
        if overhead is None:
            failures.append(
                "verify: %s is missing monitor_overhead (schema "
                "drift?) — the ceiling gate cannot run" % label)
            continue
        status = "ok" if overhead < VERIFY_OVERHEAD_CEILING \
            else "REGRESSED"
        print("verify    %-40s x%.2f (ceiling x%.1f)  %s"
              % ("%s/monitor_overhead" % label, overhead,
                 VERIFY_OVERHEAD_CEILING, status))
        if overhead >= VERIFY_OVERHEAD_CEILING:
            failures.append(
                "verify: %s monitor overhead x%.2f breaches the x%.1f "
                "ceiling" % (label, overhead, VERIFY_OVERHEAD_CEILING))


#: A warm service batch must stay at least this much faster than a
#: cold farm run (mirrors bench_serve_latency.SPEEDUP_FLOOR).
SERVE_SPEEDUP_FLOOR = 1.5


def check_serve(current, baseline, failures):
    for side in ("cold", "warm"):
        rate = current[side]["jobs_per_sec"]
        base_rate = baseline[side]["jobs_per_sec"]
        ratio = base_rate / max(1e-9, rate)
        status = "ok" if ratio <= REGRESSION_FACTOR else "REGRESSED"
        print("serve     %-40s %8.0f j/s vs %8.0f j/s  (x%.2f)  %s"
              % (side, rate, base_rate, ratio, status))
        if ratio > REGRESSION_FACTOR:
            failures.append(
                "serve: %s throughput dropped to %.0f jobs/s "
                "(baseline %.0f jobs/s)" % (side, rate, base_rate))
    speedup = current.get("warm_speedup", 0.0)
    status = "ok" if speedup >= SERVE_SPEEDUP_FLOOR else "REGRESSED"
    print("serve     %-40s x%.2f (floor x%.1f)  %s"
          % ("warm_speedup", speedup, SERVE_SPEEDUP_FLOOR, status))
    if speedup < SERVE_SPEEDUP_FLOOR:
        failures.append(
            "serve: warm batch is only x%.2f faster than a cold farm "
            "run (floor x%.1f)" % (speedup, SERVE_SPEEDUP_FLOOR))


#: Process-over-thread floor for the scale-out pool (mirrors
#: bench_serve_scale.PROCESS_SPEEDUP_FLOOR), enforceable only on
#: machines with enough cores to demonstrate parallel speedup; the
#: fused-sweep floor holds on any machine.
SCALE_PROCESS_FLOOR = 2.0
SCALE_MIN_CORES = 4
SCALE_FUSION_FLOOR = 1.0


def check_serve_scale(current, baseline, failures):
    for side in ("thread", "process", "unfused", "fused"):
        rate = current[side]["jobs_per_sec"]
        base_rate = baseline[side]["jobs_per_sec"]
        ratio = base_rate / max(1e-9, rate)
        status = "ok" if ratio <= REGRESSION_FACTOR else "REGRESSED"
        print("scale     %-40s %8.0f j/s vs %8.0f j/s  (x%.2f)  %s"
              % (side, rate, base_rate, ratio, status))
        if ratio > REGRESSION_FACTOR:
            failures.append(
                "scale: %s throughput dropped to %.0f jobs/s "
                "(baseline %.0f jobs/s)" % (side, rate, base_rate))
    fused_speedup = current.get("fused_speedup", 0.0)
    status = "ok" if fused_speedup >= SCALE_FUSION_FLOOR else "REGRESSED"
    print("scale     %-40s x%.2f (floor x%.1f)  %s"
          % ("fused_speedup", fused_speedup, SCALE_FUSION_FLOOR, status))
    if fused_speedup < SCALE_FUSION_FLOOR:
        failures.append(
            "scale: fused sweeps run at x%.2f the unfused rate "
            "(floor x%.1f)" % (fused_speedup, SCALE_FUSION_FLOOR))
    speedup = current.get("process_vs_thread", 0.0)
    cores = current.get("cores", 0)
    if cores >= SCALE_MIN_CORES:
        status = "ok" if speedup >= SCALE_PROCESS_FLOOR else "REGRESSED"
        print("scale     %-40s x%.2f (floor x%.1f, %d cores)  %s"
              % ("process_vs_thread", speedup, SCALE_PROCESS_FLOOR,
                 cores, status))
        if speedup < SCALE_PROCESS_FLOOR:
            failures.append(
                "scale: process pool is only x%.2f the thread pool's "
                "throughput on %d cores (floor x%.1f)"
                % (speedup, cores, SCALE_PROCESS_FLOOR))
    else:
        print("scale     %-40s x%.2f (floor skipped: %d cores < %d)"
              % ("process_vs_thread", speedup, cores, SCALE_MIN_CORES))


#: The vector engine must stay at least this much faster than the
#: scalar native engine through the unified ``Engine.run_spec`` API,
#: and a vector verify campaign must keep beating a native one
#: end-to-end (mirrors bench_vector_sweep's floors).
VECTOR_SWEEP_FLOOR = 4.0
VECTOR_CAMPAIGN_FLOOR = 1.3


def check_vector(current, baseline, failures):
    floors = {"run_spec": VECTOR_SWEEP_FLOOR,
              "campaign": VECTOR_CAMPAIGN_FLOOR}
    for label, base_entry in sorted(baseline["workloads"].items()):
        entry = current["workloads"].get(label)
        if entry is None:
            failures.append("vector: workload %r missing from current "
                            "results" % label)
            continue
        for section, floor in sorted(floors.items()):
            base_part = base_entry[section]
            part = entry.get(section, {})
            for side in ("native", "vector"):
                rate = part.get(side, 0.0)
                base_rate = base_part[side]
                ratio = base_rate / max(1e-9, rate)
                status = "ok" if ratio <= REGRESSION_FACTOR \
                    else "REGRESSED"
                print("vector    %-40s %8.0f /s vs %8.0f /s  (x%.2f)  %s"
                      % ("%s/%s/%s" % (label, section, side), rate,
                         base_rate, ratio, status))
                if ratio > REGRESSION_FACTOR:
                    failures.append(
                        "vector: %s/%s/%s dropped to %.0f/s (baseline "
                        "%.0f/s)" % (label, section, side, rate,
                                     base_rate))
            speedup = part.get("speedup", 0.0)
            status = "ok" if speedup >= floor else "REGRESSED"
            print("vector    %-40s x%.2f (floor x%.1f)  %s"
                  % ("%s/%s/speedup" % (label, section), speedup, floor,
                     status))
            if speedup < floor:
                failures.append(
                    "vector: %s %s speedup is x%.2f (floor x%.1f)"
                    % (label, section, speedup, floor))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(HERE, "out"))
    parser.add_argument("--baselines",
                        default=os.path.join(HERE, "baselines"))
    args = parser.parse_args(argv)
    failures = []
    pairs = [
        ("BENCH_reaction.json", check_reaction),
        ("BENCH_farm.json", check_farm),
        ("BENCH_native.json", check_native),
        ("BENCH_verify.json", check_verify),
        ("BENCH_rtos.json", check_rtos),
        ("BENCH_serve.json", check_serve),
        ("BENCH_serve_scale.json", check_serve_scale),
        ("BENCH_vector.json", check_vector),
    ]
    for filename, checker in pairs:
        current_path = os.path.join(args.out, filename)
        baseline_path = os.path.join(args.baselines, filename)
        if not os.path.exists(current_path):
            failures.append("%s missing (benchmark did not run?)"
                            % current_path)
            continue
        checker(load(current_path), load(baseline_path), failures)
    if failures:
        print("\nbenchmark regression gate FAILED:")
        for failure in failures:
            print("  - " + failure)
        return 1
    print("\nbenchmark regression gate: ok "
          "(factor %.1f)" % REGRESSION_FACTOR)
    return 0


if __name__ == "__main__":
    sys.exit(main())
