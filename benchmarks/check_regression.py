"""CI benchmark-regression gate: current results vs committed baselines.

:data:`GATES` holds every bound the benchmarks are judged by: rule
``higher``/``lower`` bands a JSON leaf (``/``-joined path, globbed per
segment, list items keyed by ``name``) against ``benchmarks/baselines/``;
``>=``/``<`` is a floor or ceiling, skipped below its minimum core
count.  Each bench asserts its floors through :func:`check`.  Refresh a
baseline deliberately: copy the artifact over it in the change that
justifies the new numbers.

Usage::

    python benchmarks/check_regression.py \
        [--out benchmarks/out] [--baselines benchmarks/baselines]
"""

import argparse
import json
import os
from fnmatch import fnmatchcase

HERE = os.path.dirname(os.path.abspath(__file__))

#: A banded result may be at most this many times worse than baseline:
#: wide enough for runner-to-runner noise, not for algorithmic slips.
BAND = 2.0

#: artifact -> [(leaf glob, rule, bound, minimum cores)].
GATES = {
    "BENCH_reaction.json": [("benchmarks/*/stats/mean", "lower", BAND, 0)],
    "BENCH_farm.json": [("*/reactions_per_sec", "higher", BAND, 0),
                        ("speedup", ">=", 2.0, 4)],
    "BENCH_native.json": [("workloads/*/engines/*", "higher", BAND, 0),
                          ("workloads/*/native_vs_efsm", ">=", 3.0, 0),
                          ("telemetry/ratio", ">=", 0.90, 0)],
    "BENCH_verify.json": [("workloads/*/rates/*", "higher", BAND, 0),
                          ("workloads/*/monitor_overhead", "<", 1.3, 0)],
    "BENCH_rtos.json": [("workloads/*/engines/*", "higher", BAND, 0),
                        ("workloads/*/native_vs_efsm", ">=", 5.0, 0)],
    "BENCH_serve.json": [("*/jobs_per_sec", "higher", BAND, 0),
                         ("warm_speedup", ">=", 1.5, 0)],
    "BENCH_serve_scale.json": [("*/jobs_per_sec", "higher", BAND, 0),
                               ("process_vs_thread", ">=", 2.0, 4)],
    "BENCH_vector.json": [("workloads/*/*/native", "higher", BAND, 0),
                          ("workloads/*/*/vector", "higher", BAND, 0),
                          ("workloads/*/run_spec/speedup", ">=", 4.0, 0),
                          ("workloads/*/campaign/speedup", ">=", 1.3, 0)],
}


def leaves(node, path=()):
    """``{"a/b/c": scalar}`` for a JSON document."""
    if isinstance(node, list):
        node = {item.get("name", index) if isinstance(item, dict) else index:
                item for index, item in enumerate(node)}
    if not isinstance(node, dict):
        return {"/".join(map(str, path)): node}
    return {leaf: value for key, child in node.items()
            for leaf, value in leaves(child, path + (key,)).items()}


def matches(paths, glob):
    """The sorted ``paths`` matching ``glob`` segment by segment."""
    parts = glob.split("/")
    return sorted(path for path in paths
                  if len(path.split("/")) == len(parts)
                  and all(map(fnmatchcase, path.split("/"), parts)))


def check(name, current, baseline=None):
    """Judge ``current`` by ``GATES[name]``; returns the failure
    messages.  Without a baseline only the floors and ceilings apply.
    Bands walk the baseline's leaves, bounds those of either side."""
    failures, cores = [], current.get("cores", 0)
    flat, base = leaves(current), leaves(baseline or {})
    for glob, rule, bound, min_cores in GATES[name]:
        band = rule in ("higher", "lower")
        if band and baseline is None:
            continue
        paths = matches(base if band else flat.keys() | base.keys(), glob)
        if cores < min_cores or not paths:
            why = "%d cores < %d" % (cores, min_cores) if paths else "no such leaf"
            print("%-22s %-40s skipped: %s" % (name, glob, why))
            continue
        for path in paths:
            value, reference = flat.get(path), base.get(path)
            if value is None:
                detail, ok = "missing from current results", False
            elif band:
                ratio = (value / reference if rule == "lower"
                         else reference / max(1e-9, value))
                detail = "%.4g vs %.4g (x%.2f worse)" % (value, reference, ratio)
                ok = ratio <= bound
            else:
                detail = "%.4g (%s %g)" % (value, rule, bound)
                ok = value >= bound if rule == ">=" else value < bound
            print("%-22s %-40s %s  %s"
                  % (name, path, detail, "ok" if ok else "REGRESSED"))
            if not ok:
                failures.append("%s: %s %s" % (name, path, detail))
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(HERE, "out"))
    parser.add_argument("--baselines", default=os.path.join(HERE, "baselines"))
    args = parser.parse_args(argv)
    failures = []
    for name in GATES:
        current = os.path.join(args.out, name)
        if not os.path.exists(current):
            failures.append("%s missing (benchmark did not run?)" % current)
            continue
        with open(current) as run, open(os.path.join(args.baselines, name)) as base:
            failures += check(name, json.load(run), json.load(base))
    print("\nbenchmark regression gate: %s (band x%.1f)"
          % ("FAILED" if failures else "ok", BAND))
    for failure in failures:
        print("  - " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
