"""Steadiness runs and fingerprint-checked comparisons of results.

Steadiness: run each workload once per seed, alternating the workload
order from round to round, and print every metric's median, quartiles
and spread (interquartile range over median, the figure the bounds in
``BENCHMARK.json`` are set from)::

    python3 servebench/steady.py run --workloads native_bulk,small_batches \\
        --seeds 1-10 --seconds 15 [--trace 0] --out DIR

Compare two such result directories (say, a parent commit and a
change), pairing runs by workload and seed.  Results whose
fingerprints differ — cores, Python, numpy, workers, pool mode,
workload or seed — are refused::

    python3 servebench/steady.py compare BASE_DIR NEW_DIR
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {entry["name"]: entry for entry in
            spec["end_to_end"] + spec["per_layer"]}


def _seeds(text):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def load(folder):
    """``{(workload, seed, trace): result}`` of one result directory."""
    results = {}
    for path in sorted(glob.glob(os.path.join(folder, "*.json"))):
        with open(path) as handle:
            result = json.load(handle)
        key = (result["fingerprint"]["workload"],
               result["fingerprint"]["seed"], result["trace"])
        results[key] = result
    return results


def summarize(results):
    """Per (workload, trace): metric -> list of values, in seed order."""
    table = {}
    for (workload, _seed, trace), result in sorted(results.items()):
        metrics = table.setdefault((workload, trace), {})
        for name, entry in result["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
    return table


def print_spread(results):
    bounds = _bounds()
    for (workload, trace), metrics in sorted(summarize(results).items()):
        print("%s (trace=%d)" % (workload, trace))
        print("  %-28s %5s %12s %12s %12s %8s %6s" % (
            "metric", "runs", "q1", "median", "q3", "spread", "bound"))
        for name, values in metrics.items():
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name, {}).get("bound")
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  > bound/3"
            print("  %-28s %5d %12.6g %12.6g %12.6g %8.4f %6s%s" % (
                name, len(values), q1, median, q3, spread,
                "" if bound is None else bound, flag))


def run(args):
    os.makedirs(args.out, exist_ok=True)
    workloads = args.workloads.split(",")
    for number, seed in enumerate(_seeds(args.seeds)):
        order = workloads if number % 2 == 0 else workloads[::-1]
        for workload in order:
            out = os.path.join(args.out, "%s-t%d-s%d.json"
                               % (workload, args.trace, seed))
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out", out]
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True)
            last = done.stdout.strip().splitlines()[-1:] or [""]
            print("%-14s seed %-4d exit %d  %s" % (
                workload, seed, done.returncode, last[0][:160]),
                flush=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
    print_spread(load(args.out))
    return 0


def compare(args):
    base, new = load(args.base), load(args.new)
    shared = sorted(set(base) & set(new))
    if not shared:
        print("no runs in common (pair by workload, seed and trace)")
        return 2
    for key in shared:
        if base[key]["fingerprint"] != new[key]["fingerprint"]:
            print("refused: fingerprints differ for %s seed %s:\n  %s\n  %s"
                  % (key[0], key[1], base[key]["fingerprint"],
                     new[key]["fingerprint"]))
            return 2
    bounds = _bounds()
    base_table = summarize({k: base[k] for k in shared})
    new_table = summarize({k: new[k] for k in shared})
    print("base %s  vs  new %s" % (
        base[shared[0]].get("src_digest"), new[shared[0]].get("src_digest")))
    worse = 0
    for group, metrics in sorted(base_table.items()):
        print("%s (trace=%d), %d paired runs" % (
            group[0], group[1], len(next(iter(metrics.values())))))
        for name, values in metrics.items():
            other = new_table[group].get(name)
            if not other:
                continue
            old_median = statistics.median(values)
            new_median = statistics.median(other)
            change = (new_median - old_median) / old_median \
                if old_median else float("nan")
            entry = bounds.get(name, {})
            verdict = ""
            if "bound" in entry:
                harm = change if entry["better"] == "lower" else -change
                if harm > entry["bound"]:
                    verdict = "  WORSE than bound %.2f" % entry["bound"]
                    worse += 1
            print("  %-28s %12.6g -> %12.6g  %+7.2f%%%s" % (
                name, old_median, new_median, 100 * change, verdict))
    return 1 if worse else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    steady = sub.add_parser("run", help="repeat workloads over seeds")
    steady.add_argument("--workloads", required=True)
    steady.add_argument("--seeds", default="1-10")
    steady.add_argument("--seconds", type=float, default=15)
    steady.add_argument("--trace", type=int, choices=(0, 1), default=0)
    steady.add_argument("--out", required=True)
    steady.set_defaults(handler=run)
    versus = sub.add_parser("compare", help="compare two result dirs")
    versus.add_argument("base")
    versus.add_argument("new")
    versus.set_defaults(handler=compare)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
