"""End-to-end serve benchmark: HTTP submit to the last NDJSON row.

Usage (from the root of a checkout)::

    python3 servebench/run.py --workload native_bulk --seed 1 \\
        --seconds 15 --trace 0 [--out result.json]

Launches ``eclc serve -j 2`` (process pool, journal, trace ledger and
artifact cache on a fresh data root, telemetry on) as a separate
process and drives it over HTTP from closed-loop ``ServeClient``
clients.  ``--trace 0`` reports the end-to-end metrics: the server is
set up several times to time set-up, the last one is timed for
``--seconds`` after an untimed warm-up batch.  ``--trace 1`` runs the
same workload twice for half the window each, untraced and then under
``servebench/launcher.py``, and reports the per-layer table plus the
tracing overhead.  Every row is checked, and a seeded sample of traces
is compared with the efsm engine; any failure makes ``correct`` false
and the exit status 1.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time

from harness import WORKERS, percentile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Server launches per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Sampled jobs whose traces are checked against the efsm engine.
TRACE_SAMPLES = 8

#: Scratch space for data roots and spans, inside the checkout.
SCRATCH = ".servebench_tmp"

#: Sub-window length: rates, CPU per job and medians are taken per
#: sub-window and reported as their median over the window, so a burst
#: of host slowness shorter than half the window does not move them.
SUBWINDOW_S = 2.0

#: Least interval between two reads of the server's CPU time.
CPU_SAMPLE_S = 0.05

#: End-to-end metrics and their units, in report order.
END_TO_END = (
    ("batch_p50_s", "s"), ("batch_p90_s", "s"), ("first_row_p50_s", "s"),
    ("jobs_per_s", "jobs/s"), ("reactions_per_s", "reactions/s"),
    ("cpu_ms_per_job", "ms"), ("rss_peak_mb", "MB"), ("setup_s", "s"),
    ("failed_ratio", "ratio"),
)


class Window:
    """One closed-loop measurement window against a running server.

    Besides each batch's timings, the window keeps a completion log —
    ``(time, rows so far, reactions so far, server CPU seconds or
    None)`` per finished batch — from which rates and CPU per job are
    computed over sub-windows.  Server CPU is read at most every
    :data:`CPU_SAMPLE_S`, right after a batch finished, so CPU and rows
    line up exactly.
    """

    def __init__(self, server, workload, seed, numbers):
        self.server = server
        self.workload = workload
        self.seed = seed
        self.numbers = numbers
        self.batches = []      # (number, start, posted, first, last, rows)
        self.completions = []  # (time, rows, reactions, cpu or None)
        self.refused = 0
        self.attempted = 0
        self.problems = []
        self.samples = []      # (document, row) for the trace check
        self.start = self.end = None
        self._pids = ()
        self._lock = threading.Lock()

    def one_batch(self, client, number):
        """Submit one batch and drain its rows; returns its record."""
        from check import check_rows
        from repro.errors import EclError
        from workloads import TENANT

        document = self.workload.document(self.seed, number)
        started = time.monotonic()
        try:
            admitted = client.submit(document, tenant=TENANT)
        except EclError as error:  # queue_full is an EclError too
            with self._lock:
                self.refused += 1
                self.problems.append("batch %d refused: %s" % (number, error))
            return None
        posted = time.monotonic()
        rows, first = [], None
        for row in client.stream_results(admitted["batch"], stable=True):
            if first is None:
                first = time.monotonic()
            rows.append(row)
        last = time.monotonic()
        problems = check_rows(document, admitted["jobs"], rows)
        with self._lock:
            self.attempted += admitted["jobs"]
            self.problems.extend("batch %d: %s" % (number, p)
                                 for p in problems)
            self.samples.extend((document, row) for row in rows
                                if row.get("trace_digest"))
        return (number, started, posted, first, last, rows)

    def _complete(self, record):
        with self._lock:
            self.batches.append(record)
            done, rows, reactions, _cpu = self.completions[-1]
            cpu = None
            if record[4] - self._last_cpu >= CPU_SAMPLE_S:
                cpu = self._cpu()
                self._last_cpu = record[4]
            self.completions.append((
                record[4], rows + len(record[5]),
                reactions + sum(r.get("instants", 0) for r in record[5]),
                cpu))

    def _cpu(self):
        from harness import cpu_seconds

        return sum(cpu_seconds(pid) for pid in self._pids)

    def run(self, seconds):
        """Closed-loop clients until ``seconds`` have passed; every
        batch started inside the window is waited for and counted."""
        deadline = [None]

        def loop():
            client = self.server.client()
            while time.monotonic() < deadline[0]:
                try:
                    record = self.one_batch(client, next(self.numbers))
                except Exception as error:  # noqa: BLE001 - reported
                    with self._lock:
                        self.problems.append("batch failed: %r" % (error,))
                    return
                if record is not None:
                    self._complete(record)

        threads = [threading.Thread(target=loop)
                   for _ in range(self.workload.clients)]
        self._pids = self.server.tree()
        self.start = self._last_cpu = time.monotonic()
        self.completions = [(self.start, 0, 0, self._cpu())]
        deadline[0] = self.start + seconds
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.end = time.monotonic()

    # -- metrics ---------------------------------------------------------

    @property
    def wall(self):
        return self.end - self.start

    @property
    def rows(self):
        return sum(len(b[5]) for b in self.batches)

    def latencies(self):
        return [b[4] - b[1] for b in self.batches]

    def subwindows(self):
        """Per sub-window of about :data:`SUBWINDOW_S`: ``(latencies,
        first-row delays, jobs/s, reactions/s, CPU ms per job)`` of the
        batches that finished in it.  Rates run from the sub-window's
        first completion to its last; CPU from its first CPU sample to
        its last."""
        count = max(1, int(self.wall / SUBWINDOW_S))
        length = self.wall / count
        parts = [([], [], []) for _ in range(count)]
        for batch in self.batches:
            k = min(count - 1, int((batch[4] - self.start) / length))
            parts[k][0].append(batch[4] - batch[1])
            if batch[3] is not None:
                parts[k][1].append(batch[3] - batch[1])
        for event in self.completions[1:]:
            k = min(count - 1, int((event[0] - self.start) / length))
            parts[k][2].append(event)
        out = []
        for latencies, firsts, events in parts:
            jobs = reactions = cpu = None
            if len(events) >= 2 and events[-1][0] > events[0][0]:
                span = events[-1][0] - events[0][0]
                jobs = (events[-1][1] - events[0][1]) / span
                reactions = (events[-1][2] - events[0][2]) / span
            sampled = [e for e in events if e[3] is not None]
            if len(sampled) >= 2 and sampled[-1][1] > sampled[0][1]:
                cpu = ((sampled[-1][3] - sampled[0][3]) * 1e3
                       / (sampled[-1][1] - sampled[0][1]))
            out.append((latencies, firsts, jobs, reactions, cpu))
        return out


def _median_of(parts, pick):
    """Median over sub-windows of one per-sub-window figure."""
    values = [v for v in (pick(part) for part in parts) if v is not None]
    return statistics.median(values) if values else float("nan")


def warm_up(server, workload, seed):
    """Run the untimed warm-up batch (batch number 0) to completion."""
    window = Window(server, workload, seed, iter(()))
    record = window.one_batch(server.client(), 0)
    if record is None or window.problems:
        raise RuntimeError("warm-up batch failed: %s"
                           % "; ".join(window.problems[:3]))
    return window


def launch(scratch, workload, seed, spans_dir=None):
    """A started server that finished its warm-up batch, and its
    set-up time (launch to warm-up done)."""
    from harness import Server

    server = Server(ROOT, scratch, spans_dir=spans_dir)
    try:
        launched = server.start()
        warm_up(server, workload, seed)
    except BaseException:
        server.stop()
        server.remove_data()
        raise
    return server, time.monotonic() - launched


def check_window(window, server, seed):
    """Sampled trace checks, outside the timed window."""
    from check import check_traces

    try:
        checked, problems = check_traces(server.client(), window.samples,
                                         seed, TRACE_SAMPLES)
    except Exception as error:  # noqa: BLE001 - a failed check, reported
        checked, problems = 0, ["trace check failed: %r" % (error,)]
    window.problems.extend(problems)
    return checked


def failures(window):
    bad_rows = sum(1 for b in window.batches for row in b[5]
                   if row.get("status") != "ok")
    return max(bad_rows, len(window.problems)) + window.refused


def measure(workload, seed, seconds, scratch):
    """``--trace 0``: end-to-end metrics."""
    setups = []
    server = None
    for attempt in range(SETUP_REPEATS):
        server, setup = launch(scratch, workload, seed)
        setups.append(setup)
        if attempt < SETUP_REPEATS - 1:
            server.stop()
            server.remove_data()
    try:
        window = Window(server, workload, seed, itertools.count(1))
        window.run(seconds)
        rss = server.peak_rss_mb()
        health = server.client().health()
        checked = check_window(window, server, seed)
    finally:
        stopping = time.monotonic()
        graceful = server.stop()
        stopped = time.monotonic()
        server.remove_data()
        removed = time.monotonic()
    if not graceful:
        window.problems.append("server did not shut down gracefully")
    latencies = window.latencies()
    attempted = window.attempted + window.refused
    failed = failures(window)
    parts = window.subwindows()
    metrics = {
        "batch_p50_s": _median_of(parts, lambda p: percentile(p[0], 0.5)),
        "batch_p90_s": percentile(latencies, 0.9),
        "first_row_p50_s": _median_of(parts,
                                      lambda p: percentile(p[1], 0.5)),
        "jobs_per_s": _median_of(parts, lambda p: p[2]),
        "reactions_per_s": _median_of(parts, lambda p: p[3]),
        "cpu_ms_per_job": _median_of(parts, lambda p: p[4]),
        "rss_peak_mb": rss,
        "setup_s": statistics.median(setups),
        "failed_ratio": failed / max(1, attempted),
    }
    notes = {
        "batches": len(latencies),
        "beyond_p90": sum(1 for v in latencies
                          if v > metrics["batch_p90_s"]),
        "rows": window.rows,
        "window_s": window.wall,
        "subwindow_p50_s": [percentile(p[0], 0.5) for p in parts],
        "subwindow_cpu_ms": [p[4] for p in parts],
        "setup_samples_s": setups,
        "traces_checked": checked,
        "stop_s": stopped - stopping,
        "cleanup_s": removed - stopped,
        "pool_mode": health.get("pool_mode"),
    }
    return window, attempted, failed, metrics, notes


def measure_traced(workload, seed, seconds, scratch):
    """``--trace 1``: untraced then traced half-windows; per-layer
    metrics from the traced one, tracing overhead from both."""
    import layers

    half = seconds / 2.0
    server, _setup = launch(scratch, workload, seed)
    try:
        plain = Window(server, workload, seed, itertools.count(1))
        plain.run(half)
        check_window(plain, server, seed)
    finally:
        plain_graceful = server.stop()
        server.remove_data()
    spans_dir = tempfile.mkdtemp(prefix="spans-", dir=scratch)
    server, _setup = launch(scratch, workload, seed, spans_dir=spans_dir)
    try:
        traced = Window(server, workload, seed, itertools.count(1))
        time.sleep(2.0 / layers.SLOTS_PER_S)  # a clean counter slot
        traced.run(half)
        status = server.client().status()
        disk = {"journal": server.disk_bytes("journal"),
                "ledger": server.disk_bytes("traces")}
        check_window(traced, server, seed)
    finally:
        traced_graceful = server.stop()
        server.remove_data()
    for window, graceful in ((plain, plain_graceful),
                             (traced, traced_graceful)):
        if not graceful:
            window.problems.append("server did not shut down gracefully")
    table = layers.analyse(spans_dir, traced, status, disk)
    shutil.rmtree(spans_dir, ignore_errors=True)
    plain_p50 = percentile(plain.latencies(), 0.5)
    traced_p50 = percentile(traced.latencies(), 0.5)
    table.metrics["trace.overhead_ratio"] = traced_p50 / plain_p50
    attempted = (plain.attempted + plain.refused
                 + traced.attempted + traced.refused)
    failed = failures(plain) + failures(traced)
    traced.problems.extend(plain.problems)
    return traced, attempted, failed, table


# -- fingerprint and report ----------------------------------------------


def fingerprint(workload, seed, pool_mode):
    """What a result was measured on; comparisons refuse a mismatch."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "workers": WORKERS,
        "pool_mode": pool_mode,
        "workload": workload,
        "seed": seed,
    }


def source_revision():
    """``(git_rev, src_digest)``: the commit when the checkout is a git
    work tree, and a digest of the ``src/`` files either way."""
    rev = None
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                ref = handle.read().strip()
        rev = ref
    except OSError:
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return rev, digest.hexdigest()[:16]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result here")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # A fixed string hash seed, for this client as for the server:
        # a random one alone moves the figures by several percent.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print("servebench: no repro sources under %s/src" % ROOT,
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    # SIGTERM unwinds like an exception, so every server tree started
    # below is still stopped by its ``finally``.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.workload not in WORKLOADS:
        print("servebench: unknown workload %r (one of: %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    scratch_root = os.path.join(ROOT, SCRATCH)
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=scratch_root)
    try:
        if args.trace:
            window, attempted, failed, table = measure_traced(
                workload, args.seed, args.seconds, scratch)
            metrics = table.metrics
            units = table.units
            report = table.report()
            notes = table.notes
        else:
            window, attempted, failed, metrics, notes = measure(
                workload, args.seed, args.seconds, scratch)
            units = dict(END_TO_END)
            report = "\n".join(
                "  %-20s %14.6g %s" % (name, metrics[name], unit)
                for name, unit in END_TO_END)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass

    for name, value in metrics.items():
        if not math.isfinite(value):
            window.problems.append("%s was not measured" % name)
            metrics[name] = None  # JSON has no NaN
    git_rev, src_digest = source_revision()
    result = {
        "fingerprint": fingerprint(args.workload, args.seed,
                                   notes.get("pool_mode")),
        "git_rev": git_rev,
        "src_digest": src_digest,
        "trace": args.trace,
        "seconds": args.seconds,
        "notes": notes,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "problems": window.problems[:50],
    }
    correct = not window.problems and failed == 0
    print("servebench %s seed=%d trace=%d  (%s)" % (
        args.workload, args.seed, args.trace,
        ", ".join("%s=%s" % item for item in result["fingerprint"].items()
                  if item[0] not in ("workload", "seed"))))
    print("  src %s%s" % (src_digest,
                          ", git %s" % git_rev[:12] if git_rev else ""))
    print(report)
    print("  " + ", ".join("%s=%s" % (k, _short(v))
                           for k, v in sorted(notes.items())))
    for problem in window.problems[:20]:
        print("  CHECK FAILED: %s" % problem)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
    wanted = _wanted_metrics(args.trace)
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: result["metrics"][name] for name in wanted
                    if name in result["metrics"]},
    }))
    return 0 if correct else 1


def _short(value):
    if isinstance(value, float):
        return "%.4g" % value
    if isinstance(value, list):
        return "[%s]" % ", ".join(_short(v) for v in value)
    return str(value)


def _wanted_metrics(trace):
    """The metric names BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [entry["name"]
            for entry in spec["per_layer" if trace else "end_to_end"]]


if __name__ == "__main__":
    sys.exit(main())
