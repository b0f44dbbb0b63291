"""Per-layer metrics from the spans of a traced run.

Two views of the same spans, both cut to the client's timed window:

* **layer metrics** — each layer's busy (self) time, counts and ratios,
  named after the module that does the work (``api.*``, ``spec.*``,
  ``journal.*``, ``queue.*``, ``pool.*``, ``worker.*``, ``pipeline.*``,
  ``native.*``, ``vector.*``, ``ledger.*``) plus the client's own view;
* **wall shares** — the window's wall time split between the shares
  the ROADMAP names.  Each instant of the window goes to the work spans
  running then (split evenly when several processes work at once);
  instants with no work go to the pool round trip or queue wait when one
  is open, else to ``untracked``.  The rows therefore add up to the
  window's wall time exactly; the table shows them per batch.

A span's self time is its duration minus the time its child spans
(same process and thread) cover.
"""

from __future__ import annotations

import glob
import json
import os

from harness import percentile

#: Must match the launcher's counter slots.
SLOTS_PER_S = 100

#: span name -> wall-share row (work spans).
SHARES = {
    "api.http": "HTTP and JSON",
    "api.post": "HTTP and JSON",
    "spec.load_designs": "spec expansion and admission",
    "spec.expand": "spec expansion and admission",
    "service.submit": "spec expansion and admission",
    "queue.put_batch": "spec expansion and admission",
    "journal.admit": "journal append",
    "journal.row": "journal append",
    "journal.end": "journal append",
    "service.execute": "dispatch bookkeeping",
    "service.record": "dispatch bookkeeping",
    "queue.take_matching": "dispatch bookkeeping",
    "worker.run_job": "worker bookkeeping",
    "worker.run_sweep": "worker bookkeeping",
    "worker.bind": "worker bind",
    "pipeline.compile_text": "compile and artifact lookups",
    "pipeline.efsm": "compile and artifact lookups",
    "pipeline.native_code": "compile and artifact lookups",
    "pipeline.trace_driver": "compile and artifact lookups",
    "pipeline.vector_code": "compile and artifact lookups",
    "native.drive": "engine drive",
    "vector.run_specs": "engine drive",
    "vector.seed": "engine seeding",
    "ledger.put": "ledger write",
    "worker.row_encode": "pool IPC and row codec",
    "pool.row_decode": "pool IPC and row codec",
    "api.get": "stream",
    "api.result_line": "stream",
}

#: Wait spans that claim an instant only when no work span runs, in
#: priority order.  ``api.stream_wait`` (a handler waiting for rows)
#: claims nothing: it is idle time.
WAITS = (("pool.roundtrip", "pool IPC and row codec"),
         ("queue.wait", "queue wait"))

ROW_ORDER = (
    "HTTP and JSON", "spec expansion and admission", "journal append",
    "queue wait", "dispatch bookkeeping", "pool IPC and row codec",
    "worker bookkeeping", "worker bind", "compile and artifact lookups",
    "engine seeding", "engine drive", "record encode", "ledger write",
    "stream", "untracked",
)

#: layer metric -> (unit, should move, on workload), in report order.
CATALOG = (
    ("api.http_self_s", "s/batch", "batch_p50_s", "small_batches"),
    ("api.post_self_s", "s/batch", "batch_p50_s, first_row_p50_s",
     "small_batches"),
    ("api.stream_self_s_per_row", "s/row", "batch_p50_s", "native_bulk"),
    ("api.rows_streamed", "count", "-", "all"),
    ("spec.load_designs_s", "s/batch", "batch_p50_s", "small_batches"),
    ("spec.expand_s", "s/batch", "batch_p50_s", "small_batches"),
    ("spec.jobs_expanded", "count", "-", "all"),
    ("service.submit_self_s", "s/batch", "batch_p50_s", "small_batches"),
    ("service.batches_refused", "count", "failed_ratio", "small_batches"),
    ("journal.append_s", "s/batch", "batch_p50_s, cpu_ms_per_job",
     "native_bulk, small_batches"),
    ("journal.appends_per_batch", "count", "cpu_ms_per_job", "native_bulk"),
    ("journal.bytes_per_batch", "bytes", "cpu_ms_per_job", "native_bulk"),
    ("queue.wait_p50_s", "s", "first_row_p50_s", "small_batches"),
    ("queue.wait_p90_s", "s", "batch_p90_s", "small_batches"),
    ("queue.dispatches_per_batch", "count", "batch_p50_s", "vector_sweep"),
    ("queue.fused_jobs_per_dispatch", "jobs", "batch_p50_s",
     "vector_sweep"),
    ("pool.roundtrip_s", "s/dispatch", "batch_p50_s", "native_bulk"),
    ("pool.ipc_s", "s/dispatch", "batch_p50_s, jobs_per_s", "native_bulk"),
    ("pool.child_busy_ratio", "ratio", "jobs_per_s", "native_bulk"),
    ("pool.row_decode_s", "s/batch", "batch_p50_s", "native_bulk"),
    ("pool.proc_crashes", "count", "failed_ratio", "all"),
    ("pool.retries", "count", "failed_ratio", "all"),
    ("worker.run_job_self_s", "s/job", "cpu_ms_per_job", "native_bulk"),
    ("worker.run_sweep_self_s", "s/batch", "cpu_ms_per_job",
     "vector_sweep"),
    ("worker.bind_s", "s/job", "reactions_per_s", "native_bulk"),
    ("jobs.job_id_calls_per_job", "count", "cpu_ms_per_job", "native_bulk"),
    ("pipeline.compile_text_s", "s/batch", "batch_p50_s", "cold_compile"),
    ("pipeline.efsm_s", "s/batch", "batch_p50_s", "cold_compile"),
    ("pipeline.native_code_s", "s/batch", "batch_p50_s", "cold_compile"),
    ("pipeline.trace_driver_s", "s/batch", "batch_p50_s", "cold_compile"),
    ("pipeline.vector_code_s", "s/batch", "batch_p50_s", "cold_compile"),
    ("pipeline.setup_compile_s", "s", "setup_s", "all"),
    ("pipeline.cache_hit_ratio", "ratio", "setup_s", "all"),
    ("pipeline.compiles_per_revision", "count", "batch_p50_s",
     "cold_compile"),
    ("native.drive_s", "s/job", "reactions_per_s", "native_bulk"),
    ("native.reactions_per_drive_s", "reactions/s", "reactions_per_s",
     "native_bulk"),
    ("native.reactor_builds_per_job", "count", "reactions_per_s",
     "native_bulk"),
    ("engine.drive_s_per_job", "s/job", "reactions_per_s", "all"),
    ("engine.reactions_per_drive_s", "reactions/s", "reactions_per_s",
     "all"),
    ("vector.run_specs_s", "s/batch", "reactions_per_s, batch_p50_s",
     "vector_sweep"),
    ("vector.lanes_per_call", "lanes", "reactions_per_s", "vector_sweep"),
    ("vector.seed_s", "s/batch", "batch_p50_s", "vector_sweep"),
    ("ledger.put_s", "s/job", "reactions_per_s, cpu_ms_per_job",
     "native_bulk, vector_sweep"),
    ("ledger.encode_s", "s/job", "cpu_ms_per_job", "native_bulk"),
    ("ledger.puts_per_job", "count", "cpu_ms_per_job", "native_bulk"),
    ("ledger.bytes_per_instant", "bytes", "cpu_ms_per_job", "native_bulk"),
    ("client.post_s", "s/batch", "-", "all"),
    ("client.stream_s", "s/batch", "-", "all"),
    ("trace.batch_p50_s", "s", "-", "all"),
    ("trace.overhead_ratio", "ratio", "-", "all"),
)


def share_name(row):
    """Metric name of one wall-share row."""
    words = row.lower().replace(" and ", " ").split()
    return "share.%s_s" % "_".join(words)


class Table:
    """Layer metrics, wall shares and notes of one traced window."""

    def __init__(self):
        self.metrics = {}
        self.units = {name: unit for name, unit, _m, _o in CATALOG}
        self.shares = {}
        self.notes = {}

    def report(self):
        lines = ["  layer metrics (traced window)",
                 "  %-32s %14s %-12s %-30s %s" % (
                     "metric", "value", "unit", "should move", "on")]
        for name, unit, moves, on in CATALOG:
            value = self.metrics.get(name)
            lines.append("  %-32s %14.6g %-12s %-30s %s" % (
                name, float("nan") if value is None else value, unit,
                moves, on))
        batches = self.notes["batches"]
        wall = self.notes["window_s"] / batches
        lines.append("  wall shares per batch (window %.3f s / %d batches"
                     " = %.6f s)" % (self.notes["window_s"], batches, wall))
        total = 0.0
        for row in ROW_ORDER:
            seconds = self.shares.get(row, 0.0) / batches
            total += seconds
            lines.append("  %-32s %14.6f s %6.1f%%" % (
                row, seconds, 100.0 * seconds / wall))
        lines.append("  %-32s %14.6f s  (rows incl. untracked)" % (
            "sum", total))
        return "\n".join(lines)


def _quantile0(values, q):
    return percentile(values, q) if values else 0.0


def _load(folder):
    processes = []
    for path in sorted(glob.glob(os.path.join(folder, "spans-*.json"))):
        with open(path) as handle:
            processes.append(json.load(handle))
    return processes


def _self_segments(spans):
    """``(span, [(start, end), ...])`` for each span: its interval
    minus its children's."""
    children = {}
    for span in spans:
        if span[1]:
            children.setdefault(span[1], []).append(span)
    for span in spans:
        segments, cursor = [], span[3]
        for child in sorted(children.get(span[0], ()), key=lambda c: c[3]):
            if child[3] > cursor:
                segments.append((cursor, child[3]))
            cursor = max(cursor, child[4])
        if span[4] > cursor:
            segments.append((cursor, span[4]))
        yield span, segments


def _partition(work, waits, start, end):
    """Wall seconds per share row over ``[start, end]``."""
    events = []
    for label, (a, b) in work:
        a, b = max(a, start), min(b, end)
        if b > a:
            events.append((a, 1, 0, label))
            events.append((b, -1, 0, label))
    for label, (a, b) in waits:
        a, b = max(a, start), min(b, end)
        if b > a:
            events.append((a, 1, 1, label))
            events.append((b, -1, 1, label))
    events.sort(key=lambda e: (e[0], e[1]))
    active = ({}, {})
    shares = {}
    priority = [label for _name, label in WAITS]
    cursor = start
    for time_, delta, tier, label in events + [(end, 0, 0, None)]:
        span = time_ - cursor
        if span > 0:
            working = active[0]
            total = sum(working.values())
            if total:
                for name, n in working.items():
                    shares[name] = shares.get(name, 0.0) + span * n / total
            else:
                waiting = [p for p in priority if active[1].get(p)]
                name = waiting[0] if waiting else "untracked"
                shares[name] = shares.get(name, 0.0) + span
            cursor = time_
        if label is not None:
            counts = active[tier]
            counts[label] = counts.get(label, 0) + delta
            if not counts[label]:
                del counts[label]
    return shares


def analyse(folder, window, status, disk):
    """The :class:`Table` of one traced window."""
    start, end = window.start, window.end
    batches = max(1, len(window.batches))
    rows = max(1, window.rows)
    first, last = int(start * SLOTS_PER_S), int(end * SLOTS_PER_S)
    table = Table()
    processes = _load(folder)
    children = [p for p in processes if p["role"] == "child"]

    busy = {}            # name -> self seconds inside the window
    total = {}           # name -> inclusive seconds inside the window
    calls = {}           # name -> spans inside the window
    setup_compile = 0.0  # pipeline self time before the window
    waits_queue = []
    work, waits = [], []
    child_top = 0.0
    for process in processes:
        spans = [tuple(s) for s in process["spans"]]
        for span, segments in _self_segments(spans):
            name, a, b = span[2], span[3], span[4]
            if name.startswith("pipeline.") and b <= start:
                setup_compile += sum(y - x for x, y in segments)
            if not (start <= a <= end):
                continue
            own = sum(min(y, end) - max(x, start) for x, y in segments
                      if min(y, end) > max(x, start))
            busy[name] = busy.get(name, 0.0) + own
            total[name] = total.get(name, 0.0) + (min(b, end) - a)
            calls[name] = calls.get(name, 0) + 1
            if name == "queue.wait":
                waits_queue.append(b - a)
            if (process["role"] == "child" and not span[1]
                    and name in ("worker.run_job", "worker.run_sweep")):
                child_top += min(b, end) - a
            if name in SHARES:
                work.extend((SHARES[name], seg) for seg in segments)
            for wait_name, label in WAITS:
                if name == wait_name:
                    waits.append((label, (a, b)))

    def counted(name, lifetime=False, role=None):
        n = 0
        for process in processes:
            if role and process["role"] != role:
                continue
            for cname, slot, value in process["counts"]:
                if cname == name and (lifetime or first <= slot <= last):
                    n += value
        return n

    encode = 0.0
    for process in processes:
        for tname, slot, seconds in process["timers"]:
            if tname == "ledger.encode" and first <= slot <= last:
                encode += seconds

    shares = _partition(work, waits, start, end)
    # Split the ledger's wall share into record encode and the write.
    ledger_share = shares.pop("ledger write", 0.0)
    ledger_busy = busy.get("ledger.put", 0.0)
    encoded = ledger_share * min(1.0, encode / ledger_busy) \
        if ledger_busy else 0.0
    shares["record encode"] = encoded
    shares["ledger write"] = ledger_share - encoded
    table.shares = shares

    dispatches = counted("queue.dispatches")
    reactions = counted("native.reactions")
    drive = busy.get("native.drive", 0.0) + busy.get("vector.run_specs", 0.0)
    instants = counted("ledger.instants", lifetime=True)
    lookups = counted("pipeline.cache_calls", lifetime=True)
    metric = table.metrics
    metric.update({
        "api.http_self_s": busy.get("api.http", 0.0) / batches,
        "api.post_self_s": busy.get("api.post", 0.0) / batches,
        "api.stream_self_s_per_row": (busy.get("api.get", 0.0)
                                      + busy.get("api.result_line", 0.0))
        / rows,
        "api.rows_streamed": calls.get("api.result_line", 0),
        "spec.load_designs_s": busy.get("spec.load_designs", 0.0) / batches,
        "spec.expand_s": busy.get("spec.expand", 0.0) / batches,
        "spec.jobs_expanded": counted("spec.jobs_expanded"),
        "service.submit_self_s": busy.get("service.submit", 0.0) / batches,
        "service.batches_refused": status["queue"].get("rejected", 0)
        + window.refused,
        "journal.append_s": sum(busy.get("journal." + k, 0.0)
                                for k in ("admit", "row", "end")) / batches,
        "journal.appends_per_batch": sum(calls.get("journal." + k, 0)
                                         for k in ("admit", "row", "end"))
        / batches,
        "journal.bytes_per_batch": disk["journal"] / (batches + 1),
        "queue.wait_p50_s": _quantile0(waits_queue, 0.5),
        "queue.wait_p90_s": _quantile0(waits_queue, 0.9),
        "queue.dispatches_per_batch": dispatches / batches,
        "queue.fused_jobs_per_dispatch": rows / max(1, dispatches),
        "pool.roundtrip_s": total.get("pool.roundtrip", 0.0)
        / max(1, calls.get("pool.roundtrip", 0)),
        "pool.ipc_s": (total.get("pool.roundtrip", 0.0) - child_top)
        / max(1, calls.get("pool.roundtrip", 0)),
        "pool.child_busy_ratio": child_top
        / (max(1, len(children)) * (end - start)),
        "pool.row_decode_s": busy.get("pool.row_decode", 0.0) / batches,
        "pool.proc_crashes": status["pool"].get("proc_crashes", 0),
        "pool.retries": status["queue"].get("requeued", 0),
        "worker.run_job_self_s": busy.get("worker.run_job", 0.0) / rows,
        "worker.run_sweep_self_s": busy.get("worker.run_sweep", 0.0)
        / batches,
        "worker.bind_s": busy.get("worker.bind", 0.0) / rows,
        "jobs.job_id_calls_per_job": counted("jobs.job_id_calls") / rows,
        "pipeline.setup_compile_s": setup_compile,
        "pipeline.cache_hit_ratio": counted("pipeline.cache_hits",
                                            lifetime=True) / max(1, lookups),
        "pipeline.compiles_per_revision": counted("pipeline.compiles",
                                                  role="child") / batches,
        "native.drive_s": busy.get("native.drive", 0.0) / rows,
        "native.reactions_per_drive_s": reactions
        / max(1e-9, busy.get("native.drive", 0.0)),
        "native.reactor_builds_per_job": counted("native.reactor_builds")
        / rows,
        "engine.drive_s_per_job": drive / rows,
        "engine.reactions_per_drive_s": (reactions
                                         + counted("vector.reactions"))
        / max(1e-9, drive),
        "vector.run_specs_s": busy.get("vector.run_specs", 0.0) / batches,
        "vector.lanes_per_call": counted("vector.lanes")
        / max(1, calls.get("vector.run_specs", 0)),
        "vector.seed_s": busy.get("vector.seed", 0.0) / batches,
        "ledger.put_s": busy.get("ledger.put", 0.0) / rows,
        "ledger.encode_s": encode / rows,
        "ledger.puts_per_job": calls.get("ledger.put", 0) / rows,
        "ledger.bytes_per_instant": disk["ledger"] / max(1, instants),
        "client.post_s": sum(b[2] - b[1] for b in window.batches) / batches,
        "client.stream_s": sum(b[4] - b[2] for b in window.batches)
        / batches,
        "trace.batch_p50_s": _quantile0(window.latencies(), 0.5),
    })
    for stage in ("compile_text", "efsm", "native_code", "trace_driver",
                  "vector_code"):
        metric["pipeline.%s_s" % stage] = busy.get(
            "pipeline." + stage, 0.0) / batches
    for row in ROW_ORDER:
        name = share_name(row)
        metric[name] = shares.get(row, 0.0) / batches
        table.units[name] = "s/batch"
    table.notes = {
        "batches": len(window.batches),
        "rows": window.rows,
        "window_s": end - start,
        "processes": len(processes),
        "pool_mode": status["pool"].get("mode"),
        "spans": sum(len(p["spans"]) for p in processes),
    }
    return table

