"""Traced entry point of ``eclc serve`` for the per-layer benchmark run.

Run as ``python servebench/launcher.py serve ...`` with
``SERVEBENCH_SPANS=<dir>``.  At import it wraps the public functions of
each serve layer in timing spans, then (as ``__main__``) enters the
shipped ``repro.cli`` ``serve`` command unchanged.  The server spawns
its worker children with the ``spawn`` start method, which re-imports
this file as ``__mp_main__`` in every child, so the same wrappers run
inside them.

Each process keeps its spans in memory — ``(id, parent, name, start,
end, key)`` on the system-wide monotonic clock — plus counters and
summed timers bucketed into 10 ms slots, so the benchmark can cut out
its timed window afterwards.  A process writes everything to
``<dir>/spans-<pid>.json`` when it ends: the server after the CLI
returns, a child when the pool's graceful ``exit`` ends its loop.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

#: Counter and timer slots per second (10 ms slots).
SLOTS_PER_S = 100

_now = time.monotonic
_spans = []
_ids = itertools.count(1)
_local = threading.local()
_lock = threading.Lock()
_counts = {}
_timers = {}


def _stack():
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def count(name, n=1):
    slot = (name, int(_now() * SLOTS_PER_S))
    with _lock:
        _counts[slot] = _counts.get(slot, 0) + n


def _add_time(name, seconds):
    slot = (name, int(_now() * SLOTS_PER_S))
    with _lock:
        _timers[slot] = _timers.get(slot, 0.0) + seconds


def record(name, start, end, key=None, detached=False):
    """A span with no children, parented to the active span
    (``detached``: to none — a wait that began before that span)."""
    stack = _stack()
    parent = stack[-1] if stack and not detached else 0
    _spans.append((next(_ids), parent, name, start, end, key))


def timed(name, fn, key=None, after=None):
    """Wrap ``fn`` in a span; ``key(args)`` labels it, ``after(result,
    args)`` runs once it returned (for counters)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        sid = next(_ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _now()
            stack.pop()
            _spans.append((sid, parent, name, start, end,
                           key(args) if key is not None else None))
        if after is not None:
            after(result, args)
        return result
    return wrapper


def counted(name, fn, amount=None):
    """Wrap ``fn`` to count calls (or ``amount(result, args)``)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        count(name, 1 if amount is None else amount(result, args))
        return result
    return wrapper


def _timed_stream(fn):
    """``Batch.stream`` yields as results land: each wait for the next
    row is a ``api.stream_wait`` span, so the handler's self time is
    its own work only."""
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        rows = fn(self, *args, **kwargs)
        while True:
            start = _now()
            try:
                row = next(rows)
            except StopIteration:
                record("api.stream_wait", start, _now(), self.id)
                return
            record("api.stream_wait", start, _now(), self.id)
            yield row
    return wrapper


class _TimedJson:
    """Stand-in for the ledger module's ``json``: ``dumps`` sums its
    time per slot (one call per instant is too many for spans)."""

    def __init__(self, module):
        self._module = module

    def dumps(self, *args, **kwargs):
        start = _now()
        text = self._module.dumps(*args, **kwargs)
        _add_time("ledger.encode", _now() - start)
        return text

    def __getattr__(self, name):
        return getattr(self._module, name)


def _method(cls, name, wrap):
    setattr(cls, name, wrap(getattr(cls, name)))


def install(child):
    """Wrap every measured layer function (``child``: this process is
    a spawned worker child)."""
    from repro import engines
    from repro.farm import jobs, ledger, worker
    from repro.pipeline import cache, pipeline
    from repro.runtime import native
    from repro.serve import api, journal, pool, procworker, queue, service

    # serve.api
    _method(api.ServeHandler, "handle",
            lambda f: timed("api.http", f))
    _method(api.ServeHandler, "do_POST",
            lambda f: timed("api.post", f))
    _method(api.ServeHandler, "do_GET",
            lambda f: timed("api.get", f,
                            key=lambda a: a[0].path.split("?")[0]))
    api.result_line = timed("api.result_line", api.result_line)
    _method(service.Batch, "stream", _timed_stream)

    # farm.spec, as the service calls it
    service.load_designs = timed("spec.load_designs", service.load_designs)
    service.expand_document = timed(
        "spec.expand", service.expand_document,
        after=lambda jobs_, a: count("spec.jobs_expanded", len(jobs_)))

    # serve.service
    _method(service.SimulationService, "submit",
            lambda f: timed("service.submit", f,
                            after=lambda b, a: count("service.batches")))
    _method(service.SimulationService, "_execute_entry",
            lambda f: timed("service.execute", f))
    _method(service.SimulationService, "_record_result",
            lambda f: timed("service.record", f))
    _method(service.SimulationService, "_dispatch_job",
            lambda f: counted("queue.dispatches", f))
    _method(service.SimulationService, "_dispatch_sweep",
            lambda f: counted("queue.dispatches", f))

    # serve.journal
    for kind in ("admit", "row", "end"):
        _method(journal.BatchJournal, kind,
                lambda f, kind=kind: timed("journal." + kind, f))

    # serve.queue: put_batch -> get is one entry's wait
    _method(queue.JobQueue, "put_batch",
            lambda f: timed("queue.put_batch", f))

    def _waited(entries):
        now = _now()
        for entry in entries:
            record("queue.wait", entry.admitted_at, now, detached=True)

    def _get(f):
        @functools.wraps(f)
        def wrapper(self, *args, **kwargs):
            entry = f(self, *args, **kwargs)
            if entry is not None:
                _waited([entry])
            return entry
        return wrapper

    def _take(f):
        @functools.wraps(f)
        def wrapper(self, entry, match, limit):
            start = _now()
            taken = f(self, entry, match, limit)
            record("queue.take_matching", start, _now())
            _waited(taken)
            count("queue.fused_jobs", 1 + len(taken))
            count("queue.fusion_calls")
            return taken
        return wrapper

    _method(queue.JobQueue, "get", _get)
    _method(queue.JobQueue, "take_matching", _take)

    # serve.pool
    _method(pool.WorkerProcess, "run", lambda f: timed("pool.roundtrip", f))
    decode = jobs.SimResult.__dict__["from_dict"].__func__
    jobs.SimResult.from_dict = classmethod(
        timed("pool.row_decode", decode))

    # farm.worker and farm.jobs
    _method(worker.WorkerState, "run_job",
            lambda f: timed("worker.run_job", f,
                            key=lambda a: a[1].index))
    _method(worker.WorkerState, "run_sweep",
            lambda f: timed("worker.run_sweep", f))
    _method(worker.WorkerState, "vector_reactor",
            lambda f: timed("worker.bind", f))
    _method(engines.Engine, "build", lambda f: timed("worker.bind", f))
    job_id = jobs.SimJob.job_id.fget
    jobs.SimJob.job_id = property(counted("jobs.job_id_calls", job_id))
    if child:
        _method(jobs.SimResult, "to_dict",
                lambda f: timed("worker.row_encode", f))

    # pipeline
    _method(pipeline.Pipeline, "compile_text",
            lambda f: counted("pipeline.compiles",
                              timed("pipeline.compile_text", f)))
    for stage in ("efsm", "native_code", "trace_driver", "vector_code"):
        _method(pipeline.ModuleHandle, stage,
                lambda f, stage=stage: timed("pipeline." + stage, f))

    def _cache_get(f):
        @functools.wraps(f)
        def wrapper(self, key):
            artifact = f(self, key)
            count("pipeline.cache_calls")
            if artifact is not None:
                count("pipeline.cache_hits")
            return artifact
        return wrapper

    _method(cache.ArtifactCache, "get", _cache_get)

    # runtime.native
    _method(native.NativeReactor, "run_trace",
            lambda f: timed("native.drive", f,
                            after=lambda r, a: count("native.reactions",
                                                     len(r))))
    _method(native.NativeReactor, "__init__",
            lambda f: counted("native.reactor_builds", f))

    # runtime.vector (optional: numpy may be absent)
    try:
        from repro.runtime.vector import reactor as vreactor, vrandom
    except ImportError:
        pass
    else:
        def _lanes(outcome, args):
            count("vector.lanes", len(outcome.instants))
            count("vector.reactions", sum(outcome.instants))

        _method(vreactor.VectorReactor, "run_specs",
                lambda f: timed("vector.run_specs", f, after=_lanes))
        _method(vrandom.VecRandom, "__init__",
                lambda f: timed("vector.seed", f))

    # farm.ledger
    _method(ledger.TraceLedger, "put",
            lambda f: timed("ledger.put", f,
                            after=lambda r, a: count("ledger.instants",
                                                     len(a[2]))))
    ledger.json = _TimedJson(json)

    # the child's request loop: write the spans when it ends
    if child:
        loop = procworker.child_main

        @functools.wraps(loop)
        def child_main(conn, config):
            try:
                return loop(conn, config)
            finally:
                dump("child")

        procworker.child_main = child_main


def dump(role):
    """Write this process's spans, counters and timers."""
    folder = os.environ.get("SERVEBENCH_SPANS")
    if not folder:
        return
    with _lock:
        counts = sorted(_counts.items())
        timers = sorted(_timers.items())
    payload = {
        "pid": os.getpid(),
        "role": role,
        "spans": list(_spans),
        "counts": [[name, slot, n] for (name, slot), n in counts],
        "timers": [[name, slot, s] for (name, slot), s in timers],
    }
    path = os.path.join(folder, "spans-%d.json" % os.getpid())
    with open(path + ".tmp", "w") as handle:
        json.dump(payload, handle, separators=(",", ":"))
    os.replace(path + ".tmp", path)


if __name__ == "__mp_main__":
    install(child=True)

if __name__ == "__main__":
    install(child=False)
    from repro.cli import main

    try:
        status = main(sys.argv[1:])
    finally:
        dump("server")
    sys.exit(status)
