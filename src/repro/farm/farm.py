"""SimulationFarm: shard simulation jobs across worker processes.

The farm turns a list of :class:`~repro.farm.jobs.SimJob` into a
:class:`FarmReport`::

    farm = SimulationFarm({"stack": STACK_SOURCE}, workers=8)
    report = farm.run(jobs)
    print(report.summary())

Dispatch discipline (the part that makes it fast):

* jobs are grouped by design label, then cut into chunks of
  ``chunk_size`` (default: about four chunks per worker), so one
  pickled task carries many jobs and the per-task overhead amortizes;
* the parent compiles every needed (design, module) pair once and
  *adopts* the state before the pool starts: fork-based platforms hand
  every worker the compiled artifacts copy-on-write, spawn-based ones
  compile once per worker in the pool initializer;
* trace persistence happens worker-side: records never cross the
  process boundary, only compact :class:`SimResult` rows come back;
* ``workers<=1`` (or a single chunk) short-circuits to inline
  execution in the calling process — the serial baseline of
  ``benchmarks/bench_farm_throughput.py`` and the deterministic path
  unit tests use.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from .. import telemetry
from ..engines import get_engine
from ..errors import EclError
from . import worker as worker_mod
from .jobs import SimResult
from .worker import WorkerState

#: Upper bound on the default worker count.
DEFAULT_MAX_WORKERS = 8

#: Target number of chunks handed to each worker (keeps the pool fed
#: even when job durations are skewed, without per-job dispatch cost).
CHUNKS_PER_WORKER = 4


@dataclass
class FarmReport:
    """Structured outcome of one farm batch."""

    results: List[SimResult] = field(default_factory=list)
    elapsed: float = 0.0
    workers: int = 1
    chunks: int = 1
    designs: int = 0
    ledger_root: Optional[str] = None

    @property
    def total(self):
        return len(self.results)

    @property
    def ok(self):
        return all(result.ok for result in self.results)

    @property
    def reactions(self):
        """Total instants executed across the batch."""
        return sum(result.instants for result in self.results)

    @property
    def reactions_per_sec(self):
        if self.elapsed <= 0:
            return 0.0
        return self.reactions / self.elapsed

    def kernel_stats(self) -> Dict[str, int]:
        """Summed RTOS kernel counters across the batch's rtos jobs
        (empty when no job carried stats) — the paper's task-vs-RTOS
        accounting at farm scale."""
        totals: Dict[str, int] = {}
        for result in self.results:
            if result.kernel_stats:
                for key, value in result.kernel_stats.items():
                    totals[key] = totals.get(key, 0) + value
        return totals

    @property
    def divergences(self):
        return [result for result in self.results if result.divergence is not None]

    @property
    def errors(self):
        return [result for result in self.results if result.status == "error"]

    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for result in self.results:
            counts[result.status] = counts.get(result.status, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self, volatile=True):
        """Stable JSON-clean dict of the whole report.  ``volatile``
        is forwarded to each result's
        :meth:`~repro.farm.jobs.SimResult.to_dict`; with
        ``volatile=False`` the per-result rows are the reproducible
        payload the serving API streams."""
        payload = {
            "total": self.total,
            "ok": self.ok,
            "workers": self.workers,
            "chunks": self.chunks,
            "designs": self.designs,
            "reactions": self.reactions,
            "status_counts": self.status_counts(),
            "kernel_stats": self.kernel_stats() or None,
            "results": [
                result.to_dict(volatile=volatile) for result in self.results
            ],
        }
        if volatile:
            payload["elapsed"] = self.elapsed
            payload["reactions_per_sec"] = self.reactions_per_sec
            payload["ledger_root"] = self.ledger_root
        return payload

    def as_dict(self):
        return self.to_dict()

    def summary(self, verbose=False):
        counts = ", ".join("%s=%d" % item for item in self.status_counts().items())
        lines = [
            "farm: %d job(s) over %d design(s), %d worker(s), %d chunk(s)"
            % (self.total, self.designs, self.workers, self.chunks),
            "      %d reactions in %.2f s (%.0f reactions/sec)  [%s]"
            % (
                self.reactions,
                self.elapsed,
                self.reactions_per_sec,
                counts or "empty",
            ),
        ]
        kernel = self.kernel_stats()
        if kernel:
            lines.append(
                "      rtos: dispatches=%d context_switches=%d posts=%d "
                "self_triggers=%d lost_events=%d"
                % (
                    kernel.get("dispatches", 0),
                    kernel.get("context_switches", 0),
                    kernel.get("posts", 0),
                    kernel.get("self_triggers", 0),
                    kernel.get("lost_events", 0),
                )
            )
        if self.ledger_root:
            lines.append("      ledger: %s" % self.ledger_root)
        failing = [r for r in self.results if not r.ok]
        shown = self.results if verbose else failing
        for result in shown:
            lines.append("  " + result.summary_line())
        return "\n".join(lines)


class SimulationFarm:
    """Batched multi-process execution of simulation jobs."""

    def __init__(
        self,
        designs,
        options=None,
        ledger_root=None,
        workers=None,
        chunk_size=None,
        cache_dir=None,
    ):
        """``designs`` maps batch labels to ECL source text;
        ``ledger_root=None`` disables trace persistence;
        ``cache_dir`` enables the persistent shared code cache (compiled
        artifacts and native bytecode survive the batch, so spawn-based
        workers and future runs warm-start)."""
        self.designs = dict(designs)
        self.options = options
        self.ledger_root = ledger_root
        self.workers = workers
        self.chunk_size = chunk_size
        self.cache_dir = cache_dir
        #: Inline-mode worker state, kept across run() calls so callers
        #: that drive many batches through one farm (verify campaigns
        #: run one per round) reuse compiled builds and resident vector
        #: sweep templates instead of recompiling every batch.
        self._inline_state = None

    def run(self, jobs) -> FarmReport:
        """Execute every job; failures become per-job statuses, the
        batch itself always returns a report."""
        jobs = list(jobs)
        for job in jobs:
            if job.design not in self.designs:
                raise EclError(
                    "job %s names unknown design %r (designs: %s)"
                    % (job.label(), job.design, ", ".join(sorted(self.designs)))
                )
        workers = self._worker_count(len(jobs))
        chunks = self._chunk(jobs, workers)
        started = perf_counter()
        if workers <= 1 or len(chunks) <= 1:
            if self._inline_state is None:
                self._inline_state = WorkerState(
                    self.designs,
                    options=self.options,
                    ledger_root=self.ledger_root,
                    cache_dir=self.cache_dir,
                )
            # run_jobs (not a per-job loop) so the inline path fuses
            # vector jobs into sweeps exactly like a pooled chunk does.
            with telemetry.span("farm.run", mode="inline"):
                results = self._inline_state.run_jobs(jobs)
            workers = 1
        else:
            with telemetry.span("farm.run", mode="pool"):
                results = self._run_pool(jobs, chunks, workers)
        results.sort(key=lambda result: result.index)
        return FarmReport(
            results=results,
            elapsed=perf_counter() - started,
            workers=workers,
            chunks=len(chunks),
            designs=len({job.design for job in jobs}),
            ledger_root=self.ledger_root,
        )

    # ------------------------------------------------------------------

    def _worker_count(self, job_count):
        workers = self.workers
        if workers is None:
            workers = min(DEFAULT_MAX_WORKERS, os.cpu_count() or 1)
        return max(1, min(workers, max(1, job_count)))

    def _chunk(self, jobs, workers):
        """Design-grouped, size-bounded chunks (stable job order
        within each design, so workers replay cache-friendly runs)."""
        if not jobs:
            return []
        size = self.chunk_size
        if size is None:
            size = max(1, -(-len(jobs) // (workers * CHUNKS_PER_WORKER)))
        by_design: Dict[str, List] = {}
        for job in jobs:
            by_design.setdefault(job.design, []).append(job)
        chunks = []
        for design in sorted(by_design):
            design_jobs = by_design[design]
            for start in range(0, len(design_jobs), size):
                chunks.append(design_jobs[start : start + size])
        return chunks

    def _run_pool(self, jobs, chunks, workers):
        # Compile every needed (design, module) pair up front and
        # adopt the state module-wide: fork-based pools then inherit
        # the compiled artifacts copy-on-write, so worker processes
        # start simulating immediately instead of each re-compiling.
        state = WorkerState(
            self.designs,
            options=self.options,
            ledger_root=self.ledger_root,
            cache_dir=self.cache_dir,
        )
        with telemetry.span("farm.precompile"):
            self._precompile(state, jobs)
        worker_mod.adopt(state)
        try:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=worker_mod.initialize,
                initargs=(
                    self.designs,
                    self.options,
                    self.ledger_root,
                    self.cache_dir,
                ),
            ) as pool:
                chunk_counter = telemetry.counter(
                    "ecl_farm_chunks_total",
                    help="Chunks dispatched to pooled workers.",
                )
                chunk_jobs = telemetry.histogram(
                    "ecl_farm_chunk_jobs",
                    help="Jobs per dispatched chunk.",
                    buckets=telemetry.SIZE_BUCKETS,
                )
                chunk_seconds = telemetry.histogram(
                    "ecl_farm_chunk_seconds",
                    help="Chunk round-trip: submit to completed result.",
                )
                collect_seconds = telemetry.histogram(
                    "ecl_farm_collect_seconds",
                    help="Parent-side unmarshal/merge time per chunk.",
                )
                submitted = {}
                futures = []
                for chunk in chunks:
                    future = pool.submit(worker_mod.run_chunk, chunk)
                    submitted[future] = perf_counter()
                    futures.append(future)
                    chunk_counter.inc()
                    chunk_jobs.observe(len(chunk))
                results = []
                for future in as_completed(futures):
                    landed = perf_counter()
                    chunk_seconds.observe(landed - submitted[future])
                    results.extend(future.result())
                    collect_seconds.observe(perf_counter() - landed)
        finally:
            worker_mod.adopt(None)
        return results

    @staticmethod
    def _precompile(state, jobs):
        """Compile every artifact the batch needs into ``state`` (the
        copy-on-write image forked workers inherit): each engine names
        what its jobs bind, once per distinct target."""
        targets = {}
        for job in jobs:
            key = (job.engine, job.design, job.module, job.tasks, job.task_engine)
            targets.setdefault(key, job)
        for job in targets.values():
            try:
                get_engine(job.engine).precompile(state.build(job.design), job)
            except EclError:
                pass  # surfaces per job as a status="error" result
