"""SimulationFarm: shard simulation jobs across worker processes.

The farm turns a list of :class:`~repro.farm.jobs.SimJob` into a
:class:`FarmReport`::

    farm = SimulationFarm({"stack": STACK_SOURCE}, workers=8)
    report = farm.run(jobs)
    print(report.summary())

Two ways to run a batch:

* ``workers<=1`` (after clamping to the job count) runs inline in the
  calling process through one kept :class:`WorkerState` — the serial
  baseline of ``benchmarks/bench_farm_throughput.py`` and the
  deterministic path unit tests use;
* otherwise the batch runs on the serving layer's
  :class:`~repro.serve.pool.WorkerPool` in process mode: spawned
  children, dispatch groups formed by the service's own rule
  (:func:`~repro.serve.service.take_group`), rows streamed back as
  each job finishes, and the pool's fault model — a lost child is
  respawned and its job retried with backoff, a storage fault retries
  the same way, and a job whose retries run out becomes one
  ``quarantined:`` error row.  Children compile for themselves, warm
  from ``cache_dir`` when one is given; trace persistence happens
  child-side, so records never cross the process boundary.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from .. import telemetry
from ..errors import EclError
from .jobs import SimResult
from .worker import WorkerState

#: Upper bound on the default worker count.
DEFAULT_MAX_WORKERS = 8


@dataclass
class FarmReport:
    """Structured outcome of one farm batch."""

    results: List[SimResult] = field(default_factory=list)
    elapsed: float = 0.0
    workers: int = 1
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
            "farm: %d job(s) over %d design(s), %d worker(s)"
            % (self.total, self.designs, self.workers),
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
        cache_dir=None,
    ):
        """``designs`` maps batch labels to ECL source text;
        ``ledger_root=None`` disables trace persistence;
        ``cache_dir`` enables the persistent shared artifact cache
        (EFSMs, native code and trace drivers survive the batch, so
        pooled children and future runs warm-start)."""
        self.designs = dict(designs)
        self.options = options
        self.ledger_root = ledger_root
        self.workers = workers
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
        started = perf_counter()
        if workers <= 1:
            if self._inline_state is None:
                self._inline_state = WorkerState(
                    self.designs,
                    options=self.options,
                    ledger_root=self.ledger_root,
                    cache_dir=self.cache_dir,
                )
            # run_jobs (not a per-job loop): a wide, record-free round
            # of vector jobs sweeps as one numpy sweep here.
            with telemetry.span("farm.run", mode="inline"):
                results = self._inline_state.run_jobs(jobs)
        else:
            with telemetry.span("farm.run", mode="pool"):
                results = self._run_pool(jobs, workers)
        results.sort(key=lambda result: result.index)
        return FarmReport(
            results=results,
            elapsed=perf_counter() - started,
            workers=workers,
            designs=len({job.design for job in jobs}),
            ledger_root=self.ledger_root,
        )

    # ------------------------------------------------------------------

    def _worker_count(self, job_count):
        workers = self.workers
        if workers is None:
            workers = min(DEFAULT_MAX_WORKERS, os.cpu_count() or 1)
        return max(1, min(workers, max(1, job_count)))

    def _run_pool(self, jobs, workers):
        """Run ``jobs`` on ``workers`` spawned serve-pool children and
        return one result per job, in job order.  Jobs with equal ids
        (same definition, same index) run once and share the row."""
        # Imported here: the serving layer imports this package.
        from ..serve.pool import WorkerPool
        from ..serve.queue import JobQueue
        from ..serve.service import Batch, quarantine_result, take_group

        unique = list({job.job_id: job for job in jobs}.values())
        batch = Batch("farm", None, unique)
        queue = JobQueue()
        queue.put_batch(unique, batch=batch, force=True)

        def execute_group(group, worker, visit, settled):
            def on_rows(pairs):
                for position, row in pairs:
                    batch.add_result(SimResult.from_dict(row))
                    settled(group[position])
                    if position + 1 < len(group):
                        visit(group[position + 1])

            design = group[0].job.design
            visit(group[0])
            worker.run(
                None,
                {design: self.designs[design]},
                [member.job for member in group],
                on_rows,
            )

        def on_dead_job(entry, error):
            batch.add_result(quarantine_result(entry, error))

        # What each child builds: this farm's state over the root
        # ledger index, escalating storage faults to pool retries.
        factory = functools.partial(
            WorkerState,
            {},
            options=self.options,
            ledger_root=self.ledger_root,
            cache_dir=self.cache_dir,
            raise_storage_errors=True,
        )
        pool = WorkerPool(
            queue,
            on_dead_job=on_dead_job,
            workers=workers,
            mode="process",
            execute_group=execute_group,
            take_group=functools.partial(take_group, queue),
            process_config={"worker_state": factory},
        )
        pool.start()
        try:
            batch.wait()
        finally:
            # Empty on success; after an interrupt, stop dispatching.
            queue.drain()
            queue.close()
            pool.join(timeout=10.0)
        by_id = {result.job_id: result for result in batch.results}
        return [by_id[job.job_id] for job in jobs]
