"""Worker-side execution: one process, one compiled-module cache.

:class:`WorkerState` is what each farm worker process holds: the batch's
design sources, a lazily-populated per-design
:class:`~repro.pipeline.pipeline.DesignBuild` (so each design is
compiled *once per worker* no matter how many of its jobs land there),
and the process's handle on the shared :class:`TraceLedger` directory.

The same class runs on both sides of every pool: inline in the
calling process (the farm's ``workers<=1`` path, the serial baseline
the throughput benchmark compares against, and the service's thread
mode) and inside each spawned worker child of
:mod:`repro.serve.procworker`, which the service and the pooled farm
share.

Vector jobs sweep only where a sweep wins: :meth:`WorkerState.stream`
— the one run loop under both :meth:`~WorkerState.run_jobs` and the
serving worker children — advances a group of at least
:data:`SWEEP_MIN_LANES` vector jobs sharing one
:meth:`~WorkerState.sweep_key` through a single
:meth:`~repro.runtime.vector.VectorReactor.run_specs` call
(:meth:`~WorkerState.run_sweep`).  A job sweeps only when nothing
needs its records: no trace ledger, no properties.  Every other job,
a lone or narrow vector job included, runs per job, vector ones on the
resident native driver; either path yields the same stable row.

Binding is per worker, not per job: a job of a "resident" engine
(native, and vector outside a sweep) checks out an idle bound adapter
for its (design, module, engine), restores it to its just-bound state,
drives it and checks it back in; only a miss binds a new one.  Several
pool threads may share one state, so a checked-out adapter serves one
job at a time.
"""

from __future__ import annotations

import os
import threading
import traceback
from collections import OrderedDict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional

from .. import telemetry
from ..errors import EclError
from ..pipeline import ArtifactCache, Pipeline
from ..pipeline.stages import CompileOptions
from ..engines import get_engine
from .jobs import (
    STATUS_DIVERGED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TERMINATED,
    STATUS_VIOLATED,
    SimResult,
)
from .ledger import TraceLedger, encode_records

#: Fewest record-free vector jobs one numpy sweep carries.  Measured on
#: stack ``toplevel`` (2 vCPU, numpy 2.4): below 128 lanes the resident
#: native driver beat the sweep at every stimulus length.
SWEEP_MIN_LANES = 128

#: Most design builds one worker keeps resident; the least recently
#: used one that no job is running on goes first.  With a disk layer
#: its artifacts leave the cache's memory layer too, and a revisit
#: reloads them from disk; a memory-only cache keeps them under its own
#: LRU bound, so a revisit never recompiles.  Measured on servebench
#: ``cold_compile`` revisions through one tenant's worker (2 vCPU,
#: Python 3.11): 38.9 MB after 90 revisions against 66.0 MB with no
#: bound.  A revisit past the bound costs about 40 ms with a disk layer
#: (mostly compiling the generated code again) and 1.5 ms without one;
#: compiling a revision from source costs about 240 ms.
RESIDENT_BUILDS = 16


class _Bound:
    """What one worker keeps bound from one design build: the vector
    sweep templates (per module) and the idle resident adapters (per
    (module, engine)).  Re-binding the label to new source drops the
    whole object, so nothing bound from the old source serves again —
    an adapter checked out at that moment is checked back in here,
    where no job reaches it."""

    __slots__ = ("build", "vectors", "idle")

    def __init__(self, build):
        self.build = build
        self.vectors: Dict[str, object] = {}
        self.idle: Dict[tuple, List[object]] = {}


class WorkerState:
    """Everything one worker process caches across its jobs."""

    def __init__(
        self,
        designs,
        options=None,
        ledger_root=None,
        cache_dir=None,
        cache=None,
        tenant=None,
        raise_storage_errors=False,
    ):
        #: design label -> ECL source text
        self.designs = dict(designs)
        self.options = options if options is not None else CompileOptions()
        # cache=None: build one from cache_dir (a persistent one holds
        # every EFSM, NativeCode, partition bundle and trace driver, so
        # spawned workers warm-start without re-running codegen);
        # otherwise the caller owns it (the serving layer hands every
        # tenant worker its namespace's ArtifactCache).
        if cache is None:
            if cache_dir:
                cache = ArtifactCache.persistent(cache_dir)
            else:
                cache = ArtifactCache.memory()
        self.cache_dir = cache_dir
        self.tenant = tenant
        #: serving mode: let storage-layer OSErrors (ledger writes)
        #: escape run_job instead of becoming error rows, so the
        #: serving pool's bounded-backoff retry gets a shot at a
        #: transient disk fault before any row is corrupted.  The farm
        #: keeps the old behavior (error rows) — a batch run has no
        #: retry layer above it.
        self.raise_storage_errors = raise_storage_errors
        self.pipeline = Pipeline(options=self.options, cache=cache)
        if ledger_root:
            self.ledger = TraceLedger(ledger_root, tenant=tenant)
        else:
            self.ledger = None
        #: design label -> :class:`_Bound` (its build and what this
        #: worker bound from it), least recently used first.
        self._builds: "OrderedDict[str, _Bound]" = OrderedDict()
        #: design label -> jobs running on its build: a build with
        #: running jobs is never retired.
        self._running: Dict[str, int] = {}
        #: guards ``_builds``, ``_running``, adoption and the idle lists.
        self._lock = threading.Lock()

    # -- serving-layer surface -----------------------------------------

    @classmethod
    def for_tenant(cls, tenant, data_root=None, options=None,
                   raise_storage_errors=True):
        """One tenant's serving worker state over the service's shared
        on-disk layout: a namespaced persistent artifact cache under
        ``<data_root>/artifacts`` and the tenant's ledger shard under
        ``<data_root>/traces`` (both in-memory/absent without a
        ``data_root``).  Used by the service's in-process
        ``TenantSpace`` *and* by spawned serve worker processes, so
        both sides compile and persist through identical paths and a
        job's stable row is byte-identical either way."""
        if data_root:
            cache = ArtifactCache.persistent(
                os.path.join(data_root, "artifacts"), namespace=tenant
            )
            ledger_root = os.path.join(data_root, "traces")
        else:
            cache = ArtifactCache.memory()
            ledger_root = None
        return cls(
            {}, options=options, ledger_root=ledger_root, cache=cache,
            tenant=tenant, raise_storage_errors=raise_storage_errors,
        )

    def adopt_designs(self, designs):
        """Merge a new batch's design sources into this (long-lived)
        worker state.  A label re-bound to *different* source drops the
        stale cached build; identical source keeps the warm build —
        what lets the serving pool reuse compiles across requests.
        Dropping the build drops every reactor bound from it."""
        with self._lock:
            for label, source in designs.items():
                old = self.designs.get(label)
                self.designs[label] = source
                if old is not None and old != source and label in self._builds:
                    self._retire_locked(label)

    # -- compiled-design cache -----------------------------------------

    def _bound(self, design_label) -> _Bound:
        with self._lock:
            bound = self._builds.get(design_label)
            if bound is not None:
                self._builds.move_to_end(design_label)
                return bound
            try:
                source = self.designs[design_label]
            except KeyError:
                raise EclError(
                    "batch has no design labelled %r (designs: %s)"
                    % (design_label, ", ".join(sorted(self.designs)) or "none")
                )
            build = self.pipeline.compile_text(source, filename=design_label)
            bound = self._builds[design_label] = _Bound(build)
            excess = len(self._builds) - RESIDENT_BUILDS
            if excess > 0:
                idle = [label for label in self._builds if label not in self._running]
                for label in idle[:excess]:
                    self._retire_locked(label)
            return bound

    def _retire_locked(self, label):
        """Drop one label's build.  Its artifacts leave the cache's
        memory layer too, unless a job still runs on it (its stage
        lookups would only put them back) or a resident build compiles
        the same source."""
        digest = self._builds.pop(label).build.source_digest
        shared = any(b.build.source_digest == digest for b in self._builds.values())
        if not shared and label not in self._running:
            self.pipeline.cache.release(digest)

    @contextmanager
    def _running_on(self, design_label):
        """Mark one job running on ``design_label``'s build."""
        with self._lock:
            self._running[design_label] = self._running.get(design_label, 0) + 1
        try:
            yield
        finally:
            with self._lock:
                left = self._running.pop(design_label) - 1
                if left:
                    self._running[design_label] = left

    def build(self, design_label):
        """The (cached) DesignBuild for one batch design."""
        return self._bound(design_label).build

    def handles(self, design_label):
        """``module_name -> ModuleHandle`` provider for one design."""
        return self.build(design_label).module

    def vector_reactor(self, design_label, module_name):
        """The (cached) resident sweep template for one (design,
        module) — raises :class:`~repro.errors.EngineUnavailable`
        without numpy, which the job driver turns into per-job error
        results."""
        bound = self._bound(design_label)
        reactor = bound.vectors.get(module_name)
        if reactor is None:
            handle = bound.build.module(module_name)
            reactor = get_engine("vector").reactor(handle)
            bound.vectors[module_name] = reactor
        return reactor

    def _drive(self, job, coverage):
        """Run one scalar job through its engine: on a checked-out
        resident adapter when the engine has one, else binding per
        job.  A job whose records go nowhere but this worker's ledger
        (no properties, no VCD) asks for canonical ledger lines."""
        engine = get_engine(job.engine)
        bound = self._bound(job.design)
        handles = bound.build.module
        lines = (self.ledger is not None and not job.properties
                 and not job.record_vcd)
        if "resident" not in engine.capabilities():
            return engine.run_job(handles, job, coverage, lines=lines)
        key = (job.module, job.engine)
        with self._lock:
            idle = bound.idle.get(key)
            adapter = idle.pop() if idle else None
        if adapter is None:
            adapter = engine.build(handles, job)
        else:
            adapter.restore()
        try:
            return engine.run_job(handles, job, coverage, adapter=adapter,
                                  lines=lines)
        finally:
            # Whatever the drive left behind, the next checkout's
            # restore() undoes it.
            with self._lock:
                bound.idle.setdefault(key, []).append(adapter)

    # -- job execution -------------------------------------------------

    def sweep_key(self, job):
        """The sweep key of a job that may share a numpy sweep (None =
        it runs per job).

        Jobs sharing a key differ only in index and seed, so one
        :meth:`run_sweep` drives them all.  A job sweeps only when
        nothing consumes its records — this worker keeps no ledger and
        the job checks no properties — and when its stimulus is random:
        a vector job with an explicit stimulus or a task list runs per
        job, which is observably identical."""
        if self.ledger is not None or job.properties or job.tasks:
            return None
        if "vector_sweep" not in get_engine(job.engine).capabilities():
            return None
        if job.stimulus.kind != "random":
            return None
        return (job.design, job.module, job.stimulus, job.horizon,
                job.collect_coverage)

    def stream(self, jobs):
        """Run ``jobs`` lazily, yielding one list of ``(position,
        result)`` pairs per dispatch unit as soon as it exists: at least
        :data:`SWEEP_MIN_LANES` jobs sharing a :meth:`sweep_key` as one
        sweep (at the position of the first), any other job alone.
        Nothing runs until the next unit is asked for, so a consumer
        can act on job *k*'s row before job *k+1* starts."""
        jobs = list(jobs)
        groups: Dict[object, List[int]] = {}
        for position, job in enumerate(jobs):
            key = self.sweep_key(job)
            if key is not None:
                groups.setdefault(key, []).append(position)
        sweeps = {positions[0]: positions for positions in groups.values()
                  if len(positions) >= SWEEP_MIN_LANES}
        swept = {p for positions in sweeps.values() for p in positions}
        for position, job in enumerate(jobs):
            positions = sweeps.get(position)
            if positions is not None:
                results = self.run_sweep([jobs[p] for p in positions])
                yield list(zip(positions, results))
            elif position not in swept:
                yield [(position, self.run_job(job))]

    def run_jobs(self, jobs):
        """Execute a list of jobs through :meth:`stream`.  Results come
        back in job order; per-job failures become ``status="error"``
        rows exactly as :meth:`run_job` reports them."""
        jobs = list(jobs)
        results: List[Optional[SimResult]] = [None] * len(jobs)
        for pairs in self.stream(jobs):
            for position, result in pairs:
                results[position] = result
        return results

    @staticmethod
    def _observe_result(result):
        """Feed one finished result row into the farm job metrics."""
        telemetry.counter(
            "ecl_farm_jobs_total",
            help="Simulation jobs executed, by engine and status.",
            engine=result.engine, status=result.status,
        ).inc()
        telemetry.histogram(
            "ecl_farm_job_seconds",
            help="Per-job execution wall time by engine.",
            engine=result.engine,
        ).observe(result.elapsed or 0.0)

    def run_job(self, job) -> SimResult:
        """Execute one job to completion; never raises on job failure —
        errors become ``status="error"`` results."""
        with self._running_on(job.design):
            with telemetry.span("farm.job", engine=job.engine):
                result = self._run_job_scalar(job)
        self._observe_result(result)
        return result

    @staticmethod
    def _result(job):
        return SimResult(
            job_id=job.job_id,
            design=job.design,
            module=job.module,
            engine=job.engine,
            index=job.index,
            worker_pid=os.getpid(),
        )

    def _run_job_scalar(self, job) -> SimResult:
        result = self._result(job)
        started = perf_counter()
        try:
            coverage = self._coverage_for(job) if job.collect_coverage else None
            run = self._drive(job, coverage)
            records = run.records
            result.divergence = run.divergence
            result.kernel_stats = run.kernel_stats
            status = STATUS_TERMINATED if run.terminated else STATUS_OK
            if run.divergence is not None:
                status = STATUS_DIVERGED
            if coverage is not None:
                result.coverage = self._coverage_payload(coverage)
            if job.properties:
                violation = self._check_properties(job, records)
                if violation is not None:
                    status = STATUS_VIOLATED
                    result.violation = violation.property_text
                    result.violation_instant = violation.instant
            result.status = status
            result.instants = len(records)
            result.emitted_events = run.emitted_events
            if self.ledger is not None:
                vcd_text = self._render_vcd(job, records)
                lines = records if run.encoded else encode_records(records)
                result.trace_digest, result.trace_path = self.ledger.put(
                    job, lines, vcd_text=vcd_text
                )
        except EclError as error:
            result.status = STATUS_ERROR
            result.error = str(error)
        except OSError:
            if self.raise_storage_errors:
                raise
            result.status = STATUS_ERROR
            result.error = traceback.format_exc(limit=4)
        except Exception:
            result.status = STATUS_ERROR
            result.error = traceback.format_exc(limit=4)
        result.elapsed = perf_counter() - started
        return result

    def run_sweep(self, jobs) -> List[SimResult]:
        """One vectorized sweep for vector jobs sharing a
        :meth:`sweep_key`; returns one :class:`SimResult` per job, in
        job order, equal to what :meth:`run_job` reports for each.
        Jobs whose records something needs (a ledger, properties) have
        no sweep key and run per job.  Never raises on job failure: a
        sweep-wide problem (no numpy, compile error) becomes a
        ``status="error"`` row per job, a per-lane runtime fault errors
        only its own row."""
        jobs = list(jobs)
        if self.sweep_key(jobs[0]) is None:
            return [self.run_job(job) for job in jobs]
        telemetry.histogram(
            "ecl_farm_sweep_lanes",
            help="Lanes fused per vectorized sweep.",
            buckets=telemetry.SIZE_BUCKETS,
        ).observe(len(jobs))
        with self._running_on(jobs[0].design):
            with telemetry.span("farm.sweep", engine=jobs[0].engine):
                results = self._run_sweep_fused(jobs)
        for result in results:
            self._observe_result(result)
        return results

    def _run_sweep_fused(self, jobs) -> List[SimResult]:
        """The record-free sweep: each lane's row is its counts and,
        when asked for, its coverage."""
        results = [self._result(job) for job in jobs]
        lead = jobs[0]
        started = perf_counter()
        try:
            reactor = self.vector_reactor(lead.design, lead.module)
            outcome = reactor.run_specs(
                lead.stimulus,
                seeds=[job.seed for job in jobs],
                budget=lead.instant_budget,
                coverage="raw" if lead.collect_coverage else False,
                records=False,
            )
            errors = outcome.errors
        except EclError as error:
            errors = [str(error)] * len(jobs)
        except Exception:
            errors = [traceback.format_exc(limit=4)] * len(jobs)
        share = (perf_counter() - started) / len(jobs)
        for lane, result in enumerate(results):
            result.elapsed = share
            if errors[lane] is not None:
                result.status = STATUS_ERROR
                result.error = errors[lane]
                continue
            terminated = outcome.terminated[lane]
            result.status = STATUS_TERMINATED if terminated else STATUS_OK
            result.instants = outcome.instants[lane]
            result.emitted_events = outcome.emitted_events[lane]
            if outcome.raw_coverage is not None:
                result.coverage = self._raw_payload(
                    reactor.efsm.name, outcome.raw_coverage, lane
                )
        return results

    @staticmethod
    def _raw_payload(module_name, raw, lane):
        """One lane's coverage payload straight off the sweep's bitmap
        matrices — byte-identical to ``CoverageMap.as_payload()`` for
        the same marks, without building the map."""
        states, transitions, emits = raw
        s, t, e = states[lane], transitions[lane], emits[lane]
        return {
            "module": module_name,
            "states": s.tobytes().hex(),
            "transitions": t.tobytes().hex(),
            "emits": e.tobytes().hex(),
            "covered_states": int(s.sum()),
            "covered_transitions": int(t.sum()),
            "covered_emits": int(e.sum()),
        }

    def _coverage_for(self, job):
        """Fresh coverage map(s) sized by the job's EFSM tables.

        Plain jobs get one map sized by ``job.module``.  A partitioned
        rtos job instead gets one map per partition *member module*
        (``{module: CoverageMap}``): two tasks wrapping the same module
        share a map (their marks merge per module), and a member whose
        module differs from ``job.module`` is no longer mis-sized by
        the wrong machine's tables.
        """
        from ..verify.coverage import CoverageMap

        build = self.build(job.design)
        if job.tasks and "tasks" in get_engine(job.engine).capabilities():
            modules = sorted({spec[1] for spec in job.tasks})
            if modules != [job.module]:
                return {
                    module: CoverageMap.for_efsm(build.module(module).efsm())
                    for module in modules
                }
        return CoverageMap.for_efsm(build.module(job.module).efsm())

    @staticmethod
    def _coverage_payload(coverage):
        """The result-row payload: one hex-bitmap payload for a single
        map, ``{"modules": {name: payload}}`` for a partitioned job's
        per-module maps."""
        if isinstance(coverage, dict):
            return {
                "modules": {
                    module: cov.as_payload()
                    for module, cov in sorted(coverage.items())
                }
            }
        return coverage.as_payload()

    def _check_properties(self, job, records):
        """Step a compiled monitor bundle over the job's records;
        returns the first :class:`~repro.verify.monitor.Violation` (or
        None).  The bundle is content-addressed in the pipeline cache,
        so each worker compiles it at most once per design."""
        from ..verify.monitor import Monitor

        handle = self.build(job.design).module(job.module)
        started = perf_counter()
        monitor = Monitor(handle.monitor_bundle(job.properties))
        for record in records:
            monitor.step_record(record)
        telemetry.histogram(
            "ecl_verify_monitor_seconds",
            help="Monitor stepping overhead per property-checked job.",
        ).observe(perf_counter() - started)
        return monitor.first_violation

    def _render_vcd(self, job, records) -> Optional[str]:
        """Replay the records through a VcdRecorder when asked to (a
        task network's records span several modules: no waveform)."""
        if not job.record_vcd or "tasks" in get_engine(job.engine).capabilities():
            return None
        from ..runtime.vcd import VcdRecorder

        build = self.build(job.design)
        kernel = build.module(job.module).kernel()
        recorder = VcdRecorder(kernel.name)
        for param in kernel.params:
            recorder.declare(param.name, param.type)
        for record in records:
            present = set(record["inputs"]) | set(record["emitted"])
            merged = dict(record["inputs"])
            merged.update(record["values"])
            values = {
                name: value
                for name, value in merged.items()
                if value is not None and not isinstance(value, str)
            }
            recorder.sample(inputs=present, values=values)
        return recorder.render()
