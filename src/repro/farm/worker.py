"""Worker-side execution: one process, one compiled-module cache.

:class:`WorkerState` is what each farm worker process holds: a
lazily-populated :class:`~repro.pipeline.pipeline.DesignBuild` per
``(label, source)`` pair (so each design is compiled *once per worker*
no matter how many of its jobs land there), and the process's handle on
the shared :class:`TraceLedger` directory.  A job runs against the
source its dispatch carries (:meth:`WorkerState.stream`'s ``designs``,
which the service takes from the job's own batch), else against the
fixed sources the state was constructed with (the farm's and direct
callers').  No label is ever re-bound: a changed source is a new key,
and the build of the old one ages out under :data:`RESIDENT_BUILDS`.

The same class runs inline in the calling process (the farm's
``workers<=1`` path, the serial baseline the throughput benchmark
compares against) and behind every serve pool worker of
:mod:`repro.serve.procworker` — a spawned child, or the pool slot's own
thread in thread mode — which the service and the pooled farm share.
One thread uses a state at a time, so it takes no locks.

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
(native, and vector outside a sweep) takes the one adapter bound for
its (build, module, engine), restores it to its just-bound state and
drives it; only the first such job binds it.  Each dispatch unit (one
job, or one sweep) resolves its build once and hands it to every step
that needs it.
"""

from __future__ import annotations

import os
import traceback
from collections import OrderedDict
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
#: used one goes first.  With a disk layer its artifacts leave the
#: cache's memory layer too, and a revisit reloads them from disk; a
#: memory-only cache keeps them under its own LRU bound, so a revisit
#: never recompiles.  Measured on servebench
#: ``cold_compile`` revisions through one tenant's worker (2 vCPU,
#: Python 3.11): 38.9 MB after 90 revisions against 66.0 MB with no
#: bound.  A revisit past the bound costs about 40 ms with a disk layer
#: (mostly compiling the generated code again) and 1.5 ms without one;
#: compiling a revision from source costs about 240 ms.
RESIDENT_BUILDS = 16


class _Bound:
    """What one worker keeps bound from one ``(label, source)`` build:
    the vector sweep templates (per module) and the resident adapters
    (one per (module, engine)).  Only jobs of that very source check
    out of it, so nothing bound from one revision serves another."""

    __slots__ = ("build", "vectors", "adapters")

    def __init__(self, build):
        self.build = build
        self.vectors: Dict[str, object] = {}
        self.adapters: Dict[tuple, object] = {}


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
        #: design label -> ECL source text: the fixed sources of jobs
        #: whose dispatch carries none.  Never written after this.
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
        #: ``(label, source)`` -> :class:`_Bound` (its build and what
        #: this worker bound from it), least recently used first.  The
        #: source ``str`` is its own key: its hash is cached.
        self._builds: "OrderedDict[tuple, _Bound]" = OrderedDict()

    # -- serving-layer surface -----------------------------------------

    @classmethod
    def for_tenant(cls, tenant, data_root=None, options=None,
                   raise_storage_errors=True):
        """One tenant's serving worker state over the service's shared
        on-disk layout: a namespaced persistent artifact cache under
        ``<data_root>/artifacts`` and the tenant's ledger shard under
        ``<data_root>/traces`` (both in-memory/absent without a
        ``data_root``).  Every serve pool worker builds its tenants'
        states through it, in either pool mode."""
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

    # -- compiled-design cache -----------------------------------------

    def _checkout(self, design_label, designs=None):
        """The :class:`_Bound` of ``design_label``'s source — taken from
        ``designs`` when the dispatch carries them, else from the
        constructor's — now the most recently used build."""
        sources = self.designs if designs is None else designs
        try:
            key = (design_label, sources[design_label])
        except KeyError:
            raise EclError(
                "batch has no design labelled %r (designs: %s)"
                % (design_label, ", ".join(sorted(sources)) or "none")
            )
        bound = self._builds.get(key)
        if bound is not None:
            self._builds.move_to_end(key)
            return bound
        build = self.pipeline.compile_text(key[1], filename=design_label)
        bound = self._builds[key] = _Bound(build)
        # Past the bound the least recently used builds go, their
        # artifacts too unless a resident build compiles the same source.
        while len(self._builds) > RESIDENT_BUILDS:
            _, old = self._builds.popitem(last=False)
            digest = old.build.source_digest
            if digest not in {b.build.source_digest for b in self._builds.values()}:
                self.pipeline.cache.release(digest)
        return bound

    def build(self, design_label):
        """The (cached) DesignBuild of one design label's source."""
        return self._checkout(design_label).build

    def handles(self, design_label):
        """``module_name -> ModuleHandle`` provider for one design."""
        return self.build(design_label).module

    def vector_reactor(self, bound, module_name):
        """The (cached) resident sweep template for one module of a
        checked-out build — raises
        :class:`~repro.errors.EngineUnavailable` without numpy, which
        the job driver turns into per-job error results."""
        reactor = bound.vectors.get(module_name)
        if reactor is None:
            handle = bound.build.module(module_name)
            reactor = get_engine("vector").reactor(handle)
            bound.vectors[module_name] = reactor
        return reactor

    def _drive(self, job, bound, coverage):
        """Run one scalar job through its engine: on a checked-out
        resident adapter when the engine has one, else binding per
        job.  A job whose records go nowhere but this worker's ledger
        (no properties, no VCD) asks for canonical ledger lines."""
        engine = get_engine(job.engine)
        handles = bound.build.module
        lines = (self.ledger is not None and not job.properties
                 and not job.record_vcd)
        if "resident" not in engine.capabilities():
            return engine.run_job(handles, job, coverage, lines=lines)
        key = (job.module, job.engine)
        adapter = bound.adapters.get(key)
        if adapter is None:
            adapter = bound.adapters[key] = engine.build(handles, job)
        else:
            # Whatever the last drive left behind, restore() undoes it.
            adapter.restore()
        return engine.run_job(handles, job, coverage, adapter=adapter, lines=lines)

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

    def stream(self, jobs, designs=None):
        """Run ``jobs`` lazily, yielding one list of ``(position,
        result)`` pairs per dispatch unit as soon as it exists: at least
        :data:`SWEEP_MIN_LANES` jobs sharing a :meth:`sweep_key` as one
        sweep (at the position of the first), any other job alone.
        Nothing runs until the next unit is asked for, so a consumer
        can act on job *k*'s row before job *k+1* starts.  ``designs``
        (label -> source) are the sources these jobs run against;
        None means the constructor's."""
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
                results = self.run_sweep([jobs[p] for p in positions], designs)
                yield list(zip(positions, results))
            elif position not in swept:
                yield [(position, self.run_job(job, designs))]

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

    def run_job(self, job, designs=None) -> SimResult:
        """Execute one job to completion against its source in
        ``designs`` (None: the constructor's); never raises on job
        failure — errors become ``status="error"`` results."""
        with telemetry.span("farm.job", engine=job.engine):
            result = self._run_job_scalar(job, designs)
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

    def _run_job_scalar(self, job, designs) -> SimResult:
        result = self._result(job)
        started = perf_counter()
        try:
            bound = self._checkout(job.design, designs)
            build = bound.build
            coverage = self._coverage_for(job, build) if job.collect_coverage else None
            run = self._drive(job, bound, coverage)
            records = run.records
            result.divergence = run.divergence
            result.kernel_stats = run.kernel_stats
            status = STATUS_TERMINATED if run.terminated else STATUS_OK
            if run.divergence is not None:
                status = STATUS_DIVERGED
            if coverage is not None:
                result.coverage = self._coverage_payload(coverage)
            if job.properties:
                violation = self._check_properties(job, build, records)
                if violation is not None:
                    status = STATUS_VIOLATED
                    result.violation = violation.property_text
                    result.violation_instant = violation.instant
            result.status = status
            result.instants = len(records)
            result.emitted_events = run.emitted_events
            if self.ledger is not None:
                vcd_text = self._render_vcd(job, build, records)
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

    def run_sweep(self, jobs, designs=None) -> List[SimResult]:
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
            return [self.run_job(job, designs) for job in jobs]
        telemetry.histogram(
            "ecl_farm_sweep_lanes",
            help="Lanes fused per vectorized sweep.",
            buckets=telemetry.SIZE_BUCKETS,
        ).observe(len(jobs))
        with telemetry.span("farm.sweep", engine=jobs[0].engine):
            results = self._run_sweep_fused(jobs, designs)
        for result in results:
            self._observe_result(result)
        return results

    def _run_sweep_fused(self, jobs, designs) -> List[SimResult]:
        """The record-free sweep: each lane's row is its counts and,
        when asked for, its coverage."""
        results = [self._result(job) for job in jobs]
        lead = jobs[0]
        started = perf_counter()
        try:
            bound = self._checkout(lead.design, designs)
            reactor = self.vector_reactor(bound, lead.module)
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

    def _coverage_for(self, job, build):
        """Fresh coverage map(s) sized by the job's EFSM tables.

        Plain jobs get one map sized by ``job.module``.  A partitioned
        rtos job instead gets one map per partition *member module*
        (``{module: CoverageMap}``): two tasks wrapping the same module
        share a map (their marks merge per module), and a member whose
        module differs from ``job.module`` is no longer mis-sized by
        the wrong machine's tables.
        """
        from ..verify.coverage import CoverageMap

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

    def _check_properties(self, job, build, records):
        """Step a compiled monitor bundle over the job's records;
        returns the first :class:`~repro.verify.monitor.Violation` (or
        None).  The bundle is content-addressed in the pipeline cache,
        so each worker compiles it at most once per design."""
        from ..verify.monitor import Monitor

        handle = build.module(job.module)
        started = perf_counter()
        monitor = Monitor(handle.monitor_bundle(job.properties))
        for record in records:
            monitor.step_record(record)
        telemetry.histogram(
            "ecl_verify_monitor_seconds",
            help="Monitor stepping overhead per property-checked job.",
        ).observe(perf_counter() - started)
        return monitor.first_violation

    def _render_vcd(self, job, build, records) -> Optional[str]:
        """Replay the records through a VcdRecorder when asked to (a
        task network's records span several modules: no waveform)."""
        if not job.record_vcd or "tasks" in get_engine(job.engine).capabilities():
            return None
        from ..runtime.vcd import VcdRecorder

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
