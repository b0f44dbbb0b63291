"""repro.engines — the one registry of execution engines.

Every engine is one class in this module, and this module is the only
place that knows engine names::

    from repro.engines import get_engine

    engine = get_engine("vector")
    engine.capabilities()                 # frozenset({"vector_sweep", ...})
    engine.run_trace(handle, instants)    # one instance, explicit trace
    engine.run_spec(handle, spec, n_instances=256)   # a whole sweep

An engine class declares its capability tags (callers branch on those,
never on names), how it binds a reactor (:meth:`Engine.reactor` from a
pipeline ``ModuleHandle``, :meth:`Engine.bind` from a bare kernel/EFSM
pair) and its one per-job run method,
:meth:`Engine.run_job`: the compiled whole-trace driver where the
engine has one, else batched ``step_many``, else the per-instant step
loop.  Farm workers, the serving layer and :meth:`Engine.run_spec` all
run jobs through it.

Per job an engine works through an *adapter* (:meth:`Engine.build`)
whose ``step(instant)`` maps an input dict (``name -> value-or-None``)
to a plain-data record ``{"inputs", "emitted", "values"}``
(:func:`make_record`) — the currency of the trace ledger and of
cross-engine comparison.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional

from .errors import CompileError, EclError

# Capability tags (``Engine.tags``): "adapter" — has a per-job adapter,
# so jobs and campaigns may name it; "step" — binds a per-instant
# reactor (``react()``); "step_many" / "trace_driver" — batched and
# compiled whole-trace job loops; "coverage" — reactors mark
# state/transition bitmaps; "compiled" / "reference"; "vector_sweep" —
# workers fuse same-sweep jobs into one numpy sweep; "requires_numpy";
# "tasks" / "kernel_stats" — task networks under the RTOS kernel;
# "lockstep" — the equivalence job mode; "resident" — the per-job
# adapter restores to its just-bound state (``restore()``), so a
# worker keeps it bound across jobs and passes it to run_job.


# ----------------------------------------------------------------------
# Trace records


def jsonable_value(value):
    """Trace values must survive JSON: bytes become hex strings."""
    if isinstance(value, (bytes, bytearray)):
        return "0x" + bytes(value).hex()
    return value


def make_record(instant, emitted, values):
    """Canonical per-instant trace record (sorted, JSON-clean)."""
    return {
        "inputs": {
            name: jsonable_value(value)
            for name, value in sorted(instant.items())
        },
        "emitted": sorted(emitted),
        "values": {
            name: jsonable_value(value)
            for name, value in sorted(values.items())
        },
    }


def compare_records(left, right):
    """None when two engine records agree observably, else a short
    human-readable description of the mismatch."""
    if (
        left["emitted"] != right["emitted"]
        or left["values"] != right["values"]
    ):
        return "emitted %s %r vs %s %r" % (
            left["emitted"],
            left["values"],
            right["emitted"],
            right["values"],
        )
    return None


def _mark_emits(coverage, records):
    """Record-level emit coverage, for reactors that cannot mark it
    themselves (``coverage`` is one map or a ``{module: map}`` dict)."""
    maps = coverage.values() if isinstance(coverage, dict) else (coverage,)
    for record in records:
        for cov in maps:
            cov.mark_emits(record["emitted"])


def _stimulus(adapter, job, seed):
    """The job's instants over the adapter's alphabet, padded with
    empty instants to the job's budget."""
    instants = job.stimulus.materialize(adapter.input_alphabet(), seed)
    budget = job.instant_budget
    instants.extend({} for _ in range(budget - len(instants)))
    return instants[:budget]


# ----------------------------------------------------------------------
# Per-job adapters


class ReactorAdapter:
    """A job's view of one module reactor (interp, efsm, native and,
    per job, vector)."""

    def __init__(self, reactor, handle):
        self.reactor = reactor
        self.handle = handle

    @property
    def terminated(self):
        return self.reactor.terminated

    def kernel_stats(self):
        return None

    def enable_coverage(self, coverage):
        """Attach a coverage map when the underlying reactor supports
        state/transition marking (efsm and native do; the interpreter
        has no EFSM states, so only record-level emit marking applies
        to it).  Returns True when the reactor is instrumented — its
        per-instant probe then also marks emits, so the caller must
        not re-mark them from records."""
        hook = getattr(self.reactor, "enable_coverage", None)
        if hook is None:
            return False
        hook(coverage)
        return True

    def input_alphabet(self):
        """``(name, is_pure)`` pairs for stimulus generation.

        Aggregate-valued inputs (structs, unions, arrays) are excluded:
        a random int is not a valid sample of those, so the generator
        only drives pure and scalar-valued signals.
        """
        return [
            (slot.name, slot.is_pure)
            for slot in self.reactor.signals.inputs()
            if slot.is_pure or slot.type.is_scalar()
        ]

    def step(self, instant):
        pure = [name for name, value in instant.items() if value is None]
        valued = {name: value for name, value in instant.items() if value is not None}
        output = self.reactor.react(inputs=pure, values=valued)
        return make_record(instant, output.emitted, output.values)


class NativeAdapter(ReactorAdapter):
    """A native reactor's job view: adds the compiled whole-trace
    driver and the batched-instant loop.  It keeps the drivers it ran,
    keyed by stimulus shape, so a resident adapter looks each one up
    in the pipeline once."""

    def __init__(self, reactor, handle):
        super().__init__(reactor, handle)
        self._drivers = {}

    def restore(self):
        """Back to the just-bound state (see
        :meth:`~repro.runtime.native.NativeReactor.restore`)."""
        self.reactor.restore()

    def run_spec(self, job, seed=None):
        """The job's *random* stimulus through the compiled driver loop
        (pipeline stage ``trace-driver``, one per (design,
        stimulus-spec) pair — no per-instant dict handling on the
        injection side).  Returns the record list, or None when the
        stimulus is not driver-shaped (explicit traces replay through
        :meth:`step_many`)."""
        spec = job.stimulus
        if spec.kind != "random":
            return None
        shape = (spec.length, spec.present_prob, spec.value_range,
                 job.instant_budget)
        driver = self._drivers.get(shape)
        if driver is None:
            driver = self.handle.trace_driver(
                spec.length, spec.present_prob, spec.value_range,
                budget=job.instant_budget,
            )
            self._drivers[shape] = driver
        return self.reactor.run_trace(driver, job.seed if seed is None else seed)

    def step_many(self, instants):
        """Run a whole stimulus through the reactor's batched-instant
        loop; returns one record per executed instant (the loop stops
        early when the module terminates)."""
        outputs = self.reactor.react_many(instants)
        return [
            make_record(instant, output.emitted, output.values)
            for instant, output in zip(instants, outputs)
        ]


class RtosAdapter:
    """The design under the simulated RTOS.

    With ``job.tasks`` empty, one task wraps ``job.module``; otherwise
    each ``(task_name, module_name, priority[, bindings])`` entry
    becomes one task and signals route between tasks by (bound) name,
    exactly as :func:`repro.core.partition.run_partition` wires
    Table 1's asynchronous rows.  Each instant posts the step's events
    and runs the dispatch cascade to quiescence, so one record may
    cover several task reactions.

    ``job.task_engine`` names the per-instant engine inside each task
    (any engine tagged ``step``; "" means "efsm").  "native" binds
    closure-compiled reactors from one content-addressed partition
    bundle (:meth:`~repro.pipeline.pipeline.DesignBuild
    .partition_bundle`) and dispatches through the slot-indexed fast
    path.
    """

    def __init__(self, handles, job):
        from .rtos.kernel import RtosKernel
        from .rtos.tasks import RtosTask

        task_engine = job.task_engine or "efsm"
        self.task_engine = task_engine
        self.kernel = RtosKernel(name=job.label())
        specs = job.tasks or ((job.module, job.module, 1),)
        if task_engine == "native":
            from .runtime.native import NativeReactor

            bundle = handles(specs[0][1]).design.partition_bundle(specs)
            for entry in bundle.tasks:
                reactor = NativeReactor(entry.efsm, code=entry.code)
                self.kernel.add_task(
                    RtosTask(
                        entry.name,
                        reactor,
                        priority=entry.priority,
                        bindings=dict(entry.bindings),
                    )
                )
        else:
            engine = get_engine(task_engine)
            for spec in specs:
                task_name, module_name, priority = spec[0], spec[1], spec[2]
                bindings = dict(spec[3]) if len(spec) > 3 else None
                self.kernel.add_task(
                    RtosTask(
                        task_name,
                        engine.reactor(handles(module_name)),
                        priority=priority,
                        bindings=bindings,
                    )
                )
        self.kernel.start()
        self._alphabet = None

    def kernel_stats(self):
        """The kernel's raw counters plus the network lost-event total
        (what :class:`~repro.farm.jobs.SimResult` carries back)."""
        return self.kernel.stats_dict()

    def enable_coverage(self, coverage):
        """Attach coverage to every task reactor that supports it.

        ``coverage`` is one :class:`~repro.verify.coverage.CoverageMap`
        (single-module job) or a dict mapping partition-member module
        names to maps (partitioned job) — tasks wrapping the same
        module share one map, so their marks merge per module.  Returns
        True only when *every* task reactor was instrumented (interp
        task reactors cannot be; the caller then falls back to
        record-level emit marking).
        """
        maps = coverage if isinstance(coverage, dict) else None
        attached = bool(self.kernel.tasks)
        for task in self.kernel.tasks:
            if maps is None:
                target = coverage
            else:
                target = maps.get(task.reactor.module.name)
            hook = getattr(task.reactor, "enable_coverage", None)
            if hook is None or target is None:
                attached = False
                continue
            hook(target)
        return attached

    @property
    def terminated(self):
        return all(task.reactor.terminated for task in self.kernel.tasks)

    def input_alphabet(self):
        """Environment-facing signals only: consumed by some task and
        produced by none (internal channels are not driveable)."""
        if self._alphabet is None:
            produced = set()
            for task in self.kernel.tasks:
                produced.update(task.produced_signals())
            alphabet = {}
            for task in self.kernel.tasks:
                for name, is_pure in task.input_alphabet():
                    if name not in produced:
                        alphabet.setdefault(name, is_pure)
            self._alphabet = sorted(alphabet.items())
        return self._alphabet

    def step(self, instant):
        for name, value in sorted(instant.items()):
            self.kernel.post_input(name, value)
        emitted = self.kernel.run_until_idle()
        values = {name: value for name, value in emitted.items() if value is not None}
        return make_record(instant, set(emitted), values)


class _ModuleParts:
    """A bare kernel/EFSM pair standing in for a ModuleHandle (no
    pipeline caches: native code is lowered per reactor)."""

    def __init__(self, kernel, efsm):
        self._kernel = kernel
        self._efsm = efsm

    def kernel(self):
        return self._kernel

    def efsm(self):
        return self._efsm

    def native_code(self):
        return None


# ----------------------------------------------------------------------
# Results


@dataclass
class JobRun:
    """What :meth:`Engine.run_job` produced for one job."""

    records: list
    terminated: bool
    kernel_stats: Optional[dict] = None
    #: lockstep jobs only: the first cross-engine mismatch.
    divergence: Optional[str] = None


def derive_spec_seed(spec, index):
    """Deterministic per-instance seed for a standalone spec sweep —
    the recipe :meth:`Engine.run_spec` (every engine) and
    :func:`repro.runtime.vector.derive_seed` share, so instance ``i``
    is reproducible from the spec alone on any engine."""
    text = "vector\x1fstimulus=%r\x1findex=%d" % (spec, index)
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:16], 16)


@dataclass
class SpecOutcome:
    """Per-instance results of one scalar :meth:`Engine.run_spec` loop
    (field-compatible with the vector engine's
    :class:`~repro.runtime.vector.SweepOutcome`, so consumers treat
    both uniformly)."""

    instants: List[int] = field(default_factory=list)
    terminated: List[bool] = field(default_factory=list)
    emitted_events: List[int] = field(default_factory=list)
    errors: List[Optional[str]] = field(default_factory=list)
    records: Optional[list] = None
    coverage: Optional[list] = None
    raw_coverage: Optional[tuple] = None

    def __len__(self):
        return len(self.instants)

    def add(self, records=None, terminated=False, error=None, coverage=None):
        """Append one lane (``records=None`` with an ``error``)."""
        self.instants.append(len(records) if records else 0)
        self.terminated.append(terminated)
        self.emitted_events.append(
            sum(len(record["emitted"]) for record in records or ())
        )
        self.errors.append(error)
        if self.records is not None:
            self.records.append(records)
        if self.coverage is not None:
            self.coverage.append(coverage)


# ----------------------------------------------------------------------
# Engines


class Engine:
    """One named engine's uniform surface (get via :func:`get_engine`).

    Stateless: binding happens per call from the module handle, so one
    instance serves any design.
    """

    name = ""
    tags = frozenset()

    def __repr__(self):
        return "<Engine %s>" % self.name

    # -- introspection -------------------------------------------------

    def capabilities(self):
        """Frozen capability tags (see the module's tag list)."""
        return self.tags

    def available(self):
        """False when a missing optional dependency blocks this engine
        in the current environment (vector without numpy)."""
        if "requires_numpy" in self.tags:
            from .runtime.vector import NUMPY_AVAILABLE

            return NUMPY_AVAILABLE
        return True

    def require(self):
        """Raise :class:`~repro.errors.EngineUnavailable` unless this
        engine can run here; no-op otherwise."""
        if "requires_numpy" in self.tags:
            from .runtime.vector import require_numpy

            require_numpy(self.name)

    # -- binding -------------------------------------------------------

    def reactor(self, handle, counter=None, builtins=None):
        """A runnable for one compiled module (a ModuleHandle, or
        anything with its ``kernel()``/``efsm()``/``native_code()``)."""
        raise CompileError(
            "engine %r has no single-module reactor form" % self.name
        )

    def bind(self, kernel, efsm, builtins=None):
        """A fresh per-instant reactor from a bare kernel/EFSM pair —
        the analysis layer's currency."""
        if "step" not in self.tags:
            raise EclError(
                "engine %r has no per-instant reactor (one of: %s)"
                % (self.name, ", ".join(names_with("step")))
            )
        return self.reactor(_ModuleParts(kernel, efsm), builtins=builtins)

    def build(self, handles, job):
        """The per-job adapter (``step``/``terminated``/
        ``input_alphabet`` protocol).  ``handles(module_name)`` returns
        a :class:`~repro.pipeline.pipeline.ModuleHandle` of the job's
        design (workers pass their per-process cached provider)."""
        if "adapter" not in self.tags:
            raise EclError(
                "engine %r has no job adapter (it is a farm job mode)"
                % self.name
            )
        return self._adapter(handles, job)

    def _adapter(self, handles, job):
        handle = handles(job.module)
        return ReactorAdapter(self.reactor(handle), handle)

    # -- execution -----------------------------------------------------

    def run_job(self, handles, job, coverage=None, seed=None,
                adapter=None) -> JobRun:
        """Run one job to its budget or termination.  ``coverage`` (a
        map, or ``{module: map}`` for a partitioned rtos job) collects
        state/transition marks where the reactors can, emits from the
        records otherwise; ``seed`` overrides ``job.seed``.  ``adapter``
        is a bound adapter in its just-bound state (a worker's resident
        one, see the "resident" tag); None binds a new one."""
        if adapter is None:
            adapter = self.build(handles, job)
        attached = coverage is not None and adapter.enable_coverage(coverage)
        records = self._drive(adapter, job, job.seed if seed is None else seed)
        if coverage is not None and not attached:
            # Uninstrumented reactors (interp, rtos with interp tasks)
            # still yield observable emit coverage; instrumented ones
            # marked emits per instant already, local signals included.
            _mark_emits(coverage, records)
        return JobRun(records, adapter.terminated, adapter.kernel_stats())

    def _drive(self, adapter, job, seed):
        records = []
        for instant in _stimulus(adapter, job, seed):
            records.append(adapter.step(instant))
            if adapter.terminated:
                break
        return records

    def _local_job(self, handle, stimulus=None, budget=0):
        from .farm.jobs import SimJob, StimulusSpec

        return SimJob(design="<local>", module=handle.name, engine=self.name,
                      stimulus=stimulus or StimulusSpec.random(), horizon=budget)

    def run_trace(self, handle, instants):
        """Run one fresh instance over explicit instant dicts through
        :meth:`run_job`; returns the farm-format record list (stops on
        termination)."""
        from .farm.jobs import StimulusSpec

        self.require()
        job = self._local_job(handle, StimulusSpec.explicit(instants))
        return self.run_job(handle.design.module, job).records

    def run_spec(self, handle, spec, n_instances=1, seeds=None, budget=0,
                 coverage=False, records=True):
        """Sweep one stimulus spec across ``n_instances`` instances.

        Scalar engines run each instance through :meth:`run_job` — the
        same per-job path the farm uses — over the derived seeds
        (:func:`derive_spec_seed`); the vector engine runs one fused
        numpy sweep over the identical seeds, which is exactly the
        contract the cross-engine equivalence suite checks.  Errors
        stay per lane.  Returns a :class:`SpecOutcome` (or the
        field-compatible vector ``SweepOutcome``).
        """
        self.require()
        job = self._local_job(handle, spec, budget)
        outcome = SpecOutcome(
            records=[] if records else None,
            coverage=[] if coverage else None,
        )
        for seed in _seeds(spec, n_instances, seeds):
            try:
                cov = None
                if coverage:
                    from .verify.coverage import CoverageMap

                    cov = CoverageMap.for_efsm(handle.efsm())
                run = self.run_job(handle.design.module, job, cov, seed=seed)
            except EclError as error:
                outcome.add(error=str(error))
                continue
            outcome.add(run.records, bool(run.terminated), coverage=cov)
        return outcome


def _seeds(spec, n_instances, seeds):
    if seeds is None:
        return [derive_spec_seed(spec, i) for i in range(n_instances)]
    return list(seeds)


class InterpEngine(Engine):
    """Reference semantics: the kernel-term interpreter."""

    name = "interp"
    tags = frozenset(("adapter", "step", "reference"))

    def reactor(self, handle, counter=None, builtins=None):
        from .runtime.reactor import Reactor

        return Reactor(handle.kernel(), counter=counter, builtins=builtins)


class EfsmEngine(Engine):
    """Compiled automaton: one decision-tree walk per instant."""

    name = "efsm"
    tags = frozenset(("adapter", "step", "coverage"))

    def reactor(self, handle, counter=None, builtins=None):
        from .codegen.py_backend import EfsmReactor

        return EfsmReactor(handle.efsm(), counter=counter, builtins=builtins)


class NativeEngine(Engine):
    """Closure-compiled reactions: straight-line Python per state.

    The lowered code bundle comes from the pipeline's ``native`` stage,
    so every reactor of one design binds the same cached
    :class:`~repro.runtime.native.NativeCode` — no per-job codegen.
    Jobs run through the compiled trace driver, explicit stimulus
    through the batched loop (:class:`NativeAdapter`).
    """

    name = "native"
    tags = frozenset(("adapter", "step", "step_many", "trace_driver",
                      "coverage", "compiled", "resident"))

    def reactor(self, handle, counter=None, builtins=None):
        from .runtime.native import NativeReactor

        return NativeReactor(handle.efsm(), code=handle.native_code(),
                             counter=counter, builtins=builtins)

    def _adapter(self, handles, job):
        handle = handles(job.module)
        return NativeAdapter(NativeEngine.reactor(self, handle), handle)

    def _drive(self, adapter, job, seed):
        records = adapter.run_spec(job, seed)
        if records is None:
            records = adapter.step_many(_stimulus(adapter, job, seed))
        return records


class VectorEngine(NativeEngine):
    """Many-instance numpy execution (requires numpy).

    Per-job semantics are scalar-exact — one vector job run alone
    produces the native engine's records, coverage and status for the
    same seed — but the farm worker fuses jobs that share a sweep key
    into one :meth:`~repro.runtime.vector.VectorReactor.run_specs`
    call, so a 1000-job campaign round costs one vectorized sweep
    instead of 1000 driver loops.  Its reactor is the sweep-oriented
    :class:`~repro.runtime.vector.VectorReactor` (``run_specs``, no
    ``react()``); its per-job adapter *is* the native one, so single-job
    paths — serving-layer entries, campaign replays, minimization — run
    vector jobs without special cases.
    """

    name = "vector"
    tags = frozenset(("adapter", "step_many", "trace_driver", "coverage",
                      "compiled", "vector_sweep", "requires_numpy",
                      "resident"))

    def reactor(self, handle, counter=None, builtins=None):
        if counter is not None or builtins is not None:
            raise CompileError(
                "the vector engine drives whole stimulus sweeps; "
                "counters and builtin overrides are per-instance "
                "reactor features")
        self.require()
        from .runtime.vector import VectorReactor

        return VectorReactor(handle.efsm(), code=handle.native_code(),
                             vcode=handle.vector_code())

    def _adapter(self, handles, job):
        self.require()
        adapter = super()._adapter(handles, job)
        # Warm the content-addressed bundle so pooled workers compile
        # the vector twin once per design, not once per sweep.
        adapter.handle.vector_code()
        return adapter

    def run_spec(self, handle, spec, n_instances=1, seeds=None, budget=0,
                 coverage=False, records=True):
        return self.reactor(handle).run_specs(
            spec, seeds=_seeds(spec, n_instances, seeds), budget=budget,
            coverage=coverage, records=records,
        )


class RtosEngine(Engine):
    """The module, or a multi-task partition of the design, under the
    simulated priority kernel (:class:`RtosAdapter`)."""

    name = "rtos"
    tags = frozenset(("adapter", "kernel_stats", "tasks"))

    def _adapter(self, handles, job):
        return RtosAdapter(handles, job)


class EquivalenceEngine(Engine):
    """A farm job mode, not an adapter: the interpreter in lockstep
    with both compiled engines (efsm and native) on one stimulus.  The
    efsm records are what gets persisted (stable trace digests across
    engine additions), and a coverage map attaches to the efsm
    candidate, so cross-engine jobs merge full state/transition
    bitmaps."""

    name = "equivalence"
    tags = frozenset(("lockstep",))

    def run_job(self, handles, job, coverage=None, seed=None,
                adapter=None) -> JobRun:
        reference = _REGISTRY["interp"].build(handles, job)
        candidates = [
            (name, _REGISTRY[name].build(handles, job))
            for name in ("efsm", "native")
        ]
        persisted = candidates[0][1]
        attached = coverage is not None and persisted.enable_coverage(coverage)
        records = []
        divergence = None
        seed = job.seed if seed is None else seed
        for number, instant in enumerate(_stimulus(persisted, job, seed)):
            expected = reference.step(instant)
            for name, candidate in candidates:
                actual = candidate.step(instant)
                if candidate is persisted:
                    records.append(actual)
                mismatch = compare_records(expected, actual)
                if mismatch is None and reference.terminated != candidate.terminated:
                    mismatch = "interp terminated=%r, %s terminated=%r" % (
                        reference.terminated, name, candidate.terminated)
                if mismatch is not None:
                    divergence = "instant %d (inputs %r): interp vs %s %s" % (
                        number, instant, name, mismatch)
                    break
            if divergence is not None or persisted.terminated:
                break
        if coverage is not None and not attached:
            _mark_emits(coverage, records)
        return JobRun(records, persisted.terminated, divergence=divergence)


# ----------------------------------------------------------------------
# Registry

_REGISTRY = {
    engine.name: engine
    for engine in (InterpEngine(), EfsmEngine(), NativeEngine(),
                   VectorEngine(), RtosEngine(), EquivalenceEngine())
}


def engine_names():
    """Every name :func:`get_engine` accepts, sorted."""
    return tuple(sorted(_REGISTRY))


def names_with(tag):
    """Engine names carrying capability ``tag``, sorted."""
    return tuple(name for name in engine_names() if tag in _REGISTRY[name].tags)


def adapter_names():
    """Engines a job or campaign may name (farm adapter exists)."""
    return names_with("adapter")


def get_engine(name) -> Engine:
    """The :class:`Engine` registered under ``name``."""
    engine = _REGISTRY.get(name) if isinstance(name, str) else None
    if engine is None:
        raise EclError(
            "unknown engine %r (available: %s)"
            % (name, ", ".join(repr(known) for known in engine_names()))
        )
    return engine
