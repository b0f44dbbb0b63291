"""The staged ECL pipeline: stages in, content-addressed artifacts out.

:class:`Pipeline` is the front door of the redesigned driver layer::

    from repro.pipeline import ArtifactCache, Pipeline

    pipe = Pipeline(cache=ArtifactCache.persistent())
    report = pipe.compile_design(source, emit=("c", "dot"))
    report.write_files("out/")
    print(report.summary())

* ``compile_text`` / ``compile_file`` return a lazy :class:`DesignBuild`
  whose :class:`ModuleHandle`\\ s run individual stages on demand;
* ``compile_design`` compiles every module of a design in turn and
  returns a structured :class:`~repro.pipeline.report.BuildReport`;
* every stage result is keyed on (digest of the preprocessed text,
  options digest, stage, module) in the
  :class:`~repro.pipeline.cache.ArtifactCache`, so a warm recompile of
  an unchanged design runs the preprocessor once and touches no parser,
  no translator and no EFSM builder — only the cache.

This is the one compile API: ``eclc``, the examples, the benchmarks
and the tests all reach every phase through a :class:`ModuleHandle`.
"""

from __future__ import annotations

import hashlib
import threading
from time import perf_counter
from typing import Dict, List

from .. import telemetry
from ..engines import get_engine
from ..errors import CodegenError, CompileError, EclError
from ..lang.preprocessor import preprocess
from .artifacts import ArtifactKey, digest_options, digest_text
from .cache import ArtifactCache
from .registry import DEFAULT_REGISTRY, EmitInput
from .report import BuildReport, ModuleBuild, StageTiming
from .stages import (
    CompileOptions,
    EMIT_STAGE_PREFIX,
    raise_for_diagnostics,
    run_check,
    run_efsm,
    run_modules,
    run_optimize,
    run_parse,
    run_split,
    run_translate,
    warning_texts,
)

#: Format tag of the ``native`` lowering stage.  Artifacts that embed
#: lowered state-function layout (native code bundles, vector bundles,
#: trace drivers) carry this tag in their cache keys, so a
#: persistent cache can never pair a stale layout with newer code.
NATIVE_STAGE_TAG = "native@v2"


class Pipeline:
    """Staged compiler with pluggable emitters and artifact caching."""

    def __init__(self, options=None, cache=None, registry=None):
        self.options = options if options is not None else CompileOptions()
        self.cache = cache if cache is not None else ArtifactCache.memory()
        self.registry = registry if registry is not None else DEFAULT_REGISTRY

    @property
    def options_digest(self):
        """Digest of the *current* option values — computed per use, so
        mutating ``pipeline.options`` after construction keys future
        stages correctly instead of serving artifacts of the old
        options."""
        return digest_options(self.options)

    # -- entry points --------------------------------------------------

    def compile_text(self, text, filename="<string>", include_paths=(),
                     predefined=None):
        """A lazy :class:`DesignBuild` for one translation unit."""
        return DesignBuild(self, text, filename,
                           include_paths=include_paths,
                           predefined=predefined)

    def compile_file(self, path, include_paths=()):
        with open(path) as handle:
            text = handle.read()
        return self.compile_text(text, filename=str(path),
                                 include_paths=include_paths)

    def compile_design(self, text, filename="<design>", modules=None,
                       emit=("c",), include_paths=(), predefined=None):
        """Batch-compile every module of ``text``, one after another
        (a pure-Python compile gains nothing from threads).

        ``emit`` names registered backends; hardware backends that
        refuse a module (non-empty data part) are recorded as skips.
        Returns a :class:`BuildReport`; module failures are captured
        per module, they do not abort the batch.
        """
        started = perf_counter()
        design = self.compile_text(text, filename,
                                   include_paths=include_paths,
                                   predefined=predefined)
        backends = [self.registry.get(kind) for kind in emit]
        names = list(modules) if modules is not None \
            else list(design.module_names)
        builds = [self._build_module(design, name, backends)
                  for name in names]
        return BuildReport(
            design=filename,
            source_digest=design.source_digest,
            options_digest=self.options_digest,
            modules=builds,
            elapsed=perf_counter() - started,
            cache_stats=self.cache.stats.as_dict(),
        )

    def _build_module(self, design, name, backends):
        started = perf_counter()
        handle = design.module(name)
        build = ModuleBuild(module=name)
        try:
            diagnostics = handle.check()
            build.warnings = warning_texts(diagnostics)
            for backend in backends:
                try:
                    files = handle.emit(backend.name)
                except CodegenError as error:
                    build.skipped[backend.name] = str(error)
                else:
                    build.emitted[backend.name] = tuple(sorted(files))
                    build.files.update(files)
        except EclError as error:
            build.ok = False
            build.error = str(error)
        build.timings = list(handle.timings)
        build.elapsed = perf_counter() - started
        return build


class DesignBuild:
    """One translation unit moving through the pipeline, lazily.

    The preprocessor runs at most once (thread-safe), on first need.
    Its output is both what every artifact key digests and the text the
    parser reads, so the key covers exactly the parser's input.  Parsing
    happens at most once too, and only when a stage actually needs the
    syntax tree — a fully cache-warm build preprocesses but never
    parses.
    """

    def __init__(self, pipeline, text, filename="<string>",
                 include_paths=(), predefined=None):
        self.pipeline = pipeline
        self.text = text
        self.filename = filename
        self.include_paths = tuple(include_paths)
        self.predefined = predefined
        self._preprocessed = None
        self._digest = None
        self._failure = None
        self._parsed = None
        self._parse_lock = threading.Lock()
        self._handles: Dict[str, ModuleHandle] = {}
        self._handles_lock = threading.Lock()

    # -- preprocess and parse ------------------------------------------

    def preprocessed(self):
        """The preprocessed translation unit.  The preprocessor runs on
        the first call; what it raised (a missing include, say) is kept
        and raised again by every later call without re-running it."""
        if self._preprocessed is None:
            with self._parse_lock:
                if self._preprocessed is None and self._failure is None:
                    try:
                        text = preprocess(self.text, self.filename,
                                          self.include_paths,
                                          self.predefined)
                    except Exception as error:
                        self._failure = error
                    else:
                        self._digest = digest_text(text)
                        self._preprocessed = text
            if self._failure is not None:
                raise self._failure.with_traceback(None)
        return self._preprocessed

    @property
    def source_digest(self):
        """Digest of the preprocessed text: the source part of every
        artifact key of this build.  None when preprocessing failed —
        such a build stores nothing, and reading this never raises."""
        try:
            self.preprocessed()
        except Exception:
            return None
        return self._digest

    def key(self, stage, module=""):
        """The :class:`ArtifactKey` of one stage output of this build;
        raises what the preprocessor raised when it failed."""
        self.preprocessed()
        return ArtifactKey(self._digest, self.pipeline.options_digest,
                           stage, module)

    def ensure_parsed(self):
        if self._parsed is None:
            text = self.preprocessed()
            with self._parse_lock:
                if self._parsed is None:
                    self._parsed = run_parse(text, self.filename)
        return self._parsed

    @property
    def program(self):
        return self.ensure_parsed()[0]

    @property
    def types(self):
        return self.ensure_parsed()[1]

    @property
    def module_names(self):
        """Module names, from the cache when warm (no parse needed)."""
        key = self.key("modules")
        artifact = self.pipeline.cache.get(key)
        if artifact is None:
            payload = run_modules(self.program)
            artifact = self.pipeline.cache.put(key, payload, kind="names")
        return list(artifact.payload)

    def require_module(self, name):
        """Parse if needed and raise :class:`CompileError` naming the
        available modules when ``name`` is not one of them."""
        program = self.program
        if not any(m.name == name for m in program.modules()):
            raise CompileError(
                "no module named %r (available: %s)"
                % (name, ", ".join(m.name for m in program.modules())
                   or "none"))
        return program

    def module(self, name) -> "ModuleHandle":
        """The (lazily validated) stage runner for one module."""
        with self._handles_lock:
            if name not in self._handles:
                self._handles[name] = ModuleHandle(self, name)
            return self._handles[name]


class ModuleHandle:
    """Runs the per-module stages of one design, cache-backed.

    Stage timings are inclusive: a stage that forces an uncached
    prerequisite (``optimize`` forcing ``efsm``) carries that cost in
    its own entry, while the prerequisite is reported separately too.
    """

    def __init__(self, design, name):
        self.design = design
        self.name = name
        self.timings: List[StageTiming] = []
        self._timed = set()

    # -- stage driver --------------------------------------------------

    def _stage(self, stage, compute, kind="", key_stage=None):
        pipeline = self.design.pipeline
        key = self.design.key(key_stage or stage, self.name)
        started = perf_counter()
        artifact = pipeline.cache.get(key)
        if artifact is None:
            with telemetry.span("pipeline.%s" % stage):
                payload = compute()
            artifact = pipeline.cache.put(key, payload, kind=kind)
            hit = False
        else:
            hit = True
        elapsed = perf_counter() - started
        outcome = "hit" if hit else "miss"
        telemetry.counter(
            "ecl_pipeline_cache_requests_total",
            help="ArtifactCache lookups per stage and outcome.",
            stage=stage, outcome=outcome,
        ).inc()
        telemetry.histogram(
            "ecl_pipeline_stage_seconds",
            help="Inclusive stage time per cache outcome.",
            stage=stage, outcome=outcome,
        ).observe(elapsed)
        if stage not in self._timed:
            self._timed.add(stage)
            self.timings.append(StageTiming(stage, elapsed, hit))
        return artifact.payload

    # -- core stages ---------------------------------------------------

    def diagnostics(self):
        """Stage ``check``: the module's checker diagnostics."""
        def compute():
            program = self.design.require_module(self.name)
            return run_check(program, self.design.types, self.name,
                             self.design.pipeline.options)
        return self._stage("check", compute, kind="diagnostics")

    def check(self):
        """Run the checker and raise :class:`CompileError` on errors
        (or on warnings too, under ``strict``)."""
        diagnostics = self.diagnostics()
        raise_for_diagnostics(self.name, diagnostics,
                              self.design.pipeline.options.strict)
        return diagnostics

    def warnings(self):
        return warning_texts(self.diagnostics())

    def split_report(self):
        """Stage ``split``: reactive/data classification."""
        def compute():
            program = self.design.require_module(self.name)
            return run_split(program, self.name,
                             self.design.pipeline.options)
        return self._stage("split", compute, kind="split-report")

    def kernel(self):
        """Stage ``translate``: the Esterel kernel module."""
        def compute():
            program = self.design.require_module(self.name)
            return run_translate(program, self.design.types, self.name,
                                 self.design.pipeline.options)
        return self._stage("translate", compute, kind="kernel")

    def raw_efsm(self):
        """Stage ``efsm``: the unoptimized automaton."""
        def compute():
            return run_efsm(self.kernel(), self.design.pipeline.options)
        return self._stage("efsm", compute, kind="efsm")

    def efsm(self, optimized=None):
        """The module's EFSM (optimized by default per options)."""
        wants_optimized = self.design.pipeline.options.optimize \
            if optimized is None else optimized
        if not wants_optimized:
            return self.raw_efsm()
        def compute():
            return run_optimize(self.raw_efsm())
        return self._stage("optimize", compute, kind="efsm")

    # -- emitters ------------------------------------------------------

    def emit(self, backend_name):
        """Stage ``emit:<backend>``: the backend's file bundle
        (filename → text) for this module."""
        backend = self.design.pipeline.registry.get(backend_name)
        def compute():
            build = EmitInput(name=self.name)
            if "source" in backend.requires:
                build.source = self.design.preprocessed()
            if "types" in backend.requires:
                build.types = self.design.types
            if "kernel" in backend.requires:
                build.kernel = self.kernel()
            if "efsm" in backend.requires:
                build.efsm = self.efsm()
            files = backend.emit(build)
            return dict(files)
        # The key carries the emitter's fingerprint so a replaced or
        # upgraded backend never serves its predecessor's artifacts;
        # timings keep the plain stage name.
        stage = EMIT_STAGE_PREFIX + backend.name
        return self._stage(
            stage, compute, kind="files",
            key_stage="%s@%s" % (stage, backend.fingerprint[:16]))

    # -- runnables -----------------------------------------------------

    def native_code(self):
        """Stage ``native``: the lowered
        :class:`~repro.runtime.native.NativeCode` bundle (cached, so a
        warm build binds reactors without re-running the lowerer).
        The key carries a format tag: state functions pack transition
        ids since v2, so a persistent cache never serves a bundle with
        the old return convention."""
        def compute():
            from ..runtime.native import compile_native
            return compile_native(self.efsm())
        return self._stage("native", compute, kind="native-code",
                           key_stage=NATIVE_STAGE_TAG)

    def vector_code(self):
        """Stage ``vector``: the numpy-lowered
        :class:`~repro.runtime.vector.lower.VectorCode` bundle — one
        masked step function per vector-lowerable state, validated
        against the scalar bundle's slot layout.  Keyed off the native
        stage tag: a native format bump invalidates the vector twin
        too.  The bundle is numpy-free until bound, so it caches and
        pickles even where the vector *engine* is unavailable."""
        def compute():
            from ..runtime.vector.lower import compile_vector
            return compile_vector(self.efsm(), self.native_code())
        return self._stage("vector", compute, kind="vector-code",
                           key_stage="vector@v1+%s" % NATIVE_STAGE_TAG)

    def trace_driver(self, length, present_prob, value_range, budget=0,
                     sink="dict"):
        """Stage ``trace-driver``: the compiled whole-trace driver loop
        for one (design, stimulus-spec, sink) triple
        (:func:`repro.runtime.native.compile_trace_driver`) — the
        farm's native engine runs a whole random trace through it with
        zero per-instant dict handling on the injection side.  The
        sink is part of the key: ``"dict"`` drivers return farm
        records, ``"lines"`` drivers canonical ledger lines."""
        def compute():
            from ..runtime.native import compile_trace_driver
            return compile_trace_driver(
                self.efsm(), self.native_code(), length,
                present_prob, tuple(value_range), budget=budget, sink=sink)
        shape = "%d:%r:%r:%d:%s" % (length, present_prob,
                                    tuple(value_range), budget, sink)
        digest = hashlib.sha256(shape.encode("utf-8")).hexdigest()[:16]
        return self._stage(
            "trace-driver", compute, kind="trace-driver",
            key_stage="trace-driver@v3+%s:%s" % (NATIVE_STAGE_TAG, digest))

    def monitor_bundle(self, properties):
        """Stage ``monitor``: the compiled
        :class:`~repro.verify.monitor.MonitorProgram` for a property
        tuple, content-addressed by the properties' digest — farm
        workers re-running a verification campaign bind monitors
        without re-lowering them."""
        from ..verify.monitor import bundle_digest, compile_bundle
        props = tuple(properties)
        def compute():
            return compile_bundle(props)
        return self._stage(
            "monitor", compute, kind="monitor-program",
            key_stage="monitor@%s" % bundle_digest(props)[:16])

    def reactor(self, engine="efsm", counter=None, builtins=None):
        """A runnable instance of the named engine, bound by the engine
        registry (:meth:`repro.engines.Engine.reactor`): a per-instant
        reactor for the engines tagged ``step`` (native, efsm, interp),
        the sweep-oriented :class:`~repro.runtime.vector.VectorReactor`
        for "vector".  Raises CompileError for unknown names and for
        engines without a single-module form."""
        try:
            bound = get_engine(engine)
        except EclError as error:
            raise CompileError(str(error))
        return bound.reactor(self, counter=counter, builtins=builtins)
