"""The ECL compiler driver — the paper's three phases behind one API.

    >>> from repro.core import EclCompiler
    >>> design = EclCompiler().compile_text(source_text)
    >>> module = design.module("toplevel")
    >>> reactor = module.reactor()          # runnable (EFSM engine)
    >>> c_code = module.c_code()            # software synthesis
    >>> esterel = module.glue().esterel_text  # phase-1 artifact

This façade is a thin compatibility shim over the staged
:mod:`repro.pipeline` subsystem: every phase runs as a named pipeline
stage whose artifact lands in the pipeline's :class:`ArtifactCache`, so
the lazy-caching behaviour of the original driver (phase 1 eager per
module, phases 2-3 on demand) falls out of the cache for free.  New
code should prefer :class:`repro.pipeline.Pipeline` directly — it adds
pluggable emitters, persistent caching, and batched parallel builds.
"""

from __future__ import annotations

from ..codegen.c_backend import generate_c
from ..codegen.py_backend import generate_python
from ..codegen.verilog_backend import generate_verilog
from ..codegen.vhdl_backend import generate_vhdl
from ..ecl.check import warnings_of
from ..ecl.glue import generate_glue
from ..efsm.dot import to_dot
from ..pipeline.pipeline import DesignBuild, Pipeline
from ..pipeline.stages import CompileOptions

__all__ = [
    "CompileOptions",
    "CompiledDesign",
    "CompiledModule",
    "EclCompiler",
]


class CompiledModule:
    """One module's compilation products, built on demand.

    Thin wrapper over a :class:`repro.pipeline.ModuleHandle`: the
    checker runs (and raises) at construction time, phase 1 is eager,
    phases 2-3 are cache-backed stages.
    """

    def __init__(self, design, name):
        self._design = design
        self.name = name
        self._handle = design._build.module(name)
        self.diagnostics = self._handle.check()
        self.kernel = self._handle.kernel()

    @property
    def warnings(self):
        """Checker warnings for this module."""
        return warnings_of(self.diagnostics)

    # -- phase 2 --------------------------------------------------------

    def efsm(self, optimized=None):
        """The module's EFSM (optimized by default per options)."""
        return self._handle.efsm(optimized)

    # -- phase 3 --------------------------------------------------------

    def reactor(self, engine="efsm", counter=None, builtins=None):
        """A runnable instance of any engine
        :meth:`repro.pipeline.pipeline.ModuleHandle.reactor` binds
        ("efsm", "native", "interp" or "vector")."""
        return self._handle.reactor(engine=engine, counter=counter,
                                    builtins=builtins)

    def c_code(self):
        """Generated C header/source (phase 3, software)."""
        return generate_c(self.efsm(), self._design.types)

    def py_code(self):
        """Generated standalone Python reactor module."""
        return generate_python(self.efsm())

    def vhdl(self):
        """Generated VHDL (only when the data part is empty)."""
        return generate_vhdl(self.efsm())

    def verilog(self):
        """Generated Verilog (only when the data part is empty)."""
        return generate_verilog(self.efsm())

    def glue(self):
        """Phase-1 artifacts: Esterel file, C file, header."""
        return generate_glue(self.kernel, self._design.types)

    def dot(self):
        """Graphviz rendering of the EFSM."""
        return to_dot(self.efsm())

    def emit(self, backend_name):
        """Registered backend output for this module (filename →
        text); see :mod:`repro.pipeline.registry`."""
        return self._handle.emit(backend_name)

    def split_report(self):
        """The splitter's classification of this module's source."""
        return self._handle.split_report()


class CompiledDesign:
    """A compiled translation unit: source program + per-module products."""

    def __init__(self, program, types, options, build=None):
        self.program = program
        self.types = types
        self.options = options
        if build is None:
            build = DesignBuild.from_parsed(Pipeline(options), program,
                                            types)
        self._build = build
        self._modules = {}

    def module(self, name):
        if name not in self._modules:
            self._build.require_module(name)
            self._modules[name] = CompiledModule(self, name)
        return self._modules[name]

    @property
    def module_names(self):
        return [m.name for m in self.program.modules()]


class EclCompiler:
    """Front door of the reproduction (legacy façade over the pipeline)."""

    def __init__(self, options=None, pipeline=None):
        if pipeline is None:
            pipeline = Pipeline(options)
        elif options is not None:
            raise ValueError(
                "pass either options or a pipeline, not both — a "
                "Pipeline already carries its CompileOptions")
        self.pipeline = pipeline

    @property
    def options(self):
        """The pipeline's options; assignment writes through, so the
        legacy ``compiler.options = CompileOptions(...)`` idiom still
        affects subsequent compiles."""
        return self.pipeline.options

    @options.setter
    def options(self, value):
        self.pipeline.options = value

    def compile_text(self, text, filename="<string>", include_paths=(),
                     predefined=None):
        """Compile ECL source text into a :class:`CompiledDesign`."""
        build = self.pipeline.compile_text(
            text, filename, include_paths=include_paths,
            predefined=predefined)
        program, types = build.ensure_parsed()
        return CompiledDesign(program, types, self.options, build=build)

    def compile_file(self, path, include_paths=()):
        with open(path) as handle:
            text = handle.read()
        return self.compile_text(text, filename=str(path),
                                 include_paths=include_paths)
