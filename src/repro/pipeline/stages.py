"""The named stages of the ECL compilation pipeline.

The paper's flow is a staged pipeline — split the source into reactive
and data parts, translate to an Esterel kernel, build the EFSM, then
hand it to back-ends.  This module makes each step a first-class,
*pure* function of (parsed design, options, module name): given the
same inputs it produces the same payload, which is the contract the
content-addressed :mod:`repro.pipeline.cache` relies on.  The parsed
design is itself a function of the preprocessed text, which is what
the keys digest.

Stage names (``Stage.name``) are the vocabulary of
:class:`~repro.pipeline.artifacts.ArtifactKey` and of the per-module
timings in a :class:`~repro.pipeline.report.BuildReport`.  Emitter
stages are named ``emit:<backend>`` after the registered backend.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ecl.check import check_module, errors_of, warnings_of
from ..ecl.splitter import split_module
from ..ecl.translate import translate_module
from ..efsm.build import build_efsm
from ..efsm.optimize import optimize as optimize_efsm
from ..errors import CompileError
from ..lang.parser import parse_text


@dataclass
class CompileOptions:
    """Knobs for the compilation pipeline (ablation hooks included)."""

    #: Extract data loops as C functions (paper's splitter heuristic);
    #: turning this off is the bench_ablation_splitter experiment.
    extract_data_loops: bool = True
    #: Run the EFSM optimization passes (bench_ablation_optimize).
    optimize: bool = True
    #: State budget for the symbolic builder.
    max_states: int = 4096
    #: Run the static semantic checker before translation.
    check: bool = True
    #: Treat checker warnings as errors.
    strict: bool = False


@dataclass(frozen=True)
class Stage:
    """Descriptor of one pipeline stage."""

    name: str
    kind: str                   # artifact kind the stage produces
    design_level: bool = False  # one artifact per design, not per module
    description: str = ""


#: The core (non-emitter) stages, in pipeline order.
STAGES = (
    Stage("parse", "program", design_level=True,
          description="lex + parse the preprocessed translation unit"),
    Stage("modules", "names", design_level=True,
          description="module names of the translation unit"),
    Stage("check", "diagnostics",
          description="static semantic checks for one module"),
    Stage("split", "split-report",
          description="reactive/data classification of one module"),
    Stage("translate", "kernel",
          description="phase 1: ECL module to Esterel kernel"),
    Stage("efsm", "efsm",
          description="phase 2: symbolic EFSM construction"),
    Stage("optimize", "efsm",
          description="phase 2b: EFSM optimization passes"),
)

#: Prefix of the per-backend emitter stages ("emit:c", "emit:dot", ...).
EMIT_STAGE_PREFIX = "emit:"


def stage_named(name):
    for stage in STAGES:
        if stage.name == name:
            return stage
    if name.startswith(EMIT_STAGE_PREFIX):
        return Stage(name, "files",
                     description="phase 3: %s emitter"
                     % name[len(EMIT_STAGE_PREFIX):])
    raise CompileError("unknown pipeline stage %r" % name)


# ----------------------------------------------------------------------
# Stage functions.  Each is pure in (program, types, options, name).

def run_parse(text, filename="<string>"):
    """Stage ``parse``: preprocessed text → (program, types).  The
    preprocessor already ran: its output is what the artifact keys
    digest (:meth:`repro.pipeline.DesignBuild.preprocessed`)."""
    return parse_text(text, filename, run_preprocessor=False)


def run_modules(program):
    """Stage ``modules``: the translation unit's module names."""
    return tuple(m.name for m in program.modules())


def run_check(program, types, name, options):
    """Stage ``check``: diagnostics (empty when checking is off)."""
    if not options.check:
        return []
    return check_module(program, types, name)


def run_split(program, name, options):
    """Stage ``split``: the splitter's classification of one module."""
    module_names = {m.name for m in program.modules()}
    return split_module(program.module_named(name), module_names,
                        extract_data_loops=options.extract_data_loops)


def run_translate(program, types, name, options):
    """Stage ``translate``: ECL module → Esterel kernel module."""
    return translate_module(program, types, name,
                            extract_data_loops=options.extract_data_loops)


def run_efsm(kernel, options):
    """Stage ``efsm``: kernel → raw automaton."""
    return build_efsm(kernel, max_states=options.max_states)


def run_optimize(efsm):
    """Stage ``optimize``: raw automaton → optimized automaton."""
    return optimize_efsm(efsm)


def raise_for_diagnostics(name, diagnostics, strict=False):
    """Raise :class:`CompileError` if ``diagnostics`` contains errors
    (or anything at all under ``strict``); mirrors the legacy driver."""
    problems = diagnostics if strict else errors_of(diagnostics)
    if problems:
        raise CompileError(
            "module %s has %d problem(s):\n%s"
            % (name, len(problems),
               "\n".join("  " + str(d) for d in problems)))


def warning_texts(diagnostics):
    """Rendered warning strings of a diagnostics list."""
    return [str(w) for w in warnings_of(diagnostics)]
