"""Observer-based safety verification — the synchronous idiom.

"one can perform property verification" (paper, Section 2): the
standard technique is to write a *watcher* module in the same language
that monitors the design's signals and emits an ``error`` signal when
the property is violated, then check that the composed machine can
never emit it.

:func:`verify_with_observer` composes a design module with an observer
module synchronously (a synthesized `par` top level, exactly what the
ECL translator does for Figure 4) and runs the sound control-space
search of :mod:`repro.analysis.properties` on the product EFSM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..ecl.translate import translate_module
from ..efsm.build import build_efsm
from ..engines import get_engine
from ..errors import EclError
from ..lang import ast
from ..lang.source import SYNTHETIC
from .properties import check_never_emitted


@dataclass
class TraceCounterexample:
    """A concrete stimulus prefix that made the observer fire."""

    instant: int
    trace: List[dict]
    error_signal: str = "error"

    @property
    def length(self):
        return len(self.trace)

    def describe(self):
        lines = []
        for number, step in enumerate(self.trace):
            entries = []
            for name in sorted(step):
                value = step[name]
                entries.append(name if value is None
                               else "%s=%r" % (name, value))
            marker = "  <-- %s" % self.error_signal \
                if number == self.instant else ""
            lines.append("instant %d: %s%s"
                         % (number, " ".join(entries) or "-", marker))
        return "\n".join(lines)


def verify_with_observer(design, module_name, observer_name,
                         error_signal="error", max_states=4096,
                         engine=None, trace=None):
    """Check a safety property expressed as an observer module.

    ``design`` is a :class:`~repro.pipeline.DesignBuild`
    containing both the module under verification and the observer.
    Signals are wired **by name**: every observer input must match an
    input or output of the design module (plus fresh environment inputs
    are allowed); the observer's ``error_signal`` output flags a
    violation.

    With ``engine=None`` (the default) the check is *static*: a sound
    search of the composed machine's data-abstracted control space.
    Returns ``None`` when the property holds, else a
    :class:`~repro.analysis.properties.Counterexample`.

    With an ``engine`` name (``interp``, ``efsm`` or ``native``) the
    check is *dynamic*: the synchronous composition runs over ``trace``
    (a list of instant dicts) on that engine — the native engine makes
    legacy observer checks run at compiled-reaction speed.  Returns
    ``None`` when the observer stays silent on the trace, else a
    :class:`TraceCounterexample` locating the first error emission.
    """
    program = design.program
    module = program.module_named(module_name)
    observer = program.module_named(observer_name)
    if not any(p.name == error_signal and p.direction == "output"
               for p in observer.signals):
        raise EclError(
            "observer %s has no output signal %r" % (observer_name,
                                                     error_signal))
    top = _compose(module, observer, error_signal)
    synthetic = ast.Program(items=tuple(program.items) + (top,))
    kernel = translate_module(synthetic, design.types, top.name)
    efsm = build_efsm(kernel, max_states=max_states)
    if engine is None:
        return check_never_emitted(efsm, error_signal)
    reactor = get_engine(engine).bind(kernel, efsm)
    if trace is None:
        raise EclError(
            "verify_with_observer(engine=%r) needs a trace (a list of "
            "instant dicts) to drive the composition" % engine)
    return _run_observer(reactor, trace, error_signal)


def _run_observer(reactor, trace, error_signal):
    for number, step in enumerate(trace):
        pure = [name for name, value in step.items() if value is None]
        valued = {name: value for name, value in step.items()
                  if value is not None}
        output = reactor.react(inputs=pure, values=valued)
        if error_signal in output.emitted:
            return TraceCounterexample(
                instant=number,
                trace=[dict(instant) for instant in trace[:number + 1]],
                error_signal=error_signal,
            )
        if output.terminated:
            break
    return None


def _compose(module, observer, error_signal):
    """Build ``module verified_top (…) { par { design(…); observer(…) } }``.

    The top level re-exports the design's interface plus any
    observer-only inputs, and the observer's error signal.
    """
    params = list(module.signals)
    names = {p.name for p in params}
    design_outputs = {p.name for p in module.signals
                      if p.direction == "output"}
    for signal in observer.signals:
        if signal.name == error_signal:
            params.append(signal)
            names.add(signal.name)
            continue
        if signal.direction == "output":
            raise EclError(
                "observer %s drives signal %r; observers may only "
                "watch the design (outputs other than the error signal "
                "are not allowed)" % (observer.name, signal.name))
        if signal.name in names:
            continue  # watches a design signal
        params.append(signal)  # observer-only environment input
        names.add(signal.name)

    def call(target):
        return ast.ExprStmt(
            span=SYNTHETIC,
            expr=ast.Call(
                span=SYNTHETIC,
                func=target.name,
                args=tuple(ast.Name(span=SYNTHETIC, id=p.name)
                           for p in target.signals)))

    body = ast.Block(span=SYNTHETIC, body=(
        ast.Par(span=SYNTHETIC,
                branches=(call(module), call(observer))),
    ))
    # Design outputs watched by the observer must stay outputs of the
    # composition; inputs pass through.
    top_params = []
    for param in params:
        direction = param.direction
        if param.name in design_outputs or param.name == error_signal:
            direction = "output"
        top_params.append(ast.SignalParam(
            span=SYNTHETIC, direction=direction, name=param.name,
            type=param.type))
    return ast.ModuleDecl(
        span=SYNTHETIC,
        name="ecl_verify_%s_%s" % (module.name, observer.name),
        signals=tuple(top_params),
        body=body,
    )
