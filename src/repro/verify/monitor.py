"""Compiled temporal monitors: properties lowered to one step closure.

A bundle of :class:`~repro.verify.props.Property` lowers **once** into
a single Python function — the same compile-to-source discipline as
:mod:`repro.runtime.native` — that steps alongside any engine:

* presence tests become set-membership tests on the instant's emitted
  set ``E`` and input dict ``I`` (each referenced signal is probed once
  per instant into a local);
* monitor state (``within`` deadlines, ``eventually`` flags, sequence
  progress bitmasks, per-property trip flags) lives in one flat slot
  list ``M`` — slot indices are resolved at compile time;
* the function returns a bitmask of *newly violated* properties (a
  tripped property is disabled, so each property reports at most one
  violation per run).

The result of lowering is a picklable :class:`MonitorProgram`; the
pipeline content-addresses it per design in the ``ArtifactCache``
(:meth:`repro.pipeline.pipeline.ModuleHandle.monitor_bundle`), and the
program keeps its compiled code objects
(:class:`repro.runtime.native.GeneratedCode`), so farm workers bind
thousands of monitors without re-compiling anything.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Tuple

from ..errors import EclError
from ..runtime.native import GeneratedCode
from .props import (
    Always,
    And,
    Eventually,
    Implies,
    Never,
    Not,
    Or,
    Present,
    Property,
    Sequence,
    Value,
    Within,
)

#: Properties per bundle are capped so the violation bitmask stays a
#: cheap small int (and reports stay readable).
MAX_PROPERTIES = 64


@dataclass
class MonitorProgram(GeneratedCode):
    """Picklable result of lowering one property bundle."""

    source: str
    #: Initial slot values (index-aligned with the M array).
    initial: Tuple[int, ...] = ()
    #: One human-readable description per property, bit-aligned.
    descriptions: Tuple[str, ...] = ()
    #: Every signal name the bundle observes.
    signals: Tuple[str, ...] = ()
    #: The property dataclasses themselves (for re-compilation and
    #: campaign reporting).
    properties: Tuple[Property, ...] = ()

    @property
    def digest(self):
        return hashlib.sha256(self.source.encode("utf-8")).hexdigest()

    def describe(self):
        lines = ["monitor bundle: %d properties" % len(self.descriptions)]
        for index, text in enumerate(self.descriptions):
            lines.append("  [%d] %s" % (index, text))
        return "\n".join(lines)


class _MonitorLowerer:
    """Lowers a property bundle into the body of ``_monitor_step``."""

    def __init__(self):
        self.lines: List[str] = []
        self.initial: List[int] = []
        self.presence = {}  # signal -> local name
        self.values = {}  # signal -> local name
        self.prologue: List[str] = []

    def slot(self, init=0):
        self.initial.append(init)
        return len(self.initial) - 1

    def emit(self, text, indent=1):
        self.lines.append("    " * indent + text)

    # -- per-instant probes --------------------------------------------

    def presence_local(self, signal):
        local = self.presence.get(signal)
        if local is None:
            local = "p%d" % len(self.presence)
            self.presence[signal] = local
            self.prologue.append(
                "    %s = %r in E or %r in I" % (local, signal, signal)
            )
        return local

    def value_local(self, signal):
        local = self.values.get(signal)
        if local is None:
            local = "v%d" % len(self.values)
            self.values[signal] = local
            self.prologue.append("    %s = V.get(%r)" % (local, signal))
            self.prologue.append(
                "    if %s is None: %s = I.get(%r)" % (local, local, signal)
            )
        return local

    # -- predicates ----------------------------------------------------

    def pred(self, pred, indent):
        """Lower to a Python expression; stateful sub-predicates emit
        update lines at ``indent`` first (old state advances them, so
        sequence elements match at strictly increasing instants)."""
        if isinstance(pred, Present):
            return self.presence_local(pred.signal)
        if isinstance(pred, Value):
            local = self.value_local(pred.signal)
            return "(type(%s) is int and %s %s %d)" % (
                local,
                local,
                pred.op,
                pred.constant,
            )
        if isinstance(pred, Not):
            return "(not %s)" % self.pred(pred.operand, indent)
        if isinstance(pred, And):
            left = self.pred(pred.left, indent)
            right = self.pred(pred.right, indent)
            return "(%s and %s)" % (left, right)
        if isinstance(pred, Or):
            left = self.pred(pred.left, indent)
            right = self.pred(pred.right, indent)
            return "(%s or %s)" % (left, right)
        if isinstance(pred, Sequence):
            return self._sequence(pred, indent)
        raise EclError("cannot compile predicate %r" % (pred,))

    def _sequence(self, seq, indent):
        steps = [self.pred(step, indent) for step in seq.steps]
        if len(steps) == 1:
            return steps[0]
        slot = self.slot()
        old = "q%d" % slot
        self.emit("%s = M[%d]" % (old, slot), indent)
        self.emit("if %s: M[%d] = %s | 1" % (steps[0], slot, old), indent)
        for stage in range(1, len(steps) - 1):
            self.emit(
                "if (%s >> %d) & 1 and %s: M[%d] = M[%d] | %d"
                % (old, stage - 1, steps[stage], slot, slot, 1 << stage),
                indent,
            )
        final = len(steps) - 1
        return "((%s >> %d) & 1 and %s)" % (old, final - 1, steps[final])

    # -- properties ----------------------------------------------------

    def lower(self, index, prop):
        trip = self.slot()
        bit = 1 << index
        self.emit("if not M[%d]:" % trip)
        if isinstance(prop, Always):
            bad = "(not %s)" % self.pred(prop.pred, 2)
            self._trip_if(bad, trip, bit)
        elif isinstance(prop, Never):
            self._trip_if(self.pred(prop.pred, 2), trip, bit)
        elif isinstance(prop, Implies):
            when = self.pred(prop.when, 2)
            then = self.pred(prop.then, 2)
            self._trip_if("(%s and not %s)" % (when, then), trip, bit)
        elif isinstance(prop, Within):
            self._within(prop, trip, bit)
        elif isinstance(prop, Eventually):
            self._eventually(prop, trip, bit)
        else:
            raise EclError("cannot compile property %r" % (prop,))

    def _trip_if(self, cond, trip, bit):
        self.emit("if %s:" % cond, 2)
        self.emit("M[%d] = 1; r |= %d" % (trip, bit), 3)

    def _within(self, prop, trip, bit):
        """Deadline slot: 0 = disarmed, k > 0 = k instants left."""
        deadline = self.slot()
        trigger = self.pred(prop.trigger, 2)
        expect = self.pred(prop.expect, 2)
        self.emit("w = M[%d]" % deadline, 2)
        self.emit("if w > 0:", 2)
        self.emit("if %s: M[%d] = 0" % (expect, deadline), 3)
        self.emit("else:", 3)
        self.emit("w -= 1; M[%d] = w" % deadline, 4)
        self.emit("if w == 0:", 4)
        self.emit("M[%d] = 1; r |= %d" % (trip, bit), 5)
        self.emit(
            "if %s and not M[%d] and M[%d] == 0 and not %s:"
            % (trigger, trip, deadline, expect),
            2,
        )
        if prop.limit == 0:
            self.emit("M[%d] = 1; r |= %d" % (trip, bit), 3)
        else:
            self.emit("M[%d] = %d" % (deadline, prop.limit), 3)

    def _eventually(self, prop, trip, bit):
        seen = self.slot()
        pred = self.pred(prop.pred, 2)
        self.emit("if %s: M[%d] = 1" % (pred, seen), 2)
        self.emit("if n >= %d and not M[%d]:" % (prop.limit, seen), 2)
        self.emit("M[%d] = 1; r |= %d" % (trip, bit), 3)


class _Unbindable(Exception):
    """Internal: this bundle cannot specialize to flat-array probes."""


class _BoundLowerer(_MonitorLowerer):
    """Specializes probes to a native reactor's flat arrays.

    Presence tests become ``P[i]`` reads and value comparisons become
    ``P[i] and S[j] <op> k`` — the same slot-indexed discipline as the
    generated reaction functions, which is what makes the monitored
    hot path nearly free.  Signals outside the module's input/output
    boundary (locals, unknown names) are constant-absent, exactly as
    the record-based probes see them.
    """

    def __init__(self, layout):
        super().__init__()
        self.layout = layout

    def pred(self, pred, indent):
        if isinstance(pred, Present):
            entry = self.layout.get(pred.signal)
            return "P[%d]" % entry[0] if entry else "0"
        if isinstance(pred, Value):
            entry = self.layout.get(pred.signal)
            if entry is None:
                return "0"
            pidx, sidx = entry
            if sidx < 0:
                # Aggregate or storage-backed value: no slot to read.
                raise _Unbindable(pred.signal)
            return "(P[%d] and S[%d] %s %d)" % (
                pidx,
                sidx,
                pred.op,
                pred.constant,
            )
        return super().pred(pred, indent)


def bind_native(program, reactor):
    """Specialize a compiled bundle to one native reactor.

    Returns a ``step(n, M) -> mask`` closure over the reactor's flat
    presence/value arrays, or ``None`` when the reactor is not
    array-backed (interp/efsm engines) or a referenced value signal has
    no slot.  Slot layout is identical to the generic program (both
    lowerers allocate in the same order), so the closure shares the
    monitor's ``M`` list.

    One deliberate nuance: a *valued input* injected as bare presence
    compares against its carried (persistent) value here, while the
    record path sees no fresh value and yields False; stimulus
    generators never drive valued signals without a value, so the
    verdicts agree everywhere the farm can reach.
    """
    signals = getattr(reactor, "signals", None)
    present = getattr(reactor, "_present", None)
    slots = getattr(reactor, "_slots", None)
    if signals is None or present is None or slots is None:
        return None
    layout = {}
    for signal in signals:
        if signal.direction in ("input", "output"):
            layout[signal.name] = (signal.pidx, getattr(signal, "sidx", -1))
    lowerer = _BoundLowerer(layout)
    try:
        for index, prop in enumerate(program.properties):
            lowerer.emit("# [%d] %s" % (index, prop.describe()))
            lowerer.lower(index, prop)
    except _Unbindable:
        return None
    if tuple(lowerer.initial) != program.initial:
        return None  # layout drift: stay on the generic path
    header = [
        '"""Array-bound monitor step (generated by repro.verify.monitor)."""',
        "",
        "def _monitor_step_bound(n, M, P=P, S=S):",
        "    r = 0",
    ]
    source = "\n".join(
        header + lowerer.prologue + lowerer.lines + ["    return r", ""]
    )
    namespace = {"P": present, "S": slots}
    exec(program.compiled(source), namespace)
    return namespace["_monitor_step_bound"]


def compile_bundle(properties):
    """Lower ``properties`` into one :class:`MonitorProgram`."""
    props = tuple(properties)
    if not props:
        raise EclError("compile_bundle() needs at least one property")
    if len(props) > MAX_PROPERTIES:
        raise EclError(
            "too many properties in one bundle (%d, max %d)"
            % (len(props), MAX_PROPERTIES)
        )
    lowerer = _MonitorLowerer()
    descriptions = []
    for index, prop in enumerate(props):
        if not isinstance(prop, Property):
            raise EclError("not a property: %r" % (prop,))
        descriptions.append(prop.describe())
        lowerer.emit("# [%d] %s" % (index, prop.describe()))
        lowerer.lower(index, prop)
    header = [
        '"""Compiled monitor step (generated by repro.verify.monitor)."""',
        "",
        "def _monitor_step(n, E, I, V, M):",
        "    r = 0",
    ]
    source = "\n".join(header + lowerer.prologue + lowerer.lines + ["    return r", ""])
    signals = sorted(set(lowerer.presence) | set(lowerer.values))
    return MonitorProgram(
        source=source,
        initial=tuple(lowerer.initial),
        descriptions=tuple(descriptions),
        signals=tuple(signals),
        properties=props,
    )


def bundle_digest(properties):
    """Stable content address of a property tuple (before lowering)."""
    text = "\x1f".join(repr(prop) for prop in properties)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Runtime.


@dataclass
class Violation:
    """One property violation, located in the trace."""

    property_index: int
    property_text: str
    instant: int

    def describe(self):
        return "instant %d: %s" % (self.instant, self.property_text)


class Monitor:
    """A runnable instance of one compiled bundle."""

    def __init__(self, program):
        self.program = program
        namespace = {}
        exec(program.compiled(), namespace)
        self._step = namespace["_monitor_step"]
        self.slots = list(program.initial)
        self.instant = 0
        self.violations: List[Violation] = []

    @property
    def ok(self):
        return not self.violations

    @property
    def first_violation(self):
        return self.violations[0] if self.violations else None

    def step(self, emitted, inputs, values):
        """Advance one instant.

        ``emitted``: set/frozenset of emitted output names; ``inputs``:
        dict of present input names (value or None); ``values``: dict of
        emitted output values.  Returns the newly-violated bitmask.
        """
        instant = self.instant
        mask = self._step(instant, emitted, inputs, values, self.slots)
        self.instant = instant + 1
        if mask:
            self._record(mask, instant)
        return mask

    def _record(self, mask, instant):
        descriptions = self.program.descriptions
        for index in range(len(descriptions)):
            if mask >> index & 1:
                self.violations.append(
                    Violation(index, descriptions[index], instant)
                )

    def step_record(self, record):
        """Advance over one farm trace record
        (:func:`repro.engines.make_record` shape)."""
        return self.step(record["emitted"], record["inputs"], record["values"])

    def reset(self):
        self.slots[:] = self.program.initial  # in place: aliases stay valid
        self.instant = 0
        self.violations = []


class MonitoredReactor:
    """Wrap any reactor so compiled monitors step alongside it.

    Exposes the same ``react`` surface; ``monitor`` collects violations
    as the run progresses.  The per-instant cost is one dict build plus
    one compiled-function call — the <1.3x overhead budget measured by
    ``benchmarks/bench_verify_overhead.py``.
    """

    def __init__(self, reactor, program):
        self.reactor = reactor
        self.monitor = Monitor(program)
        # Hoisted per-instant hot path: the inner react, the monitor's
        # slot list, and — on array-backed reactors — the bundle
        # re-lowered to direct P/S reads (the wrapper's whole cost
        # budget is the benchmark's <1.3x ceiling).
        self._inner_react = reactor.react
        self._step = self.monitor._step
        self._slots = self.monitor.slots
        self._bound = bind_native(program, reactor)

    @property
    def terminated(self):
        return self.reactor.terminated

    def react(self, inputs=None, values=None):
        if self.reactor.terminated:  # inert: nothing new to observe
            return self._inner_react(inputs=inputs, values=values)
        output = self._inner_react(inputs=inputs, values=values)
        monitor = self.monitor
        n = monitor.instant
        if self._bound is not None:
            mask = self._bound(n, self._slots)
        else:
            if inputs:
                instant = dict.fromkeys(inputs)
                if values:
                    instant.update(values)
            else:
                instant = values if values is not None else {}
            mask = self._step(
                n, output.emitted, instant, output.values, self._slots
            )
        monitor.instant = n + 1
        if mask:
            monitor._record(mask, n)
        return output

    def react_many(self, instants):
        """Batched instants (native engine): monitors step over the
        produced outputs in order."""
        outputs = self.reactor.react_many(instants)
        step = self.monitor.step
        for instant, output in zip(instants, outputs):
            step(output.emitted, instant, output.values)
        return outputs
