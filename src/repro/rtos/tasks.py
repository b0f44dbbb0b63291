"""RTOS tasks wrapping compiled ECL modules.

One :class:`RtosTask` is one module instance with its input signals
mapped to slot-indexed carriers (paper: ECL signals are "conceptually
closer to the event flag or mailbox synchronization services offered by
several RTOSs").  A dispatch drains whatever inputs are pending and
runs exactly one synchronous reaction over them — the CFSM execution
model of [1].

The carriers keep the event-flag / one-place-mailbox *semantics* of
:mod:`repro.rtos.services` (a second pure event before consumption is
lost, a fresh value overwrites an unconsumed one and counts it lost)
but store them as flat pending/value arrays instead of one object per
signal, so a dispatch is array moves rather than dict traffic.

Engine selection happens at construction: hand the task any reactor
(interpreter, :class:`~repro.codegen.py_backend.EfsmReactor`, or
:class:`~repro.runtime.native.NativeReactor`).  For a native reactor
the task binds a **fast dispatch path**: pending events are written
straight into the reactor's ``P``/``S`` slot arrays (the layout the
lowered state functions read) and the state function is called
directly, bypassing the per-instant dict handling of ``react()``.
Both paths are observably identical — same emissions, same lost-event
accounting, same kernel statistics.
"""

from __future__ import annotations


from ..efsm.machine import TERMINATED
from ..errors import RtosError
from ..lang.types import PureType


class CarrierView:
    """Read-only snapshot of one input carrier (introspection only —
    the live state is the task's slot arrays)."""

    __slots__ = ("name", "is_pure", "pending", "value", "post_count", "lost_count")

    def __init__(self, name, is_pure, pending, value, post_count, lost_count):
        self.name = name
        self.is_pure = is_pure
        self.pending = pending
        self.value = value
        self.post_count = post_count
        self.lost_count = lost_count

    def __repr__(self):
        state = "pending" if self.pending else "empty"
        return "<CarrierView %s %s>" % (self.name, state)


class _NativeBinding:
    """Everything the native fast path needs, resolved once per task."""

    __slots__ = ("inject", "out_bits", "mask_cache")

    def __init__(self, inject, out_bits):
        #: per-carrier ``(pidx, sidx, fn)``: sidx >= 0 writes the slot
        #: array through ``fn`` (the type's wrap), sidx < 0 with fn
        #: stores through the signal (mem-backed value), fn None = pure.
        self.inject = inject
        #: per-output ``(bit, network_name, loader_or_None)``.
        self.out_bits = out_bits
        #: emitted-mask -> tuple of ``(network_name, loader_or_None)``.
        self.mask_cache = {}

    def decode(self, mask):
        entries = tuple(
            (network, loader)
            for bit, network, loader in self.out_bits
            if mask & bit
        )
        self.mask_cache[mask] = entries
        return entries


class RtosTask:
    """One schedulable task around a module reactor."""

    def __init__(self, name, reactor, priority=1, bindings=None):
        self.name = name
        self.reactor = reactor
        self.priority = priority
        self.kernel = None
        self.ready = False
        #: position in the kernel's priority scan order (set at start).
        self._order_pos = 0
        binding = dict(bindings or {})
        formals = []
        networks = []
        pures = []
        #: network signal name -> carrier index
        self._by_network = {}
        #: formal output name -> network signal name
        self._output_names = {}
        for param in reactor.module.params:
            network = binding.get(param.name, param.name)
            if param.direction == "input":
                self._by_network[network] = len(formals)
                formals.append(param.name)
                networks.append(network)
                pures.append(isinstance(param.type, PureType))
            else:
                self._output_names[param.name] = network
        count = len(formals)
        self._formals = tuple(formals)
        self._networks = tuple(networks)
        self._pure = tuple(pures)
        self._ncarriers = count
        #: slot-indexed carrier state (parallel arrays).
        self._pend = [0] * count
        self._vals = [None] * count
        self._posts = [0] * count
        self._lost = [0] * count
        self.dispatch_count = 0
        self.reaction_instants = 0
        self._native = self._bind_native(reactor)

    # ------------------------------------------------------------------

    def _bind_native(self, reactor):
        """A :class:`_NativeBinding` when ``reactor`` exposes the
        native slot layout (duck-typed: no import of the runtime
        package needed for the generic engines)."""
        code = getattr(reactor, "code", None)
        if code is None or getattr(reactor, "_funcs", None) is None:
            return None
        inject = []
        for index, formal in enumerate(self._formals):
            slot = reactor.signals[formal]
            if self._pure[index]:
                inject.append((slot.pidx, -1, None))
            elif slot.sidx >= 0:
                inject.append((slot.pidx, slot.sidx, slot.type.wrap))
            else:
                inject.append((slot.pidx, -1, slot.store))
        out_bits = []
        for formal, bit in code.output_bits:
            slot = reactor.signals[formal]
            loader = None if slot.is_pure else slot.load
            out_bits.append((bit, self._output_names[formal], loader))
        return _NativeBinding(tuple(inject), tuple(out_bits))

    @property
    def uses_native_path(self):
        """True when dispatches run through the slot-indexed fast path."""
        return self._native is not None

    # ------------------------------------------------------------------

    def accepts(self, network_signal):
        return network_signal in self._by_network

    def consumed_signals(self):
        """Network signal names this task's inputs are bound to."""
        return list(self._by_network.keys())

    def produced_signals(self):
        """Network signal names this task's outputs are bound to."""
        return list(self._output_names.values())

    def input_alphabet(self):
        """``(network_name, is_pure)`` per drivable input carrier
        (sorted) — what a stimulus generator may post at this task:
        the carriers of the module's
        :meth:`~repro.ecl.module.KernelModule.drivable_inputs`."""
        drivable = dict(self.reactor.module.drivable_inputs())
        return [
            (network, drivable[self._formals[index]])
            for network, index in sorted(self._by_network.items())
            if self._formals[index] in drivable
        ]

    def deliver(self, network_signal, value=None):
        """Post an event/value into this task's input carrier.

        Carrier semantics match the classic services: a pure event on a
        still-pending carrier is lost (CFSM event flags latch, they do
        not count), a value on a still-pending carrier overwrites the
        unconsumed one and counts it lost (one-place mailbox).
        """
        index = self._by_network.get(network_signal)
        if index is None:
            raise RtosError("task %r does not consume %r" % (self.name, network_signal))
        if self._pend[index]:
            self._lost[index] += 1
        self._pend[index] = 1
        self._posts[index] += 1
        if not self._pure[index]:
            self._vals[index] = value
        self.ready = True

    def dispatch(self):
        """Run one reaction over the pending inputs.

        Returns ``{network_signal: value-or-None}`` for every output
        emitted by the reaction.
        """
        if self._native is not None:
            return self._dispatch_native()
        return self._dispatch_generic()

    def _dispatch_generic(self):
        self.ready = False
        pure = []
        valued = {}
        pend = self._pend
        vals = self._vals
        formals = self._formals
        pures = self._pure
        for index in range(self._ncarriers):
            if pend[index]:
                pend[index] = 0
                if pures[index]:
                    pure.append(formals[index])
                else:
                    valued[formals[index]] = vals[index]
                    vals[index] = None
        output = self.reactor.react(inputs=pure, values=valued)
        self.dispatch_count += 1
        self.reaction_instants += 1
        if output.delta_requested and not output.terminated:
            # await() pause: the task must run again without any input
            # event (paper, footnote 3) — a scheduler-visible self trigger.
            self.ready = True
            if self.kernel is not None:
                self.kernel.note_self_trigger()
        emitted = {}
        for formal in output.emitted:
            emitted[self._output_names[formal]] = output.values.get(formal)
        return emitted

    def _dispatch_native(self):
        """Slot-indexed dispatch: pending carriers move straight into
        the native reactor's presence/value arrays and the state
        function runs directly — no instant dicts, no ReactorOutput."""
        self.ready = False
        reactor = self.reactor
        pend = self._pend
        vals = self._vals
        if reactor.terminated:
            for index in range(self._ncarriers):
                pend[index] = 0
                vals[index] = None
            self.dispatch_count += 1
            self.reaction_instants += 1
            return {}
        binding = self._native
        present = reactor._present
        present[:] = reactor._pzero
        slots = reactor._slots
        inject = binding.inject
        for index in range(self._ncarriers):
            if pend[index]:
                pend[index] = 0
                pidx, sidx, fn = inject[index]
                present[pidx] = 1
                value = vals[index]
                if value is not None:
                    vals[index] = None
                    if sidx >= 0:
                        slots[sidx] = fn(value)
                    else:
                        fn(value)
        reactor.env.count("react")
        entry = reactor.state
        target, mask, packed = reactor._funcs[entry]()
        reactor.instants += 1
        self.dispatch_count += 1
        self.reaction_instants += 1
        cov = reactor.coverage
        if cov is not None:
            reactor._mark_coverage(cov, entry, packed)
        if target == TERMINATED:
            reactor.terminated = True
        else:
            reactor.state = target
            if packed & 1:
                self.ready = True
                if self.kernel is not None:
                    self.kernel.note_self_trigger()
        if not mask:
            return {}
        entries = binding.mask_cache.get(mask)
        if entries is None:
            entries = binding.decode(mask)
        emitted = {}
        for network, loader in entries:
            emitted[network] = loader() if loader is not None else None
        return emitted

    # ------------------------------------------------------------------

    def lost_events(self):
        return sum(self._lost)

    def post_count(self):
        return sum(self._posts)

    def carrier(self, formal):
        """A :class:`CarrierView` snapshot of one input carrier."""
        try:
            index = self._formals.index(formal)
        except ValueError:
            raise RtosError("task %r has no input %r" % (self.name, formal))
        return CarrierView(
            "%s.%s" % (self.name, formal),
            self._pure[index],
            bool(self._pend[index]),
            self._vals[index],
            self._posts[index],
            self._lost[index],
        )

    def __repr__(self):
        return "<RtosTask %s prio=%d>" % (self.name, self.priority)
