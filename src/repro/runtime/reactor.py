"""Reactor: a runnable instance of a compiled ECL module.

A reactor owns the module's C storage (one address space), its signal
slots and its control state, and advances one synchronous instant per
:meth:`Reactor.react` call.  Two interchangeable engines exist:

* the interpreter engine (this module) runs the kernel term directly via
  :mod:`repro.esterel.interp` — the reference semantics;
* the EFSM engine (:class:`repro.codegen.py_backend.EfsmReactor`) runs
  the compiled automaton — what generated software would do.

Tests cross-check the two on identical input traces (README,
"Semantics and deviations").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set

from ..errors import EvalError
from ..esterel.interp import KernelRunner
from .ceval import Env
from .memory import AddressSpace
from .signals import SignalSlot, SignalTable


@dataclass
class ReactorOutput:
    """What one instant produced at the module boundary."""

    emitted: Set[str] = field(default_factory=set)
    values: Dict[str, object] = field(default_factory=dict)
    terminated: bool = False
    delta_requested: bool = False
    rounds: int = 1

    def present(self, name):
        return name in self.emitted


class Reactor:
    """Interpreter-backed execution of a
    :class:`~repro.ecl.module.KernelModule`."""

    def __init__(self, module, counter=None, builtins=None):
        self.module = module
        self.space = AddressSpace(module.name)
        functions = dict(module.functions)
        if builtins:
            functions.update(builtins)
        self.signals = SignalTable()
        self.env = Env(space=self.space, functions=functions,
                       signal_resolver=self.signals.get, counter=counter)
        for param in module.params:
            self.signals.add(SignalSlot(param.name, param.type, self.space,
                                        param.direction))
        for name, sig_type in module.local_signals:
            self.signals.add(SignalSlot(name, sig_type, self.space, "local"))
        for name, var_type in module.variables:
            self.env.declare(name, var_type)
        self._runner = KernelRunner(module.body, self.signals, self.env)
        self.instants = 0

    # ------------------------------------------------------------------

    @property
    def terminated(self):
        return self._runner.terminated

    def react(self, inputs=None, values=None):
        """Run one instant.

        ``inputs``: iterable of present input-signal names.
        ``values``: mapping of valued input name -> carried value (these
        inputs are implicitly present).

        Returns a :class:`ReactorOutput` describing emitted outputs.
        """
        present = set(inputs or ())
        values = dict(values or {})
        for name in values:
            present.add(name)
        for name in present:
            self.signals.require_input(name, self.module.name,
                                       value=values.get(name))
        self.env.count("react")
        result = self._runner.step(
            inputs=[n for n in present if n not in values], values=values)
        self.instants += 1
        emitted = {
            name for name in result.emitted
            if self.signals[name].direction == "output"
        }
        out_values = {}
        for name in emitted:
            slot = self.signals[name]
            if not slot.is_pure:
                out_values[name] = slot.load()
        return ReactorOutput(
            emitted=emitted,
            values=out_values,
            terminated=result.terminated,
            delta_requested=result.delta_requested,
            rounds=result.rounds,
        )

    def input_signals(self):
        """Names of the module's declared input signals (sorted)."""
        return sorted(slot.name for slot in self.signals.inputs())

    def signal_value(self, name):
        """Peek the persistent value of any signal (testing aid)."""
        return self.signals[name].load()

    def variable(self, name):
        """Peek a hoisted module variable (testing aid)."""
        var = self.env.lookup(name)
        if var is None:
            raise EvalError("module %s has no variable %r"
                            % (self.module.name, name))
        return var.load()

    def data_bytes(self):
        """Bytes of C storage this instance allocated."""
        return self.space.allocated_bytes

    def reset(self):
        """Restart the module from its initial state (storage kept)."""
        self._runner.reset()
        self.instants = 0
