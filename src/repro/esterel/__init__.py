"""The Esterel substrate: kernel IR, semantics, interpreter, printer.

This package stands in for the CMA Esterel compiler the paper builds on
(README, "Semantics and deviations"): the ECL translator emits kernel
terms, the interpreter executes them with the synchronous fixed-point
semantics, and :mod:`repro.efsm` compiles them to extended finite state
machines.
"""

from . import kernel
from .interp import KernelRunner, ReactionResult, run_instant
from .printer import EsterelPrinter, to_esterel
from .react import ReactContext, eval_sig_expr, react

__all__ = [
    "kernel",
    "KernelRunner",
    "ReactionResult",
    "run_instant",
    "EsterelPrinter",
    "to_esterel",
    "ReactContext",
    "eval_sig_expr",
    "react",
]
