"""The translator's output: a kernel-level module description."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..lang import ast
from ..lang.types import PureType


@dataclass
class KernelModule:
    """A fully lowered ECL module, ready for interpretation or EFSM
    construction.

    * ``params`` — the module's signal interface (inputs/outputs);
    * ``local_signals`` — hoisted, alpha-renamed local signals
      (including those of inlined submodule instances);
    * ``variables`` — hoisted C variables, allocated once per instance;
    * ``body`` — the Esterel kernel term;
    * ``data_blocks`` — extracted data loops (paper, Section 4), kept for
      the C back-end and the cost model;
    * ``functions`` — plain C functions callable from data code.
    """

    name: str
    params: Tuple[ast.SignalParam, ...]
    local_signals: List[Tuple[str, object]] = field(default_factory=list)
    variables: List[Tuple[str, object]] = field(default_factory=list)
    body: object = None
    data_blocks: List[object] = field(default_factory=list)
    functions: Dict[str, ast.FuncDef] = field(default_factory=dict)
    types: object = None
    source: ast.ModuleDecl = None
    inlined_instances: List[str] = field(default_factory=list)

    @property
    def input_params(self):
        return [p for p in self.params if p.direction == "input"]

    @property
    def output_params(self):
        return [p for p in self.params if p.direction == "output"]

    def drivable_inputs(self):
        """``(name, is_pure)`` of each input random stimulus drives, in
        declaration order — the one rule every engine's stimulus draws
        by, so all of them consume the rng alike.  Pure and
        scalar-valued inputs are drivable; an aggregate one is not (a
        random int is no sample of a struct, union or array)."""
        return [
            (p.name, isinstance(p.type, PureType))
            for p in self.input_params
            if isinstance(p.type, PureType) or p.type.is_scalar()
        ]

    def signal_directions(self):
        """name -> 'input' | 'output' | 'local' for every signal."""
        table = {p.name: p.direction for p in self.params}
        for name, _type in self.local_signals:
            table[name] = "local"
        return table
