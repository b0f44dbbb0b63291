"""MIPS-R3000-style cost model (DESIGN.md substitution S9).

Table 1 of the paper reports, per example and partition, the code and
data memory of the tasks and of the RTOS, and the execution time split
between task code and RTOS code (thousands of R3000 cycles over the
testbench).  The original numbers came from compiling the generated C
for a MIPS R3000 board; offline we estimate:

* **code size** — instruction counts per generated construct
  (decision-tree nodes, data-function ASTs) × 4 bytes/instruction, the
  same constructs :mod:`repro.codegen.c_backend` emits;
* **data size** — byte-accurate ``sizeof`` of the context struct
  (automaton state, variables, presence bits, value slots) plus, for the
  RTOS, per-task control blocks and stacks;
* **execution time** — dynamic operation counts from the C evaluator
  (ALU/memory/branch/call) and kernel statistics (dispatches, context
  switches, posts) × per-operation cycle weights.

The RTOS base-size and per-service constants are calibrated against the
POLIS kernel figures the paper itself reports (5-6 KB code, ~1.5 KB
data); the dynamic weights are classic single-issue R3000 latencies.
Absolute outputs are estimates — EXPERIMENTS.md compares shapes, not
digits, against the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..efsm.machine import (
    DoAction,
    DoEmit,
    Leaf,
    TestData,
    TestSignal,
    walk_reaction,
)
from ..lang import ast
from ..lang.types import PureType, WORD_SIZE


class CycleCounter:
    """Dynamic operation counter, pluggable into
    :class:`repro.runtime.ceval.Env`."""

    KINDS = ("alu", "mem", "branch", "call", "react")

    def __init__(self):
        self.counts = {kind: 0 for kind in self.KINDS}

    def count(self, kind, amount=1):
        self.counts[kind] = self.counts.get(kind, 0) + amount

    def merge(self, other):
        for kind, amount in other.counts.items():
            self.counts[kind] = self.counts.get(kind, 0) + amount

    def reset(self):
        for kind in list(self.counts):
            self.counts[kind] = 0


@dataclass
class CostModel:
    """All constants in one place so ablations can perturb them."""

    # Dynamic cycle weights (single-issue R3000-like).
    cycles_alu: int = 1
    cycles_mem: int = 2
    cycles_branch: int = 2
    cycles_call: int = 4
    cycles_react_entry: int = 6      # dispatch into the reaction function

    # RTOS service costs (cycles per occurrence).
    cycles_context_switch: int = 110
    cycles_scheduler: int = 35
    cycles_post: int = 30
    cycles_self_trigger: int = 30
    cycles_dispatch: int = 45        # kernel-side dispatch bookkeeping

    # Static code-size estimation (instructions; 4 bytes each).
    insn_bytes: int = 4
    insn_per_state_case: int = 2
    insn_per_test_signal: int = 3
    insn_per_emit: int = 2
    insn_per_leaf: int = 3
    insn_function_frame: int = 6

    # RTOS footprint, calibrated to the POLIS kernel figures in Table 1.
    rtos_code_base: int = 5440
    rtos_code_per_task: int = 144
    rtos_data_base: int = 1384
    rtos_data_per_task: int = 120
    task_stack_bytes: int = 0        # stacks included in rtos_data_per_task

    # ------------------------------------------------------------------
    # Dynamic time

    def task_cycles(self, counter):
        """Cycles spent in task (generated + data) code."""
        counts = counter.counts
        return (counts.get("alu", 0) * self.cycles_alu
                + counts.get("mem", 0) * self.cycles_mem
                + counts.get("branch", 0) * self.cycles_branch
                + counts.get("call", 0) * self.cycles_call
                + counts.get("react", 0) * self.cycles_react_entry)

    def rtos_cycles(self, stats):
        """Cycles spent inside the kernel, from
        :class:`repro.rtos.kernel.KernelStats`."""
        return (stats.context_switches * self.cycles_context_switch
                + stats.scheduler_invocations * self.cycles_scheduler
                + stats.posts * self.cycles_post
                + stats.self_triggers * self.cycles_self_trigger
                + stats.dispatches * self.cycles_dispatch)

    # ------------------------------------------------------------------
    # Static code size

    def efsm_code_bytes(self, efsm):
        """Estimated bytes of the generated reaction function.

        Subtrees shared between states (hash-consed by the optimizer)
        are counted once — the generated code reaches them through a
        shared label, as the Esterel automaton back-ends did.
        """
        insns = self.insn_function_frame
        seen = set()
        for state in efsm.states:
            insns += self.insn_per_state_case
            insns += self._tree_insns(state.reaction, seen)
        module = efsm.module
        for block in module.data_blocks:
            insns += self.insn_function_frame
            insns += self._stmt_insns(block.stmt)
        for function in module.functions.values():
            if isinstance(function, ast.FuncDef):
                insns += self.insn_function_frame
                insns += self._stmt_insns(function.body)
        return insns * self.insn_bytes

    def _tree_insns(self, node, seen=None):
        insns = 0
        for item in walk_reaction(node):
            if seen is not None:
                if id(item) in seen:
                    continue
                seen.add(id(item))
            if isinstance(item, TestSignal):
                insns += self.insn_per_test_signal
            elif isinstance(item, TestData):
                insns += self._expr_insns(item.cond) + 1
            elif isinstance(item, DoAction):
                insns += self._stmt_insns(item.stmt)
            elif isinstance(item, DoEmit):
                insns += self.insn_per_emit
                if item.value is not None:
                    insns += self._expr_insns(item.value) + 1
            elif isinstance(item, Leaf):
                insns += self.insn_per_leaf
        return insns

    def _stmt_insns(self, stmt):
        """Static instruction estimate of a C statement subtree."""
        insns = 0
        for node in ast.walk(stmt):
            if isinstance(node, (ast.While, ast.DoWhile, ast.For)):
                insns += 2   # loop back-branch + test dispatch
            elif isinstance(node, ast.If):
                insns += 1
            elif isinstance(node, (ast.Break, ast.Continue, ast.Return)):
                insns += 1
            elif isinstance(node, ast.Expr):
                insns += self._expr_node_insns(node)
        return insns

    def _expr_insns(self, expr):
        return sum(self._expr_node_insns(node) for node in ast.walk(expr))

    @staticmethod
    def _expr_node_insns(node):
        if isinstance(node, (ast.Binary, ast.Unary, ast.IncDec,
                             ast.Assign, ast.Cond)):
            return 1
        if isinstance(node, (ast.Index, ast.Member)):
            return 2       # address computation + access
        if isinstance(node, ast.Name):
            return 1       # load
        if isinstance(node, ast.IntLit):
            return 1       # immediate
        if isinstance(node, ast.Call):
            return 3       # argument passing + jal + delay
        if isinstance(node, ast.Cast):
            return 1
        return 0

    # ------------------------------------------------------------------
    # Static data size

    def module_data_bytes(self, module, state_count=1):
        """Bytes of the module's context struct (variables, signal
        presence bits and value slots, automaton state word)."""
        total = WORD_SIZE  # __state
        total += 2         # __terminated, __delta flags
        for param in module.params:
            total += 1     # presence bit
            if not isinstance(param.type, PureType):
                total += param.type.size
        for _name, sig_type in module.local_signals:
            total += 1
            if not isinstance(sig_type, PureType):
                total += sig_type.size
        for _name, var_type in module.variables:
            total += var_type.size
        return _align(total, WORD_SIZE)

    def rtos_code_bytes(self, task_count):
        return self.rtos_code_base + task_count * self.rtos_code_per_task

    def rtos_data_bytes(self, task_count):
        return (self.rtos_data_base
                + task_count * (self.rtos_data_per_task
                                + self.task_stack_bytes))


def _align(value, alignment):
    remainder = value % alignment
    return value if remainder == 0 else value + alignment - remainder
