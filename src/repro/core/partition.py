"""Partition exploration: the synchronous/asynchronous trade-off.

Section 4 of the paper compiles each example two ways — one Esterel
source = one task, or three source files = three tasks under the RTOS —
and reports Table 1.  :func:`run_partition` reproduces one such row:

1. compile each task's module to an EFSM and wrap it in an RTOS task;
2. run the caller's testbench (which posts environment events through
   the kernel) with dynamic cycle counting;
3. fill a :class:`~repro.cost.report.PartitionRow` with static code/data
   estimates and the measured task/RTOS cycle split.

``engine`` selects what runs inside each task: ``"efsm"`` (default,
the compiled-automaton walker), ``"native"`` (closure-compiled
reactors dispatched through the task's slot-indexed fast path — same
traces and kernel statistics, an order of magnitude faster) or
``"interp"``.  The native engine does not report per-operation cycle
classes, so Table 1 cycle splits keep using ``"efsm"``; exploration
loops that only need functional results should ask for ``"native"``.

The design-space exploration the paper advocates ("simulation and
exploration at the specification level") is then just a loop over
:class:`PartitionSpec`s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..cost.model import CostModel, CycleCounter
from ..cost.report import PartitionRow
from ..rtos.kernel import RtosKernel
from ..rtos.tasks import RtosTask


@dataclass
class TaskSpec:
    """One task in a partition: a module instance with a priority."""

    name: str
    module: str
    priority: int = 1
    bindings: Dict[str, str] = field(default_factory=dict)


@dataclass
class PartitionSpec:
    """One point in the partitioning design space."""

    label: str                 # e.g. "1 task" / "3 tasks"
    tasks: List[TaskSpec] = field(default_factory=list)

    @property
    def task_count(self):
        return len(self.tasks)


@dataclass
class PartitionResult:
    """Everything measured while running one partition."""

    row: PartitionRow
    kernel_stats: dict
    testbench_result: object
    efsm_sizes: Dict[str, Tuple[int, int]]  # task -> (states, leaves)


def run_partition(design, spec, testbench, example_name,
                  cost_model=None, engine="efsm"):
    """Execute one partition and return a :class:`PartitionResult`.

    ``design`` is a :class:`~repro.pipeline.DesignBuild`;
    ``testbench(kernel)`` drives environment events (via
    ``kernel.post_input`` + ``kernel.run_until_idle``) and returns any
    result object it likes (e.g. a match count used for validation).
    """
    model = cost_model if cost_model is not None else CostModel()
    counter = CycleCounter()
    kernel = RtosKernel(name="%s/%s" % (example_name, spec.label))
    task_code = 0
    task_data = 0
    efsm_sizes = {}
    for task_spec in spec.tasks:
        compiled = design.module(task_spec.module)
        compiled.check()
        efsm = compiled.efsm()
        reactor = compiled.reactor(engine=engine, counter=counter)
        kernel.add_task(RtosTask(task_spec.name, reactor,
                                 priority=task_spec.priority,
                                 bindings=task_spec.bindings))
        task_code += model.efsm_code_bytes(efsm)
        task_data += model.module_data_bytes(efsm.module,
                                             efsm.state_count)
        efsm_sizes[task_spec.name] = (efsm.state_count,
                                      efsm.transition_count())
    kernel.start()
    result = testbench(kernel)
    row = PartitionRow(
        example=example_name,
        partition=spec.label,
        task_code=task_code,
        task_data=task_data,
        rtos_code=model.rtos_code_bytes(spec.task_count),
        rtos_data=model.rtos_data_bytes(spec.task_count),
        task_kcycles=model.task_cycles(counter) / 1000.0,
        rtos_kcycles=model.rtos_cycles(kernel.stats) / 1000.0,
        task_count=spec.task_count,
        lost_events=kernel.total_lost_events(),
    )
    return PartitionResult(
        row=row,
        kernel_stats=kernel.stats.as_dict(),
        testbench_result=result,
        efsm_sizes=efsm_sizes,
    )


def explore_partitions(design, specs, testbench, example_name,
                       cost_model=None, engine="efsm"):
    """Run several partitions of the same design; returns
    ``{label: PartitionResult}`` — the paper's architectural
    exploration loop."""
    results = {}
    for spec in specs:
        results[spec.label] = run_partition(
            design, spec, testbench, example_name,
            cost_model=cost_model, engine=engine)
    return results
