"""Table 1, Stack rows: synchronous vs asynchronous implementation.

Regenerates the paper's Table 1 for the protocol-stack example — task
and RTOS code/data memory plus the task/RTOS execution-cycle split over
a 500-packet testbench — and asserts the Section 4 shape claims.  The
rendered table (measured vs paper) is written to
``benchmarks/out/table1_stack.txt``.
"""

import os

import pytest

from repro.core import explore_partitions
from repro.cost import Table1, format_table1, shape_checks

from workloads import (
    OUT_DIR,
    STACK_SPECS,
    ensure_out_dir,
    stack_design,
    stack_testbench,
)

PACKETS = 500


@pytest.fixture(scope="module")
def design():
    return stack_design()


def _run_table(design):
    results = explore_partitions(
        design, STACK_SPECS, stack_testbench(PACKETS), "Stack")
    table = Table1()
    for label in ("1 task", "3 tasks"):
        table.add(results[label].row)
    return table, results


def test_table1_stack(design, benchmark):
    table, results = benchmark.pedantic(
        lambda: _run_table(design), rounds=1, iterations=1)

    # Functional validation: both partitions accept the same packets
    # (half the packets have a matching header).
    for label, result in results.items():
        assert result.testbench_result == PACKETS // 2, label

    ensure_out_dir()
    rendered = format_table1(table)
    with open(os.path.join(OUT_DIR, "table1_stack.txt"), "w") as handle:
        handle.write(rendered + "\n")
    print()
    print(rendered)

    # Shape claims of Section 4 (README, "Semantics and deviations":
    # Table 1 is compared with the paper by shape).
    checks = shape_checks(table)
    failed = [claim for claim, ok in checks.items() if not ok]
    assert not failed, "shape claims failed: %s" % failed

    one = table.row("Stack", "1 task")
    three = table.row("Stack", "3 tasks")
    # "asynchronous composition resulted in a ... slightly slower
    # implementation, mostly due to the large RTOS overhead".
    assert three.total_kcycles > one.total_kcycles
    # RTOS time dominates task time at this tiny task granularity.
    assert one.rtos_kcycles > one.task_kcycles
    assert three.rtos_kcycles > three.task_kcycles
