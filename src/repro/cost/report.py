"""Table-1-style reporting structures.

One :class:`PartitionRow` holds the six numbers the paper reports per
(example, partition): task code/data bytes, RTOS code/data bytes, task
kcycles and RTOS kcycles.  :func:`format_table1` renders rows in the
paper's layout so the benchmark output is directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class PartitionRow:
    """Measured results for one partitioning of one example."""

    example: str
    partition: str           # "1 task" / "3 tasks"
    task_code: int
    task_data: int
    rtos_code: int
    rtos_data: int
    task_kcycles: float
    rtos_kcycles: float
    task_count: int = 1
    lost_events: int = 0
    notes: str = ""

    @property
    def total_code(self):
        return self.task_code + self.rtos_code

    @property
    def total_kcycles(self):
        return self.task_kcycles + self.rtos_kcycles


@dataclass
class Table1:
    """The full reproduction of the paper's Table 1."""

    rows: List[PartitionRow] = field(default_factory=list)

    def add(self, row):
        self.rows.append(row)
        return row

    def row(self, example, partition):
        for candidate in self.rows:
            if candidate.example == example and \
                    candidate.partition == partition:
                return candidate
        raise KeyError((example, partition))


#: The numbers printed in the paper, for side-by-side reporting.
PAPER_TABLE1 = {
    ("Stack", "1 task"): dict(task_code=1008, task_data=160,
                              rtos_code=5584, rtos_data=1504,
                              task_kcycles=4283, rtos_kcycles=8032),
    ("Stack", "3 tasks"): dict(task_code=1632, task_data=352,
                               rtos_code=5872, rtos_data=1744,
                               task_kcycles=4161, rtos_kcycles=8815),
    ("Buffer", "1 task"): dict(task_code=7072, task_data=80,
                               rtos_code=7120, rtos_data=3040,
                               task_kcycles=51, rtos_kcycles=123),
    ("Buffer", "3 tasks"): dict(task_code=2544, task_data=144,
                                rtos_code=7376, rtos_data=3536,
                                task_kcycles=57, rtos_kcycles=145),
}


def format_table1(table, include_paper=True):
    """Render measured rows (and optionally the paper's) as text."""
    header = (
        "%-8s %-8s | %10s %10s | %10s %10s | %10s %10s"
        % ("Example", "Part.", "Task code", "Task data",
           "RTOS code", "RTOS data", "Task kcyc", "RTOS kcyc")
    )
    lines = [header, "-" * len(header)]
    for row in table.rows:
        lines.append(
            "%-8s %-8s | %10d %10d | %10d %10d | %10.0f %10.0f"
            % (row.example, row.partition, row.task_code, row.task_data,
               row.rtos_code, row.rtos_data, row.task_kcycles,
               row.rtos_kcycles))
        if include_paper:
            paper = PAPER_TABLE1.get((row.example, row.partition))
            if paper:
                lines.append(
                    "%-8s %-8s | %10d %10d | %10d %10d | %10.0f %10.0f"
                    % ("  paper", "", paper["task_code"],
                       paper["task_data"], paper["rtos_code"],
                       paper["rtos_data"], paper["task_kcycles"],
                       paper["rtos_kcycles"]))
    return "\n".join(lines)


def shape_checks(table):
    """The qualitative claims of Section 4, evaluated on measured rows.

    Returns ``{claim: bool}``; Table 1 is compared with the paper by
    these shapes (README, "Semantics and deviations").
    """
    checks = {}

    def safe_row(example, partition):
        try:
            return table.row(example, partition)
        except KeyError:
            return None

    for example in ("Stack", "Buffer"):
        one = safe_row(example, "1 task")
        three = safe_row(example, "3 tasks")
        if one is None or three is None:
            continue
        checks["%s: RTOS code grows with task count" % example] = \
            three.rtos_code > one.rtos_code
        checks["%s: RTOS data grows with task count" % example] = \
            three.rtos_data > one.rtos_data
        checks["%s: RTOS time grows with task count" % example] = \
            three.rtos_kcycles > one.rtos_kcycles
        checks["%s: RTOS dwarfs task memory (small tasks)" % example] = \
            one.rtos_code > one.task_code
    buffer_one = safe_row("Buffer", "1 task")
    buffer_three = safe_row("Buffer", "3 tasks")
    if buffer_one and buffer_three:
        checks["Buffer: single-task (product) code larger than 3 tasks"] = \
            buffer_one.task_code > buffer_three.task_code
        checks["Buffer: single-task total time smaller (less RTOS)"] = \
            buffer_one.total_kcycles < buffer_three.total_kcycles
    return checks
