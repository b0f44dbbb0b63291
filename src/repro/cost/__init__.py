"""Memory/timing estimation for Table 1 (README, "Semantics and
deviations")."""

from .model import CostModel, CycleCounter
from .report import PAPER_TABLE1, PartitionRow, Table1, format_table1, shape_checks

__all__ = [
    "CostModel",
    "CycleCounter",
    "PAPER_TABLE1",
    "PartitionRow",
    "Table1",
    "format_table1",
    "shape_checks",
]
