"""The synchronous/asynchronous implementation trade-off of Section 4.

:func:`run_partition` runs one partition of a compiled design (a
:class:`repro.pipeline.DesignBuild`) as RTOS tasks and measures it;
:func:`explore_partitions` runs several.
"""

from .partition import (
    PartitionResult,
    PartitionSpec,
    TaskSpec,
    explore_partitions,
    run_partition,
)

__all__ = [
    "PartitionResult",
    "PartitionSpec",
    "TaskSpec",
    "explore_partitions",
    "run_partition",
]
