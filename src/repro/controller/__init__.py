"""The pLUTo Controller (Section 6.4) and the parallel dispatcher."""

from repro.controller.allocation_table import AllocationTable, RowAllocation, SubarrayAllocation
from repro.controller.dispatch import (
    ParallelDispatcher,
    ShardedExecutionResult,
    ShardLayout,
    ShardPlan,
    ShardPlanner,
    bus_occupancy_ns,
    execute_shard_plans,
    interleaved_bank_order,
    merged_makespan_ns,
    sweep_act_interval_ns,
)
from repro.controller.executor import (
    ExecutionResult,
    PlutoController,
    TraceTemplate,
)
from repro.controller.rom import CommandRom

__all__ = [
    "AllocationTable",
    "RowAllocation",
    "SubarrayAllocation",
    "ExecutionResult",
    "PlutoController",
    "TraceTemplate",
    "CommandRom",
    "ParallelDispatcher",
    "ShardedExecutionResult",
    "ShardPlan",
    "ShardLayout",
    "ShardPlanner",
    "execute_shard_plans",
    "merged_makespan_ns",
    "sweep_act_interval_ns",
    "bus_occupancy_ns",
    "interleaved_bank_order",
]
