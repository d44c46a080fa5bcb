"""The pLUTo Controller (Section 6.4) and the parallel dispatchers."""

from repro.controller.allocation_table import AllocationTable, RowAllocation, SubarrayAllocation
from repro.controller.dispatch import (
    ParallelDispatcher,
    ShardedExecutionResult,
    ShardPlan,
    ShardPlanner,
    execute_shard_plans,
    merged_makespan_ns,
    sweep_act_interval_ns,
)
from repro.controller.executor import (
    ExecutionResult,
    PlutoController,
    TraceTemplate,
)
from repro.controller.hierarchy import (
    HierarchicalDispatcher,
    HierarchicalExecutionResult,
    HierarchyPlanner,
    HierarchyShard,
    bus_occupancy_ns,
    hierarchical_makespan_ns,
    interleaved_bank_order,
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
    "ShardPlanner",
    "execute_shard_plans",
    "merged_makespan_ns",
    "sweep_act_interval_ns",
    "HierarchicalDispatcher",
    "HierarchicalExecutionResult",
    "HierarchyPlanner",
    "HierarchyShard",
    "bus_occupancy_ns",
    "hierarchical_makespan_ns",
    "interleaved_bank_order",
]
