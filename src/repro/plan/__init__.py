"""Execution planning: the :class:`ExecutionPlan` front door + auto-planner.

One frozen :class:`ExecutionPlan` value describes how a recorded program
executes (shards, hierarchy placement, optimizer, tier) — replacing the
scattered per-entry-point keyword knobs — and :func:`plan_program` picks
that configuration automatically by pricing candidates with the analytic
makespan model.  See :mod:`repro.plan.execution_plan` and
:mod:`repro.plan.planner`.
"""

from repro.plan.execution_plan import (
    ExecutionPlan,
    plan_conflict_diagnostics,
    resolve_plan,
)
from repro.plan.planner import (
    CandidatePlan,
    PlannedExecution,
    PlannerReport,
    clear_planner_cache,
    plan_program,
    planner_cache_stats,
)

__all__ = [
    "ExecutionPlan",
    "resolve_plan",
    "plan_conflict_diagnostics",
    "CandidatePlan",
    "PlannedExecution",
    "PlannerReport",
    "plan_program",
    "planner_cache_stats",
    "clear_planner_cache",
]
