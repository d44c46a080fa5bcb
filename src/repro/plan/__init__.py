"""Execution planning: the :class:`ExecutionPlan` front door + auto-planner.

One frozen :class:`ExecutionPlan` value describes the device
configuration a recorded program executes under (shards, hierarchy
placement, optimizer) — replacing the scattered per-entry-point keyword
knobs — and :func:`plan_program` picks that configuration automatically
by pricing candidates with the analytic makespan model.  How the host
simulates the program is the controller's choice, not the plan's.  See
:mod:`repro.plan.execution_plan` and :mod:`repro.plan.planner`.
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
    plan_program,
)

__all__ = [
    "ExecutionPlan",
    "resolve_plan",
    "plan_conflict_diagnostics",
    "CandidatePlan",
    "PlannedExecution",
    "PlannerReport",
    "plan_program",
]
