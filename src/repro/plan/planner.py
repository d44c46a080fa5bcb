"""The cost-based auto-planner.

Given a recorded program and an engine, :func:`plan_program` enumerates
candidate execution configurations — shard counts, channel/rank
placements, optimizer on/off — prices each with the memoized analytic
makespan model (the same
:func:`~repro.controller.dispatch.merged_makespan_ns` /
:func:`~repro.controller.hierarchy.hierarchical_makespan_ns` the
dispatchers charge executions with, backed by
:mod:`repro.dram.analytic`), and picks the argmin.  Near-ties break on
modelled energy, then on the simpler plan.  Because pricing and
execution share one model *and* one memo, the planner's predicted
makespan is exact with respect to the model — and the merges it
performs are warm-cache hits when the chosen plan executes.  The
planner reads no host clock: its choice is a function of the program
structure, the engine configuration and the request alone.

The planner keeps no memo of its own: every front door prepares a
program into one :class:`~repro.api.session.ProgramArtifact` per
request identity, plan included, so a structurally repeated request
reuses its artifact and never reaches the planner.  Every chosen
sharded plan passes :func:`~repro.analyze.verifier.verify_shard_plans`
before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigurationError
from repro.plan.execution_plan import ExecutionPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.handles import ApiCall
    from repro.controller.executor import TraceTemplate
    from repro.core.engine import PlutoEngine

__all__ = [
    "CandidatePlan",
    "PlannerReport",
    "PlannedExecution",
    "plan_program",
]


#: Candidates within this fraction of the best predicted makespan are
#: considered tied; ties break toward the lower modelled energy (and
#: then the simpler plan), so auto never gives up more than this sliver
#: of modelled makespan, and only to save modelled energy or complexity.
TIE_BREAK_FRACTION = 0.005


@dataclass(frozen=True)
class CandidatePlan:
    """One priced candidate configuration."""

    plan: ExecutionPlan
    #: Modelled DRAM makespan of executing the plan once.
    predicted_makespan_ns: float
    #: Modelled DRAM energy of executing the plan once (summed over its
    #: shards).
    predicted_energy_nj: float


@dataclass(frozen=True)
class PlannerReport:
    """What the planner considered and what it chose.

    The predicted makespan is exact: a run of the chosen plan reports it
    as its ``latency_ns`` (a batch as its ``total_latency_ns``).
    ``cached`` marks a report that came from a reused program artifact
    (:meth:`~repro.api.session.ProgramArtifact.reused`).
    """

    subject: str
    candidates: tuple[CandidatePlan, ...]
    chosen: ExecutionPlan
    predicted_makespan_ns: float
    #: Predicted makespan of the one-shard plan under the request's
    #: optimizer pin (unoptimized when unpinned).
    baseline_makespan_ns: float
    cached: bool = False

    @property
    def predicted_gain(self) -> float:
        """Baseline over chosen predicted makespan (>= 1 when auto helps)."""
        if self.predicted_makespan_ns <= 0:
            return float("inf")
        return self.baseline_makespan_ns / self.predicted_makespan_ns


@dataclass(frozen=True)
class PlannedExecution:
    """A chosen concrete plan plus the report that led to it."""

    plan: ExecutionPlan
    report: PlannerReport


def _shard_grid(limit: int, size: int) -> list[int]:
    """Candidate shard counts: powers of two up to ``min(limit, size)``."""
    cap = min(limit, size)
    grid: set[int] = {1}
    power = 2
    while power <= cap:
        grid.add(power)
        power *= 2
    grid.add(cap)
    return sorted(grid)


def _placements(
    channels: int, ranks: int
) -> list[tuple[int, int]]:
    """Hierarchy placements worth pricing: full device plus each level alone."""
    placements = [(channels, ranks)]
    if ranks > 1 and channels > 1:
        placements.append((channels, 1))
        placements.append((1, ranks))
    return placements


def _tier(request: ExecutionPlan, supports_batched: bool) -> str:
    """The execution tier every candidate runs on.

    The pinned tier if the request has one, else the backend's fastest.
    The tier never changes the modelled makespan and the compiled tier
    costs less host time, so no other tier is worth pricing.
    """
    if request.tier != "auto":
        return request.tier
    return "compiled" if supports_batched else "interpreted"


def _price(
    plan: ExecutionPlan,
    templates: Sequence["TraceTemplate"],
    engine: "PlutoEngine",
) -> CandidatePlan:
    """Price ``plan``, whose shards run the trace ``templates`` in order.

    The makespan is what the plan's executor charges: the one-bank trace
    when unsharded, the rank merge of per-bank streams for bank shards,
    the hierarchical merge for hierarchical plans.  Energy adds across
    shards.
    """
    from repro.controller.dispatch import merged_makespan_ns
    from repro.controller.hierarchy import hierarchical_makespan_ns

    geometry = engine.geometry
    if plan.hierarchical:
        # The hierarchical scheduler reassigns banks by stream index, so
        # bank-0 realizations price exactly what the dispatcher will charge.
        makespan = hierarchical_makespan_ns(
            [template.commands for template in templates],
            engine,
            channels=plan.channels or geometry.channels,
            ranks=plan.ranks or geometry.ranks,
        )
    elif len(templates) == 1:
        makespan = templates[0].total_latency_ns
    else:
        makespan = merged_makespan_ns(
            [
                template.realize(engine.timing, engine.energy, bank=index).commands
                for index, template in enumerate(templates)
            ],
            engine,
        )
    return CandidatePlan(
        plan=plan,
        predicted_makespan_ns=makespan,
        predicted_energy_nj=sum(template.total_energy_nj for template in templates),
    )


def _complexity(plan: ExecutionPlan) -> tuple[int, int]:
    """Tie-break ordering: prefer simpler plans at equal cost."""
    return (1 if plan.hierarchical else 0, plan.effective_shards)


def _verify_chosen(
    plan: ExecutionPlan,
    calls: Sequence["ApiCall"],
    engine: "PlutoEngine",
) -> None:
    """Run the chosen shard plan through the static shard-plan verifier."""
    from repro.analyze.verifier import verify_shard_plans
    from repro.controller.dispatch import ShardPlanner
    from repro.controller.hierarchy import HierarchyPlanner

    geometry = engine.geometry
    if plan.hierarchical:
        placement = geometry
        if plan.channels is not None or plan.ranks is not None:
            placement = replace(
                geometry,
                channels=plan.channels or geometry.channels,
                ranks=plan.ranks or geometry.ranks,
            )
        plans = HierarchyPlanner(placement).plan(calls, plan.shards)
        verify_shard_plans(
            plans, num_banks=geometry.banks, subject="auto-planned shard plan"
        ).raise_if_errors()
    elif plan.effective_shards > 1:
        planner = ShardPlanner(num_banks=geometry.banks)
        plans_ = planner.plan(calls, plan.effective_shards)
        verify_shard_plans(
            plans_, num_banks=geometry.banks, subject="auto-planned shard plan"
        ).raise_if_errors()


def _enumerate(
    calls: Sequence["ApiCall"],
    engine: "PlutoEngine",
    *,
    modes: tuple[str, ...],
    request: ExecutionPlan,
    supports_batched: bool,
) -> tuple[list[CandidatePlan], dict[bool, Sequence["ApiCall"]]]:
    """Price every candidate configuration for ``calls`` on ``engine``."""
    from repro.api.session import compile_cached
    from repro.controller.dispatch import ShardPlanner
    from repro.controller.executor import PlutoController
    from repro.opt.pipeline import optimize_cached

    controller = PlutoController(engine, backend="vectorized", jit=False)
    geometry = engine.geometry
    tier = _tier(request, supports_batched)
    optimize_options = (
        (bool(request.optimize),)
        if request.optimize is not None
        else (False, True)
    )
    # Hierarchy placement on a single-channel single-rank device adds a
    # bus bound on top of the identical bank merge — strictly dominated
    # by the plain bank-parallel mode whenever that mode is searched.
    effective_modes = list(modes)
    if (
        "hierarchy" in effective_modes
        and "banks" in effective_modes
        and geometry.channels * geometry.ranks == 1
    ):
        effective_modes.remove("hierarchy")

    candidates: list[CandidatePlan] = []
    calls_by_optimize: dict[bool, Sequence["ApiCall"]] = {}
    for optimize in optimize_options:
        plan_calls: Sequence["ApiCall"] = (
            list(optimize_cached(list(calls)).calls) if optimize else list(calls)
        )
        calls_by_optimize[optimize] = plan_calls

        try:
            size: int | None = ShardPlanner._uniform_size(plan_calls)
        except ConfigurationError:
            # Non-uniform (or empty) element space: only the unsharded
            # mode applies.  Entry points that demand a sharded layout
            # (run_hierarchical) get the shard planner's own error
            # rather than a silent fall back to a single-bank plan.
            if "single" not in effective_modes:
                raise
            size = None

        templates: dict[int, "TraceTemplate"] = {}

        def template_of(shard_calls: Sequence["ApiCall"], length: int) -> "TraceTemplate":
            """Compile (cached) and build the accounting template, once per length."""
            template = templates.get(length)
            if template is None:
                template = controller.trace_template(compile_cached(shard_calls))
                templates[length] = template
            return template

        if "single" in effective_modes or size is None:
            if not plan_calls:
                continue
            whole = template_of(plan_calls, size if size is not None else -1)
            candidates.append(
                _price(ExecutionPlan(shards=1, optimize=optimize, tier=tier), [whole], engine)
            )
        if size is None:
            continue

        plans: list[ExecutionPlan] = []
        if "banks" in effective_modes:
            plans += [
                ExecutionPlan(shards=shards, optimize=optimize, tier=tier)
                for shards in _shard_grid(geometry.banks, size)
                if shards > 1
            ]
        if "hierarchy" in effective_modes:
            for channels, ranks in _placements(geometry.channels, geometry.ranks):
                plans += [
                    ExecutionPlan(
                        shards=shards,
                        hierarchical=True,
                        channels=channels if channels != geometry.channels else None,
                        ranks=ranks if ranks != geometry.ranks else None,
                        optimize=optimize,
                        tier=tier,
                    )
                    for shards in _shard_grid(channels * ranks * geometry.banks, size)
                ]
        for plan in plans:
            slices = ShardPlanner.plan_slices(plan_calls, plan.effective_shards)
            shard_templates = [
                template_of(shard_calls, stop - start) for start, stop, shard_calls in slices
            ]
            candidates.append(_price(plan, shard_templates, engine))
    return candidates, calls_by_optimize


def _choose(candidates: Sequence[CandidatePlan]) -> CandidatePlan:
    """Argmin predicted makespan; near-ties go to the lower modelled energy.

    Candidates within :data:`TIE_BREAK_FRACTION` of the best makespan are
    ranked by predicted energy, then :func:`_complexity`, then makespan.
    """
    best = min(candidate.predicted_makespan_ns for candidate in candidates)
    window = best * (1.0 + TIE_BREAK_FRACTION)
    return min(
        (
            candidate
            for candidate in candidates
            if candidate.predicted_makespan_ns <= window
        ),
        key=lambda candidate: (
            candidate.predicted_energy_nj,
            _complexity(candidate.plan),
            candidate.predicted_makespan_ns,
        ),
    )


def _baseline_makespan(
    candidates: Sequence[CandidatePlan],
    request: ExecutionPlan,
    chosen: CandidatePlan,
) -> float:
    """Predicted makespan of the one-shard plan under the optimizer pin.

    The first one-shard candidate whose ``optimize`` matches the request
    (unoptimized when the request leaves it unset): ``shards=1`` when the
    search priced the ``single`` mode, ``hierarchical:1`` for a
    hierarchy-only search.  A search that priced no one-shard plan
    measures against the chosen plan, so it claims no gain.
    """
    optimize = bool(request.optimize)
    for candidate in candidates:
        plan = candidate.plan
        if plan.effective_shards == 1 and plan.optimize == optimize:
            return candidate.predicted_makespan_ns
    return chosen.predicted_makespan_ns


def plan_program(
    calls: Sequence["ApiCall"],
    engine: "PlutoEngine | None" = None,
    *,
    request: ExecutionPlan | None = None,
    modes: tuple[str, ...] = ("single", "banks", "hierarchy"),
    supports_batched: bool = True,
    subject: str = "program",
) -> PlannedExecution:
    """Pick the cheapest execution configuration for ``calls``.

    ``request`` is the auto plan carrying any pinned ``optimize`` /
    ``tier``; ``modes`` restricts the searched geometry families
    (``"single"``, ``"banks"``, ``"hierarchy"``) — the hierarchical
    front door passes ``("hierarchy",)`` so auto stays hierarchical.
    ``supports_batched`` describes the backend that will execute the
    plan (the functional oracle cannot fuse shards or run the compiled
    tier).

    Every call plans: reuse lives in the program artifact table of
    :func:`~repro.api.session.prepare_execution`.  The returned plan is
    concrete (``mode="explicit"``) and its shard plan, when sharded, has
    passed :func:`~repro.analyze.verifier.verify_shard_plans`.
    """
    from repro.core.engine import PlutoConfig, PlutoEngine

    if engine is None:
        engine = PlutoEngine(PlutoConfig())
    if request is None:
        request = ExecutionPlan.auto()
    if not request.is_auto:
        raise ConfigurationError(
            "plan_program expects an auto plan; explicit plans execute as-is"
        )

    candidates, calls_by_optimize = _enumerate(
        calls,
        engine,
        modes=modes,
        request=request,
        supports_batched=supports_batched,
    )
    if not candidates:
        raise ConfigurationError(
            "the planner found no viable execution configuration "
            f"(modes={list(modes)})"
        )
    chosen = _choose(candidates)
    plan = chosen.plan
    _verify_chosen(plan, calls_by_optimize[bool(plan.optimize)], engine)
    report = PlannerReport(
        subject=subject,
        candidates=tuple(candidates),
        chosen=plan,
        predicted_makespan_ns=chosen.predicted_makespan_ns,
        baseline_makespan_ns=_baseline_makespan(candidates, request, chosen),
    )
    return PlannedExecution(plan=plan, report=report)
