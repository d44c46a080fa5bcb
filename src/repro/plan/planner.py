"""The cost-based auto-planner.

Given a recorded program and an engine, :func:`plan_program` enumerates
candidate execution configurations — shard counts over each channel/rank
placement (one rank of one channel for bank-sharded plans), optimizer
on/off — prices each with the memoized analytic makespan model (the
same :func:`~repro.controller.dispatch.merged_makespan_ns` the
dispatcher charges executions with, backed by
:mod:`repro.dram.analytic`), and picks the argmin.  Near-ties break on
modelled energy, then on the simpler plan.  Because pricing and
execution share one model *and* one memo, the planner's predicted
makespan is exact with respect to the model — and the merges it
performs are warm-cache hits when the chosen plan executes.  The
planner reads no host clock: its choice is a function of the program
structure, the engine configuration and the request alone, never of the
backend that will simulate the chosen plan.

The planner keeps no memo of its own: every front door prepares a
program into one :class:`~repro.api.session.ProgramArtifact` per
request identity, plan included, so a structurally repeated request
reuses its artifact and never reaches the planner.  Pricing needs only
each candidate's slice lengths
(:meth:`~repro.controller.dispatch.ShardPlanner.slice_bounds`), so a
slice's calls are resized once per distinct length.  The chosen plan is
laid out once, by :meth:`~repro.controller.dispatch.ShardPlanner.plan`
when its artifact is prepared, and the layout verifies itself as it is
built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import AllocationError, ConfigurationError
from repro.plan.execution_plan import ExecutionPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.handles import ApiCall
    from repro.controller.dispatch import ShardPlanner
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


def _price(
    plan: ExecutionPlan,
    templates: Sequence["TraceTemplate"],
    engine: "PlutoEngine",
    planner: "ShardPlanner | None" = None,
) -> CandidatePlan:
    """Price ``plan``, whose shards run the trace ``templates`` in order.

    The makespan is what the plan's executor charges: the one-bank trace
    when unsharded, else :func:`merged_makespan_ns` of the shards'
    streams, realized in the banks ``planner`` places them in, over its
    placement.  Energy adds across shards.
    """
    from repro.controller.dispatch import merged_makespan_ns

    if planner is None:
        makespan = templates[0].total_latency_ns
    else:
        makespan = merged_makespan_ns(
            [
                template.realize(engine.timing, engine.energy, bank=planner.bank(index)).commands
                for index, template in enumerate(templates)
            ],
            engine,
            channels=planner.geometry.channels,
            ranks=planner.geometry.ranks,
        )
    return CandidatePlan(
        plan=plan,
        predicted_makespan_ns=makespan,
        predicted_energy_nj=sum(template.total_energy_nj for template in templates),
    )


def _complexity(plan: ExecutionPlan) -> tuple[int, int]:
    """Tie-break ordering: prefer simpler plans at equal cost."""
    return (1 if plan.hierarchical else 0, plan.effective_shards)


def _enumerate(
    calls: Sequence["ApiCall"],
    engine: "PlutoEngine",
    *,
    modes: tuple[str, ...],
    request: ExecutionPlan,
) -> list[CandidatePlan]:
    """Price every candidate configuration for ``calls`` on ``engine``.

    A candidate whose program cannot be allocated is skipped; when none
    fits, the first candidate's :class:`~repro.errors.AllocationError`
    is raised.
    """
    from repro.api.session import compile_cached
    from repro.controller.dispatch import ShardPlanner
    from repro.controller.executor import PlutoController
    from repro.opt.pipeline import optimize_cached

    controller = PlutoController(engine, backend="vectorized")
    geometry = engine.geometry
    optimize_options = (
        (bool(request.optimize),)
        if request.optimize is not None
        else (False, True)
    )
    # Placement -> whether its plans are spelled hierarchical.  "banks"
    # is one channel and one rank; "hierarchy" is the full device plus
    # each interface level alone, and on a one-rank device the full
    # device is the "banks" placement, priced once.
    placements: dict[tuple[int, int], bool] = {}
    if "banks" in modes:
        placements[(1, 1)] = False
    if "hierarchy" in modes:
        channels, ranks = geometry.channels, geometry.ranks
        placements.setdefault((channels, ranks), True)
        if channels > 1 and ranks > 1:
            placements.setdefault((channels, 1), True)
            placements.setdefault((1, ranks), True)

    candidates: list[CandidatePlan] = []
    unallocatable: list[AllocationError] = []
    for optimize in optimize_options:
        plan_calls: Sequence["ApiCall"] = (
            list(optimize_cached(list(calls)).calls) if optimize else list(calls)
        )

        try:
            size: int | None = ShardPlanner._uniform_size(plan_calls)
        except ConfigurationError:
            # Non-uniform (or empty) element space: only the unsharded
            # mode applies.  Entry points that demand a sharded layout
            # (run_hierarchical) get the shard planner's own error
            # rather than a silent fall back to a single-bank plan.
            if "single" not in modes:
                raise
            size = None

        # Slice length -> accounting template; the whole program is the
        # length ``size`` (``None`` when it has no uniform one).
        templates: dict[int | None, "TraceTemplate | AllocationError"] = {}

        def templates_of(lengths: Sequence[int | None]) -> "list[TraceTemplate] | None":
            """Compiled (cached) accounting templates, one build per length.

            A slice's calls are resized only when its length is new.
            ``None`` when a program cannot be allocated.
            """
            built: list["TraceTemplate"] = []
            for length in lengths:
                template = templates.get(length)
                if template is None:
                    shard_calls = (
                        plan_calls
                        if length is None or length == size
                        else ShardPlanner._resize_calls(plan_calls, length)
                    )
                    try:
                        template = controller.trace_template(compile_cached(shard_calls))
                    except AllocationError as error:
                        unallocatable.append(error)
                        template = error
                    templates[length] = template
                if isinstance(template, AllocationError):
                    return None
                built.append(template)
            return built

        if "single" in modes or size is None:
            if not plan_calls:
                continue
            whole = templates_of([size])
            if whole is not None:
                candidates.append(
                    _price(ExecutionPlan(shards=1, optimize=optimize), whole, engine)
                )
        if size is None:
            continue

        for (channels, ranks), hierarchical in placements.items():
            planner = ShardPlanner(geometry, channels=channels, ranks=ranks)
            for shards in _shard_grid(planner.geometry.total_banks, size):
                if hierarchical:
                    plan = ExecutionPlan(
                        shards=shards,
                        hierarchical=True,
                        channels=channels if channels != geometry.channels else None,
                        ranks=ranks if ranks != geometry.ranks else None,
                        optimize=optimize,
                    )
                elif shards > 1:
                    plan = ExecutionPlan(shards=shards, optimize=optimize)
                else:
                    continue
                shard_templates = templates_of(
                    [stop - start for start, stop in ShardPlanner.slice_bounds(size, shards)]
                )
                if shard_templates is not None:
                    candidates.append(_price(plan, shard_templates, engine, planner))
    if not candidates and unallocatable:
        raise unallocatable[0]
    return candidates


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
    subject: str = "program",
) -> PlannedExecution:
    """Pick the cheapest execution configuration for ``calls``.

    ``request`` is the auto plan carrying any pinned ``optimize``;
    ``modes`` restricts the searched geometry families (``"single"``,
    ``"banks"``, ``"hierarchy"``) — the hierarchical front door passes
    ``("hierarchy",)`` so auto stays hierarchical.  The choice depends
    on no backend: every backend runs a plan to the same modelled
    makespan and energy.

    Every call plans: reuse lives in the program artifact table of
    :func:`~repro.api.session.prepare_execution`.  The returned plan is
    concrete (``mode="explicit"``); when it is sharded,
    :func:`~repro.api.session.prepare_execution` lays it out and the
    layout verifies itself as it is built.
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

    candidates = _enumerate(
        calls,
        engine,
        modes=modes,
        request=request,
    )
    if not candidates:
        raise ConfigurationError(
            "the planner found no viable execution configuration "
            f"(modes={list(modes)})"
        )
    chosen = _choose(candidates)
    plan = chosen.plan
    report = PlannerReport(
        subject=subject,
        candidates=tuple(candidates),
        chosen=plan,
        predicted_makespan_ns=chosen.predicted_makespan_ns,
        baseline_makespan_ns=_baseline_makespan(candidates, request, chosen),
    )
    return PlannedExecution(plan=plan, report=report)
