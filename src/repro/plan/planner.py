"""The cost-based auto-planner.

Given a recorded program and an engine, :func:`plan_program` enumerates
candidate execution configurations — shard counts, channel/rank
placements, optimizer on/off — prices each with the memoized analytic
makespan model (the same
:func:`~repro.controller.dispatch.merged_makespan_ns` /
:func:`~repro.controller.hierarchy.hierarchical_makespan_ns` the
dispatchers charge executions with, backed by
:mod:`repro.dram.analytic`), adds measured compile/optimize wall-clock
priors, and picks the argmin.  Because pricing and execution share one
model *and* one memo, the planner's predicted makespan is exact with
respect to the model — and the merges it performs are warm-cache hits
when the chosen plan executes.

Chosen plans are memoized on the program structure key (the same
identity the compile/optimize/verify/template memos use), surfaced in
``cache_stats()["planner"]``: planning a structurally repeated program
is a dict hit with **zero** analytic-model calls.  Every chosen sharded
plan passes :func:`~repro.analyze.verifier.verify_shard_plans` before it
is cached or executed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, ClassVar, Sequence

from repro.errors import ConfigurationError
from repro.plan.execution_plan import ExecutionPlan
from repro.utils.memo import BoundedMemo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.handles import ApiCall
    from repro.controller.executor import PlutoController, TraceTemplate
    from repro.core.engine import PlutoEngine
    from repro.dram.commands import Command

__all__ = [
    "CostPriors",
    "CandidatePlan",
    "PlannerReport",
    "PlannedExecution",
    "plan_program",
    "plan_memo_key",
    "seed_planner_cache",
    "cost_priors",
    "reset_cost_priors",
    "planner_cache_stats",
    "clear_planner_cache",
]


#: Candidates within this fraction of the best predicted makespan are
#: considered tied; ties break toward the cheaper wall-clock (and then
#: simpler) plan, so auto never gives up more than this sliver of
#: modelled makespan to save real compile/optimize seconds.
TIE_BREAK_FRACTION = 0.005


@dataclass
class CostPriors:
    """EMA priors of the measured one-time wall-clock costs.

    The analytic model prices *modelled DRAM time*; picking between
    near-tied candidates additionally needs the *host* cost a candidate
    implies — optimizing the program, compiling shard replicas, and the
    per-run Python dispatch of each tier.  These priors start from
    conservative estimates and blend in measurements taken while the
    planner prepares candidates, so long-running sessions converge to
    the machine's real costs.
    """

    optimize_s_per_call: float = 2.0e-4
    compile_s_per_call: float = 1.0e-4
    interpreted_s_per_instruction: float = 2.0e-5
    compiled_s_per_instruction: float = 2.0e-6
    updates: int = 0

    _ALPHA: ClassVar[float] = 0.3

    def observe_optimize(self, seconds: float, calls: int) -> None:
        """Blend one measured optimizer run into the prior."""
        per_call = seconds / max(calls, 1)
        self.optimize_s_per_call += self._ALPHA * (
            per_call - self.optimize_s_per_call
        )
        self.updates += 1

    def observe_compile(self, seconds: float, calls: int) -> None:
        """Blend one measured compile into the prior."""
        per_call = seconds / max(calls, 1)
        self.compile_s_per_call += self._ALPHA * (
            per_call - self.compile_s_per_call
        )
        self.updates += 1

    def snapshot(self) -> tuple[tuple[str, float], ...]:
        """The priors as a hashable name/value tuple (for reports)."""
        return (
            ("optimize_s_per_call", self.optimize_s_per_call),
            ("compile_s_per_call", self.compile_s_per_call),
            ("interpreted_s_per_instruction", self.interpreted_s_per_instruction),
            ("compiled_s_per_instruction", self.compiled_s_per_instruction),
            ("updates", float(self.updates)),
        )


_PRIORS = CostPriors()


def cost_priors() -> CostPriors:
    """The process-wide cost priors the planner prices with."""
    return _PRIORS


def reset_cost_priors() -> None:
    """Reset the measured priors to their conservative defaults."""
    global _PRIORS
    _PRIORS = CostPriors()


@dataclass(frozen=True)
class CandidatePlan:
    """One priced candidate configuration."""

    plan: ExecutionPlan
    #: Modelled DRAM makespan of executing the plan once.
    predicted_makespan_ns: float
    #: Estimated host wall-clock to prepare and run the plan once
    #: (optimize + per-replica compiles + tier dispatch), from the priors.
    wall_cost_s: float


@dataclass(frozen=True)
class PlannerReport:
    """What the planner considered and what it chose.

    ``measured_makespan_ns`` is attached by the execution front doors
    after the run, so callers can hold prediction against measurement;
    ``cached`` marks reports served from the plan memo.
    """

    subject: str
    candidates: tuple[CandidatePlan, ...]
    chosen: ExecutionPlan
    predicted_makespan_ns: float
    #: Predicted makespan of the naive default (one shard, unoptimized).
    baseline_makespan_ns: float
    priors: tuple[tuple[str, float], ...]
    planning_wall_s: float
    cached: bool = False
    measured_makespan_ns: float | None = None

    @property
    def predicted_gain(self) -> float:
        """Baseline over chosen predicted makespan (>= 1 when auto helps)."""
        if self.predicted_makespan_ns <= 0:
            return float("inf")
        return self.baseline_makespan_ns / self.predicted_makespan_ns

    @property
    def prediction_error(self) -> float | None:
        """Relative |predicted - measured| / measured, when measured."""
        if self.measured_makespan_ns is None or self.measured_makespan_ns <= 0:
            return None
        return (
            abs(self.predicted_makespan_ns - self.measured_makespan_ns)
            / self.measured_makespan_ns
        )

    def with_measured(self, makespan_ns: float) -> "PlannerReport":
        """This report with the measured makespan attached."""
        return replace(self, measured_makespan_ns=makespan_ns)


@dataclass(frozen=True)
class PlannedExecution:
    """A chosen concrete plan plus the report that led to it."""

    plan: ExecutionPlan
    report: PlannerReport


#: (structure key, engine config, modes, batched, optimize pin, tier pin)
#: -> PlannedExecution.  A hit returns the chosen plan with zero
#: analytic-model calls.
_PLAN_MEMO: BoundedMemo[PlannedExecution] = BoundedMemo(512)


def plan_memo_key(
    structure_key: tuple,
    config: object,
    modes: tuple[str, ...],
    supports_batched: bool,
    request: ExecutionPlan,
) -> tuple:
    """The chosen-plan memo identity for one planning query.

    Exported so the shared artifact store (:mod:`repro.serve.store`) can
    seed the memo with decisions a previous process already paid for;
    :func:`plan_program` builds its keys through this same function, so
    the two can never drift apart.
    """
    return (
        structure_key,
        config,
        tuple(modes),
        supports_batched,
        request.optimize,
        request.tier,
    )


def seed_planner_cache(memo_key: tuple, planned: PlannedExecution) -> None:
    """Install a chosen plan under its memo key (shared-store warm start)."""
    _PLAN_MEMO.put(memo_key, planned)


def planner_cache_stats() -> dict[str, int]:
    """Hit/miss counters and size of the chosen-plan memo."""
    return _PLAN_MEMO.stats()


def clear_planner_cache() -> None:
    """Drop every memoized chosen plan and reset the counters."""
    _PLAN_MEMO.clear()


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


def _template_for(
    controller: "PlutoController",
    calls: Sequence["ApiCall"],
    priors: CostPriors,
) -> "TraceTemplate":
    """Compile (cached) and build the accounting template, timing it."""
    from repro.api.session import compile_cached_with_key

    started = time.perf_counter()
    compiled, key = compile_cached_with_key(list(calls))
    priors.observe_compile(time.perf_counter() - started, len(calls))
    return controller.trace_template(compiled, structure_key=key)


def _tier_run_cost_s(tier: str, instructions: int, priors: CostPriors) -> float:
    per_instruction = (
        priors.compiled_s_per_instruction
        if tier == "compiled"
        else priors.interpreted_s_per_instruction
    )
    return instructions * per_instruction


def _complexity(plan: ExecutionPlan) -> tuple[int, int]:
    """Tie-break ordering: prefer simpler plans at equal cost."""
    return (1 if plan.hierarchical else 0, plan.effective_shards)


def _verify_chosen(
    plan: ExecutionPlan,
    calls: Sequence["ApiCall"],
    engine: "PlutoEngine",
) -> None:
    """Run the chosen shard plan through the static shard-plan verifier."""
    from dataclasses import replace as replace_dataclass

    from repro.analyze.verifier import verify_shard_plans
    from repro.controller.dispatch import ShardPlanner
    from repro.controller.hierarchy import HierarchyPlanner

    geometry = engine.geometry
    if plan.hierarchical:
        placement = geometry
        if plan.channels is not None or plan.ranks is not None:
            placement = replace_dataclass(
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
    priors: CostPriors,
) -> tuple[list[CandidatePlan], dict[bool, Sequence["ApiCall"]]]:
    """Price every candidate configuration for ``calls`` on ``engine``."""
    from repro.controller.dispatch import ShardPlanner, merged_makespan_ns
    from repro.controller.executor import PlutoController
    from repro.controller.hierarchy import hierarchical_makespan_ns
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
        optimize_cost_s = 0.0
        if optimize:
            started = time.perf_counter()
            optimized = optimize_cached(list(calls))
            priors.observe_optimize(time.perf_counter() - started, len(calls))
            plan_calls: Sequence["ApiCall"] = list(optimized.calls)
            optimize_cost_s = len(calls) * priors.optimize_s_per_call
        else:
            plan_calls = list(calls)
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
            template = templates.get(length)
            if template is None:
                template = _template_for(controller, shard_calls, priors)
                templates[length] = template
            return template

        if "single" in effective_modes or size is None:
            full = len(plan_calls)
            if full == 0:
                continue
            whole = template_of(plan_calls, size if size is not None else -1)
            compile_cost_s = len(plan_calls) * priors.compile_s_per_call
            candidates.append(
                CandidatePlan(
                    plan=ExecutionPlan(shards=1, optimize=optimize, tier=tier),
                    predicted_makespan_ns=whole.total_latency_ns,
                    wall_cost_s=optimize_cost_s
                    + compile_cost_s
                    + _tier_run_cost_s(tier, whole.instructions_executed, priors),
                )
            )
        if size is None:
            continue

        if "banks" in effective_modes:
            for shards in _shard_grid(geometry.banks, size):
                if shards == 1:
                    continue
                slices = ShardPlanner.plan_slices(plan_calls, shards)
                streams: list[Sequence["Command"]] = []
                instructions = 0
                distinct = 0
                seen: set[int] = set()
                for index, (start, stop, shard_calls) in enumerate(slices):
                    template = template_of(shard_calls, stop - start)
                    if (stop - start) not in seen:
                        seen.add(stop - start)
                        distinct += 1
                    instructions += template.instructions_executed
                    streams.append(
                        template.realize(
                            engine.timing, engine.energy, bank=index
                        ).commands
                    )
                predicted = merged_makespan_ns(streams, engine)
                compile_cost_s = (
                    distinct * len(plan_calls) * priors.compile_s_per_call
                )
                candidates.append(
                    CandidatePlan(
                        plan=ExecutionPlan(shards=shards, optimize=optimize, tier=tier),
                        predicted_makespan_ns=predicted,
                        wall_cost_s=optimize_cost_s
                        + compile_cost_s
                        + _tier_run_cost_s(tier, instructions, priors),
                    )
                )

        if "hierarchy" in effective_modes:
            for channels, ranks in _placements(
                geometry.channels, geometry.ranks
            ):
                total_banks = channels * ranks * geometry.banks
                for shards in _shard_grid(total_banks, size):
                    slices = ShardPlanner.plan_slices(plan_calls, shards)
                    streams_h: list[Sequence["Command"]] = []
                    instructions = 0
                    distinct = 0
                    seen = set()
                    for start, stop, shard_calls in slices:
                        template = template_of(shard_calls, stop - start)
                        if (stop - start) not in seen:
                            seen.add(stop - start)
                            distinct += 1
                        instructions += template.instructions_executed
                        # The hierarchical scheduler reassigns banks by
                        # stream index, so bank-0 realizations price
                        # exactly what the dispatcher will charge.
                        streams_h.append(template.commands)
                    predicted = hierarchical_makespan_ns(
                        streams_h, engine, channels=channels, ranks=ranks
                    )
                    compile_cost_s = (
                        distinct * len(plan_calls) * priors.compile_s_per_call
                    )
                    plan_channels = (
                        channels if channels != geometry.channels else None
                    )
                    plan_ranks = ranks if ranks != geometry.ranks else None
                    candidates.append(
                        CandidatePlan(
                            plan=ExecutionPlan(
                                shards=shards,
                                hierarchical=True,
                                channels=plan_channels,
                                ranks=plan_ranks,
                                optimize=optimize,
                                tier=tier,
                            ),
                            predicted_makespan_ns=predicted,
                            wall_cost_s=optimize_cost_s
                            + compile_cost_s
                            + _tier_run_cost_s(tier, instructions, priors),
                        )
                    )
    return candidates, calls_by_optimize


def _choose(candidates: Sequence[CandidatePlan]) -> CandidatePlan:
    """Argmin predicted makespan, ties broken by wall cost then simplicity."""
    best = min(candidate.predicted_makespan_ns for candidate in candidates)
    window = best * (1.0 + TIE_BREAK_FRACTION) if best > 0 else 0.0
    tied = [
        candidate
        for candidate in candidates
        if candidate.predicted_makespan_ns <= window
    ] or list(candidates)
    return min(
        tied,
        key=lambda candidate: (
            candidate.wall_cost_s,
            _complexity(candidate.plan),
            candidate.predicted_makespan_ns,
        ),
    )


def _baseline_makespan(candidates: Sequence[CandidatePlan]) -> float:
    """Predicted makespan of the naive default (one shard, unoptimized)."""
    for candidate in candidates:
        plan = candidate.plan
        if (
            not plan.hierarchical
            and plan.effective_shards == 1
            and not plan.optimize
        ):
            return candidate.predicted_makespan_ns
    return max(candidate.predicted_makespan_ns for candidate in candidates)


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

    Chosen plans are memoized on the program structure key plus the
    engine configuration and search constraints; a hit performs **zero**
    analytic-model calls.  The returned plan is concrete
    (``mode="explicit"``) and its shard plan, when sharded, has passed
    :func:`~repro.analyze.verifier.verify_shard_plans`.
    """
    from repro.api.session import hashable_structure_key
    from repro.core.engine import PlutoConfig, PlutoEngine

    if engine is None:
        engine = PlutoEngine(PlutoConfig())
    if request is None:
        request = ExecutionPlan.auto()
    if not request.is_auto:
        raise ConfigurationError(
            "plan_program expects an auto plan; explicit plans execute as-is"
        )

    structure_key = hashable_structure_key(calls)
    memo_key: tuple | None = None
    if structure_key is not None:
        memo_key = plan_memo_key(
            structure_key,
            engine.config,
            tuple(modes),
            supports_batched,
            request,
        )
        cached = _PLAN_MEMO.get(memo_key)
        if cached is not None:
            return PlannedExecution(
                plan=cached.plan,
                report=replace(cached.report, cached=True),
            )
    else:
        _PLAN_MEMO.note_uncached()

    started = time.perf_counter()
    priors = _PRIORS
    candidates, calls_by_optimize = _enumerate(
        calls,
        engine,
        modes=modes,
        request=request,
        supports_batched=supports_batched,
        priors=priors,
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
        baseline_makespan_ns=_baseline_makespan(candidates),
        priors=priors.snapshot(),
        planning_wall_s=time.perf_counter() - started,
    )
    planned = PlannedExecution(plan=plan, report=report)
    if memo_key is not None:
        _PLAN_MEMO.put(memo_key, planned)
    return planned
