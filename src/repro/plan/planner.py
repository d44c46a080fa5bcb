"""The cost-based auto-planner.

Given a recorded program and an engine, :func:`plan_program` enumerates
candidate execution configurations — the unsharded program, and every
shard count from two up over each placement of the engine's device (one
rank of one channel, the whole device, then each interface level alone,
spelled with the device's counts), optimizer on/off — prices each with
the memoized analytic makespan model (the same
:func:`~repro.controller.dispatch.merged_makespan_ns` the dispatcher
charges executions with, backed by :mod:`repro.dram.analytic`), and
picks the argmin.  Near-ties break on
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
(:meth:`~repro.controller.dispatch.ShardPlanner.slice_bounds`) and one
accounting template per distinct vector of per-register row counts: a
template depends on the element count only through the rows each
register spans, so a slice whose row counts match the whole program's
(every slice of a vector that fills one DRAM row) prices from the whole
program's template, and only a slice with new row counts is resized and
compiled.  A shard's stream is its template placed in a bank
(:class:`~repro.dram.analytic.PlacedStream`), once per call and dropped
with it: the merge memo's key comes from the template's command kinds
and row counts, and no command is built unless the merge misses the
memo.  The chosen plan is laid out once, by
:meth:`~repro.controller.dispatch.ShardPlanner.plan` when its artifact
is prepared, and the layout verifies itself as it is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import AllocationError, ConfigurationError
from repro.plan.execution_plan import ExecutionPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.handles import ApiCall
    from repro.compiler.lowering import CompiledProgram
    from repro.controller.dispatch import ShardPlanner
    from repro.controller.executor import TraceTemplate
    from repro.core.engine import PlutoEngine
    from repro.dram.analytic import PlacedStream
    from repro.dram.geometry import DRAMGeometry

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
    as its ``latency_ns``.
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
    """Sharded candidate counts: powers of two from 2 up to
    ``min(limit, size)``, and that cap when it is above one."""
    cap = min(limit, size)
    grid: set[int] = {cap} if cap > 1 else set()
    power = 2
    while power <= cap:
        grid.add(power)
        power *= 2
    return sorted(grid)


def _price(
    plan: ExecutionPlan,
    templates: Sequence["TraceTemplate"],
    engine: "PlutoEngine",
    placed: "dict[int, tuple[TraceTemplate, dict[int, PlacedStream]]]",
    planner: "ShardPlanner | None" = None,
) -> CandidatePlan:
    """Price ``plan``, whose shards run the trace ``templates`` in order.

    The makespan is what the plan's executor charges: the one-bank trace
    when unsharded, else :func:`merged_makespan_ns` of the shards'
    streams in the banks ``planner`` places them in, over its placement.
    Each stream is its template's commands placed in a bank
    (:class:`~repro.dram.analytic.PlacedStream`): its memo key comes from
    the template's command kinds and row counts, and its commands are
    built only if the merge misses the memo, which a run of the chosen
    plan then hits.  ``placed`` maps ``id(template)`` to the template and
    its stream per bank, so a planning call places each (template, bank)
    pair once.  Energy adds across shards.
    """
    from repro.controller.dispatch import merged_makespan_ns
    from repro.dram.analytic import PlacedStream

    if planner is None:
        makespan = templates[0].total_latency_ns
    else:
        streams: list[PlacedStream] = []
        for index, template in enumerate(templates):
            bank = planner.bank(index)
            _, banks = placed.setdefault(id(template), (template, {}))
            stream = banks.get(bank)
            if stream is None:
                stream = banks[bank] = PlacedStream(template.commands, bank)
            streams.append(stream)
        makespan = merged_makespan_ns(
            streams,
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


def _row_counts(
    program: "CompiledProgram", geometry: "DRAMGeometry", length: int | None = None
) -> tuple[int, ...]:
    """Rows each row register of ``program`` spans, in allocation order.

    With ``length``, the counts of the program resized to ``length``
    elements a vector (every register of a shardable program holds one
    slice).  The allocator's own arithmetic
    (:meth:`~repro.dram.geometry.DRAMGeometry.rows_for`), so the key
    cannot drift from the allocation.  A trace template depends on the
    element count only through these counts: no command, instruction
    render or LUT size carries a count.  So the planner builds one
    template per distinct vector of them.
    """
    return tuple(
        geometry.rows_for(
            register.size_elements if length is None else length, register.bit_width
        )
        for register in program.register_file.row_registers
    )


def _enumerate(
    calls: Sequence["ApiCall"],
    engine: "PlutoEngine",
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
    # The (channels, ranks) placed over, spelled as a run resolves them:
    # one rank of one channel, then the whole device, then each interface
    # level alone, each priced once however it is reached (on a one-rank
    # device the whole device is the first).
    device = (geometry.channels, geometry.ranks)
    placements = dict.fromkeys([(1, 1), device, (device[0], 1), (1, device[1])])

    candidates: list[CandidatePlan] = []
    unallocatable: list[AllocationError] = []
    # Every shard stream priced, placed once and dropped with this call:
    # kept on a template, the program cache would keep it alive.
    placed: dict[int, tuple["TraceTemplate", dict[int, "PlacedStream"]]] = {}
    for optimize in optimize_options:
        plan_calls: Sequence["ApiCall"] = (
            list(optimize_cached(list(calls)).calls) if optimize else list(calls)
        )
        if not plan_calls:
            continue
        try:
            size: int | None = ShardPlanner._uniform_size(plan_calls)
        except ConfigurationError:
            # Non-uniform element space: only the unsharded program runs.
            size = None
        try:
            whole = compile_cached(plan_calls)
        except AllocationError as error:
            # A register file overflows at any element count, so no slice
            # of this program compiles either.
            unallocatable.append(error)
            continue
        # Per-register row counts -> accounting template, and slice length
        # -> those counts; the whole program is the length ``size``
        # (``None`` when it has no uniform one) and is built first.
        templates: dict[tuple[int, ...], "TraceTemplate | AllocationError"] = {}
        rows_of: dict[int | None, tuple[int, ...]] = {size: _row_counts(whole, geometry)}

        def templates_of(lengths: Sequence[int | None]) -> "list[TraceTemplate] | None":
            """Accounting templates, one build per new row-count vector.

            Only a slice whose row counts no built template has is
            resized and compiled.  ``None`` when a program cannot be
            allocated.
            """
            built: list["TraceTemplate"] = []
            for length in lengths:
                rows = rows_of.get(length)
                if rows is None:
                    rows = rows_of[length] = _row_counts(whole, geometry, length)
                template = templates.get(rows)
                if template is None:
                    try:
                        template = controller.trace_template(
                            whole
                            if length is None or length == size
                            else compile_cached(ShardPlanner._resize_calls(plan_calls, length))
                        )
                    except AllocationError as error:
                        unallocatable.append(error)
                        template = error
                    templates[rows] = template
                if isinstance(template, AllocationError):
                    return None
                built.append(template)
            return built

        unsharded = templates_of([size])
        if unsharded is not None:
            candidates.append(
                _price(ExecutionPlan(shards=1, optimize=optimize), unsharded, engine, placed)
            )
        if size is None:
            continue
        for channels, ranks in placements:
            planner = ShardPlanner(geometry, channels=channels, ranks=ranks)
            for shards in _shard_grid(planner.geometry.total_banks, size):
                shard_templates = templates_of(
                    [stop - start for start, stop in ShardPlanner.slice_bounds(size, shards)]
                )
                if shard_templates is not None:
                    plan = ExecutionPlan(
                        shards=shards, channels=channels, ranks=ranks, optimize=optimize
                    )
                    candidates.append(
                        _price(plan, shard_templates, engine, placed, planner)
                    )
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

    The ``shards=1`` candidate whose ``optimize`` matches the request
    (unoptimized when the request leaves it unset).  When that program
    cannot be allocated, the report measures against the chosen plan,
    so it claims no gain.
    """
    baseline = ExecutionPlan(shards=1, optimize=bool(request.optimize))
    for candidate in candidates:
        if candidate.plan == baseline:
            return candidate.predicted_makespan_ns
    return chosen.predicted_makespan_ns


def plan_program(
    calls: Sequence["ApiCall"],
    engine: "PlutoEngine | None" = None,
    *,
    request: ExecutionPlan | None = None,
    subject: str = "program",
) -> PlannedExecution:
    """Pick the cheapest execution configuration for ``calls``.

    ``request`` is the auto plan carrying any pinned ``optimize``.  The
    planner prices the unsharded program and every shard count from two
    up over every placement of ``engine``'s device, each placement
    spelled with the device's counts as a run resolves it.  The search
    is a function of the request alone, and the choice depends on no
    backend: every backend runs a plan to the same modelled makespan and
    energy.

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

    candidates = _enumerate(calls, engine, request)
    if not candidates:
        raise ConfigurationError("the planner found no viable execution configuration")
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
