"""The cost-based auto-planner.

Given a recorded program and an engine, :func:`plan_program` enumerates
candidate execution configurations — the unsharded program, and every
shard count from two up over each placement of the engine's device (one
rank of one channel, the whole device, then each interface level alone,
spelled with the device's counts), optimizer on/off — prices them with
the memoized analytic makespan model (the same
:func:`~repro.controller.dispatch.merged_makespan_ns` the dispatcher
charges executions with, backed by :mod:`repro.dram.analytic`), and
picks the argmin.  Near-ties break on
modelled energy, then on the simpler plan.  Because pricing and
execution share one model *and* one memo, the planner's predicted
makespan is exact with respect to the model, and a chosen sharded plan's
merge is a warm-cache hit when it executes.  The
planner reads no host clock: its choice is a function of the program
structure, the engine configuration and the request alone, never of the
backend that will simulate the chosen plan.

The planner merges only what can win.  The unsharded candidates are
priced first, from their trace templates.  Every sharded candidate gets
a sound floor on its makespan
(:func:`~repro.dram.analytic.makespan_floor_ns`, built from the
scheduler's own event decomposition), and the sharded candidates are
visited in ascending floor order.  One is merged only when its floor
cannot prove that it loses; it is pruned when the floor is above the
tie-break window of the best makespan priced so far
(:data:`PRUNED_ABOVE_WINDOW`), or when a priced candidate whose makespan
is at or below the floor beats it on (energy, complexity)
(:data:`PRUNED_BY_TIE_BREAK`).  Either way it could not have been
chosen, so the choice, its predicted makespan and the baseline are
those of pricing every candidate.  The report keeps every candidate,
pruned ones with their floor and reason and no makespan.

The planner keeps no memo of its own: every front door prepares a
program into one :class:`~repro.api.session.ProgramArtifact` per
request identity, plan included, so a structurally repeated request
reuses its artifact and never reaches the planner.  Pricing needs only
each candidate's at most two slice lengths and one accounting template
per distinct vector of per-register row counts: a
template depends on the element count only through the rows each
register spans, so a slice whose row counts match the whole program's
(every slice of a vector that fills one DRAM row) prices from the whole
program's template, and only a slice with new row counts is resized and
compiled.  A merged candidate's shard stream is its template placed in a
bank (:class:`~repro.dram.analytic.PlacedStream`), once per call and
dropped with it: the merge memo's key comes from the template's command
kinds and row counts, and no command is built unless the merge misses
the memo.  The chosen plan is laid out once, by
:meth:`~repro.controller.dispatch.ShardPlanner.plan` when its artifact
is prepared, and the layout verifies itself as it is built; the whole
program the planner compiled for the chosen optimizer setting goes with
the plan (:attr:`PlannedExecution.program`), so preparing it compiles
and keys nothing again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

from repro.api.session import _KEY_UNSET, hashable_structure_key
from repro.errors import AllocationError, ConfigurationError
from repro.plan.execution_plan import ExecutionPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.handles import ApiCall
    from repro.compiler.lowering import CompiledProgram
    from repro.controller.dispatch import ShardPlanner
    from repro.controller.executor import TraceTemplate
    from repro.core.engine import PlutoEngine
    from repro.dram.analytic import PlacedStream, StreamBound
    from repro.dram.geometry import DRAMGeometry
    from repro.opt.pipeline import OptimizedProgram

__all__ = [
    "CandidatePlan",
    "PlannerReport",
    "PlannedExecution",
    "PlannedProgram",
    "plan_program",
]


#: Candidates within this fraction of the best predicted makespan are
#: considered tied; ties break toward the lower modelled energy (and
#: then the simpler plan), so auto never gives up more than this sliver
#: of modelled makespan, and only to save modelled energy or complexity.
TIE_BREAK_FRACTION = 0.005

#: Why a sharded candidate was not merged (:attr:`CandidatePlan.pruned`):
#: its floor is above the tie-break window of the best priced makespan,
#: so its makespan is too;
PRUNED_ABOVE_WINDOW = "floor above the window"
#: or a priced candidate whose makespan is at or below its floor has
#: lower (energy, complexity), so it would win any tie-break with it.
PRUNED_BY_TIE_BREAK = "loses the tie-break"


@dataclass(frozen=True)
class CandidatePlan:
    """One candidate configuration, priced or pruned."""

    plan: ExecutionPlan
    #: Modelled DRAM makespan of executing the plan once; ``None`` when
    #: the candidate was pruned without a merge.
    predicted_makespan_ns: float | None
    #: Modelled DRAM energy of executing the plan once (summed over its
    #: shards).
    predicted_energy_nj: float
    #: A sharded plan's makespan floor
    #: (:func:`~repro.dram.analytic.makespan_floor_ns`), at or below its
    #: makespan; ``None`` for an unsharded plan, which is priced directly.
    floor_ns: float | None = None
    #: :data:`PRUNED_ABOVE_WINDOW` or :data:`PRUNED_BY_TIE_BREAK` when the
    #: floor proved the plan cannot be chosen; ``None`` when priced.
    pruned: str | None = None


@dataclass(frozen=True)
class PlannerReport:
    """What the planner considered and what it chose.

    ``candidates`` holds every candidate in enumeration order, priced or
    pruned.  The predicted makespan is exact: a run of the chosen plan
    reports it as its ``latency_ns``.
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


class PlannedProgram(NamedTuple):
    """The whole program of one optimizer setting, as the planner built it."""

    #: The optimizer's result (``None`` for the unoptimized setting).
    optimized: "OptimizedProgram | None"
    calls: "tuple[ApiCall, ...]"
    #: Structure key of ``calls``; ``None`` when it is not hashable.
    structure_key: tuple | None
    compiled: "CompiledProgram"


@dataclass(frozen=True)
class PlannedExecution:
    """A chosen concrete plan plus the report that led to it."""

    plan: ExecutionPlan
    report: PlannerReport
    #: The whole program of the chosen plan's optimizer setting, keyed
    #: and compiled, so preparing the plan builds neither again.
    program: PlannedProgram | None = None


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


@dataclass
class _Sharded:
    """A sharded candidate before it is priced or pruned.

    ``parts`` are its shards in placement order, as (template, count)
    runs: at most two, the longer slices first (:meth:`~repro.controller
    .dispatch.ShardPlanner.slice_lengths`).
    """

    index: int
    plan: ExecutionPlan
    planner: "ShardPlanner"
    parts: "list[tuple[TraceTemplate, int]]"
    energy_nj: float
    floor_ns: float


def _merge(
    candidate: _Sharded,
    engine: "PlutoEngine",
    placed: "dict[int, tuple[TraceTemplate, dict[int, PlacedStream]]]",
) -> float:
    """The makespan the plan's executor charges: :func:`merged_makespan_ns`
    of the shards' streams in the banks the planner places them in.

    Each stream is its template's commands placed in a bank
    (:class:`~repro.dram.analytic.PlacedStream`): its memo key comes from
    the template's command kinds and row counts, and its commands are
    built only if the merge misses the memo, which a run of the chosen
    plan then hits.  ``placed`` maps ``id(template)`` to the template and
    its stream per bank, so a planning call places each (template, bank)
    pair once.
    """
    from repro.controller.dispatch import merged_makespan_ns
    from repro.dram.analytic import PlacedStream

    planner = candidate.planner
    streams: list[PlacedStream] = []
    for template, count in candidate.parts:
        _, banks = placed.setdefault(id(template), (template, {}))
        first = len(streams)
        for bank in map(planner.bank, range(first, first + count)):
            stream = banks.get(bank)
            if stream is None:
                stream = banks[bank] = PlacedStream(template.commands, bank)
            streams.append(stream)
    return merged_makespan_ns(
        streams, engine, channels=planner.geometry.channels, ranks=planner.geometry.ranks
    )


def _complexity(plan: ExecutionPlan) -> tuple[int, int]:
    """Tie-break ordering: prefer simpler plans at equal cost."""
    return (1 if plan.hierarchical else 0, plan.effective_shards)


def _makespan(candidate: CandidatePlan) -> float:
    """A priced candidate's predicted makespan."""
    makespan = candidate.predicted_makespan_ns
    assert makespan is not None, f"{candidate.plan.label()} was pruned"
    return makespan


def _pruned(candidate: _Sharded, priced: Sequence[CandidatePlan]) -> str | None:
    """Why ``candidate`` cannot be chosen, given the ``priced`` ones.

    Its makespan is at least its floor.  Above the window of the best
    priced makespan, it is outside the window :func:`_choose` takes.
    At or above a priced makespan whose (energy, complexity) is lower,
    it cannot be the best makespan, and in the window it loses the
    tie-break to that candidate, which is in the window too.
    """
    if not priced:
        return None
    floor = candidate.floor_ns
    if floor > min(map(_makespan, priced)) * (1.0 + TIE_BREAK_FRACTION):
        return PRUNED_ABOVE_WINDOW
    rank = (candidate.energy_nj, _complexity(candidate.plan))
    for other in priced:
        if _makespan(other) <= floor and (
            other.predicted_energy_nj,
            _complexity(other.plan),
        ) < rank:
            return PRUNED_BY_TIE_BREAK
    return None


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
    key: "tuple | None | object",
) -> tuple[list[CandidatePlan], dict[bool, PlannedProgram]]:
    """Every candidate configuration for ``calls`` on ``engine``, in
    enumeration order, and the whole program of each optimizer setting.

    Unsharded candidates are priced from their templates; sharded ones
    are visited in ascending floor order and merged only when
    :func:`_pruned` finds no reason to skip them.  A candidate whose
    program cannot be allocated is skipped; when none fits, the first
    candidate's :class:`~repro.errors.AllocationError` is raised.
    ``key`` is the structure key of ``calls`` (see
    :func:`~repro.api.session.compile_cached_with_key`).
    """
    from repro.api.session import compile_cached, compile_cached_with_key
    from repro.controller.dispatch import ShardPlanner, rank_scheduler
    from repro.controller.executor import PlutoController
    from repro.dram.analytic import makespan_floor_ns, stream_bound
    from repro.opt.pipeline import optimize_cached

    controller = PlutoController(engine, backend="vectorized")
    geometry = engine.geometry
    scheduler = rank_scheduler(engine)
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

    candidates: list[CandidatePlan | None] = []
    sharded: list[_Sharded] = []
    programs: dict[bool, PlannedProgram] = {}
    unallocatable: list[AllocationError] = []
    # Per template of this call, by ``id``: its stream bound.  Templates
    # live on their programs for the whole call, so no id is reused.
    bounds: dict[int, "StreamBound"] = {}
    for optimize in optimize_options:
        optimized = optimize_cached(calls, key=key) if optimize else None
        plan_calls = tuple(calls if optimized is None else optimized.calls)
        if not plan_calls:
            continue
        try:
            size: int | None = ShardPlanner._uniform_size(plan_calls)
        except ConfigurationError:
            # Non-uniform element space: only the unsharded program runs.
            size = None
        try:
            # The optimized program's key is built here, once.
            whole, plan_key = compile_cached_with_key(
                plan_calls, key if optimized is None else _KEY_UNSET
            )
        except AllocationError as error:
            # A register file overflows at any element count, so no slice
            # of this program compiles either.
            unallocatable.append(error)
            continue
        programs[optimize] = PlannedProgram(optimized, plan_calls, plan_key, whole)
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
            (template,) = unsharded
            candidates.append(
                CandidatePlan(
                    ExecutionPlan(shards=1, optimize=optimize),
                    template.total_latency_ns,
                    template.total_energy_nj,
                )
            )
        if size is None:
            continue
        for channels, ranks in placements:
            planner = ShardPlanner(geometry, channels=channels, ranks=ranks)
            for shards in _shard_grid(planner.geometry.total_banks, size):
                counts = ShardPlanner.slice_lengths(size, shards)
                shard_templates = templates_of([length for length, _ in counts])
                if shard_templates is None:
                    continue
                parts = [
                    (template, count) for template, (_, count) in zip(shard_templates, counts)
                ]
                for template, _ in parts:
                    if id(template) not in bounds:
                        bounds[id(template)] = stream_bound(template.commands, scheduler)
                floor = (
                    makespan_floor_ns(
                        [(bounds[id(template)], count) for template, count in parts],
                        scheduler,
                        channels=planner.geometry.channels,
                        ranks=planner.geometry.ranks,
                    )
                    # The dispatcher places only streams that hold a
                    # command, so an empty one moves the others.
                    if all(template.commands for template, _ in parts)
                    else 0.0
                )
                sharded.append(
                    _Sharded(
                        index=len(candidates),
                        plan=ExecutionPlan(
                            shards=shards, channels=channels, ranks=ranks, optimize=optimize
                        ),
                        planner=planner,
                        parts=parts,
                        # Added shard by shard, in shard order.
                        energy_nj=sum(
                            template.total_energy_nj
                            for template, count in parts
                            for _ in range(count)
                        ),
                        floor_ns=floor,
                    )
                )
                candidates.append(None)

    priced = [candidate for candidate in candidates if candidate is not None]
    # Every shard stream merged, placed once and dropped with this call:
    # kept on a template, the program cache would keep it alive.
    placed: dict[int, tuple["TraceTemplate", dict[int, "PlacedStream"]]] = {}
    for entry in sorted(sharded, key=lambda entry: entry.floor_ns):
        reason = _pruned(entry, priced)
        candidate = CandidatePlan(
            entry.plan,
            None if reason is not None else _merge(entry, engine, placed),
            entry.energy_nj,
            floor_ns=entry.floor_ns,
            pruned=reason,
        )
        if reason is None:
            priced.append(candidate)
        candidates[entry.index] = candidate
    if not priced and unallocatable:
        raise unallocatable[0]
    return [candidate for candidate in candidates if candidate is not None], programs


def _choose(candidates: Sequence[CandidatePlan]) -> CandidatePlan:
    """Argmin predicted makespan; near-ties go to the lower modelled energy.

    Reads the priced candidates only.  Those within
    :data:`TIE_BREAK_FRACTION` of the best makespan are ranked by
    predicted energy, then :func:`_complexity`, then makespan.
    """
    priced = [candidate for candidate in candidates if candidate.pruned is None]
    window = min(map(_makespan, priced)) * (1.0 + TIE_BREAK_FRACTION)
    return min(
        (candidate for candidate in priced if _makespan(candidate) <= window),
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
    (unoptimized when the request leaves it unset), always priced.  When
    that program cannot be allocated, the report measures against the
    chosen plan, so it claims no gain.
    """
    baseline = ExecutionPlan(shards=1, optimize=bool(request.optimize))
    for candidate in candidates:
        if candidate.plan == baseline:
            return _makespan(candidate)
    return _makespan(chosen)


def plan_program(
    calls: Sequence["ApiCall"],
    engine: "PlutoEngine | None" = None,
    *,
    request: ExecutionPlan | None = None,
    subject: str = "program",
    key: "tuple | None | object" = _KEY_UNSET,
) -> PlannedExecution:
    """Pick the cheapest execution configuration for ``calls``.

    ``request`` is the auto plan carrying any pinned ``optimize``.  The
    planner prices the unsharded program and every shard count from two
    up over every placement of ``engine``'s device, each placement
    spelled with the device's counts as a run resolves it, merging only
    the sharded candidates whose floor cannot prove they lose.  The
    search is a function of the request alone, and the choice depends on
    no backend: every backend runs a plan to the same modelled makespan
    and energy.

    Every call plans: reuse lives in the program artifact table of
    :func:`~repro.api.session.prepare_execution`, which passes the
    structure key of ``calls`` it already holds as ``key``.  The
    returned plan is concrete (``mode="explicit"``) and carries the
    whole program of its optimizer setting; when it is sharded,
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

    if key is _KEY_UNSET:
        key = hashable_structure_key(calls)
    candidates, programs = _enumerate(calls, engine, request, key)
    if not candidates:
        raise ConfigurationError("the planner found no viable execution configuration")
    chosen = _choose(candidates)
    plan = chosen.plan
    report = PlannerReport(
        subject=subject,
        candidates=tuple(candidates),
        chosen=plan,
        predicted_makespan_ns=_makespan(chosen),
        baseline_makespan_ns=_baseline_makespan(candidates, request, chosen),
    )
    return PlannedExecution(plan=plan, report=report, program=programs.get(bool(plan.optimize)))
