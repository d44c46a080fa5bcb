"""Sharded execution of pLUTo programs over the DRAM hierarchy.

The paper's scalability results (Figure 12) and the tFAW study
(Section 8.7) rest on parallelism across subarrays and banks: every bank
can sweep its own LUT-holding subarray concurrently, coupled only by the
tRRD/tFAW activation constraints inside a rank and by the command/data
bus its ranks share above that.  So "where does shard *i* run, and what
is the makespan" is one question, answered here once for every
placement — the whole device, a narrowed channel/rank subset, or one
rank of one channel, where ``ExecutionPlan(shards=n)`` runs by default:

* :class:`ShardPlanner` partitions a program's element space into
  balanced contiguous shards, rewrites and compiles the recorded API
  calls once per distinct slice size so each shard is a complete,
  smaller program over its slice, and places shard *i* channel-first:
  channel ``i % channels``, rank ``(i // channels) % ranks``, then the
  rank-local :func:`interleaved_bank_order` that round-robins bank
  groups.  It returns a :class:`ShardLayout`, verified as it is built.
* :class:`ParallelDispatcher` executes any layout of its engine's device
  through one :class:`~repro.controller.executor.PlutoController` (which
  runs unsharded programs too) — in one *fused*
  batched pass over a ``(shards, slice)`` view of the inputs when the
  selected :class:`~repro.backend.base.ExecutionBackend` supports it
  (the vectorized default), or shard by shard on the functional oracle —
  so the per-shard command traces carry their shards' bank ids.  The
  merged trace and the makespans depend on the layout and the engine
  alone, so it computes them on a layout's first run and reuses them.
* :func:`merged_makespan_ns` schedules the per-shard command streams:
  within a rank they merge with the semantics of the timing-aware
  :class:`~repro.dram.scheduler.CommandScheduler`, memoized on the
  streams' structure (:mod:`repro.dram.analytic`), so the latency is a
  *makespan* with cross-bank tRRD/tFAW contention enforced, not a naive
  per-shard sum; ranks sharing a channel are jointly bounded by the
  channel bus (:func:`bus_occupancy_ns`), and channels are independent.
* :class:`ShardedExecutionResult` reports that makespan and decomposes
  it per level (serial >= bank-only >= rank-parallel >= channel-parallel).

Functional outputs are bit-identical to unsharded execution by
construction: every shard runs the same lowering over a disjoint slice of
the same inputs, and the dispatcher joins the slices back in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from repro.api.handles import ApiCall, PlutoVector
from repro.backend.base import ExecutionBackend
from repro.compiler.lowering import CompiledProgram
from repro.controller.executor import ExecutionResult, PlutoController, input_shape_error
from repro.core.designs import PlutoDesign
from repro.core.engine import PlutoConfig, PlutoEngine
from repro.dram.analytic import PlacedStream, memoized_merge_makespan_ns, streams_signature
from repro.dram.commands import Command, CommandTrace, CommandType
from repro.dram.geometry import DRAMGeometry
from repro.dram.scheduler import CommandScheduler, activation_count
from repro.errors import ConfigurationError, ExecutionError, VerificationError
from repro.obs.trace import stage
from repro.utils.memo import BoundedMemo, register_layer, register_lru_cache

__all__ = [
    "ShardPlan",
    "ShardLayout",
    "ShardPlanner",
    "ShardedExecutionResult",
    "ParallelDispatcher",
    "execute_shard_plans",
    "sweep_act_interval_ns",
    "sweep_tail_ns",
    "sweep_acts_per_row",
    "merged_makespan_ns",
    "bus_occupancy_ns",
    "interleaved_bank_order",
    "rank_scheduler",
]


def sweep_act_interval_ns(engine: PlutoEngine) -> float:
    """ACT-to-ACT spacing inside a Row Sweep for the engine's design.

    Mirrors the per-design query-latency expressions of Table 1:
    pLUTo-BSA precharges after every activation (tRCD + tRP per row),
    pLUTo-GMC opens rows back to back (tRCD per row, one trailing
    precharge), and pLUTo-GSA additionally streams the LUT row back in
    through a LISA hop before each activation (destructive reads).
    """
    design, timing = engine.config.design, engine.timing
    if design is PlutoDesign.GSA:
        return engine.cost_model.lisa_hop_latency_ns + timing.t_rcd
    if design is PlutoDesign.GMC:
        return timing.t_rcd
    return timing.t_rcd + timing.t_rp


def sweep_tail_ns(engine: PlutoEngine) -> float:
    """Bank occupancy after a Row Sweep's final activation.

    GSA/GMC sweeps precharge once at the end (the ``+ tRP`` term of their
    Table 1 query latencies); BSA's per-row spacing already contains the
    precharge, so its sweeps carry no tail.
    """
    return 0.0 if engine.config.design is PlutoDesign.BSA else engine.timing.t_rp


def sweep_acts_per_row(engine: PlutoEngine) -> int:
    """Row activations per swept LUT entry (2 for GSA's reload+sweep)."""
    return 2 if engine.config.design is PlutoDesign.GSA else 1


@lru_cache(maxsize=None)
def _throttled_timing(timing, tfaw_fraction: float):
    return timing.with_tfaw_fraction(tfaw_fraction)


# Part of the engine helpers layer: cleared with it, not reported.
register_layer("engine_helpers", dict, _throttled_timing.cache_clear)


def rank_scheduler(engine: PlutoEngine) -> CommandScheduler:
    """The per-rank scheduler of the engine's design, one per engine.

    Built on first use and kept on the engine.  A scheduler is a frozen
    value of its settings, so it is also the timing half of the makespan
    memos' keys: engines of equal configuration build equal schedulers
    and share memo entries.
    """
    scheduler: CommandScheduler | None = engine.__dict__.get("_rank_scheduler")
    if scheduler is None:
        scheduler = engine.__dict__["_rank_scheduler"] = CommandScheduler(
            _throttled_timing(engine.timing, engine.config.tfaw_fraction),
            num_banks=engine.geometry.banks,
            banks_per_group=engine.geometry.banks_per_group,
            sweep_act_interval_ns=sweep_act_interval_ns(engine),
            sweep_tail_ns=sweep_tail_ns(engine),
            sweep_acts_per_row=sweep_acts_per_row(engine),
            lisa_hop_ns=engine.cost_model.lisa_hop_latency_ns,
        )
    return scheduler


@lru_cache(maxsize=None)
def interleaved_bank_order(geometry: DRAMGeometry) -> tuple[int, ...]:
    """Rank-local bank ids ordered to round-robin across bank groups.

    Consecutive shards land in different bank groups, so back-to-back
    column traffic pays tCCD_S instead of tCCD_L and activation pressure
    spreads across the rank's group-level circuitry.  Cached per
    geometry (geometries are frozen); returns an immutable tuple.
    """
    return tuple(
        group * geometry.banks_per_group + slot
        for slot in range(geometry.banks_per_group)
        for group in range(geometry.bank_groups)
    )


register_lru_cache("engine_helpers", interleaved_bank_order, "interleaved_bank_order")


def bus_occupancy_ns(streams: Sequence[Sequence[Command]], engine: PlutoEngine) -> float:
    """Channel-bus time one rank's command streams occupy.

    First-order model of the shared command/data bus ranks contend for:
    every row activation a command expands to costs one command-bus slot
    (one interface clock), and every column access additionally occupies
    the data bus for one burst (bounded below by tCCD_S, the fastest legal
    back-to-back burst spacing).  Commands that neither activate rows nor
    move data (PRE, REF) cost one command slot.
    """
    timing = engine.timing
    total = 0.0
    for stream in streams:
        for command in stream:
            if command.kind in (CommandType.RD, CommandType.WR):
                total += max(timing.t_burst, timing.t_ccd_s, timing.clock_ns)
                continue
            acts = activation_count(command)
            total += max(acts, 1) * timing.clock_ns
    return total


#: (streams signature, rank scheduler, channels, ranks) -> (makespan,
#: rank makespans, channel makespans).  The per-rank merges additionally
#: share the module-wide makespan memo, so collapsing levels re-merges
#: nothing.
_HIERARCHY_MEMO: BoundedMemo[tuple[float, dict, dict]] = BoundedMemo("hierarchy_schedules", 1024)


def _schedule_hierarchy(
    streams: Sequence[Sequence[Command]],
    engine: PlutoEngine,
    *,
    channels: int,
    ranks: int,
) -> tuple[float, dict[tuple[int, int], float], dict[int, float]]:
    """Schedule per-shard streams over a hierarchy, with the breakdown.

    Stream *i* is placed as :class:`ShardPlanner` places shard *i*, moved
    to that bank as a :class:`~repro.dram.analytic.PlacedStream`, so a
    memo hit builds no command.  Returns ``(makespan,
    rank_makespans, channel_makespans)`` where ``rank_makespans`` maps
    ``(channel, rank)`` to that rank's merged makespan (before the
    channel-bus bound) and ``channel_makespans`` maps each populated
    channel to ``max(slowest rank, bus occupancy)``.  Results are
    memoized on the streams' structural signature plus the hierarchy
    shape, with the per-rank merges sharing the module-wide makespan memo.
    """
    if channels <= 0 or ranks <= 0:
        raise ConfigurationError("channel and rank counts must be positive")
    streams = [stream for stream in streams if len(stream)]
    if not streams:
        return 0.0, {}, {}
    scheduler = rank_scheduler(engine)
    key = (streams_signature(streams), scheduler, channels, ranks)
    cached = _HIERARCHY_MEMO.get(key)
    if cached is not None:
        makespan, rank_makespans, channel_makespans = cached
        return makespan, dict(rank_makespans), dict(channel_makespans)

    rank_makespans: dict[tuple[int, int], float] = {}
    channel_makespans: dict[int, float] = {}
    bank_order = interleaved_bank_order(engine.geometry)
    by_rank: dict[tuple[int, int], list[PlacedStream]] = {}
    for index, stream in enumerate(streams):
        channel = index % channels
        rank = (index // channels) % ranks
        bank = bank_order[(index // (channels * ranks)) % len(bank_order)]
        by_rank.setdefault((channel, rank), []).append(PlacedStream(stream, bank))
    for channel in range(channels):
        channel_bus_ns = 0.0
        slowest_rank = 0.0
        for rank in range(ranks):
            rank_streams = by_rank.get((channel, rank))
            if not rank_streams:
                continue
            rank_makespan = memoized_merge_makespan_ns(rank_streams, scheduler)
            rank_makespans[(channel, rank)] = rank_makespan
            slowest_rank = max(slowest_rank, rank_makespan)
            channel_bus_ns += bus_occupancy_ns(rank_streams, engine)
        if slowest_rank:
            channel_makespans[channel] = max(slowest_rank, channel_bus_ns)
    makespan = max(channel_makespans.values(), default=0.0)
    _HIERARCHY_MEMO.put(key, (makespan, dict(rank_makespans), dict(channel_makespans)))
    return makespan, rank_makespans, channel_makespans


def merged_makespan_ns(
    command_streams: Sequence[Sequence[Command]],
    engine: PlutoEngine,
    *,
    channels: int = 1,
    ranks: int = 1,
) -> float:
    """Makespan of concurrent per-shard command streams.

    On one channel and one rank (the default) the streams merge in the
    banks their commands name, at activation granularity with the
    semantics of :meth:`CommandScheduler.merge_streams`, configured with
    the engine's bank count, its design's sweep spacing, and its
    configuration's tFAW throttle (``tfaw_fraction``, matching the
    Figure 13 convention where 0 means unthrottled).  Returns the time at
    which the last command completes.  Results are memoized on the
    streams' structural signature (:mod:`repro.dram.analytic`), so
    repeated identical shard plans merge once.

    Over more channels or ranks, stream *i* moves to the position
    :class:`ShardPlanner` gives shard *i*; each rank's streams merge as
    above, ranks sharing a channel are jointly bounded by the channel
    bus's issue throughput (:func:`bus_occupancy_ns`), and channels are
    independent.

    A stream may be a :class:`~repro.dram.analytic.PlacedStream`, which
    carries its memo key: the auto-planner prices each candidate's shards
    as its trace templates placed in their banks, and their commands are
    built only if a merge misses the memo.
    """
    if (channels, ranks) != (1, 1):
        return _schedule_hierarchy(
            command_streams, engine, channels=channels, ranks=ranks
        )[0]
    streams = [stream for stream in command_streams if len(stream)]
    if not streams:
        return 0.0
    return memoized_merge_makespan_ns(streams, rank_scheduler(engine))


@dataclass(frozen=True)
class ShardPlan:
    """One shard: a position in the device, an element slice, and its program."""

    index: int
    bank: int
    start: int
    stop: int
    calls: tuple[ApiCall, ...]
    channel: int = 0
    rank: int = 0

    @property
    def size(self) -> int:
        """Number of elements this shard processes."""
        return self.stop - self.start


@dataclass(frozen=True, eq=False)
class ShardLayout:
    """A sharded program laid out over one placement, verified when built.

    :meth:`ShardPlanner.plan` builds it from the program and the plan
    alone, so a prepared program carries it for every request.  Its
    constructor runs :func:`~repro.analyze.verifier.verify_shard_plans`
    against ``geometry`` and raises on any error, whatever the verify mode.
    """

    geometry: DRAMGeometry
    plans: tuple[ShardPlan, ...]
    #: Slice size -> ``(structure key, compiled program)`` of that slice;
    #: the key is ``None`` when the program's is not hashable.
    programs: Mapping[int, tuple[tuple | None, CompiledProgram]]
    #: Name -> element count of every vector of the whole program.
    vectors: Mapping[str, int]

    def __post_init__(self) -> None:
        from repro.analyze.verifier import verify_shard_plans

        verify_shard_plans(self.plans, geometry=self.geometry).raise_if_errors()


class ShardPlanner:
    """Lays balanced element slices of an API program out over a device.

    ``geometry`` is the device (the default DDR4 module when ``None``);
    ``channels`` / ``ranks`` narrow the placement to a subset of its
    channels and ranks (``None`` keeps the device's count).  The planner
    places shards over :attr:`geometry`, that narrowed device; a plan's
    ``channels`` / ``ranks`` are these two arguments.
    """

    def __init__(
        self,
        geometry: DRAMGeometry | None = None,
        *,
        channels: int | None = None,
        ranks: int | None = None,
    ) -> None:
        geometry = geometry if geometry is not None else DRAMGeometry()
        if channels is not None and not 1 <= channels <= geometry.channels:
            raise ConfigurationError(
                f"placement channels must be within [1, {geometry.channels}], "
                f"got {channels}"
            )
        if ranks is not None and not 1 <= ranks <= geometry.ranks:
            raise ConfigurationError(
                f"placement ranks must be within [1, {geometry.ranks}], "
                f"got {ranks}"
            )
        channels = channels if channels is not None else geometry.channels
        ranks = ranks if ranks is not None else geometry.ranks
        if (channels, ranks) != (geometry.channels, geometry.ranks):
            geometry = replace(geometry, channels=channels, ranks=ranks)
        self.geometry = geometry
        self._bank_order = interleaved_bank_order(geometry)

    def plan(self, calls: Sequence[ApiCall], shards: int | None = None) -> ShardLayout:
        """Lay ``calls`` out over ``shards`` slices placed channel-first.

        ``shards`` defaults to every bank of the placement (capped at the
        element count, so small programs still plan).  Shard *i* lands on
        channel ``i % channels``, rank ``(i // channels) % ranks``, and
        :meth:`bank` — each added shard buys the most independent level
        of parallelism still available.  Equal-sized shards share one
        resized call tuple, compiled once through the program cache.
        """
        from repro.analyze.verifier import shards_overcommit_diagnostic
        from repro.api.session import compile_cached_with_key

        geometry = self.geometry
        if shards is None:
            shards = min(geometry.total_banks, self._uniform_size(calls))
        overcommit = shards_overcommit_diagnostic(shards, geometry.total_banks)
        if overcommit is not None:
            # The same Diagnostic the shard-plan verifier reports;
            # VerificationError subclasses ConfigurationError, so
            # existing handlers keep working.
            raise VerificationError((overcommit,), subject="shard plan")
        size = self._uniform_size(calls)
        channels, ranks = geometry.channels, geometry.ranks
        resized: dict[int, tuple[ApiCall, ...]] = {}
        programs: dict[int, tuple[tuple | None, CompiledProgram]] = {}
        plans = []
        for index, (start, stop) in enumerate(self.slice_bounds(size, shards)):
            shard_calls = resized.get(stop - start)
            if shard_calls is None:
                shard_calls = resized[stop - start] = self._resize_calls(calls, stop - start)
                compiled, key = compile_cached_with_key(shard_calls)
                programs[stop - start] = (key, compiled)
            plans.append(
                ShardPlan(
                    index=index,
                    bank=self.bank(index),
                    start=start,
                    stop=stop,
                    calls=shard_calls,
                    channel=index % channels,
                    rank=(index // channels) % ranks,
                )
            )
        return ShardLayout(
            geometry=geometry,
            plans=tuple(plans),
            programs=programs,
            vectors={
                vector.name: size for call in calls for vector in (*call.inputs, call.output)
            },
        )

    def bank(self, index: int) -> int:
        """The rank-local bank shard ``index`` is placed in.

        Shards take :func:`interleaved_bank_order` one step per round over
        the placement's channels and ranks; :meth:`plan` rejects more
        shards than the placement has banks, so the order never wraps.
        """
        return self._bank_order[index // (self.geometry.channels * self.geometry.ranks)]

    @staticmethod
    def slice_lengths(size: int, shards: int) -> list[tuple[int, int]]:
        """Balanced slice lengths of ``size`` elements, as ``(length,
        count)`` runs in shard order.

        Shard sizes differ by at most one element, the larger first, so a
        split takes at most two runs and equal-sized shards run one
        program.
        """
        if shards <= 0:
            raise ConfigurationError("shard count must be positive")
        if shards > size:
            raise ConfigurationError(
                f"cannot split {size} elements into {shards} non-empty shards"
            )
        base, remainder = divmod(size, shards)
        runs = [(base + 1, remainder), (base, shards - remainder)]
        return [(length, count) for length, count in runs if count]

    @staticmethod
    def slice_bounds(size: int, shards: int) -> list[tuple[int, int]]:
        """Contiguous ``(start, stop)`` slices of :meth:`slice_lengths`."""
        bounds = []
        start = 0
        for length, count in ShardPlanner.slice_lengths(size, shards):
            for _ in range(count):
                bounds.append((start, start + length))
                start += length
        return bounds

    @staticmethod
    def _uniform_size(calls: Sequence[ApiCall]) -> int:
        if not calls:
            raise ConfigurationError("cannot shard an empty API program")
        sizes = {
            vector.size
            for call in calls
            for vector in (*call.inputs, call.output)
        }
        if len(sizes) != 1:
            raise ConfigurationError(
                "sharded execution needs a uniform element count across every "
                f"vector, got sizes {sorted(sizes)}"
            )
        return next(iter(sizes))

    @staticmethod
    def _resize_calls(calls: Sequence[ApiCall], size: int) -> tuple[ApiCall, ...]:
        """Rewrite every call over ``size``-element replicas of its vectors."""
        sample = calls[0].output if not calls[0].inputs else calls[0].inputs[0]
        if sample.size == size:
            # The slice covers the whole element space; the original
            # calls (and their vectors) are already correct.
            return tuple(calls)
        replicas: dict[str, PlutoVector] = {}

        def _replica(vector: PlutoVector) -> PlutoVector:
            replica = replicas.get(vector.name)
            if replica is None:
                replica = PlutoVector(
                    name=vector.name, size=size, bit_width=vector.bit_width
                )
                replicas[vector.name] = replica
            return replica

        return tuple(
            ApiCall(
                operation=call.operation,
                inputs=tuple(_replica(vector) for vector in call.inputs),
                output=_replica(call.output),
                lut=call.lut,
                parameters=call.parameters,
            )
            for call in calls
        )


@dataclass
class ShardedExecutionResult(ExecutionResult):
    """Aggregate result of a sharded execution.

    ``trace`` holds every shard's commands and the *summed* latency/energy
    (energy genuinely adds across banks; the summed latency is exposed as
    :attr:`serial_latency_ns`).  :attr:`latency_ns` is overridden with the
    scheduler-derived :attr:`makespan_ns`, the time at which the slowest
    bank finishes under cross-bank tRRD/tFAW contention and, over several
    ranks, the channel bus.

    The result decomposes where the parallel speedup comes from:
    :attr:`serial_latency_ns` drains every shard through one bank;
    :attr:`bank_only_makespan_ns` uses the banks of a single rank;
    :attr:`rank_parallel_makespan_ns` adds the ranks of one channel;
    :attr:`makespan_ns` uses the whole placement.  Each level can only
    help, so the four values are monotonically non-increasing; on one
    rank of one channel the three makespans are one value.
    """

    shard_results: list[ExecutionResult] = field(default_factory=list)
    shard_plans: list[ShardPlan] = field(default_factory=list)
    makespan_ns: float = 0.0
    bank_only_makespan_ns: float = 0.0
    rank_parallel_makespan_ns: float = 0.0
    #: Per-channel makespans of the full schedule.
    channel_makespans: dict[int, float] = field(default_factory=dict)
    #: Per-(channel, rank) makespans before the channel-bus bound.
    rank_makespans: dict[tuple[int, int], float] = field(default_factory=dict)

    @property
    def num_shards(self) -> int:
        """Number of parallel shards that produced this result."""
        return len(self.shard_results)

    @property
    def serial_latency_ns(self) -> float:
        """Cost of draining every shard back to back through one bank.

        This includes each shard's replicated one-time LUT load, so it is
        the serialisation of *this shard plan* — not the latency of the
        equivalent unsharded run, which loads each LUT once and can
        therefore be cheaper than this sum divided by the shard count.
        """
        return self.trace.total_latency_ns

    @property
    def latency_ns(self) -> float:
        """Scheduler-derived makespan of the parallel execution."""
        return self.makespan_ns

    @property
    def parallel_speedup(self) -> float:
        """Serial drain of this shard plan over its makespan.

        Measures how well the shards overlap (> 1 when they do).  To ask
        whether sharding beat *not* sharding, compare :attr:`makespan_ns`
        against the ``latency_ns`` of a ``shards=1`` run, which pays the
        LUT load only once.
        """
        if self.makespan_ns <= 0:
            return float("inf")
        return self.serial_latency_ns / self.makespan_ns

    @property
    def bank_speedup(self) -> float:
        """Speedup bought by bank-level parallelism alone (one rank)."""
        if self.bank_only_makespan_ns <= 0:
            return float("inf")
        return self.serial_latency_ns / self.bank_only_makespan_ns

    @property
    def rank_speedup(self) -> float:
        """Extra speedup from spreading the shards over one channel's ranks."""
        if self.rank_parallel_makespan_ns <= 0:
            return float("inf")
        return self.bank_only_makespan_ns / self.rank_parallel_makespan_ns

    @property
    def channel_speedup(self) -> float:
        """Extra speedup from spreading the ranks over every channel."""
        if self.makespan_ns <= 0:
            return float("inf")
        return self.rank_parallel_makespan_ns / self.makespan_ns

    @property
    def speedup_decomposition(self) -> dict[str, float]:
        """Multiplicative decomposition: bank x rank x channel = total."""
        return {
            "bank": self.bank_speedup,
            "rank": self.rank_speedup,
            "channel": self.channel_speedup,
            "total": self.parallel_speedup,
        }


def _join(parts: Sequence[Mapping[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Whole vectors from result arrays that cover consecutive slices.

    Each part maps a name to a stacked ``(shards, size)`` array (one fused
    group) or a ``(size,)`` array (one shard of the per-shard loop).  A
    single part reshapes back into a view; several concatenate.
    """
    if len(parts) == 1:
        return {name: data.reshape(-1) for name, data in parts[0].items()}
    return {
        name: np.concatenate([part[name] for part in parts], axis=None)
        for name in parts[0]
    }


def execute_shard_plans(
    controller: PlutoController,
    layout: ShardLayout,
    arrays: Mapping[str, np.ndarray],
    *,
    fused: bool | None = None,
) -> tuple[list[ExecutionResult], dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Execute a layout's shards, fused in one batched pass when possible.

    Each shard runs its slice size's program from ``layout``.  With a
    batched-capable backend (``fused=None`` auto-detects; ``False``
    forces the per-shard oracle loop) each group of equal-sized shards
    executes in a single
    controller pass over a ``(shards, size)`` view of its slice of the
    inputs — one NumPy gather per LUT query instead of ``shards`` trips
    through the controller, and no copy of the inputs.  Outputs, traces,
    and per-shard results are identical to the per-shard loop.

    Returns ``(shard results, merged outputs, merged registers)``; merged
    outputs are the merged registers of the output vectors.  The merged
    arrays are views of the fused pass's results when every shard has one
    size, and are concatenated when the split made two sizes.
    """
    use_fused = controller.backend.supports_batched if fused is None else fused
    if use_fused and not controller.backend.supports_batched:
        raise ConfigurationError(
            f"backend {controller.backend.name!r} cannot run fused; "
            "pass fused=False (or None) to use the per-shard path"
        )
    programs = layout.programs
    if not use_fused:
        results = [
            controller.execute(
                programs[plan.size][1],
                {name: data[plan.start : plan.stop] for name, data in arrays.items()},
                bank=plan.bank,
            )
            for plan in layout.plans
        ]
        parts: list = results
    else:
        groups: dict[int, list] = {}
        for plan in layout.plans:
            groups.setdefault(plan.stop - plan.start, []).append(plan)
        results = []
        parts = []
        for size, group in groups.items():
            first, count = group[0].start, len(group)
            if any(plan.start != first + k * size for k, plan in enumerate(group)):
                raise ExecutionError(
                    "fused shards of one size must be consecutive slices"
                )
            structure_key, compiled = programs[size]
            fused_results = controller.execute_fused(
                compiled,
                {
                    name: data[first : first + count * size].reshape(count, size)
                    for name, data in arrays.items()
                },
                banks=[plan.bank for plan in group],
                structure_key=structure_key,
            )
            results.extend(fused_results)
            parts.append(fused_results)
    registers = _join([part.registers for part in parts])
    return results, {name: registers[name] for name in results[0].outputs}, registers


@dataclass(frozen=True)
class _LayoutCosts:
    """What every run of one layout on one dispatcher charges.

    The merged trace (a read-only record every such result shares), its
    counts, and the makespan at each level of the placement.
    """

    trace: CommandTrace
    lut_queries: int
    instructions_executed: int
    makespan_ns: float
    bank_only_makespan_ns: float
    rank_parallel_makespan_ns: float
    rank_makespans: dict[tuple[int, int], float]
    channel_makespans: dict[int, float]


class ParallelDispatcher:
    """Executes shard layouts through one controller and merges the results.

    A layout carries its placement (:attr:`ShardLayout.geometry`), so one
    dispatcher runs the device-wide layout, a channel/rank narrowing and
    a one-rank layout on :attr:`controller`,
    which runs unsharded programs too:
    ``dispatcher.execute(ShardPlanner(engine.geometry).plan(calls, shards), inputs)``.

    ``fused`` selects the execution strategy: ``None`` (default) runs the
    shards in one batched pass when the backend supports it, ``False``
    forces the per-shard loop (the bit-exactness oracle path), ``True``
    requires a batched backend.  ``jit=False`` pins the controller's
    interpreted walk.
    """

    def __init__(
        self,
        engine: PlutoEngine | None = None,
        backend: str | ExecutionBackend = "vectorized",
        *,
        fused: bool | None = None,
        jit: bool = True,
    ) -> None:
        self.engine = engine if engine is not None else PlutoEngine(PlutoConfig())
        self.controller = PlutoController(self.engine, backend=backend, jit=jit)
        self.fused = fused
        #: Layout (identity-hashed) -> what every run of it charges here.
        self._costs: dict[ShardLayout, _LayoutCosts] = {}

    def execute(
        self, layout: ShardLayout, inputs: Mapping[str, np.ndarray]
    ) -> ShardedExecutionResult:
        """Run ``layout``'s shards over their slices of ``inputs`` in parallel.

        A layout planned for another device than this one or a
        channel/rank narrowing of it raises
        :class:`~repro.errors.ConfigurationError` before any shard runs.
        The merged trace and every per-level makespan depend on the
        layout and the engine alone, so they are computed on the layout's
        first run on this dispatcher and reused after that: a later run
        computes only its outputs.
        """
        costs = self._costs.get(layout)
        if costs is None:
            self._check_placement(layout.geometry)
        arrays = {name: np.asarray(data) for name, data in inputs.items()}
        self._check_inputs(layout.vectors, arrays)
        shard_results, outputs, registers = execute_shard_plans(
            self.controller, layout, arrays, fused=self.fused
        )
        if costs is None:
            costs = self._layout_costs(layout, shard_results)
        return ShardedExecutionResult(
            outputs=outputs,
            trace=costs.trace,
            lut_queries=costs.lut_queries,
            instructions_executed=costs.instructions_executed,
            registers=registers,
            backend=self.controller.backend.name,
            shard_results=shard_results,
            shard_plans=list(layout.plans),
            makespan_ns=costs.makespan_ns,
            bank_only_makespan_ns=costs.bank_only_makespan_ns,
            rank_parallel_makespan_ns=costs.rank_parallel_makespan_ns,
            channel_makespans=dict(costs.channel_makespans),
            rank_makespans=dict(costs.rank_makespans),
        )

    def _check_placement(self, geometry: DRAMGeometry) -> None:
        """Refuse a layout placed outside this dispatcher's device."""
        device = self.engine.geometry
        if geometry != device and not (
            geometry.channels <= device.channels
            and geometry.ranks <= device.ranks
            and replace(geometry, channels=device.channels, ranks=device.ranks) == device
        ):
            raise ConfigurationError(
                f"the shard layout was planned for {geometry}, which is not a "
                f"channel/rank narrowing of this dispatcher's device {device}"
            )

    @staticmethod
    def _check_inputs(vectors: Mapping[str, int], arrays: Mapping[str, np.ndarray]) -> None:
        """Validate inputs against the *full-size* program vectors.

        The per-shard controller only ever sees exact-size slices, so
        without this check an oversized input array would be silently
        truncated — diverging from the unsharded run, which rejects it.
        """
        for name, data in arrays.items():
            size = vectors.get(name)
            if size is None:
                raise ExecutionError(f"input {name!r} is not a vector of this program")
            if data.shape != (size,):
                raise input_shape_error(name, data, size)

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def _layout_costs(
        self, layout: ShardLayout, shard_results: list[ExecutionResult]
    ) -> _LayoutCosts:
        """Merge a layout's shard traces and schedule them, once per layout.

        Kept for every later run of the layout on this dispatcher, in a
        table bounded like the controller's (cleared at 512 layouts).
        """
        engine, channels, ranks = self.engine, layout.geometry.channels, layout.geometry.ranks
        merged_trace = CommandTrace(timing=engine.timing, energy=engine.energy)
        for result in shard_results:
            merged_trace.merge(result.trace)
        streams = [result.trace.commands for result in shard_results]
        with stage(
            "schedule", shards=len(shard_results), channels=channels, ranks=ranks
        ):
            if (channels, ranks) == (1, 1):
                # One rank of one channel: every level is the one merge.
                makespan = merged_makespan_ns(streams, engine)
                bank_only = rank_parallel = makespan
                rank_makespans = {(0, 0): makespan}
                channel_makespans = {0: makespan}
            else:
                # The schedule merged_makespan_ns takes its makespan from,
                # with the per-rank/per-channel breakdown keyed on the
                # plans' (channel, rank) positions, then the same streams
                # with fewer levels enabled.
                makespan, rank_makespans, channel_makespans = _schedule_hierarchy(
                    streams, engine, channels=channels, ranks=ranks
                )
                bank_only = _schedule_hierarchy(streams, engine, channels=1, ranks=1)[0]
                rank_parallel = _schedule_hierarchy(
                    streams, engine, channels=1, ranks=ranks
                )[0]
        costs = _LayoutCosts(
            trace=merged_trace,
            lut_queries=sum(result.lut_queries for result in shard_results),
            instructions_executed=sum(
                result.instructions_executed for result in shard_results
            ),
            makespan_ns=makespan,
            bank_only_makespan_ns=bank_only,
            rank_parallel_makespan_ns=rank_parallel,
            rank_makespans=rank_makespans,
            channel_makespans=channel_makespans,
        )
        if len(self._costs) >= 512:
            self._costs.clear()
        self._costs[layout] = costs
        return costs
