"""Hierarchical channel/rank/bank-group/bank dispatch of pLUTo programs.

PR 2's :class:`~repro.controller.dispatch.ParallelDispatcher` stops at the
banks of one rank.  The paper's headline throughput numbers assume the
whole DRAM hierarchy of Figure 1 sweeps LUTs concurrently, so this module
adds the two interface levels above the rank with level-aware timing:

* **Channels** are fully parallel — each has its own command/data bus and
  its own ranks, so the device makespan is the slowest channel's makespan.
* **Ranks** sharing a channel run their banks concurrently *inside* the
  rank, but serialize command issue on the channel bus.  We model this as
  a bus-throughput bound: a channel cannot finish before it has issued
  every rank's commands back to back (one command-bus slot per row
  activation, one tCCD_S-bounded burst per column access), mirroring the
  per-clock command-bus serialization ``merge_streams`` already enforces
  within one rank.
* **Bank groups** couple column accesses through the tCCD_L/tCCD_S
  spacing, which :meth:`~repro.dram.scheduler.CommandScheduler.merge_streams`
  enforces; the planner round-robins consecutive shards across bank
  groups so neighbouring shards pay the short tCCD_S, not tCCD_L.
* **Banks** within a rank keep PR 2's tRRD/tFAW merge semantics, served
  through the memoized exact fast merge of :mod:`repro.dram.analytic`
  (whole hierarchical schedules are additionally memoized on the
  streams' structural signature, so per-level decompositions and repeat
  requests re-merge nothing).

:class:`HierarchyPlanner` places balanced element slices channel-first
(maximum parallelism per shard added); :class:`HierarchicalDispatcher`
executes every shard through the ordinary controller/backend stack and
reports a :class:`HierarchicalExecutionResult` whose per-level makespans
(serial >= bank-only >= rank-parallel >= channel-parallel) decompose where
the speedup comes from.

Functional outputs are bit-identical to unsharded execution by
construction, exactly as in the bank-parallel dispatcher: every shard runs
the same lowering over a disjoint slice of the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from repro.api.handles import ApiCall
from repro.backend.base import ExecutionBackend
from repro.controller.dispatch import (
    ParallelDispatcher,
    ShardPlanner,
    execute_shard_plans,
    rank_scheduler,
    rank_scheduler_key,
)
from repro.controller.executor import ExecutionResult, PlutoController
from repro.core.engine import PlutoConfig, PlutoEngine
from repro.dram.analytic import memoized_merge_makespan_ns, streams_signature
from repro.dram.commands import Command, CommandTrace, CommandType
from repro.dram.geometry import DRAMGeometry
from repro.dram.scheduler import activation_count
from repro.errors import ConfigurationError
from repro.obs.trace import stage
from repro.utils.memo import BoundedMemo, register_lru_cache

__all__ = [
    "HierarchyShard",
    "HierarchyPlanner",
    "HierarchicalExecutionResult",
    "HierarchicalDispatcher",
    "bus_occupancy_ns",
    "hierarchical_makespan_ns",
    "interleaved_bank_order",
]


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


#: (streams signature, scheduler key, channels, ranks) -> (makespan,
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

    Returns ``(makespan, rank_makespans, channel_makespans)`` where
    ``rank_makespans`` maps ``(channel, rank)`` to that rank's merged
    makespan (before the channel-bus bound) and ``channel_makespans``
    maps each populated channel to ``max(slowest rank, bus occupancy)``.
    Results are memoized on the streams' structural signature plus the
    hierarchy shape, with the per-rank merges sharing the module-wide
    makespan memo.
    """
    if channels <= 0 or ranks <= 0:
        raise ConfigurationError("channel and rank counts must be positive")
    streams = [stream for stream in streams if len(stream)]
    if not streams:
        return 0.0, {}, {}
    config_key = rank_scheduler_key(engine)
    try:
        key = (streams_signature(streams), config_key, channels, ranks)
    except TypeError:
        key = None
        _HIERARCHY_MEMO.note_uncached()
    if key is not None:
        cached = _HIERARCHY_MEMO.get(key)
        if cached is not None:
            makespan, rank_makespans, channel_makespans = cached
            return makespan, dict(rank_makespans), dict(channel_makespans)

    rank_makespans: dict[tuple[int, int], float] = {}
    channel_makespans: dict[int, float] = {}
    bank_order = interleaved_bank_order(engine.geometry)
    by_rank: dict[tuple[int, int], list[list[Command]]] = {}
    for index, stream in enumerate(streams):
        channel = index % channels
        rank = (index // channels) % ranks
        bank = bank_order[(index // (channels * ranks)) % len(bank_order)]
        by_rank.setdefault((channel, rank), []).append(
            [replace(command, bank=bank) for command in stream]
        )
    for channel in range(channels):
        channel_bus_ns = 0.0
        slowest_rank = 0.0
        for rank in range(ranks):
            rank_streams = by_rank.get((channel, rank))
            if not rank_streams:
                continue
            rank_makespan = memoized_merge_makespan_ns(
                rank_streams,
                lambda: rank_scheduler(engine),
                config_key=config_key,
            )
            rank_makespans[(channel, rank)] = rank_makespan
            slowest_rank = max(slowest_rank, rank_makespan)
            channel_bus_ns += bus_occupancy_ns(rank_streams, engine)
        if slowest_rank:
            channel_makespans[channel] = max(slowest_rank, channel_bus_ns)
    makespan = max(channel_makespans.values(), default=0.0)
    if key is not None:
        _HIERARCHY_MEMO.put(
            key, (makespan, dict(rank_makespans), dict(channel_makespans))
        )
    return makespan, rank_makespans, channel_makespans


def hierarchical_makespan_ns(
    streams: Sequence[Sequence[Command]],
    engine: PlutoEngine,
    *,
    channels: int,
    ranks: int,
) -> float:
    """Makespan of per-shard command streams spread over a hierarchy.

    Stream *i* is placed channel-first — channel ``i % channels``, then
    rank ``(i // channels) % ranks``, then the rank-local interleaved bank
    order — so collapsing ``channels`` and ``ranks`` to 1 reproduces the
    bank-only placement, and the per-level makespans of one execution are
    directly comparable.  Within a rank the streams merge under
    tRRD/tFAW/tCCD; ranks sharing a channel are jointly bounded by the
    channel bus's issue throughput; channels are independent.
    """
    makespan, _, _ = _schedule_hierarchy(
        streams, engine, channels=channels, ranks=ranks
    )
    return makespan


@lru_cache(maxsize=None)
def _interleaved_bank_order(geometry: DRAMGeometry) -> tuple[int, ...]:
    return tuple(
        group * geometry.banks_per_group + slot
        for slot in range(geometry.banks_per_group)
        for group in range(geometry.bank_groups)
    )


register_lru_cache("engine_helpers", _interleaved_bank_order, "interleaved_bank_order")


def interleaved_bank_order(geometry: DRAMGeometry) -> tuple[int, ...]:
    """Rank-local bank ids ordered to round-robin across bank groups.

    Consecutive shards land in different bank groups, so back-to-back
    column traffic pays tCCD_S instead of tCCD_L and activation pressure
    spreads across the rank's group-level circuitry.  Cached per
    geometry (geometries are frozen); returns an immutable tuple.
    """
    return _interleaved_bank_order(geometry)


@dataclass(frozen=True)
class HierarchyShard:
    """One shard: a hierarchy position, an element slice, and its program."""

    index: int
    channel: int
    rank: int
    bank_group: int
    bank: int
    start: int
    stop: int
    calls: tuple[ApiCall, ...]

    @property
    def size(self) -> int:
        """Number of elements this shard processes."""
        return self.stop - self.start


class HierarchyPlanner:
    """Places balanced element slices across channel/rank/bank levels."""

    def __init__(self, geometry: DRAMGeometry) -> None:
        self.geometry = geometry

    @property
    def total_banks(self) -> int:
        """Maximum shard count: every bank of every rank of every channel."""
        return self.geometry.total_banks

    def plan(self, calls: Sequence[ApiCall], shards: int | None = None) -> list[HierarchyShard]:
        """Split ``calls`` into shards placed channel-first over the device.

        ``shards`` defaults to every bank in the device (capped at the
        element count, so small programs still plan).  Placement is
        channel-first: shard *i* lands on channel ``i % channels``, rank
        ``(i // channels) % ranks``, and the rank-local bank order that
        round-robins bank groups — each added shard buys the most
        independent level of parallelism still available.
        """
        geometry = self.geometry
        if shards is None:
            size = ShardPlanner._uniform_size(calls)
            shards = min(self.total_banks, size)
        if shards > self.total_banks:
            raise ConfigurationError(
                f"cannot run {shards} shards on a device with "
                f"{self.total_banks} banks "
                f"({geometry.channels} channels x {geometry.ranks} ranks x "
                f"{geometry.banks} banks)"
            )
        bank_order = interleaved_bank_order(geometry)
        interface = geometry.channels * geometry.ranks
        plans: list[HierarchyShard] = []
        for index, (start, stop, shard_calls) in enumerate(
            ShardPlanner.plan_slices(calls, shards)
        ):
            bank = bank_order[index // interface]
            plans.append(
                HierarchyShard(
                    index=index,
                    channel=index % geometry.channels,
                    rank=(index // geometry.channels) % geometry.ranks,
                    bank_group=bank // geometry.banks_per_group,
                    bank=bank,
                    start=start,
                    stop=stop,
                    calls=shard_calls,
                )
            )
        return plans


@dataclass
class HierarchicalExecutionResult(ExecutionResult):
    """Aggregate result of a hierarchical execution.

    Besides the outputs and merged trace, the result decomposes where the
    parallel speedup comes from: :attr:`serial_latency_ns` drains every
    shard through one bank; :attr:`bank_only_makespan_ns` uses the banks
    of a single rank; :attr:`rank_parallel_makespan_ns` adds the ranks of
    one channel; :attr:`makespan_ns` (= :attr:`latency_ns`) uses the full
    channel/rank/bank hierarchy.  Each level can only help, so the four
    values are monotonically non-increasing.
    """

    shard_results: list[ExecutionResult] = field(default_factory=list)
    shards: list[HierarchyShard] = field(default_factory=list)
    makespan_ns: float = 0.0
    bank_only_makespan_ns: float = 0.0
    rank_parallel_makespan_ns: float = 0.0
    #: Per-channel makespans of the full hierarchical schedule.
    channel_makespans: dict[int, float] = field(default_factory=dict)
    #: Per-(channel, rank) makespans before bus staggering.
    rank_makespans: dict[tuple[int, int], float] = field(default_factory=dict)

    @property
    def num_shards(self) -> int:
        """Number of hierarchical shards that produced this result."""
        return len(self.shard_results)

    @property
    def serial_latency_ns(self) -> float:
        """Cost of draining every shard back to back through one bank."""
        return self.trace.total_latency_ns

    @property
    def latency_ns(self) -> float:
        """Makespan of the full channel/rank/bank-parallel execution."""
        return self.makespan_ns

    @property
    def parallel_speedup(self) -> float:
        """Serial drain of this shard plan over the hierarchical makespan."""
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


class HierarchicalDispatcher:
    """Executes hierarchy plans through the controller and merges results.

    ``fused`` selects the execution strategy exactly as in
    :class:`~repro.controller.dispatch.ParallelDispatcher`: ``None``
    (default) batches the shards into one fused pass on batched-capable
    backends, ``False`` forces the per-shard oracle loop.

    ``channels`` / ``ranks`` optionally *narrow* the placement to a
    subset of the engine's interface hierarchy (the auto-planner prices
    partial placements); ``None`` uses the engine geometry's full count.
    """

    def __init__(
        self,
        engine: PlutoEngine | None = None,
        backend: str | ExecutionBackend = "vectorized",
        *,
        fused: bool | None = None,
        jit: bool = True,
        channels: int | None = None,
        ranks: int | None = None,
    ) -> None:
        self.engine = engine if engine is not None else PlutoEngine(PlutoConfig())
        geometry = self.engine.geometry
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
        self.channels = channels if channels is not None else geometry.channels
        self.ranks = ranks if ranks is not None else geometry.ranks
        placement = geometry
        if (self.channels, self.ranks) != (geometry.channels, geometry.ranks):
            placement = replace(
                geometry, channels=self.channels, ranks=self.ranks
            )
        self.controller = PlutoController(self.engine, backend=backend, jit=jit)
        self.planner = HierarchyPlanner(placement)
        self.fused = fused

    def execute(
        self,
        calls: Sequence[ApiCall],
        inputs: Mapping[str, np.ndarray],
        *,
        shards: int | None = None,
    ) -> HierarchicalExecutionResult:
        """Run ``calls`` over ``inputs`` spread across the whole hierarchy."""
        plans = self.planner.plan(calls, shards)
        arrays = {name: np.asarray(data) for name, data in inputs.items()}
        ParallelDispatcher._check_inputs(calls, arrays)
        shard_results, outputs, registers = execute_shard_plans(
            self.controller, plans, arrays, fused=self.fused
        )
        return self._merge(plans, shard_results, outputs, registers)

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def _merge(
        self,
        plans: list[HierarchyShard],
        shard_results: list[ExecutionResult],
        outputs: dict[str, np.ndarray],
        registers: dict[str, np.ndarray],
    ) -> HierarchicalExecutionResult:
        engine = self.engine
        merged_trace = CommandTrace(timing=engine.timing, energy=engine.energy)
        for result in shard_results:
            merged_trace.merge(result.trace)
        streams = [result.trace.commands for result in shard_results]

        # Per-level makespans of the *same* shard streams under
        # progressively enabled hierarchy levels; the full-hierarchy
        # schedule also yields the per-rank/per-channel breakdown (its
        # placement formula reproduces the planner's, so the breakdown
        # keys match the plans' (channel, rank) positions).
        with stage(
            "schedule",
            shards=len(shard_results),
            channels=self.channels,
            ranks=self.ranks,
        ):
            bank_only = hierarchical_makespan_ns(
                streams, engine, channels=1, ranks=1
            )
            rank_parallel = hierarchical_makespan_ns(
                streams, engine, channels=1, ranks=self.ranks
            )
            makespan, rank_makespans, channel_makespans = _schedule_hierarchy(
                streams, engine, channels=self.channels, ranks=self.ranks
            )
        return HierarchicalExecutionResult(
            outputs=outputs,
            trace=merged_trace,
            lut_queries=sum(result.lut_queries for result in shard_results),
            instructions_executed=sum(
                result.instructions_executed for result in shard_results
            ),
            registers=registers,
            backend=self.controller.backend.name,
            shard_results=shard_results,
            shards=plans,
            makespan_ns=makespan,
            bank_only_makespan_ns=bank_only,
            rank_parallel_makespan_ns=rank_parallel,
            channel_makespans=channel_makespans,
            rank_makespans=rank_makespans,
        )
