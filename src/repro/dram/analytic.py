"""Memoized and analytic makespan computation for merged command streams.

:meth:`~repro.dram.scheduler.CommandScheduler.merge_streams` is the
reference model of bank-parallel execution: an event-driven merge that
interleaves per-bank command streams at activation granularity.  It is
also, by far, the most expensive part of simulating large shard counts —
every shard of a Row Sweep contributes hundreds of activation events, and
every call replays all of them through a Python loop that rescans every
bank per event.

This module makes repeated makespan queries cost ~nothing without giving
up the reference semantics, via three layers:

1. **Structural memoization** — a makespan depends only on the *structure*
   of the streams (command kinds, banks, row counts) and the scheduler's
   timing configuration, never on data values.  :func:`merge_signature`
   captures that structure in a small hashable key and
   :func:`memoized_merge_makespan_ns` caches results under it, so the
   dispatcher and the serving layer re-merge identical shard plans once.
   A :class:`PlacedStream` carries that key for a stream moved to a
   bank, so the auto-planner prices a shard placed from a trace template,
   and a hierarchy moves a stream to another bank, without building a
   :class:`~repro.dram.commands.Command`; the moved commands are built
   only when the memo misses.
2. **A fast exact merge** — :func:`fast_merge_makespan_ns` replays the
   *same* greedy schedule as ``merge_streams`` (same constraint terms,
   same floating-point operations, same tie-breaking) but picks the next
   activation with a priority queue instead of rescanning every bank, so
   it is bit-identical to the reference while doing O(log banks) work per
   activation.  Streams with column accesses (RD/WR) fall back to the
   reference implementation, which models the data-bus/tCCD interplay.
3. **A closed-form model** — :func:`homogeneous_sweep_makespan_ns`
   computes the makespan of *homogeneous* Row-Sweep streams (every bank
   sweeping identical rows at a uniform activation interval, the shape
   the balanced shard planners produce) from the tRRD/tFAW arithmetic
   directly, in O(banks) instead of O(activations).  It reproduces the
   greedy schedule's wave structure exactly in real arithmetic; because
   it multiplies where the event merge repeatedly adds, results can
   differ from the reference at the last-ulp level, so the memoized
   production path keeps the exact merge and the closed form serves as
   the analytic cross-check and capacity model.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING, overload

from repro.dram.commands import Command
from repro.dram.timing import TimingParameters
from repro.errors import TimingViolationError
from repro.utils.memo import BoundedMemo, tally

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dram.scheduler import CommandScheduler

__all__ = [
    "PlacedStream",
    "stream_signature",
    "streams_signature",
    "scheduler_signature",
    "merge_signature",
    "memoized_merge_makespan_ns",
    "fast_merge_makespan_ns",
    "homogeneous_sweep_makespan_ns",
]


# --------------------------------------------------------------------- #
# Structural signatures
# --------------------------------------------------------------------- #
def stream_signature(stream: Sequence[Command]) -> tuple:
    """Hashable key of everything the merge reads from one stream.

    The scheduler's timing decisions depend only on each command's kind,
    bank, and row count — subarray indices, row addresses, and metadata
    never influence issue times — so two streams with equal signatures
    merge to identical makespans.  A :class:`PlacedStream` carries its
    signature, so reading it builds nothing.
    """
    if isinstance(stream, PlacedStream):
        return stream.signature
    return tuple((command.kind, command.bank, command.rows) for command in stream)


def _in_bank(command: Command, bank: int) -> Command:
    """``command`` moved to ``bank`` (itself when it is there already)."""
    if command.bank == bank:
        return command
    # The positional constructor costs well under half of
    # dataclasses.replace, which re-reads every field by name.
    return Command(command.kind, bank, command.subarray, command.row, command.rows, command.meta)


class PlacedStream(Sequence[Command]):
    """A command stream moved to one bank, built only when it is read.

    The stream is ``commands`` (say, a trace template's bank-0 commands
    or a realized shard trace) with every command's bank set to
    ``bank``.  :attr:`signature` is :func:`stream_signature` of those
    moved commands, computed from the kinds and row counts alone, so a
    merge keys its memo without building a :class:`Command`; reading the
    stream builds the moved commands, which a merge does only on a miss.
    """

    __slots__ = ("commands", "bank", "signature")

    def __init__(self, commands: Sequence[Command], bank: int) -> None:
        signature: tuple | None = None
        if isinstance(commands, PlacedStream):
            # Move the recorded commands, not the moved ones.
            if commands.bank == bank:
                signature = commands.signature
            commands = commands.commands
        self.commands = commands
        self.bank = bank
        self.signature: tuple = signature or tuple(
            (command.kind, bank, command.rows) for command in commands
        )

    def __len__(self) -> int:
        return len(self.commands)

    def __iter__(self) -> Iterator[Command]:
        bank = self.bank
        return (_in_bank(command, bank) for command in self.commands)

    @overload
    def __getitem__(self, index: int) -> Command: ...

    @overload
    def __getitem__(self, index: slice) -> list[Command]: ...

    def __getitem__(self, index: int | slice) -> Command | list[Command]:
        if isinstance(index, slice):
            return [_in_bank(command, self.bank) for command in self.commands[index]]
        return _in_bank(self.commands[index], self.bank)


def streams_signature(streams: Sequence[Sequence[Command]]) -> tuple:
    """The per-stream signatures of a whole merge, as one hashable key."""
    return tuple(stream_signature(stream) for stream in streams)


def scheduler_signature(scheduler: "CommandScheduler") -> tuple:
    """Hashable key of everything a scheduler's timing decisions read."""
    return (
        scheduler.timing,
        scheduler.num_banks,
        scheduler.banks_per_group,
        scheduler.sweep_act_interval_ns,
        scheduler.sweep_tail_ns,
        scheduler.sweep_acts_per_row,
        scheduler.lisa_hop_ns,
    )


def merge_signature(
    streams: Sequence[Sequence[Command]], scheduler: "CommandScheduler"
) -> tuple:
    """Cache key of one ``merge_streams`` call: streams plus timing."""
    return (streams_signature(streams), *scheduler_signature(scheduler))


# --------------------------------------------------------------------- #
# Memoized merging
# --------------------------------------------------------------------- #
#: merge signature -> makespan.
_MERGE_MEMO: BoundedMemo[float] = BoundedMemo("scheduler_merges", 4096)
#: Which merge computed each miss: the exact fast one or the reference.
_ROUTES = tally("scheduler_merges", fast=0, reference=0)


def memoized_merge_makespan_ns(
    streams: Sequence[Sequence[Command]],
    scheduler_factory,
    *,
    config_key: tuple | None = None,
) -> float:
    """Makespan of ``streams``, cached on their structural signature.

    ``scheduler_factory`` builds a fresh configured
    :class:`~repro.dram.scheduler.CommandScheduler` on a cache miss (the
    merge consumes a scheduler, so one cannot be reused); pass the
    factory's :func:`scheduler_signature` as ``config_key`` so cache
    hits skip scheduler construction entirely.  Results are computed by
    the exact fast merge when the streams contain no column accesses,
    and by the reference event-driven merge otherwise — either way the
    returned value is bit-identical to calling
    ``scheduler_factory().merge_streams(streams)`` directly.
    """
    scheduler = None
    if config_key is None:
        scheduler = scheduler_factory()
        config_key = scheduler_signature(scheduler)
    try:
        key = (streams_signature(streams), *config_key)
    except TypeError:  # unhashable timing override; compute uncached
        _MERGE_MEMO.note_uncached()
        return _run_merge(streams, scheduler or scheduler_factory())
    cached = _MERGE_MEMO.get(key)
    if cached is not None:
        return cached
    makespan = _run_merge(streams, scheduler or scheduler_factory())
    _MERGE_MEMO.put(key, makespan)
    return makespan


def _run_merge(
    streams: Sequence[Sequence[Command]], scheduler: "CommandScheduler"
) -> float:
    fast = fast_merge_makespan_ns(streams, scheduler)
    if fast is not None:
        _ROUTES["fast"] += 1
        return fast
    _ROUTES["reference"] += 1
    return scheduler.merge_streams(streams)


# --------------------------------------------------------------------- #
# Exact fast merge
# --------------------------------------------------------------------- #
def fast_merge_makespan_ns(
    streams: Sequence[Sequence[Command]], scheduler: "CommandScheduler"
) -> float | None:
    """Bit-exact fast replay of :meth:`CommandScheduler.merge_streams`.

    The reference merge rescans every bank per activation to find the one
    whose next activation can issue earliest.  Its choice is predictable:
    the rank-global constraints (command bus, tRRD, tFAW) give one floor
    ``G`` shared by all banks, so the winner is the first-inserted bank
    whose cursor is at or below ``G`` — or, when every bank is still busy,
    the bank with the smallest cursor.  Tracking banks in two heaps (by
    cursor until they catch up to ``G``, then by insertion order) yields
    the *same* schedule — the same floating-point additions and maxima in
    the same order — at O(log banks) per activation.

    Returns ``None`` for streams containing column accesses (RD/WR),
    whose tCCD/data-bus interleaving the reference implementation models;
    the caller falls back to ``merge_streams``.
    """
    timing = scheduler.timing
    queues: dict[int, deque] = {}
    for stream in streams:
        for command in stream:
            if not 0 <= command.bank < scheduler.num_banks:
                raise TimingViolationError(
                    f"bank {command.bank} outside scheduler range "
                    f"[0, {scheduler.num_banks})"
                )
            events = scheduler.events_of(command)
            if any(kind == "col" for kind, _ in events):
                return None
            queues.setdefault(command.bank, deque()).extend(events)

    makespan = 0.0
    #: Banks whose next activation is not yet admissible, by (cursor,
    #: insertion index); and banks ready at the global floor, by insertion
    #: index (the reference's first-inserted-wins tie break).
    pending: list[tuple[float, int, int]] = []
    ready: list[tuple[int, int]] = []
    bank_queues: list[deque] = []
    for index, (bank, queue) in enumerate(queues.items()):
        cursor = 0.0
        while queue and queue[0][0] != "act":
            cursor += queue.popleft()[1]
            makespan = max(makespan, cursor)
        bank_queues.append(queue)
        if queue:
            heapq.heappush(pending, (cursor, index, bank))

    recent: deque[float] = deque()
    last_act = float("-inf")
    bus_free = 0.0
    t_rrd, t_faw, clock = timing.t_rrd, timing.t_faw, timing.clock_ns
    while pending or ready:
        floor = bus_free
        if t_rrd > 0:
            floor = max(floor, last_act + t_rrd)
        if t_faw > 0 and len(recent) >= 4:
            floor = max(floor, recent[-4] + t_faw)
        while pending and pending[0][0] <= floor:
            _, index, bank = heapq.heappop(pending)
            heapq.heappush(ready, (index, bank))
        if ready:
            index, bank = heapq.heappop(ready)
            issue_time = floor
        else:
            cursor, index, bank = heapq.heappop(pending)
            issue_time = cursor
        queue = bank_queues[index]
        _, gap = queue.popleft()
        recent.append(issue_time)
        if len(recent) > 16:
            recent.popleft()
        last_act = issue_time
        bus_free = max(bus_free, issue_time + clock)
        cursor = issue_time + gap
        makespan = max(makespan, cursor)
        while queue and queue[0][0] != "act":
            cursor += queue.popleft()[1]
            makespan = max(makespan, cursor)
        if queue:
            heapq.heappush(pending, (cursor, index, bank))
    return makespan


# --------------------------------------------------------------------- #
# Closed-form homogeneous Row-Sweep makespan
# --------------------------------------------------------------------- #
def _chain_time_ns(acts: int, rate_ns: float, t_faw: float) -> float:
    """Issue time of activation ``acts`` in an unthrottled rotation.

    When the per-bank gap never binds, the greedy schedule reduces to the
    recurrence ``t(n) = max(t(n-1) + r, t(n-4) + tFAW)``, whose solution
    is the best mix of single-activation steps (weight ``r`` = the larger
    of tRRD and the command-bus clock) and four-activation tFAW windows:
    ``t(n) = max(n*r, (n//4)*tFAW + (n%4)*r)``.
    """
    if t_faw <= 0:
        return acts * rate_ns
    return max(acts * rate_ns, (acts // 4) * t_faw + (acts % 4) * rate_ns)


def homogeneous_sweep_makespan_ns(
    num_banks: int,
    acts_per_bank: int,
    gap_ns: float,
    timing: TimingParameters,
    *,
    tail_ns: float = 0.0,
) -> float | None:
    """Closed-form makespan of ``num_banks`` identical activation streams.

    Models the schedule ``merge_streams`` produces when every bank issues
    ``acts_per_bank`` activations spaced ``gap_ns`` apart (the homogeneous
    Row-Sweep pattern of balanced shard plans): the greedy merge serves
    banks in *waves* — the smallest rotation whose cycle hides the
    per-bank gap runs at the tRRD/tFAW rate until it drains, then the
    next wave starts, and a final undersized wave is gap-bound, one cycle
    per ``gap_ns``.  ``tail_ns`` is per-bank occupancy after the final
    activation (the trailing precharge of GSA/GMC sweeps).

    Returns ``None`` when the parameters fall outside the wave model
    (e.g. a leftover wave too small for a clean tFAW pattern) — callers
    fall back to the event-driven merge.  Within the model the value
    matches the reference merge in real arithmetic; floating-point
    results may differ in the last ulps because this function multiplies
    where the merge accumulates.
    """
    if num_banks <= 0 or acts_per_bank <= 0:
        return 0.0 if acts_per_bank <= 0 else None
    if gap_ns < 0 or tail_ns < 0:
        return None
    rate = max(timing.clock_ns, timing.t_rrd)
    t_faw = timing.t_faw
    if rate <= 0:
        return None

    # Smallest rotation whose cycle time covers the per-bank gap.
    wave = 1
    while wave <= num_banks and _chain_time_ns(wave, rate, t_faw) < gap_ns:
        wave += 1
    if wave <= num_banks:
        full_waves, leftover = divmod(num_banks, wave)
    else:
        full_waves, leftover = 0, num_banks

    chain_acts = full_waves * wave * acts_per_bank
    if leftover == 0:
        last_act = _chain_time_ns(chain_acts - 1, rate, t_faw)
        return last_act + gap_ns + tail_ns

    if t_faw > 0 and leftover < 4:
        # A cycle shorter than a tFAW window interleaves gap and window
        # constraints in ways the wave model does not capture.
        return None

    # The leftover wave's first cycle continues the activation chain of
    # the full waves; replay it (and a second cycle) with the carried
    # tFAW window to anchor the steady per-cycle offsets.
    history: deque[float] = deque(maxlen=4)
    if chain_acts:
        for back in range(min(4, chain_acts), 0, -1):
            history.append(_chain_time_ns(chain_acts - back, rate, t_faw))
    first_cycle: list[float] = []
    for _ in range(leftover):
        candidate = history[-1] + rate if history else 0.0
        if t_faw > 0 and len(history) == 4:
            candidate = max(candidate, history[0] + t_faw)
        first_cycle.append(candidate)
        history.append(candidate)
    # Steady state: every later cycle repeats the first at +gap_ns.  If
    # the second cycle's constraints disagree (the tFAW window or the
    # rotation still bind across the cycle boundary), the wave model does
    # not apply.
    if acts_per_bank > 1:
        for position in range(leftover):
            expected = first_cycle[position] + gap_ns
            candidate = history[-1] + rate
            if t_faw > 0 and len(history) == 4:
                candidate = max(candidate, history[0] + t_faw)
            if candidate > expected:
                return None
            history.append(expected)
    last_act = first_cycle[-1] + (acts_per_bank - 1) * gap_ns
    return last_act + gap_ns + tail_ns
