"""Memoized and fast exact makespans of merged command streams.

:meth:`~repro.dram.scheduler.CommandScheduler.merge_streams` is the
reference model of bank-parallel execution: an event-driven merge that
interleaves per-bank command streams at activation granularity.  It is
also, by far, the most expensive part of simulating large shard counts —
every shard of a Row Sweep contributes hundreds of activation events, and
every call replays all of them through a Python loop that rescans every
bank per event.

This module makes repeated makespan queries cost ~nothing without giving
up the reference semantics, via two layers:

1. **Structural memoization** — a makespan depends only on the *structure*
   of the streams (command kinds, banks, row counts) and the scheduler's
   timing configuration, never on data values.
   :func:`memoized_merge_makespan_ns` caches results under the streams'
   :func:`streams_signature` and the scheduler itself (a frozen, hashable
   value of its settings), so the dispatcher and the serving layer
   re-merge identical shard plans once.
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

Next to the merge sits a sound lower bound on it:
:func:`makespan_floor_ns` reads each stream only through a
:class:`StreamBound` (its serial event sum, whether it opens with an
activation, and its activation count, all from the scheduler's own
:meth:`~repro.dram.scheduler.CommandScheduler.events_of`), so the
auto-planner can prove that a candidate loses without merging it.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple, overload

from repro.dram.commands import Command
from repro.errors import TimingViolationError
from repro.utils.memo import BoundedMemo, tally

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dram.scheduler import CommandScheduler

__all__ = [
    "PlacedStream",
    "StreamBound",
    "stream_signature",
    "streams_signature",
    "memoized_merge_makespan_ns",
    "fast_merge_makespan_ns",
    "stream_bound",
    "makespan_floor_ns",
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


# --------------------------------------------------------------------- #
# Memoized merging
# --------------------------------------------------------------------- #
#: (streams signature, scheduler) -> makespan.
_MERGE_MEMO: BoundedMemo[float] = BoundedMemo("scheduler_merges", 4096)
#: Which merge computed each miss: the exact fast one or the reference.
_ROUTES = tally("scheduler_merges", fast=0, reference=0)


def memoized_merge_makespan_ns(
    streams: Sequence[Sequence[Command]], scheduler: "CommandScheduler"
) -> float:
    """Makespan of ``streams``, cached on their structure and the scheduler.

    The scheduler, a frozen value of its settings, is the timing half of
    the key as it stands, so a hit builds nothing.  Results are computed
    by the exact fast merge when the streams contain no column accesses,
    and by the reference event-driven merge otherwise — either way the
    returned value is bit-identical to ``scheduler.merge_streams(streams)``.
    """
    key = (streams_signature(streams), scheduler)
    cached = _MERGE_MEMO.get(key)
    if cached is not None:
        return cached
    makespan = _run_merge(streams, scheduler)
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
# A sound floor under the merge
# --------------------------------------------------------------------- #
#: Relative margin :func:`makespan_floor_ns` keeps below the merge.  The
#: floor adds the merge's durations in another order, and multiplies
#: where the merge adds, so where it is exactly tight (a rank holding one
#: stream) it could round a few ulps above the merge; rounding moves a
#: sum of n positive terms by at most about n ulps, so this margin covers
#: ranks of up to about 10^9 events.
FLOOR_MARGIN = 1e-6


class StreamBound(NamedTuple):
    """What :func:`makespan_floor_ns` reads of one command stream."""

    #: Sum of the stream's event durations: its bank's cursor never
    #: moves back, so the stream ends no earlier.
    serial_ns: float
    #: Whether its first event is an activation.
    opens_with_act: bool
    #: Row activations it issues.
    activations: int


def stream_bound(stream: Iterable[Command], scheduler: "CommandScheduler") -> StreamBound:
    """The :class:`StreamBound` of ``stream`` under ``scheduler``.

    Built from :meth:`~repro.dram.scheduler.CommandScheduler.events_of`,
    the decomposition both merges schedule, so the bound cannot drift
    from the schedule.  A command's events depend on its kind and row
    count alone, so each distinct pair is decomposed once.
    """
    serial = 0.0
    activations = 0
    opens: bool | None = None
    shapes: dict[tuple, tuple[float, int, str | None]] = {}
    for command in stream:
        shape = (command.kind, command.rows)
        summary = shapes.get(shape)
        if summary is None:
            events = scheduler.events_of(command)
            kinds = list(map(itemgetter(0), events))
            summary = shapes[shape] = (
                sum(map(itemgetter(1), events)),
                kinds.count("act"),
                kinds[0] if kinds else None,
            )
        duration, acts, first = summary
        serial += duration
        activations += acts
        if opens is None and first is not None:
            opens = first == "act"
    return StreamBound(serial, bool(opens), activations)


def makespan_floor_ns(
    parts: Sequence[tuple[StreamBound, int]],
    scheduler: "CommandScheduler",
    *,
    channels: int = 1,
    ranks: int = 1,
) -> float:
    """A lower bound on the merged makespan of streams placed over ranks.

    ``parts`` describes the streams in placement order: each pair is
    ``count`` consecutive streams of one :class:`StreamBound`, each
    holding at least one command.  Stream *i* runs in rank
    ``i % (channels * ranks)``, in a bank of its own, which is where
    :class:`~repro.controller.dispatch.ShardPlanner` and the dispatcher
    place shard *i*.  A rank's merge ends no earlier than the largest of:

    * its longest stream's serial event sum;
    * when m >= 2 of its streams open with an activation, the smallest
      of their sums plus (m - 1) activation steps: those m first
      activations issue one after another, at least
      ``max(tRRD, clock)`` apart, and the last of them starts a whole
      stream;
    * the issue time of its last activation: consecutive activations are
      a step apart, and each is at least tFAW after the fourth before it.

    The floor is the largest rank's, less :data:`FLOOR_MARGIN`, so it is
    at or below both merges in floating point.  A channel's makespan is
    at least its slowest rank's, so the bound holds over any placement.
    """
    timing = scheduler.timing
    step = max(timing.t_rrd, timing.clock_ns, 0.0)
    four_steps = max(timing.t_faw, 4 * step)
    slots = channels * ranks

    def landing(count: int, slot: int) -> int:
        """How many of streams 0 .. count - 1 run in rank ``slot``."""
        return max(0, (count - slot + slots - 1) // slots)

    floor = 0.0
    for slot in range(slots):
        longest = 0.0
        shortest_opening = float("inf")
        opening = activations = 0
        start = 0
        for bound, count in parts:
            here = landing(start + count, slot) - landing(start, slot)
            start += count
            if not here:
                continue
            longest = max(longest, bound.serial_ns)
            activations += here * bound.activations
            if bound.opens_with_act:
                opening += here
                shortest_opening = min(shortest_opening, bound.serial_ns)
        rank_floor = longest
        if opening >= 2:
            rank_floor = max(rank_floor, (opening - 1) * step + shortest_opening)
        if activations:
            groups, rest = divmod(activations - 1, 4)
            rank_floor = max(rank_floor, groups * four_steps + rest * step)
        floor = max(floor, rank_floor)
    return floor * (1.0 - FLOOR_MARGIN)
