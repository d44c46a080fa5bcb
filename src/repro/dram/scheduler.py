"""Timing-aware merge of concurrent per-bank DRAM command streams.

:class:`CommandScheduler` is one rank's timing configuration, and its
:meth:`~CommandScheduler.merge_streams` interleaves per-bank command
streams at activation granularity while enforcing the timing constraints
that matter for pLUTo:

* each bank's own spacing between its events (a Row Sweep's per-design
  activation interval, a LISA hop, a precharge's tRP),
* ``tRRD`` between activations to different banks,
* ``tFAW`` — at most four activations per rank within a sliding window,
  which Section 8.7 identifies as the key throttle on activation-heavy
  PuM mechanisms,
* one command-bus clock per activation and column access,
* ``tCCD_L`` / ``tCCD_S`` between column accesses to the same / different
  bank groups, so hierarchical merges see DDR4's bank-group asymmetry.

It is intentionally simpler than a full DDR protocol engine (one scheduler
models one rank; the dispatcher's makespan function composes ranks and
channels above it) because that is the fidelity level of the paper's own
simulator: command sequences plus timing-parameter enforcement.

:meth:`CommandScheduler.merge_streams` is the *reference* merge.  The
dispatch layers route makespan queries through
:mod:`repro.dram.analytic`, which memoizes results on the streams'
structural signature and the scheduler (a frozen, hashable value of its
settings) and replays the same greedy schedule with a priority queue
(bit-identical, much faster); this class stays the semantic oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import KW_ONLY, dataclass
from typing import Sequence

from repro.dram.commands import Command, CommandType
from repro.dram.timing import TimingParameters
from repro.errors import ConfigurationError, TimingViolationError

__all__ = [
    "CommandScheduler",
    "activation_count",
    "tfaw_lower_bound_ns",
]


def activation_count(command: Command) -> int:
    """Number of row activations one command contributes to the tFAW window.

    A ``ROW_SWEEP`` activates one row per LUT entry; the compound PuM
    commands (TRA / ROWCLONE / SHIFT) are ACT-ACT-PRE sequences with two
    activations; a LISA row-buffer move is one linked activation per row it
    carries.  RD/WR/PRE/REF do not open new rows.  This is the
    design-independent floor: pLUTo-GSA's destructive-read reloads add a
    second activation per swept row on top of it (``sweep_acts_per_row``
    on the scheduler).
    """
    if command.kind is CommandType.ROW_SWEEP:
        return command.rows
    if command.kind in (CommandType.TRA, CommandType.ROWCLONE, CommandType.SHIFT):
        return 2
    if command.kind is CommandType.LISA_RBM:
        return command.rows
    if command.kind is CommandType.ACT:
        return 1
    return 0


def tfaw_lower_bound_ns(activations: int, timing: TimingParameters) -> float:
    """Minimum time a rank needs to issue ``activations`` row activations.

    tFAW admits at most four activations per sliding window, so the first
    activation of every later group of four must wait a full ``t_faw``
    after the first activation of the group four before it.  This is the
    scheduler-independent floor any bank-parallel schedule must respect.
    """
    if activations <= 4 or timing.t_faw <= 0:
        return 0.0
    return ((activations - 1) // 4) * timing.t_faw


@dataclass(frozen=True)
class CommandScheduler:
    """One rank's timing configuration and the merge it schedules.

    A frozen value of its seven settings: schedulers with equal settings
    are equal and hash alike, so a scheduler is its own memo key, and a
    merge keeps its state in locals, so one scheduler merges any number
    of times.  ``None`` settings resolve to their defaults at
    construction.
    """

    timing: TimingParameters
    _: KW_ONLY
    num_banks: int = 16
    #: Banks per bank group: maps a bank id to the bank group whose
    #: shared column circuitry sets the tCCD_L/tCCD_S spacing.  ``None``
    #: keeps the DDR4 default of four banks per group.
    banks_per_group: int | None = None
    #: ACT-to-ACT spacing inside a Row Sweep.  Defaults to the
    #: conservative BSA ACT+PRE cycle; the dispatcher passes the
    #: design-specific spacing (e.g. tRCD only for pLUTo-GMC, whose
    #: sweeps precharge once at the end).
    sweep_act_interval_ns: float | None = None
    #: Bank occupancy after a Row Sweep's last activation (the single
    #: trailing precharge of the GSA/GMC sweeps; zero for BSA, whose
    #: per-row spacing already includes the precharge).
    sweep_tail_ns: float = 0.0
    #: Activations per swept row.  pLUTo-GSA's destructive reads add a
    #: LISA reload activation before every sweep activation, doubling
    #: the pressure each row puts on the tRRD/tFAW window.
    sweep_acts_per_row: int = 1
    #: Latency of one LISA row-buffer hop.  Defaults to the linked
    #: activate cost (tRCD + tRP); pass the engine cost model's
    #: ``lisa_hop_latency_ns`` so makespans agree with the trace when
    #: a custom hop latency is configured.
    lisa_hop_ns: float | None = None

    def __post_init__(self) -> None:
        linked = self.timing.t_rcd + self.timing.t_rp
        for name, default in (
            ("banks_per_group", 4),
            ("sweep_act_interval_ns", linked),
            ("lisa_hop_ns", linked),
        ):
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        if self.banks_per_group <= 0:
            raise ConfigurationError("banks_per_group must be positive")
        if self.sweep_acts_per_row < 1:
            raise ConfigurationError("sweep_acts_per_row must be >= 1")

    def merge_streams(self, streams: "Sequence[Sequence[Command]]") -> float:
        """Makespan of concurrent per-bank command streams.

        Each stream is an ordered command sequence bound to the banks its
        commands name; streams that share a bank are concatenated (they
        run back to back).  The merge interleaves the streams at
        *activation* granularity: at every step the bank whose next
        activation can legally issue earliest (per-bank spacing, command
        bus, tRRD, tFAW) fires first, which is how a real rank overlaps
        Row Sweeps across banks.  Returns the completion time of the last
        event.
        """
        timing = self.timing
        queues: dict[int, deque[tuple[str, float]]] = {}
        for stream in streams:
            for command in stream:
                if not 0 <= command.bank < self.num_banks:
                    raise TimingViolationError(
                        f"bank {command.bank} outside scheduler range "
                        f"[0, {self.num_banks})"
                    )
                queue = queues.setdefault(command.bank, deque())
                queue.extend(self.events_of(command))

        cursors = {bank: 0.0 for bank in queues}
        recent_acts: deque[float] = deque()
        last_act = float("-inf")
        # Start time and bank group of the last column access (RD/WR),
        # for tCCD_L/tCCD_S start-to-start spacing.
        last_col = float("-inf")
        last_col_group: int | None = None
        # Time the command bus is next free (one clock per command).
        bus_free = 0.0
        makespan = 0.0
        while queues:
            # Non-activation occupancy advances its bank without touching
            # the rank-global activation constraints; column accesses
            # additionally respect the bank-group tCCD_L/tCCD_S spacing.
            for bank in list(queues):
                queue = queues[bank]
                while queue and queue[0][0] != "act":
                    kind, duration = queue.popleft()
                    if kind == "col":
                        group = bank // self.banks_per_group
                        start = max(cursors[bank], bus_free)
                        if last_col_group is not None:
                            spacing = (
                                timing.t_ccd_l if group == last_col_group else timing.t_ccd_s
                            )
                            start = max(start, last_col + spacing)
                        last_col, last_col_group = start, group
                        bus_free = max(bus_free, start + timing.clock_ns)
                        cursors[bank] = start + duration
                    else:
                        cursors[bank] += duration
                    makespan = max(makespan, cursors[bank])
                if not queue:
                    del queues[bank]
            if not queues:
                break
            best_bank = -1
            best_time = float("inf")
            for bank in queues:
                candidate = max(cursors[bank], bus_free)
                if timing.t_rrd > 0:
                    candidate = max(candidate, last_act + timing.t_rrd)
                if timing.t_faw > 0 and len(recent_acts) >= 4:
                    candidate = max(candidate, recent_acts[-4] + timing.t_faw)
                if candidate < best_time:
                    best_time = candidate
                    best_bank = bank
            _, gap_after = queues[best_bank].popleft()
            recent_acts.append(best_time)
            if len(recent_acts) > 16:
                recent_acts.popleft()
            last_act = best_time
            bus_free = max(bus_free, best_time + timing.clock_ns)
            cursors[best_bank] = best_time + gap_after
            makespan = max(makespan, cursors[best_bank])
        return makespan

    def events_of(self, command: Command) -> "list[tuple[str, float]]":
        """Decompose a command into activation / bus-occupancy events.

        ``("act", gap)`` is one row activation followed by ``gap`` ns of
        intra-bank spacing before the bank's next event; ``("busy", d)``
        occupies the bank for ``d`` ns without activating a row;
        ``("col", d)`` is a column access that additionally respects the
        bank-group tCCD_L/tCCD_S start-to-start spacing.  Public so the
        analytic fast path (:mod:`repro.dram.analytic`) decomposes
        commands identically to this merge.
        """
        timing = self.timing
        if command.kind is CommandType.ROW_SWEEP:
            sub_interval = self.sweep_act_interval_ns / self.sweep_acts_per_row
            events = [("act", sub_interval)] * (
                command.rows * self.sweep_acts_per_row
            )
            if self.sweep_tail_ns > 0:
                events.append(("busy", self.sweep_tail_ns))
            return events
        if command.kind is CommandType.LISA_RBM:
            return [("act", self.lisa_hop_ns)] * command.rows
        if command.kind in (
            CommandType.TRA,
            CommandType.ROWCLONE,
            CommandType.SHIFT,
        ):
            # ACT-ACT-PRE: two linked activations then a precharge.
            return [("act", timing.t_rcd), ("act", timing.t_rcd + timing.t_rp)]
        if command.kind is CommandType.ACT:
            return [("act", timing.t_rcd)]
        if command.kind is CommandType.PRE:
            return [("busy", timing.t_rp)]
        if command.kind in (CommandType.RD, CommandType.WR):
            return [("col", timing.t_cl + timing.t_burst)]
        if command.kind is CommandType.REF:
            return [("busy", timing.t_rfc)]
        raise TimingViolationError(f"unsupported command type {command.kind}")
