"""Timing-aware DRAM command scheduler.

The scheduler turns a stream of DRAM commands into issue timestamps while
enforcing the timing constraints that matter for pLUTo:

* ``tRCD`` / ``tRP`` / ``tRAS`` intra-bank sequencing,
* ``tRRD`` between activations to different banks,
* ``tFAW`` — at most four activations per rank within a sliding window,
  which Section 8.7 identifies as the key throttle on activation-heavy
  PuM mechanisms,
* ``tCCD_L`` / ``tCCD_S`` between column accesses to the same / different
  bank groups, so hierarchical merges see DDR4's bank-group asymmetry.

It is intentionally simpler than a full DDR protocol engine (one scheduler
instance models one rank; the dispatcher's makespan function composes
ranks and channels above it) because that is the fidelity level of the paper's own
simulator: command sequences plus timing-parameter enforcement.

:meth:`CommandScheduler.merge_streams` is the *reference* merge.  The
dispatch layers route makespan queries through
:mod:`repro.dram.analytic`, which memoizes results on the streams'
structural signature and replays the same greedy schedule with a priority
queue (bit-identical, much faster); this class stays the semantic oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from repro.dram.commands import Command, CommandType
from repro.dram.timing import TimingParameters
from repro.errors import ConfigurationError, TimingViolationError

__all__ = [
    "ScheduledCommand",
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
class ScheduledCommand:
    """A command together with the time at which it was issued."""

    command: Command
    issue_time_ns: float


@dataclass
class _BankState:
    """Per-bank protocol state tracked by the scheduler."""

    open_row: int | None = None
    last_act_ns: float = float("-inf")
    last_pre_ns: float = float("-inf")
    ready_ns: float = 0.0


class CommandScheduler:
    """Assigns issue times to DRAM commands under timing constraints."""

    def __init__(
        self,
        timing: TimingParameters,
        *,
        num_banks: int = 16,
        banks_per_group: int | None = None,
        sweep_act_interval_ns: float | None = None,
        sweep_tail_ns: float = 0.0,
        sweep_acts_per_row: int = 1,
        lisa_hop_ns: float | None = None,
    ) -> None:
        self.timing = timing
        self.num_banks = num_banks
        #: Banks per bank group: maps a bank id to the bank group whose
        #: shared column circuitry sets the tCCD_L/tCCD_S spacing.  ``None``
        #: keeps the DDR4 default of four banks per group.
        if banks_per_group is None:
            banks_per_group = 4
        if banks_per_group <= 0:
            raise ConfigurationError("banks_per_group must be positive")
        self.banks_per_group = banks_per_group
        #: ACT-to-ACT spacing inside a Row Sweep.  Defaults to the
        #: conservative BSA ACT+PRE cycle; the dispatcher passes the
        #: design-specific spacing (e.g. tRCD only for pLUTo-GMC, whose
        #: sweeps precharge once at the end).
        self.sweep_act_interval_ns = (
            sweep_act_interval_ns
            if sweep_act_interval_ns is not None
            else timing.t_rcd + timing.t_rp
        )
        #: Bank occupancy after a Row Sweep's last activation (the single
        #: trailing precharge of the GSA/GMC sweeps; zero for BSA, whose
        #: per-row spacing already includes the precharge).
        self.sweep_tail_ns = sweep_tail_ns
        #: Activations per swept row.  pLUTo-GSA's destructive reads add a
        #: LISA reload activation before every sweep activation, doubling
        #: the pressure each row puts on the tRRD/tFAW window.
        if sweep_acts_per_row < 1:
            raise ConfigurationError("sweep_acts_per_row must be >= 1")
        self.sweep_acts_per_row = sweep_acts_per_row
        #: Latency of one LISA row-buffer hop.  Defaults to the linked
        #: activate cost (tRCD + tRP); pass the engine cost model's
        #: ``lisa_hop_latency_ns`` so makespans agree with the trace when
        #: a custom hop latency is configured.
        self.lisa_hop_ns = (
            lisa_hop_ns if lisa_hop_ns is not None else timing.t_rcd + timing.t_rp
        )
        self._banks: dict[int, _BankState] = {
            bank: _BankState() for bank in range(num_banks)
        }
        self._recent_acts: deque[float] = deque()
        self._last_act_any_bank_ns: float = float("-inf")
        #: Start time and bank group of the last column access (RD/WR) on
        #: this rank, for tCCD_L/tCCD_S start-to-start spacing.
        self._last_col_ns: float = float("-inf")
        self._last_col_group: int | None = None
        #: Time the command bus is next free (one clock per command).
        self._bus_free_ns: float = 0.0
        self.now_ns: float = 0.0
        self.schedule: list[ScheduledCommand] = []

    def bank_group_of(self, bank: int) -> int:
        """Bank group a bank id belongs to."""
        return bank // self.banks_per_group

    def _earliest_col_time(self, bank: int, lower_bound: float) -> float:
        """Earliest legal start of a column access on ``bank``."""
        if self._last_col_group is None:
            return lower_bound
        spacing = (
            self.timing.t_ccd_l
            if self.bank_group_of(bank) == self._last_col_group
            else self.timing.t_ccd_s
        )
        return max(lower_bound, self._last_col_ns + spacing)

    def _record_col(self, bank: int, time_ns: float) -> None:
        self._last_col_ns = time_ns
        self._last_col_group = self.bank_group_of(bank)

    # ------------------------------------------------------------------ #
    # Issue logic
    # ------------------------------------------------------------------ #
    def issue(self, command: Command) -> ScheduledCommand:
        """Issue one command at the earliest legal time and return it."""
        if command.bank not in self._banks:
            raise TimingViolationError(
                f"bank {command.bank} outside scheduler range [0, {self.num_banks})"
            )
        if command.kind is CommandType.ACT:
            issue_time = self._issue_activate(command)
        elif command.kind is CommandType.ROW_SWEEP:
            issue_time = self._issue_row_sweep(command)
        elif command.kind is CommandType.PRE:
            issue_time = self._issue_precharge(command)
        else:
            issue_time = self._issue_simple(command)
        scheduled = ScheduledCommand(command=command, issue_time_ns=issue_time)
        self.schedule.append(scheduled)
        return scheduled

    def issue_all(self, commands: list[Command]) -> list[ScheduledCommand]:
        """Issue a sequence of commands in order."""
        return [self.issue(command) for command in commands]

    # ------------------------------------------------------------------ #
    # Multi-stream (bank-parallel) merging
    # ------------------------------------------------------------------ #
    def merge_streams(self, streams: "Sequence[Sequence[Command]]") -> float:
        """Makespan of concurrent per-bank command streams.

        Each stream is an ordered command sequence bound to the banks its
        commands name; streams that share a bank are concatenated (they
        run back to back).  Unlike :meth:`issue` — which schedules one
        whole command at a time — this interleaves the streams at
        *activation* granularity: at every step the bank whose next
        activation can legally issue earliest (per-bank spacing, command
        bus, tRRD, tFAW) fires first, which is how a real rank overlaps
        Row Sweeps across banks.  Returns the completion time of the last
        event; the scheduler instance must be fresh (nothing issued yet).
        """
        if self.schedule or self._recent_acts or self.now_ns:
            raise TimingViolationError(
                "merge_streams needs a fresh scheduler; this instance has "
                "already issued commands"
            )
        queues: dict[int, deque[tuple[str, float]]] = {}
        for stream in streams:
            for command in stream:
                if command.bank not in self._banks:
                    raise TimingViolationError(
                        f"bank {command.bank} outside scheduler range "
                        f"[0, {self.num_banks})"
                    )
                queue = queues.setdefault(command.bank, deque())
                queue.extend(self.events_of(command))

        cursors = {bank: 0.0 for bank in queues}
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
                        start = self._earliest_col_time(
                            bank, max(cursors[bank], self._bus_free_ns)
                        )
                        self._record_col(bank, start)
                        self._bus_free_ns = max(
                            self._bus_free_ns, start + self.timing.clock_ns
                        )
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
                candidate = max(cursors[bank], self._bus_free_ns)
                if self.timing.t_rrd > 0:
                    candidate = max(
                        candidate, self._last_act_any_bank_ns + self.timing.t_rrd
                    )
                if self.timing.t_faw > 0 and len(self._recent_acts) >= 4:
                    candidate = max(
                        candidate, self._recent_acts[-4] + self.timing.t_faw
                    )
                if candidate < best_time:
                    best_time = candidate
                    best_bank = bank
            _, gap_after = queues[best_bank].popleft()
            self._record_act(best_time)
            cursors[best_bank] = best_time + gap_after
            makespan = max(makespan, cursors[best_bank])
        self.now_ns = max(self.now_ns, makespan)
        return makespan

    def events_of(self, command: Command) -> "list[tuple[str, float]]":
        """Decompose a command into activation / bus-occupancy events.

        ``("act", gap)`` is one row activation followed by ``gap`` ns of
        intra-bank spacing before the bank's next event; ``("busy", d)``
        occupies the bank for ``d`` ns without activating a row;
        ``("col", d)`` is a column access that additionally respects the
        bank-group tCCD_L/tCCD_S start-to-start spacing.  Public so the
        analytic fast paths (:mod:`repro.dram.analytic`) decompose
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

    @property
    def elapsed_ns(self) -> float:
        """Total elapsed time after the last issued command completes."""
        return self.now_ns

    # ------------------------------------------------------------------ #
    # Per-type issue rules
    # ------------------------------------------------------------------ #
    def _earliest_act_time(self, bank: _BankState) -> float:
        candidates = [self._bus_free_ns, bank.ready_ns]
        # tRRD with respect to the last ACT on any bank.
        candidates.append(self._last_act_any_bank_ns + self.timing.t_rrd)
        # tFAW: the 5th activation in a window must wait.
        if self.timing.t_faw > 0 and len(self._recent_acts) >= 4:
            candidates.append(self._recent_acts[-4] + self.timing.t_faw)
        return max(candidates)

    def _record_act(self, time_ns: float) -> None:
        self._recent_acts.append(time_ns)
        if len(self._recent_acts) > 16:
            self._recent_acts.popleft()
        self._last_act_any_bank_ns = time_ns
        self._bus_free_ns = max(self._bus_free_ns, time_ns + self.timing.clock_ns)

    def _issue_activate(self, command: Command) -> float:
        bank = self._banks[command.bank]
        if bank.open_row is not None:
            raise TimingViolationError(
                f"bank {command.bank}: ACT to row {command.row} while row "
                f"{bank.open_row} is open"
            )
        issue_time = self._earliest_act_time(bank)
        self._record_act(issue_time)
        bank.open_row = command.row
        bank.last_act_ns = issue_time
        bank.ready_ns = issue_time + self.timing.t_rcd
        self.now_ns = max(self.now_ns, bank.ready_ns)
        return issue_time

    def _issue_precharge(self, command: Command) -> float:
        bank = self._banks[command.bank]
        issue_time = max(self._bus_free_ns, bank.ready_ns)
        if bank.open_row is not None:
            # Enforce tRAS from the opening ACT.
            issue_time = max(issue_time, bank.last_act_ns + self.timing.t_ras)
        bank.open_row = None
        bank.last_pre_ns = issue_time
        bank.ready_ns = issue_time + self.timing.t_rp
        self._bus_free_ns = max(self._bus_free_ns, issue_time + self.timing.clock_ns)
        self.now_ns = max(self.now_ns, bank.ready_ns)
        return issue_time

    def _issue_row_sweep(self, command: Command) -> float:
        """A Row Sweep is modelled as ``rows`` back-to-back activations.

        Each activation inside the sweep is subject to tFAW; the per-design
        ACT spacing (with or without interleaved precharges) comes from
        ``sweep_act_interval_ns``, which defaults to the conservative BSA
        ACT+PRE cycle so scheduler-level tFAW studies have a well-defined
        baseline.
        """
        bank = self._banks[command.bank]
        if bank.open_row is not None:
            raise TimingViolationError(
                f"bank {command.bank}: ROW_SWEEP while row {bank.open_row} is open"
            )
        start = self._earliest_act_time(bank)
        time_cursor = start
        sub_interval = self.sweep_act_interval_ns / self.sweep_acts_per_row
        for _ in range(command.rows * self.sweep_acts_per_row):
            time_cursor = max(time_cursor, self._earliest_act_time(bank))
            self._record_act(time_cursor)
            time_cursor += sub_interval
        time_cursor += self.sweep_tail_ns
        bank.ready_ns = time_cursor
        self.now_ns = max(self.now_ns, time_cursor)
        return start

    def _issue_lisa(self, command: Command) -> float:
        """LISA row-buffer movement: one linked activation per row moved.

        LUT loads carry the row count of the table they stream into the
        subarray; every hop's activation is individually subject to the
        rank-level tRRD/tFAW constraints, like the activations of a Row
        Sweep.
        """
        bank = self._banks[command.bank]
        start = self._earliest_act_time(bank)
        time_cursor = start
        for _ in range(command.rows):
            time_cursor = max(time_cursor, self._earliest_act_time(bank))
            self._record_act(time_cursor)
            time_cursor += self.lisa_hop_ns
        bank.ready_ns = time_cursor
        self.now_ns = max(self.now_ns, time_cursor)
        return start

    def _issue_simple(self, command: Command) -> float:
        bank = self._banks[command.bank]
        if command.kind is CommandType.LISA_RBM:
            return self._issue_lisa(command)
        issue_time = max(self._bus_free_ns, bank.ready_ns)
        if command.kind in (CommandType.RD, CommandType.WR):
            if bank.open_row is None:
                raise TimingViolationError(
                    f"bank {command.bank}: {command.kind.value} with no open row"
                )
            issue_time = self._earliest_col_time(command.bank, issue_time)
            self._record_col(command.bank, issue_time)
            duration = self.timing.t_cl + self.timing.t_burst
        elif command.kind is CommandType.REF:
            duration = self.timing.t_rfc
        elif command.kind in (
            CommandType.TRA,
            CommandType.ROWCLONE,
            CommandType.SHIFT,
        ):
            # ACT-ACT-PRE: the opening activation obeys tRRD/tFAW; the
            # linked second activation follows one tRCD later.
            issue_time = self._earliest_act_time(bank)
            duration = 2 * self.timing.t_rcd + self.timing.t_rp
            self._record_act(issue_time)
            self._record_act(issue_time + self.timing.t_rcd)
        else:
            raise TimingViolationError(f"unsupported command type {command.kind}")
        bank.ready_ns = issue_time + duration
        self._bus_free_ns = max(self._bus_free_ns, issue_time + self.timing.clock_ns)
        self.now_ns = max(self.now_ns, bank.ready_ns)
        return issue_time
