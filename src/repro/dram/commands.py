"""DRAM command primitives and command traces.

The paper's simulator "estimates the performance of pLUTo operations by
parsing the sequence of memory commands required to perform them and
enforcing the memory's timing parameters" (Section 7.1).  This module
provides the command vocabulary and a :class:`CommandTrace` accumulator
that turns a command sequence into latency and energy totals.

Commands include both standard DDR commands (ACT, PRE, RD, WR, REF) and the
PuM extensions this reproduction models: triple-row activation (Ambit),
LISA row-buffer movement, DRISA shifts, and the pLUTo Row Sweep.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.dram.energy import EnergyParameters
from repro.dram.timing import TimingParameters

__all__ = ["CommandType", "Command", "CommandTrace"]


class CommandType(enum.Enum):
    """DRAM and PuM command types used by the simulator."""

    ACT = "ACT"
    PRE = "PRE"
    RD = "RD"
    WR = "WR"
    REF = "REF"
    #: Ambit triple-row activation (AAP primitive building block).
    TRA = "TRA"
    #: RowClone-FPM intra-subarray copy (ACT-ACT).
    ROWCLONE = "ROWCLONE"
    #: LISA row-buffer movement between neighbouring subarrays.
    LISA_RBM = "LISA_RBM"
    #: DRISA intra-row shift (one ACT-ACT-PRE sequence).
    SHIFT = "SHIFT"
    #: pLUTo Row Sweep (successive activation of N consecutive rows).
    ROW_SWEEP = "ROW_SWEEP"

    # Members are singletons compared by identity, so the identity hash is
    # exact, and it runs in C: the scheduler-merge memo hashes one kind per
    # command of every stream it looks up (Enum's own hash is a Python call).
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Command:
    """One DRAM command issued by a controller.

    ``rows`` carries the sweep length for ``ROW_SWEEP`` commands and is 1
    for ordinary commands.  ``meta`` is a free-form annotation used by the
    higher layers (e.g. which ISA instruction generated the command).
    """

    kind: CommandType
    bank: int = 0
    subarray: int = 0
    row: int = 0
    rows: int = 1
    meta: str = ""


@dataclass
class CommandTrace:
    """An ordered command sequence with latency/energy accounting.

    The trace applies the design-specific cost model for pLUTo Row Sweeps:
    the caller records sweeps through :meth:`add_row_sweep` with an explicit
    per-design latency/energy, while standard commands use the timing and
    energy parameter objects directly.
    """

    timing: TimingParameters
    energy: EnergyParameters
    commands: list[Command] = field(default_factory=list)
    total_latency_ns: float = 0.0
    total_energy_nj: float = 0.0

    def __len__(self) -> int:
        return len(self.commands)

    def __iter__(self) -> Iterator[Command]:
        return iter(self.commands)

    # ------------------------------------------------------------------ #
    # Standard DDR commands
    # ------------------------------------------------------------------ #
    def add(
        self,
        kind: CommandType,
        *,
        bank: int = 0,
        subarray: int = 0,
        row: int = 0,
        rows: int = 1,
        meta: str = "",
        latency_ns: Optional[float] = None,
        energy_nj: Optional[float] = None,
    ) -> Command:
        """Append a command, using default per-type costs unless overridden."""
        command = Command(kind, bank, subarray, row, rows, meta)
        self.commands.append(command)
        if latency_ns is None:
            latency_ns = self._default_latency(command)
        if energy_nj is None:
            energy_nj = self._default_energy(command)
        self.total_latency_ns += latency_ns
        self.total_energy_nj += energy_nj
        return command

    def add_row_sweep(
        self,
        latency_ns: float,
        energy_nj: float,
        *,
        bank: int = 0,
        subarray: int = 0,
        rows: int = 1,
        meta: str = "",
    ) -> Command:
        """Append a pLUTo Row Sweep with design-specific cost."""
        return self.add(
            CommandType.ROW_SWEEP,
            bank=bank,
            subarray=subarray,
            rows=rows,
            meta=meta,
            latency_ns=latency_ns,
            energy_nj=energy_nj,
        )

    # ------------------------------------------------------------------ #
    # Default cost model
    # ------------------------------------------------------------------ #
    def _default_latency(self, command: Command) -> float:
        timing = self.timing
        if command.kind is CommandType.ACT:
            return timing.t_rcd
        if command.kind is CommandType.PRE:
            return timing.t_rp
        if command.kind is CommandType.RD:
            return timing.t_cl + timing.t_burst
        if command.kind is CommandType.WR:
            return timing.t_cl + timing.t_burst
        if command.kind is CommandType.REF:
            return timing.t_rfc
        if command.kind is CommandType.TRA:
            # Ambit AAP: ACT-ACT-PRE sequence.
            return 2 * timing.t_rcd + timing.t_rp
        if command.kind is CommandType.ROWCLONE:
            # RowClone-FPM: ACT-ACT-PRE.
            return 2 * timing.t_rcd + timing.t_rp
        if command.kind is CommandType.LISA_RBM:
            # One activation plus the row-buffer link latency (~ tRCD + tRP).
            return timing.t_rcd + timing.t_rp
        if command.kind is CommandType.SHIFT:
            # DRISA shift: one ACT-ACT-PRE command sequence.
            return 2 * timing.t_rcd + timing.t_rp
        if command.kind is CommandType.ROW_SWEEP:
            # Default to the BSA cost; designs normally override this.
            return (timing.t_rcd + timing.t_rp) * command.rows
        raise ValueError(f"unknown command type {command.kind}")

    def _default_energy(self, command: Command) -> float:
        energy = self.energy
        if command.kind is CommandType.ACT:
            return energy.e_act
        if command.kind is CommandType.PRE:
            return energy.e_pre
        if command.kind is CommandType.RD:
            return energy.e_rd
        if command.kind is CommandType.WR:
            return energy.e_wr
        if command.kind is CommandType.REF:
            return energy.e_act + energy.e_pre
        if command.kind is CommandType.TRA:
            return 2 * energy.e_act + energy.e_pre
        if command.kind is CommandType.ROWCLONE:
            return 2 * energy.e_act + energy.e_pre
        if command.kind is CommandType.LISA_RBM:
            return energy.e_lisa_rbm
        if command.kind is CommandType.SHIFT:
            return 2 * energy.e_act + energy.e_pre
        if command.kind is CommandType.ROW_SWEEP:
            return (energy.e_act + energy.e_pre) * command.rows
        raise ValueError(f"unknown command type {command.kind}")

    # ------------------------------------------------------------------ #
    # Reporting helpers
    # ------------------------------------------------------------------ #
    def count(self, kind: CommandType) -> int:
        """Number of commands of the given type in the trace."""
        return sum(1 for command in self.commands if command.kind is kind)

    def merge(self, other: "CommandTrace") -> None:
        """Fold another trace's commands and totals into this one."""
        self.commands.extend(other.commands)
        self.total_latency_ns += other.total_latency_ns
        self.total_energy_nj += other.total_energy_nj
