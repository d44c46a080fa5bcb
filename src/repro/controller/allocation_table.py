"""The pLUTo Controller's in-memory allocation table.

The allocation of pLUTo row and subarray registers is recorded in an
in-memory table that the controller consults to derive the physical DRAM
addresses used when issuing commands (Section 6.1, "pLUTo Registers").

This implementation allocates rows bottom-up and LUT subarrays top-down in
the same bank, keeping the source/destination rows and the LUT-holding
subarrays in close physical proximity, as the system integration requires.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.address import RowAddress
from repro.dram.geometry import DRAMGeometry
from repro.errors import AllocationError
from repro.isa.registers import RowRegister, SubarrayRegister

__all__ = ["RowAllocation", "SubarrayAllocation", "AllocationTable"]


@dataclass(frozen=True)
class RowAllocation:
    """Physical placement of a row register: one or more consecutive rows."""

    register: RowRegister
    bank: int
    subarray: int
    first_row: int
    num_rows: int

    @property
    def addresses(self) -> list[RowAddress]:
        """The physical row addresses, in order."""
        return [
            RowAddress(self.bank, self.subarray, self.first_row + offset)
            for offset in range(self.num_rows)
        ]


@dataclass(frozen=True)
class SubarrayAllocation:
    """Physical placement of a subarray register (a LUT-holding subarray)."""

    register: SubarrayRegister
    bank: int
    subarray: int
    num_rows: int


class AllocationTable:
    """Binds registers to physical rows/subarrays within one bank."""

    def __init__(self, geometry: DRAMGeometry, *, bank: int = 0) -> None:
        self.geometry = geometry
        self.bank = bank
        self._row_allocations: dict[int, RowAllocation] = {}
        self._subarray_allocations: dict[int, SubarrayAllocation] = {}
        #: Data rows are packed into subarray 0 from the bottom.
        self._next_data_row = 0
        #: LUT subarrays are handed out from the top of the bank downwards.
        self._next_lut_subarray = geometry.subarrays_per_bank - 1

    # ------------------------------------------------------------------ #
    # Binding
    # ------------------------------------------------------------------ #
    def bind_row(self, register: RowRegister) -> RowAllocation:
        """Allocate physical rows for a row register."""
        if register.index in self._row_allocations:
            return self._row_allocations[register.index]
        num_rows = self.geometry.rows_for(register.size_elements, register.bit_width)
        if self._next_data_row + num_rows > self.geometry.rows_per_subarray:
            raise AllocationError(
                "data subarray exhausted: cannot place "
                f"{num_rows} more rows for {register.name}"
            )
        allocation = RowAllocation(
            register=register,
            bank=self.bank,
            subarray=0,
            first_row=self._next_data_row,
            num_rows=num_rows,
        )
        self._next_data_row += num_rows
        self._row_allocations[register.index] = allocation
        return allocation

    def bind_subarray(self, register: SubarrayRegister) -> SubarrayAllocation:
        """Allocate a pLUTo-enabled subarray for a LUT register."""
        if register.index in self._subarray_allocations:
            return self._subarray_allocations[register.index]
        if register.num_rows > self.geometry.rows_per_subarray:
            raise AllocationError(
                f"LUT {register.lut_name!r} needs {register.num_rows} rows but a "
                f"subarray has only {self.geometry.rows_per_subarray}"
            )
        if self._next_lut_subarray <= 0:
            raise AllocationError("no pLUTo-enabled subarrays left in the bank")
        allocation = SubarrayAllocation(
            register=register,
            bank=self.bank,
            subarray=self._next_lut_subarray,
            num_rows=register.num_rows,
        )
        self._next_lut_subarray -= 1
        self._subarray_allocations[register.index] = allocation
        return allocation

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def row_allocation(self, register: RowRegister) -> RowAllocation:
        """Look up (or create) the binding of a row register."""
        return self.bind_row(register)

    def subarray_allocation(self, register: SubarrayRegister) -> SubarrayAllocation:
        """Look up (or create) the binding of a subarray register."""
        return self.bind_subarray(register)

    @property
    def rows_in_use(self) -> int:
        """Number of data rows currently allocated."""
        return self._next_data_row

    @property
    def lut_subarrays_in_use(self) -> int:
        """Number of LUT-holding subarrays currently allocated."""
        return self.geometry.subarrays_per_bank - 1 - self._next_lut_subarray
