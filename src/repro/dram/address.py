"""Decoded DRAM row addresses.

pLUTo's system integration requires knowledge of which bank, subarray and
row a structure occupies, so the controller can co-locate the source row,
the LUT-holding subarray and the destination row (Section 6.6).  The
allocation table records its allocations as :class:`RowAddress` values.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.geometry import DRAMGeometry

__all__ = ["RowAddress"]


@dataclass(frozen=True, order=True)
class RowAddress:
    """A fully decoded DRAM row address."""

    bank: int
    subarray: int
    row: int

    def neighbours(self, geometry: DRAMGeometry) -> list["RowAddress"]:
        """Return the adjacent subarrays' same-index rows (LISA links)."""
        result = []
        if self.subarray > 0:
            result.append(RowAddress(self.bank, self.subarray - 1, self.row))
        if self.subarray < geometry.subarrays_per_bank - 1:
            result.append(RowAddress(self.bank, self.subarray + 1, self.row))
        return result
