"""The vectorized fast-path backend.

A pLUTo LUT query selects, for every input element, the LUT entry whose
row index equals the element — which on a host is exactly a NumPy gather:
``table.values[indices]``.  This backend therefore executes whole compiled
programs as bulk gather/bitwise operations with no per-row Python loops,
while the controller's command-ROM/cost-model accounting stays untouched,
so the resulting command traces are identical to the functional path's.

The gather arrays come from :func:`repro.core.lut.gather_array`, which
caches per :class:`~repro.core.lut.LookupTable` (LUTs are immutable), so
batched sessions that reload the same LUT pay the tuple-to-array
conversion only once.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import ExecutionBackend
from repro.core.lut import LookupTable, gather_array
from repro.errors import ExecutionError, LUTError

__all__ = ["VectorizedBackend"]


class VectorizedBackend(ExecutionBackend):
    """Executes LUT queries as NumPy gathers over the table values."""

    name = "vectorized"
    #: A gather is shape-polymorphic — ``table[indices]`` preserves the
    #: index array's shape — so stacked ``(shards, elements)`` programs
    #: execute in one pass (the fused dispatch path).
    supports_batched = True

    def __init__(self) -> None:
        super().__init__()
        self._tables: dict[int, tuple[LookupTable, np.ndarray]] = {}

    def _reset_luts(self) -> None:
        self._tables.clear()

    def load_lut(
        self, register_index: int, lut: LookupTable, *, subarray_index: int = 0
    ) -> None:
        self._tables[register_index] = (lut, gather_array(lut))

    def lut_query(self, register_index: int, indices: np.ndarray) -> np.ndarray:
        entry = self._tables.get(register_index)
        if entry is None:
            raise ExecutionError(
                f"subarray register s{register_index} has no LUT loaded"
            )
        lut, table = entry
        if indices.size and int(indices.max()) >= lut.num_entries:
            raise LUTError(
                f"query index {int(indices.max())} outside the "
                f"{lut.num_entries}-entry LUT {lut.name!r}"
            )
        return table[indices.astype(np.intp, copy=False)]
