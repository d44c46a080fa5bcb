"""Lookup tables and their in-DRAM layout.

A pLUTo LUT maps an N-bit index to an M-bit element.  Inside a
pLUTo-enabled subarray the LUT is stored *vertically replicated*: row *i*
of the subarray holds as many copies of ``lut[i]`` as fit in the row
(Figure 2), so that when row *i* is activated every bitline group carries a
copy of the element and any subset of output positions can capture it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.dram.geometry import DRAMGeometry
from repro.errors import LUTError
from repro.utils.bitops import bit_length_for, mask_of, pack_elements
from repro.utils.memo import BoundedMemo

__all__ = [
    "LookupTable",
    "gather_array",
    "lut_from_function",
    "replicate_lut_rows",
    "concat_binary_lut",
    "sequence_lut",
]

#: LookupTable -> read-only uint64 gather array (tables are immutable, so
#: the conversion from the value tuple is paid once per distinct LUT),
#: bounded like the trace templates so a stream of never-seen tables
#: cannot grow it without limit.
_GATHER_CACHE: BoundedMemo[np.ndarray] = BoundedMemo("lut_gather_arrays", 1024)


def gather_array(lut: "LookupTable") -> np.ndarray:
    """The LUT contents as a read-only ``uint64`` array for bulk gathers.

    This is the host-side analogue of the vertically replicated in-DRAM
    layout: ``gather_array(lut)[indices]`` evaluates a whole query vector
    at once.  The vectorized execution backend is built on it.
    """
    array = _GATHER_CACHE.get(lut)
    if array is None:
        array = np.asarray(lut.values, dtype=np.uint64)
        array.setflags(write=False)
        _GATHER_CACHE.put(lut, array)
    return array


@dataclass(frozen=True)
class LookupTable:
    """An immutable lookup table with fixed index and element widths.

    Attributes
    ----------
    values:
        The table contents; ``values[i]`` is the element at index ``i``.
    index_bits:
        Bit width of the query index (``len(values) == 2**index_bits``).
    element_bits:
        Bit width of each stored element.
    name:
        Human-readable identifier used in traces and error messages.
    """

    values: tuple[int, ...]
    index_bits: int
    element_bits: int
    name: str = "lut"

    def __post_init__(self) -> None:
        expected = 1 << self.index_bits
        if len(self.values) != expected:
            raise LUTError(
                f"LUT {self.name!r}: {len(self.values)} entries do not match "
                f"index width {self.index_bits} (expected {expected})"
            )
        if self.element_bits <= 0:
            raise LUTError(f"LUT {self.name!r}: element width must be positive")
        limit = mask_of(self.element_bits)
        for index, value in enumerate(self.values):
            if not 0 <= value <= limit:
                raise LUTError(
                    f"LUT {self.name!r}: entry {index} = {value} exceeds "
                    f"{self.element_bits}-bit range"
                )

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < len(self.values):
            raise LUTError(
                f"LUT {self.name!r}: index {index} out of range [0, {len(self)})"
            )
        return self.values[index]

    @property
    def num_entries(self) -> int:
        """Number of LUT elements (rows swept during a query)."""
        return len(self.values)

    def query(self, indices: np.ndarray) -> np.ndarray:
        """Reference (host-side) evaluation of the LUT for a vector of indices."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= len(self.values)):
            raise LUTError(
                f"LUT {self.name!r}: query index out of range [0, {len(self)})"
            )
        return gather_array(self)[indices]

    def rows_required(self, geometry: DRAMGeometry) -> int:
        """Number of subarray rows the LUT occupies (one per entry)."""
        if self.num_entries > geometry.rows_per_subarray:
            raise LUTError(
                f"LUT {self.name!r}: {self.num_entries} entries exceed the "
                f"{geometry.rows_per_subarray}-row subarray; partition the "
                "query across subarrays (Section 5.6)"
            )
        return self.num_entries


def lut_from_function(
    function: Callable[[int], int],
    index_bits: int,
    element_bits: int,
    name: str = "lut",
) -> LookupTable:
    """Tabulate ``function`` over all ``2**index_bits`` inputs.

    This is the "first-time generation" LUT-construction path of
    Section 6.5: the function is evaluated once per index and the results
    are stored for later bulk querying.
    """
    size = 1 << index_bits
    values = []
    limit = mask_of(element_bits)
    for index in range(size):
        value = int(function(index))
        if not 0 <= value <= limit:
            raise LUTError(
                f"LUT {name!r}: f({index}) = {value} does not fit in "
                f"{element_bits} bits"
            )
        values.append(value)
    return LookupTable(
        values=tuple(values),
        index_bits=index_bits,
        element_bits=element_bits,
        name=name,
    )


def replicate_lut_rows(
    lut: LookupTable, geometry: DRAMGeometry
) -> np.ndarray:
    """Produce the vertically replicated row image of a LUT.

    Returns an array of shape ``(num_entries, row_size_bytes)`` where row
    ``i`` contains back-to-back copies of ``lut[i]`` (element_bits wide)
    across the whole DRAM row, as in Figure 2 (ii).
    """
    copies = geometry.elements_per_row(lut.element_bits)
    if copies == 0:
        raise LUTError(
            f"LUT {lut.name!r}: element width {lut.element_bits} exceeds the row size"
        )
    rows = np.zeros((lut.num_entries, geometry.row_size_bytes), dtype=np.uint8)
    for index, value in enumerate(lut.values):
        elements = np.full(copies, value, dtype=np.uint64)
        rows[index] = pack_elements(elements, lut.element_bits, geometry.row_size_bytes)
    return rows


def concat_binary_lut(
    function: Callable[[int, int], int],
    left_bits: int,
    right_bits: int,
    element_bits: int,
    name: str = "binary-lut",
) -> LookupTable:
    """Build a LUT for a binary function of (left, right) operands.

    The LUT is indexed by the concatenation ``(left << right_bits) | right``
    which is exactly the operand layout the compiler produces with shift +
    OR alignment (Section 6.3).
    """
    index_bits = left_bits + right_bits

    def _wrapped(index: int) -> int:
        right = index & mask_of(right_bits)
        left = (index >> right_bits) & mask_of(left_bits)
        return function(left, right)

    return lut_from_function(_wrapped, index_bits, element_bits, name=name)


def sequence_lut(
    values: Sequence[int], element_bits: int, name: str = "lut"
) -> LookupTable:
    """Build a LUT from an explicit value sequence (padded to a power of two)."""
    count = len(values)
    if count == 0:
        raise LUTError("cannot build a LUT from an empty sequence")
    index_bits = bit_length_for(count)
    padded = list(values) + [0] * ((1 << index_bits) - count)
    return LookupTable(
        values=tuple(int(v) for v in padded),
        index_bits=index_bits,
        element_bits=element_bits,
        name=name,
    )
