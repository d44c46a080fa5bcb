"""Bit-level helpers used throughout the functional simulator.

pLUTo operates on DRAM rows that hold densely packed fixed-width elements.
The functions here convert between NumPy element vectors and packed row
bytes, and size the bit fields of LUT indices and elements.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "mask_of",
    "bit_length_for",
    "pack_elements",
    "unpack_elements",
]


def mask_of(bits: int) -> int:
    """Return an integer with the ``bits`` least-significant bits set.

    >>> mask_of(4)
    15
    """
    if bits < 0:
        raise ConfigurationError(f"bit width must be non-negative, got {bits}")
    return (1 << bits) - 1


def bit_length_for(num_entries: int) -> int:
    """Return the index width (in bits) of a LUT with ``num_entries`` entries.

    The paper requires LUT sizes to be powers of two; this helper accepts any
    positive count and returns ``ceil(log2(num_entries))``.
    """
    if num_entries <= 0:
        raise ConfigurationError(
            f"a LUT must have at least one entry, got {num_entries}"
        )
    return max(1, (num_entries - 1).bit_length())


def pack_elements(elements: np.ndarray, bit_width: int, row_bytes: int) -> np.ndarray:
    """Pack integer ``elements`` of ``bit_width`` bits into a row of bytes.

    Elements are stored bit-parallel and little-endian within the row, i.e.
    element *i* occupies bits ``[i*bit_width, (i+1)*bit_width)`` of the row.
    The result always has exactly ``row_bytes`` bytes; unused bits are zero.

    Raises :class:`ConfigurationError` if the elements do not fit or any
    element exceeds the bit width.
    """
    if bit_width <= 0:
        raise ConfigurationError(f"bit width must be positive, got {bit_width}")
    elements = np.asarray(elements, dtype=np.uint64)
    if elements.size * bit_width > row_bytes * 8:
        raise ConfigurationError(
            f"{elements.size} elements of {bit_width} bits do not fit in a "
            f"{row_bytes}-byte row"
        )
    if elements.size and int(elements.max()) > mask_of(bit_width):
        raise ConfigurationError(
            f"element value {int(elements.max())} exceeds {bit_width}-bit range"
        )

    total_bits = row_bytes * 8
    bit_array = np.zeros(total_bits, dtype=np.uint8)
    if elements.size:
        shifts = np.arange(bit_width, dtype=np.uint64)
        bits = (elements[:, None] >> shifts[None, :]) & np.uint64(1)
        bit_array[: elements.size * bit_width] = bits.reshape(-1).astype(np.uint8)
    return np.packbits(bit_array, bitorder="little")


def unpack_elements(row: np.ndarray, bit_width: int, count: int) -> np.ndarray:
    """Unpack ``count`` integer elements of ``bit_width`` bits from row bytes.

    Inverse of :func:`pack_elements`.
    """
    if bit_width <= 0:
        raise ConfigurationError(f"bit width must be positive, got {bit_width}")
    row = np.asarray(row, dtype=np.uint8)
    if count * bit_width > row.size * 8:
        raise ConfigurationError(
            f"cannot unpack {count} x {bit_width}-bit elements from "
            f"{row.size} bytes"
        )
    if count == 0:
        return np.zeros(0, dtype=np.uint64)
    bit_array = np.unpackbits(row, bitorder="little")
    bits = bit_array[: count * bit_width].reshape(count, bit_width).astype(np.uint64)
    shifts = np.arange(bit_width, dtype=np.uint64)
    return (bits << shifts[None, :]).sum(axis=1, dtype=np.uint64)
