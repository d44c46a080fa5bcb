"""Shared utilities: bit manipulation, fixed-point, units, and memoization."""

from repro.utils.bitops import (
    bit_length_for,
    mask_of,
    pack_elements,
    unpack_elements,
)
from repro.utils.fixedpoint import (
    QFormat,
    from_fixed,
    to_fixed,
)
from repro.utils.memo import BoundedMemo
from repro.utils.units import (
    GIGA,
    KILO,
    MEGA,
    MILLI,
    MICRO,
    NANO,
    PICO,
    format_energy,
    format_time,
    geometric_mean,
)

__all__ = [
    "BoundedMemo",
    "bit_length_for",
    "mask_of",
    "pack_elements",
    "unpack_elements",
    "QFormat",
    "from_fixed",
    "to_fixed",
    "GIGA",
    "KILO",
    "MEGA",
    "MILLI",
    "MICRO",
    "NANO",
    "PICO",
    "format_energy",
    "format_time",
    "geometric_mean",
]
