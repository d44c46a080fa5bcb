"""Standard LUT builders used by the pLUTo Library routines and workloads.

Every builder returns a :class:`repro.core.lut.LookupTable`.  Binary
operations (addition, multiplication, bitwise logic) are tabulated over the
concatenation of their operands, matching the operand-merging convention of
the pLUTo compiler (``index = (left << right_bits) | right``).

Builders are memoized on their arguments (builder + operand bits +
parameters): tabulating a 256+-entry table walks nested Python loops, and
the library routines rebuild the same tables on every call otherwise.
:class:`LookupTable` is immutable, so sharing one instance is safe — and
it makes the compiled-program cache and the vectorized backend's gather
cache hit naturally, since equal LUT requests now return the *same*
object.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

from repro.core.lut import LookupTable, concat_binary_lut, lut_from_function, sequence_lut
from repro.errors import LUTError
from repro.utils.bitops import mask_of

__all__ = [
    "BITWISE_OPERATIONS",
    "identity_lut",
    "add_lut",
    "multiply_lut",
    "bitwise_lut",
    "bitcount_lut",
    "binarize_lut",
    "color_grade_lut",
    "crc8_lut",
    "crc16_lut",
    "crc32_lut",
    "permutation_lut",
    "relu_lut",
    "quantize_lut",
]


@lru_cache(maxsize=None)
def identity_lut(bits: int) -> LookupTable:
    """LUT mapping every value to itself (used in tests and data movement)."""
    return lut_from_function(lambda x: x, bits, bits, name=f"identity{bits}")


@lru_cache(maxsize=None)
def add_lut(operand_bits: int) -> LookupTable:
    """Addition LUT for two ``operand_bits``-wide operands.

    The numerical result needs ``operand_bits + 1`` bits, but the stored
    element width equals the index width (``2 * operand_bits``) because the
    LUT element width must be at least the comparator width (footnote 5 of
    the paper); e.g. the 4-bit addition uses a 256-entry LUT with 8-bit
    elements.
    """
    return concat_binary_lut(
        lambda a, b: a + b,
        operand_bits,
        operand_bits,
        2 * operand_bits,
        name=f"add{operand_bits}",
    )


@lru_cache(maxsize=None)
def multiply_lut(operand_bits: int) -> LookupTable:
    """Multiplication LUT for two ``operand_bits``-wide operands."""
    return concat_binary_lut(
        lambda a, b: a * b,
        operand_bits,
        operand_bits,
        2 * operand_bits,
        name=f"mul{operand_bits}",
    )


#: Truth functions of the binary bitwise operations, taking the two
#: operands plus the operand width (for the complementing operations).
_BITWISE_FUNCTIONS: dict[str, Callable[[int, int, int], int]] = {
    "and": lambda a, b, bits: a & b,
    "or": lambda a, b, bits: a | b,
    "xor": lambda a, b, bits: a ^ b,
    "nand": lambda a, b, bits: (~(a & b)) & mask_of(bits),
    "nor": lambda a, b, bits: (~(a | b)) & mask_of(bits),
    "xnor": lambda a, b, bits: (~(a ^ b)) & mask_of(bits),
}

#: Binary bitwise operations every bitwise entry point accepts — derived
#: from the LUT builder's own function table, and validated against by
#: ``api_pluto_bitwise`` and ``api_pluto_bitwise_lut``, so the accepted
#: sets of the two session routines can never drift apart again.
BITWISE_OPERATIONS: frozenset[str] = frozenset(_BITWISE_FUNCTIONS)


@lru_cache(maxsize=None)
def bitwise_lut(operation: str, operand_bits: int = 1) -> LookupTable:
    """LUT for a bitwise operation over concatenated operands.

    The paper's "row-level bitwise logic" workload uses 4-entry LUTs
    (1-bit operands).
    """
    operation = operation.lower()
    function = _BITWISE_FUNCTIONS.get(operation)
    if function is None:
        raise LUTError(
            f"unsupported bitwise LUT operation {operation!r}; expected one of "
            f"{sorted(BITWISE_OPERATIONS)}"
        )
    return concat_binary_lut(
        lambda a, b: function(a, b, operand_bits),
        operand_bits,
        operand_bits,
        2 * operand_bits,
        name=f"{operation}{operand_bits}",
    )


@lru_cache(maxsize=None)
def bitcount_lut(bits: int) -> LookupTable:
    """Population-count LUT (the BC-4 / BC-8 workloads).

    The element width matches the index width so the LUT can be queried by
    a ``pluto_op`` directly (element width >= comparator width).
    """
    return lut_from_function(
        lambda x: bin(x).count("1"), bits, bits, name=f"bitcount{bits}"
    )


@lru_cache(maxsize=None)
def binarize_lut(threshold: int, bits: int = 8) -> LookupTable:
    """Image binarization LUT: 1 if the pixel exceeds ``threshold`` else 0.

    The paper binarizes 8-bit pixels against a 50 % threshold; the output is
    stored as an 8-bit element (0 or 255) so it remains a displayable image.
    """
    if not 0 <= threshold <= mask_of(bits):
        raise LUTError(f"threshold {threshold} outside the {bits}-bit pixel range")
    return lut_from_function(
        lambda x: mask_of(bits) if x > threshold else 0,
        bits,
        bits,
        name=f"binarize{bits}_t{threshold}",
    )


def color_grade_lut(
    curve: Callable[[float], float] | None = None, bits: int = 8
) -> LookupTable:
    """Colour-grading LUT: an 8-bit-to-8-bit tone curve (Final Cut style).

    The default curve is a smooth S-curve (gamma lift in the shadows, roll
    off in the highlights), the classic "cinematic" grade.  Caching is
    keyed on the tabulated values (not the curve callable's identity), so
    equal curves share one LookupTable even when passed as fresh lambdas.
    """
    full_scale = mask_of(bits)

    def _default_curve(x: float) -> float:
        # Smoothstep-based S-curve on normalised intensity.
        return x * x * (3.0 - 2.0 * x)

    curve = curve or _default_curve
    values = tuple(
        int(round(min(1.0, max(0.0, curve(x / full_scale))) * full_scale))
        for x in range(full_scale + 1)
    )
    return _color_grade_lut_cached(values, bits)


@lru_cache(maxsize=128)
def _color_grade_lut_cached(values: tuple[int, ...], bits: int) -> LookupTable:
    return LookupTable(
        values=values, index_bits=bits, element_bits=bits, name=f"colorgrade{bits}"
    )


# --------------------------------------------------------------------- #
# CRC byte tables (standard table-driven CRC, Hacker's Delight style)
# --------------------------------------------------------------------- #
def _crc_table(width: int, polynomial: int, reflected: bool) -> list[int]:
    table = []
    top_bit = 1 << (width - 1)
    for byte in range(256):
        if reflected:
            crc = byte
            for _ in range(8):
                crc = (crc >> 1) ^ (polynomial if crc & 1 else 0)
        else:
            crc = byte << (width - 8)
            for _ in range(8):
                crc = ((crc << 1) ^ polynomial) if crc & top_bit else (crc << 1)
            crc &= mask_of(width)
        table.append(crc & mask_of(width))
    return table


@lru_cache(maxsize=None)
def crc8_lut(polynomial: int = 0x07) -> LookupTable:
    """Byte-indexed CRC-8 table (SMBus polynomial by default)."""
    return LookupTable(
        values=tuple(_crc_table(8, polynomial, reflected=False)),
        index_bits=8,
        element_bits=8,
        name="crc8",
    )


@lru_cache(maxsize=None)
def crc16_lut(polynomial: int = 0x1021) -> LookupTable:
    """Byte-indexed CRC-16 table (CCITT polynomial by default)."""
    return LookupTable(
        values=tuple(_crc_table(16, polynomial, reflected=False)),
        index_bits=8,
        element_bits=16,
        name="crc16",
    )


@lru_cache(maxsize=None)
def crc32_lut(polynomial: int = 0xEDB88320) -> LookupTable:
    """Byte-indexed CRC-32 table (reflected IEEE 802.3 polynomial)."""
    return LookupTable(
        values=tuple(_crc_table(32, polynomial, reflected=True)),
        index_bits=8,
        element_bits=32,
        name="crc32",
    )


def permutation_lut(permutation: Sequence[int], bits: int = 8, name: str = "sbox") -> LookupTable:
    """Substitution-table LUT from an explicit permutation (VMPC S-box style)."""
    return _permutation_lut_cached(tuple(int(v) for v in permutation), bits, name)


@lru_cache(maxsize=128)
def _permutation_lut_cached(permutation: tuple[int, ...], bits: int, name: str) -> LookupTable:
    if len(permutation) != (1 << bits):
        raise LUTError(
            f"permutation length {len(permutation)} does not match {bits}-bit domain"
        )
    if sorted(permutation) != list(range(1 << bits)):
        raise LUTError("permutation must contain every value exactly once")
    return sequence_lut(list(permutation), bits, name=name)


# --------------------------------------------------------------------- #
# Quantized-neural-network LUTs (Section 9)
# --------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def relu_lut(bits: int = 8) -> LookupTable:
    """ReLU on two's-complement ``bits``-wide values."""
    sign_bit = 1 << (bits - 1)
    return lut_from_function(
        lambda x: 0 if x & sign_bit else x, bits, bits, name=f"relu{bits}"
    )


@lru_cache(maxsize=None)
def quantize_lut(input_bits: int, output_bits: int) -> LookupTable:
    """Requantization LUT: drop the least-significant bits of an accumulator."""
    if output_bits > input_bits:
        raise LUTError("cannot quantize to a wider format")
    shift = input_bits - output_bits
    return lut_from_function(
        lambda x: x >> shift, input_bits, input_bits, name=f"quant{input_bits}to{output_bits}"
    )
