"""The pLUTo Library (Section 6.2): LUT builders and high-level routines."""

from repro.api.handles import ApiCall, PlutoVector
from repro.api.luts import (
    BITWISE_OPERATIONS,
    add_lut,
    binarize_lut,
    bitcount_lut,
    bitwise_lut,
    color_grade_lut,
    crc8_lut,
    crc16_lut,
    crc32_lut,
    identity_lut,
    multiply_lut,
    permutation_lut,
    quantize_lut,
    relu_lut,
)
from repro.api.service import PlutoService, ServedResult, ServiceStats
from repro.api.session import (
    PlutoSession,
    cache_stats,
    clear_all_caches,
    program_structure_key,
)

__all__ = [
    "ApiCall",
    "PlutoVector",
    "BITWISE_OPERATIONS",
    "PlutoSession",
    "PlutoService",
    "ServedResult",
    "ServiceStats",
    "program_structure_key",
    "cache_stats",
    "clear_all_caches",
    "add_lut",
    "binarize_lut",
    "bitcount_lut",
    "bitwise_lut",
    "color_grade_lut",
    "crc8_lut",
    "crc16_lut",
    "crc32_lut",
    "identity_lut",
    "multiply_lut",
    "permutation_lut",
    "quantize_lut",
    "relu_lut",
]
