"""LUT composition: the algebra behind LUT-chain fusion.

pLUTo computation is table lookup, so element-wise operations are closed
under composition: if ``t = f(x)`` and ``y = g(t)`` are both LUT queries,
then ``y = (g o f)(x)`` is *also* a LUT query — over ``f``'s index
domain, with ``g``'s element width — and the composed table is built at
compile time by evaluating ``g`` over ``f``'s entries.  For the 8-bit
domains the paper evaluates this is a 256-entry host-side gather; the
row sweep the intermediate would have cost in DRAM disappears entirely.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.lut import LookupTable
from repro.utils.memo import register_lru_cache

__all__ = [
    "can_compose",
    "compose_luts",
    "MAX_COMPOSE_ENTRIES",
]

#: Largest inner-LUT domain composed eagerly.  Every LUT that fits a
#: subarray (<= rows_per_subarray entries, typically 512) is far below
#: this; the bound only guards against pathological synthetic tables.
MAX_COMPOSE_ENTRIES = 1 << 16


def can_compose(inner: LookupTable, outer: LookupTable) -> bool:
    """Whether ``outer[inner[i]]`` is defined for every entry of ``inner``.

    Requires every inner element to be a valid outer index and a
    tractable inner domain (:data:`MAX_COMPOSE_ENTRIES`).
    """
    if inner.num_entries > MAX_COMPOSE_ENTRIES:
        return False
    return max(inner.values) < outer.num_entries


@lru_cache(maxsize=4096)
def compose_luts(inner: LookupTable, outer: LookupTable) -> LookupTable:
    """The composed table ``(outer o inner)``: index with ``inner``'s domain.

    ``LookupTable`` is frozen, so compositions are memoized on the pair —
    a fused chain appearing in a million served requests composes its
    tables once.  The composed name records the provenance for traces.
    """
    values = tuple(outer.values[value] for value in inner.values)
    return LookupTable(
        values=values,
        index_bits=inner.index_bits,
        element_bits=outer.element_bits,
        name=f"fuse({inner.name},{outer.name})",
    )


register_lru_cache("lut_compositions", compose_luts)
