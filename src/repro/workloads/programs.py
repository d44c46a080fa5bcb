"""Recorded API programs for the registry workload families.

The workloads of Table 4 are characterised analytically through
:class:`~repro.core.recipe.WorkloadRecipe`; this module additionally
expresses one representative *pipeline* per family as a recorded
:class:`~repro.api.session.PlutoSession` program, so the execution stack
— and in particular the program optimizer (:mod:`repro.opt`) — can run
them end to end.  Each pipeline uses the family's own tables (CRC byte
tables, the VMPC permutation, tone curves, population counts, nibble
adders) arranged the way applications chain them, which is exactly where
LUT-chain fusion, CSE, and dead-op elimination pay off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.api.luts import (
    binarize_lut,
    bitcount_lut,
    color_grade_lut,
    crc8_lut,
    permutation_lut,
    relu_lut,
)
from repro.api.session import PlutoSession
from repro.core.lut import lut_from_function
from repro.workloads.vmpc import vmpc_ksa

__all__ = ["WorkloadProgram", "optimizer_workload_programs", "workload_program"]


@dataclass(frozen=True)
class WorkloadProgram:
    """One recorded workload pipeline: session, inputs, and provenance."""

    name: str
    family: str
    session: PlutoSession
    inputs: dict[str, np.ndarray]
    description: str


def _image_pipeline(elements: int, rng: np.random.Generator) -> WorkloadProgram:
    """Grade -> binarize -> invert: the ImgBin/ColorGrade chain."""
    session = PlutoSession()
    pixels = session.pluto_malloc(elements, 8, "pixels")
    graded = session.pluto_malloc(elements, 8, "graded")
    mask = session.pluto_malloc(elements, 8, "mask")
    inverted = session.pluto_malloc(elements, 8, "inverted")
    invert = lut_from_function(lambda x: x ^ 0xFF, 8, 8, name="invert8")
    session.api_pluto_map(color_grade_lut(), pixels, graded)
    session.api_pluto_map(binarize_lut(127), graded, mask)
    session.api_pluto_map(invert, mask, inverted)
    return WorkloadProgram(
        name="image",
        family="ImgBin/ColorGrade",
        session=session,
        inputs={"pixels": rng.integers(0, 256, elements, dtype=np.uint64)},
        description="tone grade -> threshold -> invert, three chained 256-entry maps",
    )


def _crc_chain(elements: int, rng: np.random.Generator) -> WorkloadProgram:
    """Table-driven CRC-8 over zero-extended messages: iterated byte table."""
    session = PlutoSession()
    data = session.pluto_malloc(elements, 8, "data")
    crc1 = session.pluto_malloc(elements, 8, "crc1")
    crc2 = session.pluto_malloc(elements, 8, "crc2")
    crc3 = session.pluto_malloc(elements, 8, "crc3")
    table = crc8_lut()
    # crc of (byte, 0, 0): table[table[table[b]]] — the standard update
    # with zero feed-in bytes is a pure table chain.
    session.api_pluto_map(table, data, crc1)
    session.api_pluto_map(table, crc1, crc2)
    session.api_pluto_map(table, crc2, crc3)
    return WorkloadProgram(
        name="crc",
        family="CRC-8",
        session=session,
        inputs={"data": rng.integers(0, 256, elements, dtype=np.uint64)},
        description="three chained CRC-8 byte-table updates (zero-padded message)",
    )


def _salsa20_round(elements: int, rng: np.random.Generator) -> WorkloadProgram:
    """One byte-lane of a quarter-round: LUT add, rotate, xor, substitute."""
    session = PlutoSession()
    key_lo = session.pluto_malloc(elements, 4, "key_lo")
    nonce_lo = session.pluto_malloc(elements, 4, "nonce_lo")
    plain = session.pluto_malloc(elements, 8, "plain")
    added = session.pluto_malloc(elements, 8, "added")
    rotated = session.pluto_malloc(elements, 8, "rotated")
    mixed = session.pluto_malloc(elements, 8, "mixed")
    added_again = session.pluto_malloc(elements, 8, "added_again")
    rotated_again = session.pluto_malloc(elements, 8, "rotated_again")
    keystream = session.pluto_malloc(elements, 8, "keystream")
    cipher = session.pluto_malloc(elements, 8, "cipher")
    rotl = lut_from_function(
        lambda x: ((x << 3) | (x >> 5)) & 0xFF, 8, 8, name="rotl3"
    )
    # z = rotl(a + b); the nibble add's sums (<= 30) index the rotate
    # table directly, so the optimizer folds add+rotl into one query.
    session.api_pluto_add(key_lo, nonce_lo, added, bit_width=4)
    session.api_pluto_map(rotl, added, rotated)
    session.api_pluto_bitwise("xor", rotated, plain, mixed)
    # The second quarter-round recomputes the same lane sum (CSE food).
    session.api_pluto_add(key_lo, nonce_lo, added_again, bit_width=4)
    session.api_pluto_map(rotl, added_again, rotated_again)
    session.api_pluto_bitwise("xor", rotated_again, mixed, keystream)
    session.api_pluto_bitwise("xor", keystream, plain, cipher)
    return WorkloadProgram(
        name="salsa20",
        family="Salsa20",
        session=session,
        inputs={
            "key_lo": rng.integers(0, 16, elements, dtype=np.uint64),
            "nonce_lo": rng.integers(0, 16, elements, dtype=np.uint64),
            "plain": rng.integers(0, 256, elements, dtype=np.uint64),
        },
        description="byte lane of two quarter-rounds: add-rotate-xor with a "
        "repeated lane sum",
    )


def _vmpc_substitution(elements: int, rng: np.random.Generator) -> WorkloadProgram:
    """VMPC's nested permutation lookups P[P[P[x]]] (one output byte)."""
    permutation, _ = vmpc_ksa(bytes(range(16)), bytes(range(8)))
    sbox = permutation_lut(permutation, 8, name="vmpc-p")
    session = PlutoSession()
    state = session.pluto_malloc(elements, 8, "state")
    first = session.pluto_malloc(elements, 8, "first")
    second = session.pluto_malloc(elements, 8, "second")
    third = session.pluto_malloc(elements, 8, "third")
    session.api_pluto_map(sbox, state, first)
    session.api_pluto_map(sbox, first, second)
    session.api_pluto_map(sbox, second, third)
    return WorkloadProgram(
        name="vmpc",
        family="VMPC",
        session=session,
        inputs={"state": rng.integers(0, 256, elements, dtype=np.uint64)},
        description="three nested VMPC permutation lookups",
    )


def _bitcount_threshold(elements: int, rng: np.random.Generator) -> WorkloadProgram:
    """BC-8 population count followed by a majority threshold."""
    session = PlutoSession()
    words = session.pluto_malloc(elements, 8, "words")
    counts = session.pluto_malloc(elements, 8, "counts")
    majority = session.pluto_malloc(elements, 8, "majority")
    threshold = lut_from_function(
        lambda x: 1 if x >= 4 else 0, 8, 8, name="majority8"
    )
    session.api_pluto_map(bitcount_lut(8), words, counts)
    session.api_pluto_map(threshold, counts, majority)
    return WorkloadProgram(
        name="bitcount",
        family="BC-8",
        session=session,
        inputs={"words": rng.integers(0, 256, elements, dtype=np.uint64)},
        description="population count chained into a majority threshold",
    )


def _vector_add_relu(elements: int, rng: np.random.Generator) -> WorkloadProgram:
    """ADD4 into a ReLU activation (the QNN accumulate-activate idiom)."""
    session = PlutoSession()
    a = session.pluto_malloc(elements, 4, "a")
    b = session.pluto_malloc(elements, 4, "b")
    total = session.pluto_malloc(elements, 8, "sum")
    activated = session.pluto_malloc(elements, 8, "activated")
    session.api_pluto_add(a, b, total, bit_width=4)
    session.api_pluto_map(relu_lut(8), total, activated)
    return WorkloadProgram(
        name="vector_ops",
        family="ADD4",
        session=session,
        inputs={
            "a": rng.integers(0, 16, elements, dtype=np.uint64),
            "b": rng.integers(0, 16, elements, dtype=np.uint64),
        },
        description="LUT addition folded into its ReLU activation",
    )


_BUILDERS: dict[str, Callable[[int, np.random.Generator], WorkloadProgram]] = {
    "image": _image_pipeline,
    "crc": _crc_chain,
    "salsa20": _salsa20_round,
    "vmpc": _vmpc_substitution,
    "bitcount": _bitcount_threshold,
    "vector_ops": _vector_add_relu,
}


def workload_program(
    name: str, elements: int = 4096, seed: int = 0
) -> WorkloadProgram:
    """Build one named workload pipeline with deterministic inputs."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload program {name!r}; expected one of "
            f"{sorted(_BUILDERS)}"
        ) from None
    return builder(elements, np.random.default_rng(seed))


def optimizer_workload_programs(
    elements: int = 4096, seed: int = 0
) -> list[WorkloadProgram]:
    """Every registry family's pipeline (the optimizer-gain corpus)."""
    return [workload_program(name, elements, seed) for name in _BUILDERS]
