"""Prior Processing-using-Memory primitives that pLUTo builds on.

These are the enhanced-DRAM mechanisms of Section 2.2:

* :mod:`repro.inmem.ambit` — Ambit bulk bitwise MAJ/AND/OR/NOT.
* :mod:`repro.inmem.drisa` — DRISA intra-row bit/byte shifting.
* :mod:`repro.inmem.salp` — MASA-style subarray-level parallelism.

RowClone-FPM row copies and LISA-RBM row-buffer movement have no
functional unit here: the command ROM (:mod:`repro.controller.rom`)
lowers an in-DRAM move to a ``LISA_RBM`` command, Ambit's command counts
include its RowClone copies, and :mod:`repro.dram.commands` prices both
command kinds.
"""

from repro.inmem.ambit import AmbitUnit
from repro.inmem.drisa import DrisaShifter
from repro.inmem.salp import salp_speedup

__all__ = [
    "AmbitUnit",
    "DrisaShifter",
    "salp_speedup",
]
