"""pLUTo reproduction: LUT-based Processing-using-Memory in DRAM.

This package is a behavioural and analytical reproduction of

    "pLUTo: Enabling Massively Parallel Computation in DRAM via Lookup
    Tables" (Ferreira et al., MICRO 2022).

The public API is organised by subsystem:

``repro.dram``
    DRAM organisation, timing, energy, command traces and scheduling, and
    a functional (bit-accurate) model of a subarray.
``repro.inmem``
    Prior Processing-using-Memory primitives pLUTo builds on: Ambit bulk
    bitwise operations, DRISA shifting, and subarray-level parallelism.
    RowClone and LISA-RBM have no functional unit of their own: the pLUTo
    Controller lowers an in-DRAM move to a LISA-RBM command, and Ambit's
    command counts include its RowClone copies.
``repro.circuit``
    The SPICE-substitute bitline circuit model used to reproduce the
    reliability study (Figure 6).
``repro.core``
    The pLUTo contribution itself: the three designs (BSA, GSA, GMC),
    the match logic, the pLUTo Row Sweep, the functional LUT-query
    engine, and the analytical throughput/energy/area models.
``repro.isa`` / ``repro.api`` / ``repro.compiler`` / ``repro.controller``
    The system-integration stack of Section 6.
``repro.opt``
    The program optimizer: a pass pipeline (LUT-chain fusion, common
    subexpression elimination, dead-op elimination, LUT deduplication)
    that rewrites recorded API programs before compilation with
    bit-identical outputs and strictly fewer row sweeps.
``repro.backend``
    Pluggable execution backends for compiled programs: the bit-exact
    subarray row-sweep path and the vectorized NumPy fast path, both
    producing identical command traces.
``repro.baselines``
    Analytical CPU, GPU, FPGA, PnM, SIMDRAM, Ambit, DRISA, and LAcc
    models used for the comparative evaluation.
``repro.workloads`` / ``repro.nn``
    The eleven evaluated workloads and the quantized LeNet-5 case study.
``repro.evaluation``
    One experiment class per paper figure/table.
"""

from repro.version import __version__

__all__ = ["__version__"]
