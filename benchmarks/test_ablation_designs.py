"""Ablation benchmarks for pLUTo's design choices.

These are not paper figures; they quantify the cost of individual design
decisions so the trade-offs of Section 5 can be inspected directly:

* GSA's destructive reads (per-query LUT reloads) as a function of LUT size.
* Bit-parallel LUT multiplication vs. SIMDRAM-style bit-serial execution.
* The latency penalty of interleaved precharges (BSA) vs. gated designs.
"""

from repro.baselines.prior_pum import SIMDRAM
from repro.core.analytical import PlutoCostModel
from repro.core.designs import PlutoDesign
from repro.dram.energy import DDR4_ENERGY
from repro.dram.timing import DDR4_2400


def _model() -> PlutoCostModel:
    return PlutoCostModel(DDR4_2400, DDR4_ENERGY, 8192, rows_per_subarray=512)


def test_ablation_gsa_reload_overhead(benchmark):
    """How much of GSA's query latency is the destructive-read reload?"""

    def run():
        model = _model()
        overheads = {}
        for entries in (16, 64, 256, 512):
            gsa = model.query_latency_ns(PlutoDesign.GSA, entries)
            sweep_only = model.sweep_latency_ns(PlutoDesign.GSA, entries)
            overheads[entries] = (gsa - sweep_only) / gsa
        return overheads

    overheads = benchmark(run)
    # The reload overhead dominates (>= half the query) at every LUT size.
    assert all(fraction > 0.45 for fraction in overheads.values())


def test_ablation_precharge_elimination(benchmark):
    """GMC's back-to-back activations halve the sweep latency vs. BSA."""

    def run():
        model = _model()
        return {
            entries: model.sweep_latency_ns(PlutoDesign.BSA, entries)
            / model.sweep_latency_ns(PlutoDesign.GMC, entries)
            for entries in (64, 256, 512)
        }

    ratios = benchmark(run)
    for ratio in ratios.values():
        assert 1.7 < ratio <= 2.1


def test_ablation_bit_parallel_vs_bit_serial_multiplication(benchmark):
    """pLUTo's LUT multiplication vs. SIMDRAM's bit-serial latency."""

    def run():
        model = _model()
        results = {}
        for bits in (2, 4, 8):
            nibbles = max(1, -(-bits // 4))
            sweeps = 2 * nibbles * nibbles - 1
            pluto = sweeps * model.query_latency_ns(PlutoDesign.BSA, 256)
            results[bits] = SIMDRAM.multiplication_latency_ns(bits) / pluto
        return results

    ratios = benchmark(run)
    # The bit-serial penalty grows with operand width (quadratic ACT count).
    assert ratios[4] > 1.0
    assert ratios[8] > ratios[2] * 0.5
