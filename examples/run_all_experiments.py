"""Regenerate every figure and table of the paper's evaluation.

Runs the full evaluation harness (Figures 6-14 and Tables 1, 5, 6, 7),
prints each reproduced result, and rewrites ``EXPERIMENTS.md`` with the
paper-reported versus measured values.

Run with:  python examples/run_all_experiments.py [--scale 0.25] [--output EXPERIMENTS.md]
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from repro.evaluation import (
    figure06_bitline_reliability,
    figure07_speedup_over_cpu,
    figure08_speedup_per_area,
    figure09_speedup_over_fpga,
    figure10_energy_over_cpu,
    figure11_lut_loading,
    figure12_scalability,
    figure12_sharded_scaling,
    figure13_sharded_tfaw,
    figure_auto_planner,
    figure_execution_tiers,
    figure_hierarchy_scaling,
    figure_latency_breakdown,
    figure_optimizer_gains,
    figure_static_verification,
    figure_worker_scaling,
    figure13_tfaw_sensitivity,
    figure14_salp_scaling,
    render_markdown_table,
    render_result,
    table01_design_comparison,
    table05_area_breakdown,
    table06_prior_pum_comparison,
    table07_qnn_inference,
)

#: Paper-reported headline numbers used for the comparison column.
PAPER_HEADLINES = {
    "Figure 7": (
        "pLUTo-GSA/BSA/GMC speedups over CPU: 357x / 713x / 1413x (GMEAN); "
        "GPU ~ BSA/1.2; PnM ~ BSA/18"
    ),
    "Figure 8": (
        "All pLUTo designs beat CPU and GPU per unit area; "
        "3DS variants most area-efficient"
    ),
    "Figure 9": "pLUTo-GSA/BSA/GMC outperform the FPGA by 160x / 274x / 459x (GMEAN)",
    "Figure 10": "pLUTo-GSA/BSA/GMC save 1362x / 1855x / 3071x energy vs CPU; ~29-65x vs GPU",
    "Figure 11": (
        "LUT load time equals query time at ~1.9 MB (DDR4); ~2% of time at 120 MB"
    ),
    "Figure 12": (
        "High throughput / low energy for small LUTs; "
        "pLUTo beats PnM below ~8-bit precision"
    ),
    "Figure 12 (sharded)": (
        "Bank-parallel makespan falls with shard count; "
        "sublinear from replicated LUT loads"
    ),
    "Figure 13": "~10% performance loss at tFAW=50%, ~20% at nominal tFAW",
    "Figure 13 (sharded)": "Tight tFAW windows throttle 16-bank sharded execution",
    "Figure 14": "Speedup scales ~linearly with subarray-level parallelism",
    "Hierarchy scaling": (
        "(beyond the paper) Channel/rank/bank levels compose "
        "multiplicatively once tFAW binds within a rank"
    ),
    "Optimizer gains": (
        "(beyond the paper) LUT chains are closed under composition, so "
        "fusion/CSE/DCE cut executed row sweeps with bit-identical outputs"
    ),
    "Auto-planner gains": (
        "(beyond the paper) The cost-based planner prices shard counts, "
        "placements, and optimizer from the analytic makespan model "
        "and matches the best static configuration exactly (zero "
        "predicted-vs-measured error, bit-identical outputs)"
    ),
    "Execution tiers": (
        "(beyond the paper) Whole-program compiled closures remove the "
        "per-instruction Python dispatch of the simulator (>=5x over the "
        "interpreted walk on serving programs, bit-identical outputs)"
    ),
    "Worker scaling": (
        "(beyond the paper) A dispatcher with structure-key affinity "
        "routing spreads the six program families across worker "
        "processes; modelled device throughput scales near-linearly "
        "(>=2x at 4 workers, gated in benchmarks/) and the shared "
        "artifact store warm-starts fresh workers to hot-path latency"
    ),
    "Latency breakdown": (
        "(beyond the paper) End-to-end tracing splits every served "
        "request's wall-clock into submit / queue-wait / execute spans and "
        "attributes modelled DRAM commands, energy (pJ), and refresh "
        "overhead to each request; tracing overhead is gated <5% in "
        "benchmarks/test_obs_overhead.py"
    ),
    "Static verification": (
        "(beyond the paper) Every registry workload verifies clean — zero "
        "errors, zero warnings — both as recorded and after the optimizer "
        "pipeline; regenerate with `python -m repro.analyze --all-workloads`"
    ),
    "Table 1": "GMC fastest & most efficient, GSA smallest area, BSA balanced",
    "Table 5": "Area overheads: +10.2% (GSA), +16.7% (BSA), +23.1% (GMC)",
    "Table 6": (
        "pLUTo-BSA matches/beats prior PuM on bitwise ops and wins complex ops; "
        "only pLUTo supports LUT queries"
    ),
    "Table 7": "pLUTo-BSA beats CPU 10-30x, GPU 2-7x, FPGA 6-19x in inference time",
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.25,
                        help="input-size scale factor for the CPU-relative figures")
    parser.add_argument("--output", type=Path, default=Path("EXPERIMENTS.md"))
    arguments = parser.parse_args()
    scale = arguments.scale

    experiments = [
        lambda: figure06_bitline_reliability(),
        lambda: figure07_speedup_over_cpu(scale),
        lambda: figure08_speedup_per_area(scale),
        lambda: figure09_speedup_over_fpga(max(scale, 0.5)),
        lambda: figure10_energy_over_cpu(scale),
        lambda: figure11_lut_loading(),
        lambda: figure12_scalability(),
        lambda: figure12_sharded_scaling(),
        lambda: figure13_tfaw_sensitivity(scale=scale),
        lambda: figure13_sharded_tfaw(),
        lambda: figure14_salp_scaling(scale=1.0),
        lambda: figure_hierarchy_scaling(),
        lambda: figure_optimizer_gains(),
        lambda: figure_auto_planner(),
        lambda: figure_execution_tiers(),
        lambda: figure_static_verification(),
        lambda: figure_worker_scaling(),
        lambda: figure_latency_breakdown(),
        lambda: table01_design_comparison(),
        lambda: table05_area_breakdown(),
        lambda: table06_prior_pum_comparison(),
        lambda: table07_qnn_inference(),
    ]

    results = []
    timings: dict[str, float] = {}
    total_start = time.perf_counter()
    for experiment in experiments:
        start = time.perf_counter()
        result = experiment()
        elapsed = time.perf_counter() - start
        timings[result.name] = elapsed
        print(f"[{result.name}] regenerated in {elapsed:.2f} s")
        results.append(result)
    total_elapsed = time.perf_counter() - total_start
    print(f"[all] {len(results)} experiments regenerated in {total_elapsed:.2f} s")

    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Generated by `examples/run_all_experiments.py`.",
        "",
        "Every figure and table of the paper's evaluation is regenerated by the",
        "analytical/functional models in this repository.  Absolute numbers differ",
        "from the paper (our baselines are first-order roofline models rather than",
        "measured hardware, and our CPU baseline is more optimistic than the paper's",
        "measured CPU implementations), but the orderings and rough factors the paper",
        "argues from are preserved; the benchmark suite under `benchmarks/` asserts",
        "them on every run.  Known deviations: (1) CPU-normalised speedups and energy",
        "savings are ~4-8x smaller than the paper's because of the baseline",
        "calibration above; (2) Figure 12b shows SIMDRAM closer to pLUTo than the",
        "paper does because we do not charge SIMDRAM for bit-layout transposition;",
        "(3) the tFAW penalty in Figure 13 is larger than the paper's ~20%.",
        "",
    ]
    for result in results:
        print(render_result(result))
        lines.append(f"## {result.name} — {result.description}")
        lines.append("")
        headline = PAPER_HEADLINES.get(result.name)
        if headline:
            lines.append(f"**Paper:** {headline}")
            lines.append("")
        lines.append(f"**Measured** (regenerated in {timings[result.name]:.2f} s):")
        lines.append("")
        lines.append(render_markdown_table(result.rows))
        lines.append("")

    arguments.output.write_text("\n".join(lines))
    print(f"wrote {arguments.output}")


if __name__ == "__main__":
    main()
