"""Tests for the evaluation harness and the figure/table reproductions.

These assertions encode the paper's qualitative claims — who wins, in what
order, by roughly what factor — rather than exact values, since the
substrate is an analytical model rather than the authors' testbed.
"""

from __future__ import annotations

import pytest

from repro.evaluation.figures import (
    figure06_bitline_reliability,
    figure07_speedup_over_cpu,
    figure08_speedup_per_area,
    figure09_speedup_over_fpga,
    figure10_energy_over_cpu,
    figure11_lut_loading,
    figure12_scalability,
    figure13_tfaw_sensitivity,
    figure14_salp_scaling,
    figure_latency_breakdown,
    figure_static_verification,
)
from repro.evaluation.harness import EvaluationHarness, default_pluto_configs
from repro.evaluation.reporting import format_rows, render_markdown_table, render_result
from repro.evaluation.tables import (
    table01_design_comparison,
    table05_area_breakdown,
    table06_prior_pum_comparison,
    table07_qnn_inference,
)
from repro.workloads.image import ImageBinarization

#: Scale factor that keeps the CPU-relative figures fast in CI while
#: preserving the asymptotic behaviour (inputs are still >> one DRAM row).
SCALE = 0.05


@pytest.fixture(scope="module")
def fig07():
    return figure07_speedup_over_cpu(scale=SCALE)


class TestHarness:
    def test_default_configs_cover_six_points(self):
        configs = default_pluto_configs()
        assert len(configs) == 6
        assert "pLUTo-BSA" in configs and "pLUTo-GMC-3DS" in configs

    def test_workload_result_consistency(self):
        harness = EvaluationHarness()
        result = harness.evaluate(ImageBinarization(), 1 << 20)
        assert result.cpu.latency_ns > 0
        assert result.speedup_over_cpu("pLUTo-BSA") > 1
        assert result.energy_saving_over_cpu("pLUTo-BSA") > 1
        assert result.pluto_latency_ns("pLUTo-BSA") >= result.pluto["pLUTo-BSA"].total_latency_ns


class TestFigure6:
    def test_all_designs_reliable(self):
        result = figure06_bitline_reliability(runs=30)
        assert len(result.rows) == 4
        assert all(row["all_settled"] for row in result.rows)
        assert all(row["max_disturbance_fraction"] <= 0.01 for row in result.rows)


class TestFigure7:
    def test_design_ordering(self, fig07):
        gmean = fig07.rows[-1]
        assert gmean["workload"] == "GMEAN"
        # GMC > BSA > GSA, and every design beats the CPU by a wide margin.
        assert gmean["pLUTo-GMC"] > gmean["pLUTo-BSA"] > gmean["pLUTo-GSA"] > 10
        assert gmean["pLUTo-BSA"] > 50

    def test_3ds_outperforms_ddr4(self, fig07):
        gmean = fig07.rows[-1]
        for design in ("pLUTo-GSA", "pLUTo-BSA", "pLUTo-GMC"):
            assert gmean[f"{design}-3DS"] > gmean[design]

    def test_pluto_comparable_to_gpu_and_beats_pnm(self, fig07):
        gmean = fig07.rows[-1]
        assert gmean["pLUTo-BSA"] > 0.5 * gmean["GPU"]
        assert gmean["pLUTo-BSA"] > 5 * gmean["PnM"]

    def test_crc_shows_smallest_benefit(self, fig07):
        by_name = {row["workload"]: row for row in fig07.rows}
        crc = by_name["CRC-8"]["pLUTo-BSA"]
        assert crc <= by_name["ImgBin"]["pLUTo-BSA"]
        assert crc <= by_name["VMPC"]["pLUTo-BSA"]


class TestFigure8:
    def test_pluto_dominates_per_area(self):
        result = figure08_speedup_per_area(scale=SCALE)
        gmean = result.rows[-1]
        for design in ("pLUTo-GSA", "pLUTo-BSA", "pLUTo-GMC"):
            assert gmean[design] > gmean["GPU"]
            assert gmean[f"{design}-3DS"] > gmean[design]


class TestFigure9:
    # Figure 9 needs inputs large enough to amortise the one-time LUT load
    # (especially ADD8's partitioned 65,536-entry LUT), so it uses a larger
    # scale than the CPU-relative figures.
    def test_pluto_beats_fpga_everywhere(self):
        result = figure09_speedup_over_fpga(scale=0.5)
        for row in result.rows:
            assert row["pLUTo-BSA"] > 1

    def test_large_bit_width_has_smallest_gain(self):
        result = figure09_speedup_over_fpga(scale=0.5)
        by_name = {row["workload"]: row for row in result.rows}
        assert by_name["MUL16"]["pLUTo-BSA"] < by_name["BC4"]["pLUTo-BSA"]
        assert by_name["ADD8"]["pLUTo-BSA"] < by_name["ADD4"]["pLUTo-BSA"]


class TestFigure10:
    def test_energy_savings_ordering(self):
        result = figure10_energy_over_cpu(scale=SCALE)
        gmean = result.rows[-1]
        assert gmean["pLUTo-GMC"] > gmean["pLUTo-BSA"] > gmean["pLUTo-GSA"] > 10
        assert gmean["pLUTo-BSA"] > gmean["GPU"]


class TestFigure11:
    def test_loading_fraction_decreases_with_volume(self):
        result = figure11_lut_loading()
        ddr4 = [row for row in result.rows if row["source"] == "DDR4"]
        fractions = [row["load_fraction"] for row in ddr4]
        assert all(b <= a for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] < 0.05

    def test_ssd_loading_costs_more_than_dram(self):
        result = figure11_lut_loading(volumes_mb=(10,))
        by_source = {row["source"]: row["load_fraction"] for row in result.rows}
        assert by_source["SSD"] > by_source["DDR4"]

    def test_break_even_near_two_megabytes(self):
        """The paper reports load time == query time at ~1.9 MB (DDR4)."""
        result = figure11_lut_loading(volumes_mb=(1.9,))
        ddr4 = [row for row in result.rows if row["source"] == "DDR4"][0]
        assert 0.35 < ddr4["load_fraction"] < 0.65


class TestFigure12:
    def test_throughput_drops_with_lut_size(self):
        result = figure12_scalability()
        panel_a = [row for row in result.rows if row["panel"] == "a"]
        small = panel_a[0]
        large = panel_a[-1]
        for design in ("pLUTo-BSA", "pLUTo-GSA", "pLUTo-GMC"):
            assert small[f"{design}_throughput"] > large[f"{design}_throughput"]
            assert small[f"{design}_energy_j"] < large[f"{design}_energy_j"]

    def test_pluto_comparable_to_simdram_for_small_multiplications(self):
        """Table 6 reports near-parity energy efficiency for pLUTo-BSA vs.
        SIMDRAM on small-bit-width arithmetic; our first-order model lands
        within a small factor: ``figure12_scalability``'s panel b prices
        SIMDRAM with ``SIMDRAM.multiplication_energy_nj``
        (``repro.baselines.prior_pum``), which counts AAPs only and
        charges no layout transposition."""
        result = figure12_scalability()
        panel_b = {row["bit_width"]: row for row in result.rows if row["panel"] == "b"}
        ratio = panel_b[4]["pLUTo-BSA_ops_per_j"] / panel_b[4]["SIMDRAM_ops_per_j"]
        assert ratio > 0.25

    def test_pluto_beats_pnm_at_low_precision_only(self):
        result = figure12_scalability()
        panel_b = {row["bit_width"]: row for row in result.rows if row["panel"] == "b"}
        assert panel_b[4]["pLUTo-BSA_ops_per_j"] > panel_b[4]["PnM_ops_per_j"]
        assert panel_b[32]["pLUTo-BSA_ops_per_j"] < panel_b[32]["PnM_ops_per_j"]


class TestFigure13:
    def test_throttling_monotonic(self):
        result = figure13_tfaw_sensitivity(scale=SCALE)
        gmeans = {
            row["tfaw_fraction"]: row["relative_performance"]
            for row in result.rows
            if row["workload"] == "GMEAN"
        }
        assert gmeans[0.0] == pytest.approx(1.0)
        assert gmeans[1.0] <= gmeans[0.5] <= gmeans[0.0]
        assert gmeans[1.0] > 0.4  # pLUTo remains useful under nominal tFAW


class TestStaticVerification:
    def test_registry_verifies_clean_at_both_stages(self):
        """Every registry family must be diagnostic-free, both as recorded
        and after the optimizer rewrites it (the table that
        ``examples/run_all_experiments.py --output <file>`` writes)."""
        result = figure_static_verification(elements=256)
        stages = {(row["workload"], row["stage"]) for row in result.rows}
        assert all(row["clean"] for row in result.rows), result.rows
        assert all(row["errors"] == 0 == row["warnings"] for row in result.rows)
        assert len(stages) == len(result.rows)  # one row per (family, stage)
        assert {stage for _, stage in stages} == {"recorded", "optimized"}


class TestLatencyBreakdown:
    def test_six_families_with_stages_and_energy(self):
        """One row per workload family; every row carries positive stage
        durations and a positive energy attribution (the latency-breakdown
        table that ``examples/run_all_experiments.py --output <file>``
        writes)."""
        result = figure_latency_breakdown(elements=256, requests=2)
        assert [row["workload"] for row in result.rows] == [
            "image", "crc", "salsa20", "vmpc", "bitcount", "vector_ops",
        ]
        for row in result.rows:
            assert row["submit_ns"] > 0.0
            assert row["execute_ns"] > 0.0
            assert row["queue_wait_ns"] >= 0.0
            assert row["modelled_latency_ns"] > 0.0
            assert row["energy_pj"] > 0.0
            assert row["dram_commands"] > 0
            assert 0.0 <= row["refresh_overhead_fraction"] < 1.0

    def test_tracing_state_is_restored(self):
        from repro.obs.trace import tracing_enabled

        before = tracing_enabled()
        figure_latency_breakdown(elements=256, requests=1)
        assert tracing_enabled() == before


class TestFigure14:
    def test_scaling_with_subarrays(self):
        """Speedup grows close to linearly with subarray-level parallelism
        provided the queried input is large enough (Section 8.8)."""
        result = figure14_salp_scaling(
            ddr4_subarrays=(1, 16, 256), threeds_subarrays=(512,), scale=1.0
        )
        ddr4_rows = [row for row in result.rows if row["memory"] == "DDR4"]
        speedups = [row["pLUTo-BSA"] for row in ddr4_rows]
        assert speedups[1] > 6 * speedups[0]
        assert speedups[2] > 3 * speedups[1]


class TestTables:
    def test_table1_orderings(self):
        result = table01_design_comparison()
        rows = {row["design"]: row for row in result.rows}
        assert rows["pLUTo-GMC"]["query_latency_ns"] < rows["pLUTo-BSA"]["query_latency_ns"]
        assert rows["pLUTo-GSA"]["query_latency_ns"] > rows["pLUTo-BSA"]["query_latency_ns"]
        assert rows["pLUTo-GSA"]["destructive_reads"]

    def test_table5_totals(self):
        result = table05_area_breakdown()
        totals = {row["configuration"]: row["Total"] for row in result.rows}
        assert totals["Base DRAM"] == pytest.approx(70.23, abs=0.1)
        overheads = {row["configuration"]: row["Overhead"] for row in result.rows}
        assert overheads["pLUTo-GSA"] == pytest.approx(0.102, abs=0.01)
        assert overheads["pLUTo-GMC"] == pytest.approx(0.231, abs=0.01)

    def test_table6_pluto_wins_complex_ops(self):
        result = table06_prior_pum_comparison()
        by_op = {row["operation"]: row for row in result.rows}
        # pLUTo multiplication is far faster than every prior PuM design.
        mul = by_op["4-bit Multiplication"]
        assert mul["pLUTo-BSA"] < mul["SIMDRAM"] < mul["Ambit"]
        # LUT-query rows are unsupported ('None') for every prior design.
        lut_row = by_op["8-bit Exponentiation"]
        assert lut_row["Ambit"] is None and lut_row["pLUTo-BSA"] is not None
        # Bit counting is supported by SIMDRAM but not LAcc.
        bc4 = by_op["4-bit Bit Counting"]
        assert bc4["LAcc"] is None and bc4["SIMDRAM"] is not None

    def test_table6_addition_not_a_pluto_win(self):
        """The paper notes pLUTo slightly lags prior PuM for 4-bit addition."""
        result = table06_prior_pum_comparison()
        add = {row["operation"]: row for row in result.rows}["4-bit Addition"]
        assert add["pLUTo-BSA"] > add["LAcc"]

    def test_table7_structure(self):
        result = table07_qnn_inference()
        assert len(result.rows) == 8
        systems = {row["system"] for row in result.rows}
        assert systems == {"CPU", "GPU", "FPGA", "pLUTo-BSA"}


class TestReporting:
    def test_format_rows_handles_mixed_types(self):
        text = format_rows([{"a": 1, "b": None}, {"a": 2.5, "b": True, "c": "x"}])
        assert "a" in text and "-" in text and "yes" in text

    def test_render_result_includes_title(self):
        rendered = render_result(table05_area_breakdown())
        assert rendered.startswith("Table 5")

    def test_markdown_table(self):
        markdown = render_markdown_table([{"x": 1, "y": 2}])
        assert markdown.splitlines()[0] == "| x | y |"
        assert format_rows([]) == "(no rows)"
