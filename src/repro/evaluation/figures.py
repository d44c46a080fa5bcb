"""One function per evaluation figure of the paper.

Every function returns a :class:`FigureResult` whose rows carry the same
series the corresponding figure plots, so benchmarks, tests, and the
report generator (``examples/run_all_experiments.py``) all consume one
representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.pnm import HMC_PNM
from repro.baselines.prior_pum import SIMDRAM
from repro.circuit.montecarlo import MonteCarloConfig, MonteCarloRunner
from repro.core.analytical import PlutoCostModel
from repro.core.area import AreaModel
from repro.core.designs import PlutoDesign
from repro.core.engine import DDR4, THREE_DS, PlutoConfig, PlutoEngine
from repro.dram.energy import DDR4_ENERGY
from repro.dram.timing import DDR4_2400
from repro.evaluation.harness import EvaluationHarness, default_pluto_configs
from repro.plan.execution_plan import ExecutionPlan
from repro.utils.units import geometric_mean
from repro.workloads.registry import figure7_workloads, figure9_workloads

__all__ = [
    "FigureResult",
    "figure06_bitline_reliability",
    "figure07_speedup_over_cpu",
    "figure08_speedup_per_area",
    "figure09_speedup_over_fpga",
    "figure10_energy_over_cpu",
    "figure11_lut_loading",
    "figure12_scalability",
    "figure12_sharded_scaling",
    "figure13_tfaw_sensitivity",
    "figure13_sharded_tfaw",
    "figure14_salp_scaling",
    "figure_auto_planner",
    "figure_execution_tiers",
    "figure_hierarchy_scaling",
    "figure_latency_breakdown",
    "figure_optimizer_gains",
    "figure_static_verification",
    "figure_worker_scaling",
]


def _sharded_reference_session(elements: int):
    """A one-row-per-bank-friendly 256-entry LUT map program (Table 4 idiom)."""
    from repro.api.luts import color_grade_lut
    from repro.api.session import PlutoSession

    session = PlutoSession()
    source = session.pluto_malloc(elements, 8, "pixels")
    out = session.pluto_malloc(elements, 8, "graded")
    session.api_pluto_map(color_grade_lut(), source, out)
    inputs = {"pixels": np.arange(elements, dtype=np.uint64) % 256}
    return session, inputs


@dataclass
class FigureResult:
    """A reproduced figure: named rows of numeric series."""

    name: str
    description: str
    rows: list[dict] = field(default_factory=list)

    def column(self, key: str) -> list:
        """Extract one column across all rows."""
        return [row[key] for row in self.rows]


# --------------------------------------------------------------------- #
# Figure 6 — bitline reliability (SPICE substitute)
# --------------------------------------------------------------------- #
def figure06_bitline_reliability(runs: int = 100, seed: int = 2022) -> FigureResult:
    """Monte-Carlo activation study for the baseline and the three designs."""
    runner = MonteCarloRunner(MonteCarloConfig(runs=runs, seed=seed))
    result = FigureResult(
        name="Figure 6",
        description="Bitline voltage settling under 5% process variation",
    )
    for design, outcome in runner.run_all().items():
        margins = [t.sensing_margin for t in outcome.transients]
        result.rows.append(
            {
                "design": design,
                "runs": len(outcome.transients),
                "all_settled": outcome.all_settled,
                "max_disturbance_fraction": outcome.max_disturbance_fraction,
                "min_sensing_margin_v": float(np.min(margins)),
            }
        )
    return result


# --------------------------------------------------------------------- #
# Figures 7 / 8 / 10 — speedup and energy over the CPU baseline
# --------------------------------------------------------------------- #
def _cpu_relative_harness() -> tuple[EvaluationHarness, list]:
    return EvaluationHarness(), figure7_workloads()


def figure07_speedup_over_cpu(scale: float = 1.0) -> FigureResult:
    """Speedup of GPU, PnM, and the six pLUTo configurations over the CPU."""
    harness, workloads = _cpu_relative_harness()
    result = FigureResult(
        name="Figure 7",
        description="Speedup over the CPU baseline (higher is better)",
    )
    labels = list(default_pluto_configs())
    accumulators: dict[str, list[float]] = {label: [] for label in ["GPU", "PnM"] + labels}
    for workload in workloads:
        elements = max(1, int(workload.default_elements * scale))
        evaluation = harness.evaluate(workload, elements)
        row = {
            "workload": workload.name,
            "GPU": evaluation.gpu_speedup_over_cpu,
            "PnM": evaluation.pnm_speedup_over_cpu,
        }
        for label in labels:
            row[label] = evaluation.speedup_over_cpu(label)
        for key, values in accumulators.items():
            values.append(row[key])
        result.rows.append(row)
    gmean_row = {"workload": "GMEAN"}
    gmean_row.update({key: geometric_mean(values) for key, values in accumulators.items()})
    result.rows.append(gmean_row)
    return result


def figure08_speedup_per_area(scale: float = 1.0) -> FigureResult:
    """Speedup over the CPU normalised to chip/board area."""
    harness, workloads = _cpu_relative_harness()
    area_model = AreaModel()
    cpu_area = harness.cpu.area_mm2
    gpu_area = harness.gpu.area_mm2
    #: DDR4 pLUTo uses the modified DRAM chip area (Table 5); 3DS uses the
    #: paper's 4.4 mm^2-per-vault logic overhead across 16 vaults.
    pluto_area = {}
    for label, config in default_pluto_configs().items():
        if config.memory == THREE_DS:
            pluto_area[label] = 4.4 * 16
        else:
            pluto_area[label] = area_model.breakdown(config.design).total
    result = FigureResult(
        name="Figure 8",
        description="Speedup over the CPU per unit area (higher is better)",
    )
    labels = list(default_pluto_configs())
    accumulators: dict[str, list[float]] = {label: [] for label in ["GPU"] + labels}
    for workload in workloads:
        elements = max(1, int(workload.default_elements * scale))
        evaluation = harness.evaluate(workload, elements)
        row = {
            "workload": workload.name,
            "GPU": evaluation.gpu_speedup_over_cpu * cpu_area / gpu_area,
        }
        for label in labels:
            row[label] = evaluation.speedup_over_cpu(label) * cpu_area / pluto_area[label]
        for key, values in accumulators.items():
            values.append(row[key])
        result.rows.append(row)
    gmean_row = {"workload": "GMEAN"}
    gmean_row.update({key: geometric_mean(values) for key, values in accumulators.items()})
    result.rows.append(gmean_row)
    return result


def figure10_energy_over_cpu(scale: float = 1.0) -> FigureResult:
    """CPU-normalised energy savings of the GPU and the pLUTo configurations."""
    harness, workloads = _cpu_relative_harness()
    result = FigureResult(
        name="Figure 10",
        description="CPU energy divided by system energy (higher is better)",
    )
    labels = list(default_pluto_configs())
    accumulators: dict[str, list[float]] = {label: [] for label in ["GPU"] + labels}
    for workload in workloads:
        elements = max(1, int(workload.default_elements * scale))
        evaluation = harness.evaluate(workload, elements)
        row = {
            "workload": workload.name,
            "GPU": evaluation.gpu_energy_saving_over_cpu,
        }
        for label in labels:
            row[label] = evaluation.energy_saving_over_cpu(label)
        for key, values in accumulators.items():
            values.append(row[key])
        result.rows.append(row)
    gmean_row = {"workload": "GMEAN"}
    gmean_row.update({key: geometric_mean(values) for key, values in accumulators.items()})
    result.rows.append(gmean_row)
    return result


# --------------------------------------------------------------------- #
# Figure 9 — comparison against the FPGA baseline
# --------------------------------------------------------------------- #
def figure09_speedup_over_fpga(scale: float = 1.0) -> FigureResult:
    """Speedup of the six pLUTo configurations over the FPGA baseline."""
    harness = EvaluationHarness()
    result = FigureResult(
        name="Figure 9",
        description="Speedup over the FPGA baseline (higher is better)",
    )
    labels = list(default_pluto_configs())
    accumulators: dict[str, list[float]] = {label: [] for label in labels}
    for workload in figure9_workloads():
        elements = max(1, int(min(workload.default_elements, 1 << 22) * scale))
        evaluation = harness.evaluate(workload, elements)
        row = {"workload": workload.name}
        for label in labels:
            row[label] = evaluation.speedup_over_fpga(label)
            accumulators[label].append(row[label])
        result.rows.append(row)
    gmean_row = {"workload": "GMEAN"}
    gmean_row.update({key: geometric_mean(values) for key, values in accumulators.items()})
    result.rows.append(gmean_row)
    return result


# --------------------------------------------------------------------- #
# Figure 11 — LUT loading overhead
# --------------------------------------------------------------------- #
def figure11_lut_loading(
    volumes_mb: tuple[float, ...] = (1, 2, 5, 10, 20, 40, 60, 80, 100, 120),
    lut_entries: int = 256,
) -> FigureResult:
    """Fraction of total time spent loading LUTs, from DRAM and from an SSD."""
    engine = PlutoEngine(PlutoConfig(design=PlutoDesign.BSA))
    geometry = engine.geometry
    lut_bytes = lut_entries * geometry.row_size_bytes
    # Query throughput of the default 16-subarray pLUTo-BSA configuration.
    query_latency_per_row = engine.cost_model.query_latency_ns(
        PlutoDesign.BSA, lut_entries
    )
    elements_per_row = geometry.row_size_bytes  # 8-bit elements
    bytes_per_ns = (
        elements_per_row * engine.parallel_speedup() / query_latency_per_row
    )
    result = FigureResult(
        name="Figure 11",
        description="Fraction of execution time spent loading LUT data",
    )
    for source, bandwidth_gbps in (("DDR4", 19.2), ("SSD", 7.5)):
        for volume_mb in volumes_mb:
            volume_bytes = volume_mb * 1e6
            load_ns = lut_bytes / bandwidth_gbps
            query_ns = volume_bytes / bytes_per_ns
            result.rows.append(
                {
                    "source": source,
                    "volume_mb": volume_mb,
                    "load_fraction": load_ns / (load_ns + query_ns),
                }
            )
    return result


# --------------------------------------------------------------------- #
# Figure 12 — scalability of the LUT query / multiplication efficiency
# --------------------------------------------------------------------- #
def figure12_scalability(
    lut_sizes: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
    bit_widths: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
) -> FigureResult:
    """(a) throughput/energy vs LUT size; (b) multiplication efficiency."""
    model = PlutoCostModel(DDR4_2400, DDR4_ENERGY, 8192, rows_per_subarray=1024)
    result = FigureResult(
        name="Figure 12",
        description="LUT-query scalability and multiplication energy efficiency",
    )
    for size in lut_sizes:
        row = {"panel": "a", "lut_size": size}
        for design in PlutoDesign:
            row[f"{design.display_name}_throughput"] = model.throughput_queries_per_s(
                design, size, 8
            )
            row[f"{design.display_name}_energy_j"] = (
                model.query_energy_nj(design, size) * 1e-9
            )
        result.rows.append(row)

    # Panel (b): multiplications per joule for pLUTo-BSA, SIMDRAM, and PnM.
    for bits in bit_widths:
        nibbles = max(1, -(-bits // 4))
        partials = nibbles * nibbles
        sweeps = 2 * partials - 1
        pluto_energy_per_row = sweeps * model.query_energy_nj(PlutoDesign.BSA, 256)
        elements_per_row = (8192 * 8) // (2 * bits)
        pluto_ops_per_j = elements_per_row / (pluto_energy_per_row * 1e-9)

        simdram_energy_per_row = SIMDRAM.multiplication_energy_nj(bits)
        simdram_elements = (8192 * 8) // max(1, bits)  # bit-serial columns
        simdram_ops_per_j = simdram_elements / (simdram_energy_per_row * 1e-9)

        # PnM: each multiplication is executed by the logic-layer core.
        pnm_energy_per_op = HMC_PNM.energy_per_op_nj * max(1.0, bits / 8.0) + 0.5
        pnm_ops_per_j = 1.0 / (pnm_energy_per_op * 1e-9)

        result.rows.append(
            {
                "panel": "b",
                "bit_width": bits,
                "pLUTo-BSA_ops_per_j": pluto_ops_per_j,
                "SIMDRAM_ops_per_j": simdram_ops_per_j,
                "PnM_ops_per_j": pnm_ops_per_j,
            }
        )
    return result


def figure12_sharded_scaling(
    shard_counts: tuple[int, ...] = (1, 2, 4, 8),
    elements: int = 65536,
    tfaw_fraction: float = 1.0,
) -> FigureResult:
    """Figure 12's scaling trend from *executed* bank-parallel programs.

    Runs one 256-entry LUT-query program (eight source rows at the
    default size) through the sharded dispatcher at increasing bank
    counts and reports the scheduler-derived makespan: more banks sweep
    concurrently, so the makespan falls while the summed serial latency
    does not.  This is the execution-layer counterpart of the analytical
    panel (a) study above.
    """
    from repro.controller.dispatch import ParallelDispatcher, ShardPlanner

    session, inputs = _sharded_reference_session(elements)
    engine = PlutoEngine(
        PlutoConfig(design=PlutoDesign.BSA, tfaw_fraction=tfaw_fraction)
    )
    result = FigureResult(
        name="Figure 12 (sharded)",
        description="Makespan of one LUT-query program vs. bank-parallel shards",
    )
    dispatcher = ParallelDispatcher(engine)
    planner = ShardPlanner(engine.geometry)
    executions = {
        shards: dispatcher.execute(planner.plan(session.calls, shards), inputs)
        for shards in shard_counts
    }
    # The speedup baseline is always a true single-shard run, whatever
    # shard counts the caller asked for.
    if 1 in executions:
        reference = executions[1].makespan_ns
    else:
        reference = dispatcher.execute(planner.plan(session.calls, 1), inputs).makespan_ns
    for shards in shard_counts:
        execution = executions[shards]
        result.rows.append(
            {
                "shards": shards,
                "makespan_ns": execution.makespan_ns,
                "serial_latency_ns": execution.serial_latency_ns,
                "speedup_vs_one_shard": reference / execution.makespan_ns,
            }
        )
    return result


# --------------------------------------------------------------------- #
# Figure 13 — tFAW sensitivity
# --------------------------------------------------------------------- #
def figure13_tfaw_sensitivity(
    fractions: tuple[float, ...] = (0.0, 0.5, 1.0), scale: float = 1.0
) -> FigureResult:
    """Performance relative to the unthrottled (tFAW = 0) configuration."""
    workloads = figure7_workloads()
    baseline = EvaluationHarness(tfaw_fraction=0.0)
    result = FigureResult(
        name="Figure 13",
        description="Relative performance under tFAW activation throttling",
    )
    label = PlutoDesign.BSA.display_name
    reference: dict[str, float] = {}
    for workload in workloads:
        elements = max(1, int(workload.default_elements * scale))
        reference[workload.name] = baseline.evaluate(workload, elements).pluto_latency_ns(label)
    for fraction in fractions:
        harness = EvaluationHarness(tfaw_fraction=fraction)
        relatives = []
        for workload in workloads:
            elements = max(1, int(workload.default_elements * scale))
            latency = harness.evaluate(workload, elements).pluto_latency_ns(label)
            relative = reference[workload.name] / latency
            relatives.append(relative)
            result.rows.append(
                {
                    "tfaw_fraction": fraction,
                    "workload": workload.name,
                    "relative_performance": relative,
                }
            )
        result.rows.append(
            {
                "tfaw_fraction": fraction,
                "workload": "GMEAN",
                "relative_performance": geometric_mean(relatives),
            }
        )
    return result


def figure13_sharded_tfaw(
    fractions: tuple[float, ...] = (0.0, 1.0, 2.0, 4.0),
    shards: int = 16,
    elements: int = 65536,
) -> FigureResult:
    """Section 8.7's tFAW throttle observed on executed sharded programs.

    At sixteen bank-parallel shards the cross-bank activation rate is high
    enough for the four-activation window to bind, so tightening tFAW
    (larger multiples of the nominal window, the Section 8.7 stress axis;
    DDR4's nominal tFAW equals 4 x tRRD, so fractions <= 1 are absorbed by
    tRRD) stretches the scheduler-derived makespan — the execution-layer
    counterpart of the analytical Figure 13 study.
    """
    from repro.controller.dispatch import ParallelDispatcher, ShardPlanner

    session, inputs = _sharded_reference_session(elements)
    result = FigureResult(
        name="Figure 13 (sharded)",
        description="Sharded makespan under tFAW activation throttling",
    )
    reference: float | None = None
    for fraction in fractions:
        engine = PlutoEngine(
            PlutoConfig(design=PlutoDesign.BSA, tfaw_fraction=fraction)
        )
        layout = ShardPlanner(engine.geometry).plan(session.calls, shards)
        execution = ParallelDispatcher(engine).execute(layout, inputs)
        if reference is None:
            reference = execution.makespan_ns
        result.rows.append(
            {
                "tfaw_fraction": fraction,
                "shards": shards,
                "makespan_ns": execution.makespan_ns,
                "relative_performance": reference / execution.makespan_ns,
            }
        )
    return result


# --------------------------------------------------------------------- #
# Hierarchy scaling — channel/rank/bank decomposition (beyond the paper)
# --------------------------------------------------------------------- #
def figure_hierarchy_scaling(
    hierarchies: tuple[tuple[int, int], ...] = ((1, 1), (1, 2), (2, 1), (2, 2)),
    elements: int = 65536,
    tfaw_fraction: float = 1.0,
) -> FigureResult:
    """Per-level makespans of one LUT-query program across the hierarchy.

    For every ``(channels, ranks)`` device shape the reference 256-entry
    LUT map runs through the dispatcher with one shard per bank, and the
    same shard command streams are re-scheduled with levels
    progressively enabled: serial (one bank), bank-parallel (one rank),
    rank-parallel (one channel), and the full hierarchy.  Each level can
    only help, so the four makespans are monotonically non-increasing —
    the execution-layer decomposition of the throughput scaling the
    paper's Section 8 attributes to DRAM-wide parallelism.
    """
    from repro.controller.dispatch import ParallelDispatcher, ShardPlanner

    session, inputs = _sharded_reference_session(elements)
    result = FigureResult(
        name="Hierarchy scaling",
        description="Makespan decomposition across channel/rank/bank levels",
    )
    for channels, ranks in hierarchies:
        engine = PlutoEngine(
            PlutoConfig(
                design=PlutoDesign.BSA,
                tfaw_fraction=tfaw_fraction,
                channels=channels,
                ranks=ranks,
            )
        )
        layout = ShardPlanner(engine.geometry).plan(session.calls)
        execution = ParallelDispatcher(engine).execute(layout, inputs)
        decomposition = execution.speedup_decomposition
        result.rows.append(
            {
                "channels": channels,
                "ranks": ranks,
                "shards": execution.num_shards,
                "serial_latency_ns": execution.serial_latency_ns,
                "bank_only_makespan_ns": execution.bank_only_makespan_ns,
                "rank_parallel_makespan_ns": execution.rank_parallel_makespan_ns,
                "channel_parallel_makespan_ns": execution.makespan_ns,
                "bank_speedup": decomposition["bank"],
                "rank_speedup": decomposition["rank"],
                "channel_speedup": decomposition["channel"],
                "total_speedup": decomposition["total"],
            }
        )
    return result


# --------------------------------------------------------------------- #
# Optimizer gains — pass-pipeline savings per workload family
# --------------------------------------------------------------------- #
def figure_optimizer_gains(
    elements: int = 4096, shards: int = 8, seed: int = 0
) -> FigureResult:
    """Measured row-sweep and makespan savings of the program optimizer.

    Every registry family's recorded pipeline
    (:func:`repro.workloads.programs.optimizer_workload_programs`) runs
    unoptimized and optimized on the pLUTo-BSA engine; the rows record
    the optimizer's static account (ops / LUT queries before and after)
    next to the *executed* ``ROW_SWEEP`` command counts and the
    bank-parallel scheduler makespans, with the outputs of both runs
    compared bit for bit.
    """
    from repro.dram.commands import CommandType
    from repro.workloads.programs import optimizer_workload_programs

    def row_sweeps(trace) -> int:
        return sum(
            1 for command in trace.commands if command.kind is CommandType.ROW_SWEEP
        )

    engine = PlutoEngine(PlutoConfig(design=PlutoDesign.BSA))
    result = FigureResult(
        name="Optimizer gains",
        description="Pass-pipeline savings per workload family (pLUTo-BSA)",
    )
    for program in optimizer_workload_programs(elements=elements, seed=seed):
        session = program.session
        plain = session.run(
            program.inputs, engine=engine, plan=ExecutionPlan(shards=shards)
        )
        optimized = session.run(
            program.inputs,
            engine=engine,
            plan=ExecutionPlan(shards=shards, optimize=True),
        )
        for name in plain.outputs:
            if not np.array_equal(plain.outputs[name], optimized.outputs[name]):
                raise AssertionError(
                    f"{program.name}: optimized output {name!r} diverged"
                )
        report = optimized.optimization
        sweeps_before = row_sweeps(plain.trace)
        sweeps_after = row_sweeps(optimized.trace)
        result.rows.append(
            {
                "workload": program.name,
                "family": program.family,
                "ops_before": report.before.ops,
                "ops_after": report.after.ops,
                "lut_queries_before": report.before.lut_queries,
                "lut_queries_after": report.after.lut_queries,
                "lut_loads_before": report.before.lut_loads,
                "lut_loads_after": report.after.lut_loads,
                "row_sweeps_before": sweeps_before,
                "row_sweeps_after": sweeps_after,
                "sweep_reduction": (
                    (sweeps_before - sweeps_after) / sweeps_before
                    if sweeps_before
                    else 0.0
                ),
                "makespan_before_ns": plain.makespan_ns,
                "makespan_after_ns": optimized.makespan_ns,
                "makespan_reduction": (
                    (plain.makespan_ns - optimized.makespan_ns) / plain.makespan_ns
                    if plain.makespan_ns
                    else 0.0
                ),
            }
        )
    return result


# --------------------------------------------------------------------- #
# Auto-planner — cost-based plan choice vs the static grid
# --------------------------------------------------------------------- #
def figure_auto_planner(
    elements: int = 4096,
    seed: int = 0,
    shard_grid: tuple[int, ...] = (1, 2, 4, 8, 16),
) -> FigureResult:
    """Auto-planned makespan against the static configuration grid.

    Every registry family (:func:`repro.workloads.programs.optimizer_workload_programs`)
    runs once with ``plan="auto"`` and once per static configuration in
    ``shard_grid`` x optimizer on/off on the pLUTo-BSA engine.  Each row
    records the planner's choice next to the best, worst, and naive
    default (one shard, no optimizer) static makespans, plus the
    planner's predicted-vs-measured error — the analytic model prices
    candidates from the same trace templates execution charges, so the
    error is exactly zero.  Outputs of the auto run are compared bit for
    bit against the default static run.
    """
    from repro.workloads.programs import optimizer_workload_programs

    engine = PlutoEngine(PlutoConfig(design=PlutoDesign.BSA))
    result = FigureResult(
        name="Auto-planner gains",
        description=(
            "Cost-based auto-planning vs the static shard/optimizer grid "
            "(pLUTo-BSA)"
        ),
    )
    for program in optimizer_workload_programs(elements=elements, seed=seed):
        session = program.session
        static: dict[str, float] = {}
        default_run = None
        for shards in shard_grid:
            for optimize in (False, True):
                plan = ExecutionPlan(shards=shards, optimize=optimize)
                run = session.run(program.inputs, engine=engine, plan=plan)
                static[plan.label()] = run.latency_ns
                if shards == 1 and not optimize:
                    default_run = run
        assert default_run is not None
        auto = session.run(program.inputs, engine=engine, plan="auto")
        for name in default_run.outputs:
            if not np.array_equal(default_run.outputs[name], auto.outputs[name]):
                raise AssertionError(
                    f"{program.name}: auto-planned output {name!r} diverged"
                )
        best_label = min(static, key=static.__getitem__)
        worst_label = max(static, key=static.__getitem__)
        report = auto.planner
        result.rows.append(
            {
                "workload": program.name,
                "family": program.family,
                "auto_plan": auto.execution_plan.label(),
                "auto_makespan_ns": auto.latency_ns,
                "best_static": best_label,
                "best_static_makespan_ns": static[best_label],
                "worst_static": worst_label,
                "worst_static_makespan_ns": static[worst_label],
                "default_makespan_ns": default_run.latency_ns,
                "auto_vs_best": (
                    auto.latency_ns / static[best_label]
                    if static[best_label]
                    else 1.0
                ),
                "auto_vs_default": (
                    auto.latency_ns / default_run.latency_ns
                    if default_run.latency_ns
                    else 1.0
                ),
                "candidates": len(report.candidates) if report else 0,
                "prediction_error": (
                    abs(report.predicted_makespan_ns - auto.latency_ns) / auto.latency_ns
                    if report and auto.latency_ns
                    else None
                ),
                "planner_cached": bool(report.cached) if report else False,
            }
        )
    return result


# --------------------------------------------------------------------- #
# Static verification — the verifier over the workload registry
# --------------------------------------------------------------------- #
def figure_static_verification(elements: int = 4096, seed: int = 0) -> FigureResult:
    """Verify every registry workload, as recorded and after optimization.

    Mirrors ``python -m repro.analyze --all-workloads``: each family's
    recorded API pipeline and the optimizer's rewrite of it run through
    the static verifier (:mod:`repro.analyze`), and the rows record the
    call counts alongside the number of error/warning diagnostics —
    all zero for a healthy registry.
    """
    from repro.analyze.verifier import verify_program
    from repro.opt.pipeline import optimize_cached
    from repro.workloads.programs import optimizer_workload_programs

    result = FigureResult(
        name="Static verification",
        description="Registry workloads through the static verifier",
    )
    for program in optimizer_workload_programs(elements=elements, seed=seed):
        recorded = list(program.session.calls)
        optimized = list(optimize_cached(recorded).calls)
        for stage, calls in (("recorded", recorded), ("optimized", optimized)):
            report = verify_program(calls, subject=f"{program.name} ({stage})")
            result.rows.append(
                {
                    "workload": program.name,
                    "family": program.family,
                    "stage": stage,
                    "calls": len(calls),
                    "errors": len(report.errors),
                    "warnings": len(report.warnings),
                    "clean": report.clean,
                }
            )
    return result


# --------------------------------------------------------------------- #
# Figure 14 — subarray-level parallelism scaling
# --------------------------------------------------------------------- #
def figure14_salp_scaling(
    ddr4_subarrays: tuple[int, ...] = (1, 16, 256, 2048),
    threeds_subarrays: tuple[int, ...] = (512, 8192),
    scale: float = 1.0,
) -> FigureResult:
    """Geomean speedup over the CPU for varying subarray-level parallelism."""
    workloads = figure7_workloads()
    result = FigureResult(
        name="Figure 14",
        description="Geomean speedup over the CPU vs. subarray-level parallelism",
    )
    sweeps = [(DDR4, count) for count in ddr4_subarrays] + [
        (THREE_DS, count) for count in threeds_subarrays
    ]
    for memory, subarrays in sweeps:
        configs = {
            design.display_name: PlutoConfig(
                design=design, memory=memory, subarrays=subarrays
            )
            for design in PlutoDesign
        }
        harness = EvaluationHarness(configs=configs)
        speedups: dict[str, list[float]] = {label: [] for label in configs}
        for workload in workloads:
            elements = max(1, int(workload.default_elements * scale))
            evaluation = harness.evaluate(workload, elements)
            for label in configs:
                speedups[label].append(evaluation.speedup_over_cpu(label))
        row = {"memory": memory, "subarrays": subarrays}
        for label, values in speedups.items():
            row[label] = geometric_mean(values)
        result.rows.append(row)
    return result


# --------------------------------------------------------------------- #
# Execution tiers — simulator latency per execution strategy
# --------------------------------------------------------------------- #
def figure_execution_tiers(
    elements: int = 4096,
    workloads: tuple[str, ...] = ("image", "salsa20"),
    rounds: int = 5,
) -> FigureResult:
    """Wall-clock latency of one execution per simulator tier.

    The same compiled serving programs run through the three execution
    strategies — the functional row-sweep oracle, the per-instruction
    interpreted vectorized walk, and the whole-program compiled closure —
    with outputs compared bit for bit across all three.  The compiled
    row is the per-op-Python-overhead gap this repository's JIT tier
    closes; ``benchmarks/test_backend_speed.py`` gates its floor.
    """
    import time

    from repro.api.session import compile_cached_with_key
    from repro.controller.executor import PlutoController
    from repro.workloads.programs import workload_program

    engine = PlutoEngine(PlutoConfig(design=PlutoDesign.BSA))
    tiers = {
        "functional": PlutoController(engine, backend="functional"),
        "interpreted": PlutoController(engine, backend="vectorized", jit=False),
        "compiled": PlutoController(engine, backend="vectorized"),
    }
    result = FigureResult(
        name="Execution tiers",
        description=(
            f"Per-tier simulator latency of the {elements}-element "
            "serving programs"
        ),
    )
    for name in workloads:
        workload = workload_program(name, elements=elements, seed=0)
        compiled, key = compile_cached_with_key(workload.session.calls)
        latencies: dict[str, float] = {}
        outputs: dict[str, dict] = {}
        for tier, controller in tiers.items():
            execution = controller.execute(
                compiled, dict(workload.inputs), structure_key=key
            )  # warm-up: caches, closures
            reps = 1 if tier == "functional" else 30
            best = float("inf")
            for _ in range(1 if tier == "functional" else rounds):
                start = time.perf_counter()
                for _ in range(reps):
                    execution = controller.execute(
                        compiled, dict(workload.inputs), structure_key=key
                    )
                best = min(best, (time.perf_counter() - start) / reps)
            latencies[tier] = best
            outputs[tier] = execution.outputs
        for tier in ("interpreted", "compiled"):
            for output, data in outputs["functional"].items():
                if not np.array_equal(outputs[tier][output], data):
                    raise AssertionError(
                        f"{name}: {tier} output {output!r} diverged from "
                        "the functional oracle"
                    )
        result.rows.append(
            {
                "workload": name,
                "elements": elements,
                "functional_s": latencies["functional"],
                "interpreted_s": latencies["interpreted"],
                "compiled_s": latencies["compiled"],
                "compiled_vs_interpreted": (
                    latencies["interpreted"] / latencies["compiled"]
                ),
                "interpreted_vs_functional": (
                    latencies["functional"] / latencies["interpreted"]
                ),
            }
        )
    return result


# --------------------------------------------------------------------- #
# Worker scaling — the multi-worker serving tier under mixed traffic
# --------------------------------------------------------------------- #
def figure_worker_scaling(
    elements: int = 256,
    per_family: int = 32,
    worker_counts: tuple[int, ...] = (1, 2, 4),
) -> FigureResult:
    """Sustained mixed-structure traffic through the worker pool.

    All six registry families stream through a
    :class:`~repro.serve.pool.PlutoWorkerPool` at each worker count.
    Each row records the wall clock, the aggregate requests/sec, the
    structure-affinity router's family placement, and the *modelled*
    scaling — summed per-worker busy time over the busiest worker —
    which is deterministic and therefore meaningful even on the
    single-core machines where wall clock cannot improve.
    ``benchmarks/test_serving_throughput.py`` gates the floors.
    """
    import time

    from repro.serve import PlutoWorkerPool, fan_out
    from repro.workloads.programs import optimizer_workload_programs

    families = optimizer_workload_programs(elements, 0)
    jobs = [
        (family.session, family.inputs)
        for _ in range(per_family)
        for family in families
    ]
    result = FigureResult(
        name="Worker scaling",
        description=(
            f"Mixed traffic over {len(families)} program families "
            "through the multi-worker serving tier"
        ),
    )
    for workers in worker_counts:
        with PlutoWorkerPool(workers=workers, chunk_size=32) as pool:
            if not pool.wait_ready(120.0):
                raise RuntimeError("worker pool failed to come up")
            start = time.perf_counter()
            served = fan_out(pool, jobs, return_outputs=False)
            wall_s = time.perf_counter() - start
        busy_ns = pool.stats.per_worker_busy_ns
        result.rows.append(
            {
                "workers": workers,
                "requests": len(served),
                "wall_clock_s": wall_s,
                "requests_per_sec": len(served) / wall_s,
                "modelled_scaling": sum(busy_ns) / max(busy_ns),
                "programs_per_worker": list(pool._programs_per_worker),
            }
        )
    return result


# --------------------------------------------------------------------- #
# Latency breakdown — where a served request's wall-clock goes
# --------------------------------------------------------------------- #
def figure_latency_breakdown(
    elements: int = 1024,
    requests: int = 8,
) -> FigureResult:
    """Per-stage latency and energy attribution for every workload family.

    Serves ``requests`` requests of each registry family through the
    async front door with tracing enabled, then reports the mean
    per-stage wall-clock (submit / queue wait / execute, from the span
    trees the observability layer attaches to every served request)
    next to the modelled hardware attribution: DRAM commands, energy in
    picojoules, and refresh overhead.  ``benchmarks/test_obs_overhead.py``
    gates the tracing cost this table relies on staying negligible.
    """
    import asyncio

    from repro.obs.export import stage_summary
    from repro.obs.trace import tracing
    from repro.workloads.programs import workload_program

    async def _serve(program) -> list:
        async with program.session.serve(
            max_queue=max(8, requests)
        ) as service:
            return list(
                await asyncio.gather(
                    *(
                        service.submit(dict(program.inputs))
                        for _ in range(requests)
                    )
                )
            )

    result = FigureResult(
        name="Latency breakdown",
        description=(
            f"Per-stage serving latency and per-request energy of the "
            f"{elements}-element workload programs"
        ),
    )
    families = ("image", "crc", "salsa20", "vmpc", "bitcount", "vector_ops")
    with tracing(True):
        for name in families:
            program = workload_program(name, elements=elements, seed=0)
            served = asyncio.run(_serve(program))
            traces = [
                item.request_trace
                for item in served
                if item.request_trace is not None
            ]
            if len(traces) != requests:
                raise AssertionError(
                    f"{name}: expected {requests} traced requests, "
                    f"got {len(traces)}"
                )
            stages = stage_summary(traces)
            attributes = traces[-1].attributes
            result.rows.append(
                {
                    "workload": name,
                    "elements": elements,
                    "requests": requests,
                    "submit_ns": stages.get("submit", {}).get("mean_ns", 0.0),
                    "queue_wait_ns": stages.get("queue_wait", {}).get(
                        "mean_ns", 0.0
                    ),
                    "execute_ns": stages.get("execute", {}).get("mean_ns", 0.0),
                    "modelled_latency_ns": float(attributes["latency_ns"]),
                    "energy_pj": float(attributes["energy_pj"]),
                    "dram_commands": int(attributes["dram_commands"]),
                    "refresh_overhead_fraction": float(
                        attributes["refresh_overhead_fraction"]
                    ),
                }
            )
    return result
