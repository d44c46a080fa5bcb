"""Shared evaluation harness.

Prices every workload's analytical recipe on the CPU/GPU/FPGA/PnM
baselines and the six pLUTo configurations (three designs x DDR4/3DS) and
exposes the speedup and energy ratios the figures plot.  Serial,
non-offloadable work (e.g. the CRC reduction) is charged at CPU speed
using Amdahl's law, as the paper does (Section 8.2: the CRC serial
reduction runs on the CPU or in the HMC logic layer).  The harness
executes no program: a recorded program runs through
:meth:`repro.api.PlutoSession.run`, once per engine of
:func:`default_pluto_configs` to cover all six.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.base import BaselineCost
from repro.baselines.pnm import PnmBaseline
from repro.baselines.processor import (
    CPU_XEON_5118,
    FPGA_ZCU102,
    GPU_RTX_3080TI,
    ProcessorBaseline,
)
from repro.core.designs import PlutoDesign
from repro.core.engine import DDR4, THREE_DS, CostReport, PlutoConfig, PlutoEngine
from repro.workloads.base import Workload

__all__ = ["PLUTO_CONFIG_LABELS", "WorkloadResult", "EvaluationHarness", "default_pluto_configs"]


def default_pluto_configs() -> dict[str, PlutoConfig]:
    """The six pLUTo configurations plotted throughout the evaluation."""
    configs: dict[str, PlutoConfig] = {}
    for memory, suffix in ((DDR4, ""), (THREE_DS, "-3DS")):
        for design in (PlutoDesign.GSA, PlutoDesign.BSA, PlutoDesign.GMC):
            configs[f"{design.display_name}{suffix}"] = PlutoConfig(
                design=design, memory=memory
            )
    return configs


#: Canonical configuration label order used in the figures.
PLUTO_CONFIG_LABELS = tuple(default_pluto_configs().keys())


@dataclass
class WorkloadResult:
    """All system costs for one workload at one input size."""

    workload: str
    elements: int
    cpu: BaselineCost
    gpu: BaselineCost
    fpga: BaselineCost
    pnm: BaselineCost
    pluto: dict[str, CostReport] = field(default_factory=dict)
    serial_fraction: float = 0.0

    # ------------------------------------------------------------------ #
    # Latency views
    # ------------------------------------------------------------------ #
    def pluto_latency_ns(self, label: str) -> float:
        """End-to-end pLUTo latency including the Amdahl serial portion."""
        report = self.pluto[label]
        return report.total_latency_ns + self.serial_fraction * self.cpu.latency_ns

    def speedup_over_cpu(self, label: str) -> float:
        """Speedup of one pLUTo configuration over the CPU baseline."""
        return self.cpu.latency_ns / self.pluto_latency_ns(label)

    def speedup_over_fpga(self, label: str) -> float:
        """Speedup of one pLUTo configuration over the FPGA baseline."""
        return self.fpga.latency_ns / self.pluto_latency_ns(label)

    @property
    def gpu_speedup_over_cpu(self) -> float:
        """GPU speedup over the CPU baseline."""
        return self.cpu.latency_ns / self.gpu.latency_ns

    @property
    def pnm_speedup_over_cpu(self) -> float:
        """PnM speedup over the CPU baseline."""
        return self.cpu.latency_ns / self.pnm.latency_ns

    # ------------------------------------------------------------------ #
    # Energy views
    # ------------------------------------------------------------------ #
    def pluto_energy_nj(self, label: str) -> float:
        """pLUTo energy including the serial portion's CPU energy share."""
        report = self.pluto[label]
        return report.total_energy_nj + self.serial_fraction * self.cpu.energy_nj

    def energy_saving_over_cpu(self, label: str) -> float:
        """CPU energy divided by pLUTo energy (higher is better)."""
        return self.cpu.energy_nj / self.pluto_energy_nj(label)

    @property
    def gpu_energy_saving_over_cpu(self) -> float:
        """CPU energy divided by GPU energy."""
        return self.cpu.energy_nj / self.gpu.energy_nj


class EvaluationHarness:
    """Prices workload recipes on every system with consistent settings."""

    def __init__(
        self,
        *,
        configs: dict[str, PlutoConfig] | None = None,
        tfaw_fraction: float = 0.0,
        subarray_override: int | None = None,
    ) -> None:
        self.cpu = ProcessorBaseline(CPU_XEON_5118)
        self.gpu = ProcessorBaseline(GPU_RTX_3080TI)
        self.fpga = ProcessorBaseline(FPGA_ZCU102)
        self.pnm = PnmBaseline()
        base_configs = configs if configs is not None else default_pluto_configs()
        self.configs: dict[str, PlutoConfig] = {}
        for label, config in base_configs.items():
            self.configs[label] = PlutoConfig(
                design=config.design,
                memory=config.memory,
                subarrays=subarray_override
                if subarray_override is not None
                else config.subarrays,
                tfaw_fraction=tfaw_fraction,
            )
        self.engines = {
            label: PlutoEngine(config) for label, config in self.configs.items()
        }

    def evaluate(self, workload: Workload, elements: int | None = None) -> WorkloadResult:
        """Run one workload through every system."""
        recipe = workload.recipe
        if elements is None:
            elements = workload.default_elements
        result = WorkloadResult(
            workload=workload.name,
            elements=elements,
            cpu=self.cpu.evaluate(recipe, elements),
            gpu=self.gpu.evaluate(recipe, elements),
            fpga=self.fpga.evaluate(recipe, elements),
            pnm=self.pnm.evaluate(recipe, elements),
            serial_fraction=recipe.serial_fraction,
        )
        for label, engine in self.engines.items():
            result.pluto[label] = engine.execute(recipe, elements)
        return result
