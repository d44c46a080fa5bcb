"""Common interface of the processor-centric and PiM baseline models.

Every baseline consumes the same :class:`~repro.core.recipe.WorkloadRecipe`
objects the pLUTo engine consumes and produces a latency/energy estimate
for processing a given number of elements.  The models are deliberately
first-order (roofline-style): the paper's comparisons span 2-4 orders of
magnitude and are driven by data movement, so bandwidth/compute ceilings
and per-byte energies capture the relevant behaviour (the calibration is
described in :mod:`repro.baselines.processor`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.core.recipe import WorkloadRecipe
from repro.errors import ConfigurationError

__all__ = ["BaselineCost", "BaselineSystem"]


@dataclass(frozen=True)
class BaselineCost:
    """Latency and energy of one baseline executing one workload."""

    system: str
    workload: str
    elements: int
    latency_ns: float
    energy_nj: float

    def __post_init__(self) -> None:
        if self.latency_ns < 0 or self.energy_nj < 0:
            raise ConfigurationError("costs must be non-negative")

    @property
    def throughput_elements_per_s(self) -> float:
        """Elements processed per second."""
        if self.latency_ns <= 0:
            return float("inf")
        return self.elements / (self.latency_ns * 1e-9)


class BaselineSystem(abc.ABC):
    """Abstract baseline system (CPU, GPU, FPGA, PnM, prior PuM)."""

    #: Human-readable system name used in figures.
    name: str = "baseline"
    #: Chip / board area used by the performance-per-area figures (mm^2).
    area_mm2: float = 100.0

    @abc.abstractmethod
    def evaluate(self, recipe: WorkloadRecipe, elements: int) -> BaselineCost:
        """Estimate the cost of processing ``elements`` inputs of ``recipe``."""

    # Convenience used by several figures.
    def latency_ns(self, recipe: WorkloadRecipe, elements: int) -> float:
        """Latency-only shortcut."""
        return self.evaluate(recipe, elements).latency_ns

    def energy_nj(self, recipe: WorkloadRecipe, elements: int) -> float:
        """Energy-only shortcut."""
        return self.evaluate(recipe, elements).energy_nj
