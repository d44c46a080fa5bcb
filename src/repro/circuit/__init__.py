"""Behavioural circuit models (SPICE substitute) for the reliability study.

The paper validates the three pLUTo designs with SPICE Monte-Carlo
simulations of a row activation (Figure 6).  We reproduce the study with an
analytical charge-sharing + sense-amplification model of the bitline and a
Gaussian process-variation layer.
"""

from repro.circuit.bitline import (
    BitlineParameters,
    BitlineTransient,
    CellState,
    simulate_activation,
)
from repro.circuit.montecarlo import MonteCarloConfig, MonteCarloRunner, VariationSample

__all__ = [
    "BitlineParameters",
    "BitlineTransient",
    "CellState",
    "simulate_activation",
    "MonteCarloConfig",
    "MonteCarloRunner",
    "VariationSample",
]
