"""Tests for the bitline circuit model and the Monte-Carlo study (Figure 6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.bitline import (
    DESIGN_VARIANTS,
    BitlineParameters,
    CellState,
    simulate_activation,
)
from repro.circuit.montecarlo import MonteCarloConfig, MonteCarloRunner
from repro.errors import ConfigurationError


class TestBitlineParameters:
    def test_precharge_is_half_vdd(self):
        parameters = BitlineParameters()
        assert parameters.precharge_voltage == pytest.approx(parameters.vdd / 2)

    def test_charge_share_delta_reasonable(self):
        parameters = BitlineParameters()
        # With Cc ~ 22 fF and Cb ~ 85 fF the swing is ~100 mV at VDD = 1 V.
        assert 0.05 < parameters.charge_share_delta < 0.2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            BitlineParameters(vdd=0.0)
        with pytest.raises(ConfigurationError):
            BitlineParameters(series_resistance_factor=0.5)


class TestActivationTransient:
    def test_one_cell_settles_to_vdd(self):
        transient = simulate_activation(BitlineParameters(), CellState.ONE)
        assert transient.settled_correctly()
        assert transient.final_voltage > 0.9

    def test_zero_cell_settles_to_ground(self):
        transient = simulate_activation(BitlineParameters(), CellState.ZERO)
        assert transient.settled_correctly()
        assert transient.final_voltage < 0.1

    def test_disconnected_cell_keeps_precharge(self):
        parameters = BitlineParameters(cell_connected=False)
        transient = simulate_activation(parameters, CellState.ONE)
        assert transient.final_voltage == pytest.approx(parameters.precharge_voltage)

    def test_gated_sense_amp_never_restores(self):
        parameters = BitlineParameters(sense_enabled=False)
        transient = simulate_activation(parameters, CellState.ONE)
        # Charge sharing moves the bitline a little but never to the rail.
        assert transient.final_voltage < 0.7
        assert not transient.settled_correctly()

    def test_sensing_margin_positive_before_enable(self):
        transient = simulate_activation(BitlineParameters(), CellState.ONE)
        assert transient.sensing_margin > 0.02

    def test_invalid_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_activation(BitlineParameters(), CellState.ONE, duration_ns=0.0)

    def test_design_variants_cover_paper_panels(self):
        assert set(DESIGN_VARIANTS) == {
            "Baseline",
            "pLUTo-BSA",
            "pLUTo-GSA",
            "pLUTo-GMC",
        }

    def test_gsa_transient_slower_than_baseline(self):
        baseline = simulate_activation(
            DESIGN_VARIANTS["Baseline"](BitlineParameters()), CellState.ONE
        )
        gsa = simulate_activation(
            DESIGN_VARIANTS["pLUTo-GSA"](BitlineParameters()), CellState.ONE
        )
        midpoint = len(baseline.time_ns) // 8
        assert gsa.voltage_v[midpoint] <= baseline.voltage_v[midpoint] + 1e-9


class TestMonteCarlo:
    def test_all_designs_settle_correctly(self):
        runner = MonteCarloRunner(MonteCarloConfig(runs=30))
        for outcome in runner.run_all().values():
            assert outcome.all_settled

    def test_disturbance_below_one_percent(self):
        # The paper reports final-voltage disturbances of ~0.9 % of VDD.
        runner = MonteCarloRunner(MonteCarloConfig(runs=50))
        for outcome in runner.run_all().values():
            assert outcome.max_disturbance_fraction <= 0.01

    def test_reproducible_with_same_seed(self):
        first = MonteCarloRunner(MonteCarloConfig(runs=10, seed=3)).run_design("pLUTo-BSA")
        second = MonteCarloRunner(MonteCarloConfig(runs=10, seed=3)).run_design("pLUTo-BSA")
        assert np.allclose(first.final_voltages, second.final_voltages)

    def test_unknown_design_rejected(self):
        runner = MonteCarloRunner(MonteCarloConfig(runs=2))
        with pytest.raises(ConfigurationError):
            runner.run_design("pLUTo-XYZ")

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            MonteCarloConfig(runs=0)
        with pytest.raises(ConfigurationError):
            MonteCarloConfig(variation_sigma=1.5)
