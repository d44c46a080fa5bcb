"""Tests for DRAM timing, energy, geometry, and row addresses."""

from __future__ import annotations

import pytest

from repro.dram.address import RowAddress
from repro.dram.energy import DDR4_ENERGY, HMC_ENERGY, EnergyParameters
from repro.dram.geometry import DDR4_8GB, HMC_3DS_GEOMETRY, DRAMGeometry
from repro.dram.timing import DDR4_2400, HMC_3DS, TimingParameters
from repro.errors import ConfigurationError


class TestTiming:
    def test_ddr4_preset_matches_table3(self):
        # 17-17-17 timings at DDR4-2400 are 14.16 ns.
        assert DDR4_2400.t_rcd == pytest.approx(14.16)
        assert DDR4_2400.t_rp == pytest.approx(14.16)
        assert DDR4_2400.t_faw == pytest.approx(13.328)

    def test_3ds_is_faster_than_ddr4(self):
        assert HMC_3DS.t_rcd < DDR4_2400.t_rcd
        assert HMC_3DS.t_rp < DDR4_2400.t_rp

    def test_act_pre_cycle(self):
        assert DDR4_2400.act_pre_cycle == pytest.approx(28.32)

    def test_row_cycle(self):
        assert DDR4_2400.t_rc == pytest.approx(DDR4_2400.t_ras + DDR4_2400.t_rp)

    def test_tfaw_scaling(self):
        unconstrained = DDR4_2400.with_tfaw_fraction(0.0)
        assert unconstrained.t_faw == 0.0
        half = DDR4_2400.with_tfaw_fraction(0.5)
        assert half.t_faw == pytest.approx(DDR4_2400.t_faw / 2)

    def test_negative_values_rejected(self):
        with pytest.raises(ConfigurationError):
            TimingParameters(t_rcd=-1.0)
        with pytest.raises(ConfigurationError):
            DDR4_2400.with_tfaw_fraction(-0.5)


class TestEnergy:
    def test_act_pre_combined(self):
        assert DDR4_ENERGY.e_act_pre == pytest.approx(
            DDR4_ENERGY.e_act + DDR4_ENERGY.e_pre
        )

    def test_hmc_per_command_energy_lower(self):
        # 3DS rows are 32x smaller; per-command energy must be much lower.
        assert HMC_ENERGY.e_act < DDR4_ENERGY.e_act

    def test_negative_energy_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyParameters(e_act=-1.0)


class TestGeometry:
    def test_ddr4_capacity_is_8_gib(self):
        assert DDR4_8GB.capacity_gib == pytest.approx(8.0)

    def test_ddr4_row_and_bank_structure(self):
        assert DDR4_8GB.banks == 16
        assert DDR4_8GB.row_size_bytes == 8192
        assert DDR4_8GB.rows_per_subarray == 512

    def test_3ds_row_size(self):
        assert HMC_3DS_GEOMETRY.row_size_bytes == 256

    def test_elements_per_row(self):
        assert DDR4_8GB.elements_per_row(8) == 8192
        assert DDR4_8GB.elements_per_row(4) == 16384
        assert DDR4_8GB.elements_per_row(16) == 4096

    def test_row_validation(self):
        DDR4_8GB.validate_row(0, 0)
        DDR4_8GB.validate_row(DDR4_8GB.subarrays_per_bank - 1, 511)
        with pytest.raises(ConfigurationError):
            DDR4_8GB.validate_row(DDR4_8GB.subarrays_per_bank, 0)
        with pytest.raises(ConfigurationError):
            DDR4_8GB.validate_row(0, 512)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            DRAMGeometry(rows_per_subarray=0)


class TestRowAddress:
    def test_neighbours_at_edges(self, small_geometry):
        first = RowAddress(0, 0, 0)
        last = RowAddress(0, small_geometry.subarrays_per_bank - 1, 0)
        middle = RowAddress(0, 1, 0)
        assert len(first.neighbours(small_geometry)) == 1
        assert len(last.neighbours(small_geometry)) == 1
        assert len(middle.neighbours(small_geometry)) == 2
