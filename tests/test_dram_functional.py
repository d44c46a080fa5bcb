"""Tests for the functional DRAM models: subarray, commands, refresh."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dram.commands import Command, CommandTrace, CommandType
from repro.dram.energy import DDR4_ENERGY
from repro.dram.refresh import RefreshModel, RowStepper
from repro.dram.subarray import Subarray
from repro.dram.timing import DDR4_2400
from repro.errors import ConfigurationError, SubarrayStateError


class TestSubarray:
    def test_activate_reads_stored_row(self, small_geometry, rng):
        subarray = Subarray(small_geometry)
        data = rng.integers(0, 256, small_geometry.row_size_bytes).astype(np.uint8)
        subarray.load_row(3, data)
        assert np.array_equal(subarray.activate(3), data)

    def test_activate_requires_precharge_between_rows(self, small_geometry):
        subarray = Subarray(small_geometry)
        subarray.activate(0)
        with pytest.raises(SubarrayStateError):
            subarray.activate(1)
        subarray.precharge()
        subarray.activate(1)

    def test_write_buffer_updates_open_row(self, small_geometry):
        subarray = Subarray(small_geometry)
        subarray.activate(5)
        new_data = np.full(small_geometry.row_size_bytes, 0xAB, dtype=np.uint8)
        subarray.write_buffer(new_data)
        subarray.precharge()
        assert np.array_equal(subarray.peek_row(5), new_data)

    def test_read_buffer_requires_open_row(self, small_geometry):
        subarray = Subarray(small_geometry)
        with pytest.raises(SubarrayStateError):
            subarray.read_buffer()

    def test_non_restoring_activation_destroys_row(self, small_geometry, rng):
        subarray = Subarray(small_geometry)
        data = rng.integers(0, 256, small_geometry.row_size_bytes).astype(np.uint8)
        subarray.load_row(2, data)
        subarray.activate(2, restore=False)
        subarray.precharge()
        assert not subarray.row_is_valid(2)
        with pytest.raises(SubarrayStateError):
            subarray.activate(2)
        # Rewriting the row makes it usable again.
        subarray.load_row(2, data)
        assert subarray.row_is_valid(2)

    def test_precharge_when_already_precharged_is_legal(self, small_geometry):
        subarray = Subarray(small_geometry)
        subarray.precharge()
        assert subarray.is_precharged

    def test_load_rows_bulk(self, small_geometry, rng):
        subarray = Subarray(small_geometry)
        block = rng.integers(0, 256, (4, small_geometry.row_size_bytes)).astype(np.uint8)
        subarray.load_rows(10, block)
        for offset in range(4):
            assert np.array_equal(subarray.peek_row(10 + offset), block[offset])

    def test_out_of_range_row_rejected(self, small_geometry):
        subarray = Subarray(small_geometry)
        with pytest.raises(ConfigurationError):
            subarray.activate(small_geometry.rows_per_subarray)

    def test_activation_counter(self, small_geometry):
        subarray = Subarray(small_geometry)
        for row in range(5):
            subarray.activate(row)
            subarray.precharge()
        assert subarray.activation_count == 5
        assert subarray.precharge_count == 5


class TestCommandTrace:
    def test_act_pre_costs(self):
        trace = CommandTrace(timing=DDR4_2400, energy=DDR4_ENERGY)
        trace.add_activate(row=3)
        trace.add_precharge()
        assert trace.total_latency_ns == pytest.approx(DDR4_2400.t_rcd + DDR4_2400.t_rp)
        assert trace.total_energy_nj == pytest.approx(
            DDR4_ENERGY.e_act + DDR4_ENERGY.e_pre
        )

    def test_row_sweep_override(self):
        trace = CommandTrace(timing=DDR4_2400, energy=DDR4_ENERGY)
        trace.add_row_sweep(1000.0, 50.0, rows=16)
        assert trace.total_latency_ns == pytest.approx(1000.0)
        assert trace.total_energy_nj == pytest.approx(50.0)
        assert trace.count(CommandType.ROW_SWEEP) == 1

    def test_default_row_sweep_cost_scales_with_rows(self):
        trace = CommandTrace(timing=DDR4_2400, energy=DDR4_ENERGY)
        trace.add(CommandType.ROW_SWEEP, rows=4)
        assert trace.total_latency_ns == pytest.approx(4 * DDR4_2400.act_pre_cycle)

    @pytest.mark.parametrize(
        "kind, acts, energy",
        [
            (CommandType.TRA, 2, 2 * DDR4_ENERGY.e_act + DDR4_ENERGY.e_pre),
            (CommandType.ROWCLONE, 2, 2 * DDR4_ENERGY.e_act + DDR4_ENERGY.e_pre),
            (CommandType.SHIFT, 2, 2 * DDR4_ENERGY.e_act + DDR4_ENERGY.e_pre),
            (CommandType.LISA_RBM, 1, DDR4_ENERGY.e_lisa_rbm),
        ],
        ids=["TRA", "ROWCLONE", "SHIFT", "LISA_RBM"],
    )
    def test_in_dram_primitive_costs(self, kind, acts, energy):
        """What the command ROM's in-DRAM commands are charged: Ambit,
        RowClone-FPM and DRISA are ACT-ACT-PRE sequences, a LISA move is
        one linked activation."""
        trace = CommandTrace(timing=DDR4_2400, energy=DDR4_ENERGY)
        trace.add(kind, bank=3)
        assert trace.count(kind) == 1
        assert trace.total_latency_ns == pytest.approx(
            acts * DDR4_2400.t_rcd + DDR4_2400.t_rp
        )
        assert trace.total_energy_nj == pytest.approx(energy)

    def test_merge_accumulates(self):
        first = CommandTrace(timing=DDR4_2400, energy=DDR4_ENERGY)
        first.add_activate()
        second = CommandTrace(timing=DDR4_2400, energy=DDR4_ENERGY)
        second.add_precharge()
        first.merge(second)
        assert len(first) == 2
        assert first.total_latency_ns == pytest.approx(
            DDR4_2400.t_rcd + DDR4_2400.t_rp
        )

    def test_extend_with_prebuilt_commands(self):
        trace = CommandTrace(timing=DDR4_2400, energy=DDR4_ENERGY)
        trace.extend([Command(CommandType.ACT), Command(CommandType.PRE)])
        assert trace.count(CommandType.ACT) == 1
        assert trace.count(CommandType.PRE) == 1


class TestRefreshAndStepper:
    def test_refresh_overhead_fraction(self):
        model = RefreshModel(DDR4_2400)
        assert 0.0 < model.overhead_fraction < 0.1

    def test_refresh_inflates_latency(self):
        model = RefreshModel(DDR4_2400)
        assert model.inflate_latency(1000.0) > 1000.0

    def test_refreshes_during_interval(self):
        model = RefreshModel(DDR4_2400)
        assert model.refreshes_during(10 * DDR4_2400.t_refi) == 10

    def test_row_stepper_order(self):
        stepper = RowStepper(64)
        assert stepper.sweep_order(4, 4) == [4, 5, 6, 7]

    def test_row_stepper_bounds(self):
        stepper = RowStepper(16)
        with pytest.raises(ConfigurationError):
            stepper.sweep_order(10, 8)
        with pytest.raises(ConfigurationError):
            stepper.sweep_order(0, 0)
