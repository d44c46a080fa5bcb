"""Tests for the prior-work PuM primitives: Ambit, DRISA, SALP."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.commands import CommandTrace, CommandType
from repro.dram.energy import DDR4_ENERGY
from repro.dram.subarray import Subarray
from repro.dram.timing import DDR4_2400
from repro.errors import ConfigurationError
from repro.inmem.ambit import AmbitUnit
from repro.inmem.drisa import DrisaShifter
from repro.inmem.salp import salp_speedup


class TestAmbit:
    def test_truth_tables_on_rows(self, rng):
        unit = AmbitUnit()
        a = rng.integers(0, 256, 32).astype(np.uint8)
        b = rng.integers(0, 256, 32).astype(np.uint8)
        assert np.array_equal(unit.bitwise_and(a, b), a & b)
        assert np.array_equal(unit.bitwise_or(a, b), a | b)
        assert np.array_equal(unit.bitwise_xor(a, b), a ^ b)
        assert np.array_equal(unit.bitwise_not(a), np.bitwise_not(a))
        assert np.array_equal(unit.bitwise_xnor(a, b), np.bitwise_not(a ^ b))

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    def test_majority_is_bitwise_majority(self, x, y, z):
        unit = AmbitUnit()
        a, b, c = (np.array([v], dtype=np.uint8) for v in (x, y, z))
        expected = (x & y) | (y & z) | (x & z)
        assert unit.majority(a, b, c)[0] == expected

    def test_operate_rows_in_subarray(self, small_geometry, rng):
        subarray = Subarray(small_geometry)
        a = rng.integers(0, 256, small_geometry.row_size_bytes).astype(np.uint8)
        b = rng.integers(0, 256, small_geometry.row_size_bytes).astype(np.uint8)
        subarray.load_row(0, a)
        subarray.load_row(1, b)
        unit = AmbitUnit()
        unit.operate_rows(subarray, "xor", [0, 1], 10)
        assert np.array_equal(subarray.peek_row(10), a ^ b)

    def test_operand_count_validation(self, small_geometry):
        unit = AmbitUnit()
        subarray = Subarray(small_geometry)
        with pytest.raises(ConfigurationError):
            unit.operate_rows(subarray, "and", [0], 5)
        with pytest.raises(ConfigurationError):
            unit.operate_rows(subarray, "not", [0, 1], 5)
        with pytest.raises(ConfigurationError):
            unit.operate_rows(subarray, "nonsense", [0, 1], 5)

    def test_command_costs_recorded(self):
        trace = CommandTrace(timing=DDR4_2400, energy=DDR4_ENERGY)
        unit = AmbitUnit(trace)
        unit.bitwise_and(np.zeros(4, np.uint8), np.zeros(4, np.uint8))
        assert trace.count(CommandType.TRA) == unit.command_count("and")
        unit.bitwise_xor(np.zeros(4, np.uint8), np.zeros(4, np.uint8))
        assert trace.count(CommandType.TRA) == unit.command_count("and") + unit.command_count("xor")

    def test_xor_costs_more_than_and(self):
        unit = AmbitUnit()
        assert unit.command_count("xor") > unit.command_count("and")
        assert unit.command_count("not") < unit.command_count("and")


class TestDrisa:
    def test_command_decomposition(self):
        shifter = DrisaShifter()
        assert shifter.commands_for(0) == 0
        assert shifter.commands_for(1) == 1
        assert shifter.commands_for(8) == 1
        assert shifter.commands_for(12) == 1 + 4
        assert shifter.commands_for(17) == 2 + 1

    def test_row_shift_left_right_inverse(self, rng):
        shifter = DrisaShifter()
        row = rng.integers(0, 256, 16).astype(np.uint8)
        left = shifter.shift_row_left(row, 8)
        back = shifter.shift_row_right(left, 8)
        # One byte falls off each end.
        assert np.array_equal(back[:-1], row[:-1])

    def test_element_wise_shift(self):
        shifter = DrisaShifter()
        from repro.utils.bitops import pack_elements, unpack_elements

        values = np.array([1, 2, 3, 4], dtype=np.uint64)
        row = pack_elements(values, 8, 8)
        shifted = shifter.shift_elements_left(row, 4, 8, 4)
        recovered = unpack_elements(shifted, 8, 4)
        assert np.array_equal(recovered, (values << np.uint64(4)) & np.uint64(0xFF))

    def test_negative_shift_rejected(self):
        with pytest.raises(ConfigurationError):
            DrisaShifter().shift_row_left(np.zeros(4, np.uint8), -1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=64))
    def test_shift_preserves_bit_count_upper_bound(self, bits):
        shifter = DrisaShifter()
        row = np.full(16, 0xFF, dtype=np.uint8)
        shifted = shifter.shift_row_left(row, bits)
        assert int(np.unpackbits(shifted).sum()) == max(0, 128 - bits)


class TestSalp:
    def test_unconstrained_speedup_is_linear(self):
        assert salp_speedup(16, DDR4_2400) == pytest.approx(16.0)
        assert salp_speedup(512, DDR4_2400) == pytest.approx(512.0)

    def test_tfaw_limits_speedup(self):
        limited = salp_speedup(64, DDR4_2400, tfaw_fraction=1.0)
        assert limited < 64.0
        assert limited >= 1.0

    def test_tighter_tfaw_means_lower_speedup(self):
        relaxed = salp_speedup(64, DDR4_2400, tfaw_fraction=0.5)
        nominal = salp_speedup(64, DDR4_2400, tfaw_fraction=1.0)
        assert nominal <= relaxed

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            salp_speedup(0, DDR4_2400)
        with pytest.raises(ConfigurationError):
            salp_speedup(4, DDR4_2400, act_interval_ns=0.0)
