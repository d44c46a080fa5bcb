"""Tests for bit-manipulation utilities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.utils.bitops import (
    bit_length_for,
    mask_of,
    pack_elements,
    unpack_elements,
)


class TestMaskOf:
    def test_zero_bits(self):
        assert mask_of(0) == 0

    def test_small_masks(self):
        assert mask_of(1) == 1
        assert mask_of(4) == 0xF
        assert mask_of(8) == 0xFF

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            mask_of(-1)


class TestBitLengthFor:
    def test_single_entry_lut(self):
        assert bit_length_for(1) == 1

    def test_power_of_two_luts(self):
        assert bit_length_for(2) == 1
        assert bit_length_for(16) == 4
        assert bit_length_for(256) == 8

    def test_non_power_of_two_rounds_up(self):
        assert bit_length_for(200) == 8
        assert bit_length_for(257) == 9

    def test_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            bit_length_for(0)


class TestPacking:
    def test_roundtrip_4bit(self):
        values = np.array([1, 2, 3, 15, 0, 7], dtype=np.uint64)
        row = pack_elements(values, 4, 8)
        assert row.shape == (8,)
        recovered = unpack_elements(row, 4, values.size)
        assert np.array_equal(recovered, values)

    def test_roundtrip_non_byte_aligned_width(self):
        values = np.array([5, 2, 7, 1, 0, 6, 3], dtype=np.uint64)
        row = pack_elements(values, 3, 4)
        recovered = unpack_elements(row, 3, values.size)
        assert np.array_equal(recovered, values)

    def test_overflowing_element_rejected(self):
        with pytest.raises(ConfigurationError):
            pack_elements(np.array([16], dtype=np.uint64), 4, 8)

    def test_too_many_elements_rejected(self):
        with pytest.raises(ConfigurationError):
            pack_elements(np.arange(100, dtype=np.uint64) % 2, 1, 4)

    def test_unpack_too_many_rejected(self):
        row = np.zeros(4, dtype=np.uint8)
        with pytest.raises(ConfigurationError):
            unpack_elements(row, 8, 5)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=32),
    )
    def test_roundtrip_property_8bit(self, values):
        array = np.array(values, dtype=np.uint64)
        row = pack_elements(array, 8, 64)
        assert np.array_equal(unpack_elements(row, 8, array.size), array)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12),
        st.data(),
    )
    def test_roundtrip_property_any_width(self, bits, data):
        values = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=mask_of(bits)),
                min_size=1,
                max_size=16,
            )
        )
        array = np.array(values, dtype=np.uint64)
        row = pack_elements(array, bits, 32)
        assert np.array_equal(unpack_elements(row, bits, array.size), array)
