"""Regression tests for the PlutoSession API-validation bugfixes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.luts import BITWISE_OPERATIONS, binarize_lut, bitcount_lut, bitwise_lut
from repro.api.session import PlutoSession
from repro.errors import ConfigurationError, ExecutionError
from repro.plan import ExecutionPlan


class TestMallocValidation:
    @pytest.mark.parametrize("size", [0, -1, -100])
    def test_rejects_non_positive_size(self, size):
        session = PlutoSession()
        with pytest.raises(ConfigurationError):
            session.pluto_malloc(size, 8)
        # A failed allocation must not burn state: the next valid
        # allocation still gets the first auto-name.
        assert session.pluto_malloc(8, 8).name == "v0"

    @pytest.mark.parametrize("bit_width", [0, -4])
    def test_rejects_non_positive_bit_width(self, bit_width):
        session = PlutoSession()
        with pytest.raises(ConfigurationError):
            session.pluto_malloc(8, bit_width)
        assert not session.vectors

    def test_auto_name_skips_user_chosen_names(self):
        session = PlutoSession()
        session.pluto_malloc(8, 8, name="v0")
        session.pluto_malloc(8, 8, name="v2")
        auto_one = session.pluto_malloc(8, 8)
        auto_two = session.pluto_malloc(8, 8)
        assert auto_one.name == "v1"
        assert auto_two.name == "v3"
        assert len({vector.name for vector in session.vectors}) == 4

    def test_explicit_duplicate_still_rejected(self):
        session = PlutoSession()
        session.pluto_malloc(8, 8, name="data")
        with pytest.raises(ConfigurationError):
            session.pluto_malloc(8, 8, name="data")


class TestOutputWidthValidation:
    def test_add_rejects_narrow_output(self):
        session = PlutoSession()
        a = session.pluto_malloc(16, 4, "a")
        b = session.pluto_malloc(16, 4, "b")
        narrow = session.pluto_malloc(16, 4, "narrow")
        with pytest.raises(ConfigurationError):
            session.api_pluto_add(a, b, narrow, bit_width=4)

    def test_mul_rejects_narrow_output(self):
        session = PlutoSession()
        a = session.pluto_malloc(16, 4, "a")
        b = session.pluto_malloc(16, 4, "b")
        narrow = session.pluto_malloc(16, 6, "narrow")
        with pytest.raises(ConfigurationError):
            session.api_pluto_mul(a, b, narrow, bit_width=4)

    def test_map_rejects_narrow_output(self):
        session = PlutoSession()
        source = session.pluto_malloc(16, 8, "source")
        narrow = session.pluto_malloc(16, 4, "narrow")
        with pytest.raises(ConfigurationError):
            session.api_pluto_map(bitcount_lut(8), source, narrow)

    def test_bitwise_lut_rejects_narrow_output(self):
        session = PlutoSession()
        a = session.pluto_malloc(16, 1, "a")
        b = session.pluto_malloc(16, 1, "b")
        narrow = session.pluto_malloc(16, 1, "narrow")
        with pytest.raises(ConfigurationError):
            session.api_pluto_bitwise_lut("xor", a, b, narrow)

    def test_exact_width_accepted_and_executes(self):
        session = PlutoSession()
        a = session.pluto_malloc(16, 4, "a")
        b = session.pluto_malloc(16, 4, "b")
        out = session.pluto_malloc(16, 8, "out")
        session.api_pluto_add(a, b, out, bit_width=4)
        data = np.arange(16) % 16
        result = session.run({"a": data, "b": data})
        assert np.array_equal(result.outputs["out"], data + data)


class TestBitwiseUnification:
    """Both bitwise entry points accept the same set, with the same error."""

    @pytest.mark.parametrize("operation", sorted(BITWISE_OPERATIONS))
    def test_bitwise_accepts_full_set(self, operation):
        session = PlutoSession()
        a = session.pluto_malloc(16, 4, "a")
        b = session.pluto_malloc(16, 4, "b")
        out = session.pluto_malloc(16, 4, f"out_{operation}")
        session.api_pluto_bitwise(operation, a, b, out)

    @pytest.mark.parametrize("operation", sorted(BITWISE_OPERATIONS))
    def test_bitwise_lut_accepts_full_set(self, operation):
        session = PlutoSession()
        a = session.pluto_malloc(16, 1, "a")
        b = session.pluto_malloc(16, 1, "b")
        out = session.pluto_malloc(16, 2, f"out_{operation}")
        session.api_pluto_bitwise_lut(operation, a, b, out)

    @pytest.mark.parametrize("operation", ["nope", "mux", ""])
    def test_both_raise_configuration_error(self, operation):
        session = PlutoSession()
        a = session.pluto_malloc(16, 2, "a")
        b = session.pluto_malloc(16, 2, "b")
        out = session.pluto_malloc(16, 2, "out")
        with pytest.raises(ConfigurationError):
            session.api_pluto_bitwise(operation, a, b, out)
        with pytest.raises(ConfigurationError):
            session.api_pluto_bitwise_lut(operation, a, b, out)

    @pytest.mark.parametrize("operation", ["nand", "nor"])
    def test_new_kinds_execute_bit_exactly(self, operation):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 16, 64)
        b = rng.integers(0, 16, 64)
        session = PlutoSession()
        va = session.pluto_malloc(64, 4, "a")
        vb = session.pluto_malloc(64, 4, "b")
        out = session.pluto_malloc(64, 4, "out")
        session.api_pluto_bitwise(operation, va, vb, out)
        result = session.run({"a": a, "b": b})
        combined = (a & b) if operation == "nand" else (a | b)
        assert np.array_equal(result.outputs["out"], (~combined) & 0xF)

    @pytest.mark.parametrize("operation", sorted(BITWISE_OPERATIONS))
    def test_lut_and_ambit_paths_agree(self, operation):
        """The 4-entry-LUT route computes the same bit as the Ambit route."""
        rng = np.random.default_rng(4)
        a = rng.integers(0, 2, 32)
        b = rng.integers(0, 2, 32)
        lut_session = PlutoSession()
        va = lut_session.pluto_malloc(32, 1, "a")
        vb = lut_session.pluto_malloc(32, 1, "b")
        out = lut_session.pluto_malloc(32, 2, "out")
        lut_session.api_pluto_bitwise_lut(operation, va, vb, out)
        ambit_session = PlutoSession()
        wa = ambit_session.pluto_malloc(32, 1, "a")
        wb = ambit_session.pluto_malloc(32, 1, "b")
        wout = ambit_session.pluto_malloc(32, 1, "out")
        ambit_session.api_pluto_bitwise(operation, wa, wb, wout)
        inputs = {"a": a, "b": b}
        lut_bit = lut_session.run(inputs).outputs["out"] & 1
        ambit_bit = ambit_session.run(inputs).outputs["out"] & 1
        assert np.array_equal(lut_bit, ambit_bit)

    def test_lut_builder_error_mentions_supported_set(self):
        from repro.errors import LUTError

        with pytest.raises(LUTError, match="nand"):
            bitwise_lut("madd")


#: Every way a front door runs a program: one bank, bank shards of one
#: size (4) or two sizes (5), and shards over the whole device.
SHAPE_PLANS = {
    "default": None,
    "shards=4": ExecutionPlan(shards=4),
    "shards=5": ExecutionPlan(shards=5),
    "hierarchical": ExecutionPlan(shards=3, channels=None, ranks=None),
}


class TestInputShapeValidation:
    """An input is a 1-D array of its vector's length on every path."""

    @pytest.mark.parametrize("backend", ["vectorized", "functional"])
    @pytest.mark.parametrize("plan", list(SHAPE_PLANS.values()), ids=list(SHAPE_PLANS))
    @pytest.mark.parametrize("shape", [(2, 15), (30, 1)], ids=["2x15", "30x1"])
    def test_a_multi_dimensional_input_is_rejected_alike(self, backend, plan, shape):
        session = PlutoSession(backend=backend)
        x = session.pluto_malloc(30, 8, "x")
        y = session.pluto_malloc(30, 8, "y")
        session.api_pluto_map(binarize_lut(127), x, y)
        data = np.arange(30, dtype=np.uint64).reshape(shape)
        for _ in range(2):  # the cold run and the warm one
            with pytest.raises(ExecutionError) as caught:
                session.run({"x": data}, plan=plan)
            assert str(caught.value) == f"input 'x' has shape {shape}, expected (30,)"
