"""Tests for the pLUTo ISA, registers, programs, and the Library LUT builders."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.handles import ApiCall, PlutoVector
from repro.api.luts import (
    add_lut,
    binarize_lut,
    bitcount_lut,
    bitwise_lut,
    color_grade_lut,
    crc8_lut,
    crc16_lut,
    crc32_lut,
    identity_lut,
    multiply_lut,
    permutation_lut,
    quantize_lut,
    relu_lut,
)
from repro.api.session import PlutoSession
from repro.errors import CompilationError, ConfigurationError, LUTError
from repro.isa.instructions import (
    BitwiseKind,
    PlutoBitShift,
    PlutoBitwise,
    PlutoMove,
    PlutoOp,
    PlutoRowAlloc,
    PlutoSubarrayAlloc,
    ShiftDirection,
)
from repro.isa.program import PlutoProgram
from repro.isa.registers import RegisterFile
from repro.errors import AllocationError


class TestRegisters:
    def test_allocation_and_naming(self):
        registers = RegisterFile()
        row = registers.allocate_row(1024, 8)
        subarray = registers.allocate_subarray(256, "add4")
        assert row.name == "$prg0"
        assert subarray.name == "$lut_rg0"
        assert registers.row(0) is row
        assert registers.subarray(0) is subarray

    def test_exhaustion(self):
        registers = RegisterFile(max_row_registers=1, max_subarray_registers=1)
        registers.allocate_row(8, 8)
        registers.allocate_subarray(4, "x")
        with pytest.raises(AllocationError):
            registers.allocate_row(8, 8)
        with pytest.raises(AllocationError):
            registers.allocate_subarray(4, "y")

    def test_invalid_lookups(self):
        registers = RegisterFile()
        with pytest.raises(AllocationError):
            registers.row(0)
        with pytest.raises(AllocationError):
            registers.allocate_row(0, 8)


class TestInstructions:
    def test_pluto_op_validation(self):
        registers = RegisterFile()
        src = registers.allocate_row(8, 8)
        dst = registers.allocate_row(8, 8)
        lut = registers.allocate_subarray(256, "add4")
        instruction = PlutoOp(dst, src, lut, 256, 8)
        assert "pluto_op" in instruction.render()
        with pytest.raises(ConfigurationError):
            PlutoOp(dst, src, lut, 255, 8)  # not a power of two
        with pytest.raises(ConfigurationError):
            PlutoOp(dst, src, lut, 256, 4)  # element width < index width

    def test_bitwise_operand_counts(self):
        registers = RegisterFile()
        a = registers.allocate_row(8, 8)
        b = registers.allocate_row(8, 8)
        c = registers.allocate_row(8, 8)
        PlutoBitwise(BitwiseKind.AND, c, a, b)
        PlutoBitwise(BitwiseKind.NOT, c, a)
        with pytest.raises(ConfigurationError):
            PlutoBitwise(BitwiseKind.AND, c, a)
        with pytest.raises(ConfigurationError):
            PlutoBitwise(BitwiseKind.NOT, c, a, b)

    def test_shift_renders_amount(self):
        registers = RegisterFile()
        target = registers.allocate_row(8, 8)
        shift = PlutoBitShift(ShiftDirection.LEFT, target, 4)
        assert shift.render() == "pluto_bit_shift_l $prg0, #4"
        with pytest.raises(ConfigurationError):
            PlutoBitShift(ShiftDirection.LEFT, target, -1)

    def test_program_validation_def_before_use(self):
        registers = RegisterFile()
        src = registers.allocate_row(8, 8)
        dst = registers.allocate_row(8, 8)
        program = PlutoProgram()
        program.append(PlutoMove(destination=dst, source=src))
        with pytest.raises(CompilationError):
            program.validate()
        # Adding the allocations first makes the program valid.
        fixed = PlutoProgram()
        fixed.append(PlutoRowAlloc(src, 8, 8))
        fixed.append(PlutoRowAlloc(dst, 8, 8))
        fixed.append(PlutoMove(destination=dst, source=src))
        fixed.validate()

    def test_program_statistics_and_listing(self):
        registers = RegisterFile()
        src = registers.allocate_row(8, 8)
        dst = registers.allocate_row(8, 8)
        lut = registers.allocate_subarray(16, "bc4")
        program = PlutoProgram()
        program.extend(
            [
                PlutoRowAlloc(src, 8, 8),
                PlutoRowAlloc(dst, 8, 8),
                PlutoSubarrayAlloc(lut, 16, "bc4"),
                PlutoOp(dst, src, lut, 16, 8),
            ]
        )
        assert program.lut_queries == 1
        assert len(program) == 4
        listing = program.listing()
        assert "pluto_subarray_alloc" in listing
        assert listing.count("\n") == 3


class TestLutBuilders:
    def test_identity(self):
        lut = identity_lut(4)
        assert lut.query(np.arange(16)).tolist() == list(range(16))

    def test_add_and_multiply(self):
        add4 = add_lut(4)
        mul4 = multiply_lut(4)
        assert add4[(7 << 4) | 8] == 15
        assert mul4[(7 << 4) | 8] == 56
        assert add4.num_entries == 256

    def test_bitwise_lut_truth_table(self):
        xor1 = bitwise_lut("xor", 1)
        assert [xor1[i] for i in range(4)] == [0, 1, 1, 0]
        with pytest.raises(LUTError):
            bitwise_lut("nope")

    def test_bitcount(self):
        bc8 = bitcount_lut(8)
        assert bc8[0xFF] == 8
        assert bc8[0b10101010] == 4

    def test_binarize_threshold(self):
        lut = binarize_lut(127)
        assert lut[127] == 0
        assert lut[128] == 255
        with pytest.raises(LUTError):
            binarize_lut(300)

    def test_color_grade_monotonic(self):
        lut = color_grade_lut()
        values = [lut[i] for i in range(256)]
        assert values[0] == 0
        assert values[255] == 255
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_crc_tables_match_reference_update(self):
        # Verify one table entry of each CRC against a bit-serial computation.
        def crc8_bitwise(byte):
            crc = byte
            for _ in range(8):
                crc = ((crc << 1) ^ 0x07) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
            return crc

        table = crc8_lut()
        assert all(table[i] == crc8_bitwise(i) for i in range(256))
        assert crc16_lut().element_bits == 16
        assert crc32_lut().element_bits == 32

    def test_permutation_lut_validation(self):
        with pytest.raises(LUTError):
            permutation_lut(list(range(255)), bits=8)
        with pytest.raises(LUTError):
            permutation_lut([0] * 256, bits=8)
        lut = permutation_lut(list(reversed(range(256))), bits=8)
        assert lut[0] == 255

    def test_qnn_luts(self):
        relu = relu_lut(8)
        assert relu[5] == 5 and relu[200] == 0  # 200 is negative in two's complement
        quant = quantize_lut(8, 4)
        assert quant[0xFF] == 0xF
        with pytest.raises(LUTError):
            quantize_lut(4, 8)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
    def test_add_lut_property(self, a, b):
        assert add_lut(4)[(a << 4) | b] == a + b


class TestSession:
    def test_malloc_unique_names(self):
        session = PlutoSession()
        session.pluto_malloc(16, 8, "A")
        with pytest.raises(ConfigurationError):
            session.pluto_malloc(16, 8, "A")

    def test_recorded_calls(self):
        session = PlutoSession()
        a = session.pluto_malloc(16, 4)
        b = session.pluto_malloc(16, 4)
        out = session.pluto_malloc(16, 8)
        call = session.api_pluto_add(a, b, out, bit_width=4)
        assert call.is_lut_query
        assert call.lut.num_entries == 256
        assert len(session.calls) == 1

    def test_operand_width_check(self):
        session = PlutoSession()
        a = session.pluto_malloc(16, 2)
        b = session.pluto_malloc(16, 2)
        out = session.pluto_malloc(16, 8)
        with pytest.raises(ConfigurationError):
            session.api_pluto_add(a, b, out, bit_width=4)

    def test_map_requires_wide_enough_source(self, square_lut):
        session = PlutoSession()
        narrow = session.pluto_malloc(16, 4)
        out = session.pluto_malloc(16, 8)
        with pytest.raises(ConfigurationError):
            session.api_pluto_map(square_lut, narrow, out)

    def test_bitwise_and_shift_validation(self):
        session = PlutoSession()
        a = session.pluto_malloc(16, 8)
        out = session.pluto_malloc(16, 8)
        session.api_pluto_bitwise("not", a, None, out)
        with pytest.raises(ConfigurationError):
            session.api_pluto_bitwise("and", a, None, out)
        with pytest.raises(ConfigurationError):
            session.api_pluto_shift(a, out, -1)
        with pytest.raises(ConfigurationError):
            session.api_pluto_shift(a, out, 2, direction="x")

    def test_api_call_size_consistency(self):
        a = PlutoVector("a", 8, 8)
        b = PlutoVector("b", 16, 8)
        with pytest.raises(ConfigurationError):
            ApiCall(operation="add", inputs=(a, b), output=a)
