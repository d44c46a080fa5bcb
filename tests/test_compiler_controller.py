"""End-to-end tests of the compiler and controller (Section 6 stack)."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api.luts import bitcount_lut, binarize_lut
from repro.api.session import PlutoSession
from repro.compiler.dependency_graph import DependencyGraph
from repro.compiler.lowering import PlutoCompiler
from repro.controller.allocation_table import AllocationTable
from repro.controller.executor import PlutoController
from repro.controller.rom import CommandRom
from repro.core.designs import PlutoDesign
from repro.core.engine import PlutoConfig, PlutoEngine
from repro.dram.commands import CommandType
from repro.dram.geometry import DDR4_8GB
from repro.errors import AllocationError, CompilationError, ExecutionError
from repro.isa.instructions import PlutoOp, PlutoRowAlloc


def _compile_multiply_add(n: int):
    """Build and compile the Figure 5 multiply-and-add program."""
    session = PlutoSession()
    a = session.pluto_malloc(n, 2, "A")
    b = session.pluto_malloc(n, 2, "B")
    c = session.pluto_malloc(n, 4, "C")
    tmp = session.pluto_malloc(n, 4, "tmp")
    out = session.pluto_malloc(n, 8, "out")
    session.api_pluto_mul(a, b, tmp, bit_width=2)
    session.api_pluto_add(c, tmp, out, bit_width=4)
    return PlutoCompiler().compile(session.calls)


class TestDependencyGraph:
    def test_execution_order_respects_dependences(self):
        session = PlutoSession()
        a = session.pluto_malloc(8, 4, "a")
        b = session.pluto_malloc(8, 4, "b")
        t = session.pluto_malloc(8, 8, "t")
        out = session.pluto_malloc(8, 8, "out")
        session.api_pluto_add(a, b, t, bit_width=4)
        session.api_pluto_map(bitcount_lut(8), t, out)
        graph = DependencyGraph(session.calls)
        order = graph.execution_order()
        assert order[0].operation == "add"
        assert order[1].operation == "map"
        assert graph.depth == 2
        assert {v.name for v in graph.external_inputs()} == {"a", "b"}
        assert [v.name for v in graph.outputs()] == ["out"]

    def test_double_assignment_rejected(self):
        session = PlutoSession()
        a = session.pluto_malloc(8, 4, "a")
        b = session.pluto_malloc(8, 4, "b")
        out = session.pluto_malloc(8, 8, "out")
        session.api_pluto_add(a, b, out, bit_width=4)
        session.api_pluto_add(a, b, out, bit_width=4)
        with pytest.raises(CompilationError, match="written by more than one API call"):
            DependencyGraph(session.calls)

    def test_out_of_order_calls_break_ties_by_index(self):
        session = PlutoSession()
        a = session.pluto_malloc(8, 8, "a")
        t = session.pluto_malloc(8, 8, "t")
        u = session.pluto_malloc(8, 8, "u")
        out = session.pluto_malloc(8, 8, "out")
        # The consumer of t is recorded before its producer.
        session.api_pluto_map(bitcount_lut(8), t, out)
        session.api_pluto_map(bitcount_lut(8), a, t)
        session.api_pluto_move(a, u)
        graph = DependencyGraph(session.calls)
        calls = session.calls
        assert [id(c) for c in graph.execution_order()] == [
            id(calls[1]),
            id(calls[0]),
            id(calls[2]),
        ]
        assert graph.depth == 2
        assert [v.name for v in graph.external_inputs()] == ["a"]
        assert [v.name for v in graph.outputs()] == ["out", "u"]

    def test_diamond_depth_is_the_longest_chain(self):
        session = PlutoSession()
        a, src, left, mid, right, out = (
            session.pluto_malloc(8, 8, name)
            for name in ("a", "src", "left", "mid", "right", "out")
        )
        # src feeds both arms; the right arm is one call longer.
        session.api_pluto_bitwise("and", left, right, out)
        session.api_pluto_move(mid, right)
        session.api_pluto_move(src, mid)
        session.api_pluto_move(src, left)
        session.api_pluto_move(a, src)
        graph = DependencyGraph(session.calls)
        assert [c.output.name for c in graph.execution_order()] == [
            "src",
            "mid",
            "right",
            "left",
            "out",
        ]
        assert graph.depth == 4

    def test_cycle_rejected(self):
        session = PlutoSession()
        x = session.pluto_malloc(8, 8, "x")
        y = session.pluto_malloc(8, 8, "y")
        session.api_pluto_move(x, y)
        session.api_pluto_move(y, x)
        with pytest.raises(CompilationError, match="the API program contains a dependency cycle"):
            DependencyGraph(session.calls)

    def test_empty_program(self):
        graph = DependencyGraph([])
        assert graph.execution_order() == []
        assert graph.depth == 0
        assert graph.external_inputs() == []
        assert graph.outputs() == []

    def test_compiling_imports_only_numpy_and_the_standard_library(self):
        """``setup.py`` declares numpy as the only runtime dependency."""
        script = textwrap.dedent(
            """
            import sys

            import numpy

            before = {name.split(".")[0] for name in sys.modules}
            from repro.api.luts import bitcount_lut
            from repro.api.session import PlutoSession

            session = PlutoSession()
            a = session.pluto_malloc(8, 8, "a")
            out = session.pluto_malloc(8, 8, "out")
            session.api_pluto_map(bitcount_lut(8), a, out)
            session.compile()
            session.run({"a": numpy.arange(8)}, plan="auto")
            added = {name.split(".")[0] for name in sys.modules} - before
            print(sorted(added - set(sys.stdlib_module_names) - {"repro", "__mp_main__"}))
            """
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert completed.stdout.strip() == "[]"


class TestCompiler:
    def test_figure5_program_structure(self):
        compiled = _compile_multiply_add(64)
        listing = compiled.program.listing()
        # The lowering inserts shift + OR alignment before each pluto_op.
        assert listing.count("pluto_op") == 2
        assert listing.count("pluto_bit_shift_l") == 2
        assert listing.count("pluto_or") == 2
        assert compiled.program.count(PlutoOp) == 2
        assert len(compiled.lut_bindings) == 2
        assert {v.name for v in compiled.external_inputs} == {"A", "B", "C"}
        assert [v.name for v in compiled.outputs] == ["out"]
        compiled.program.validate()

    def test_shared_lut_allocated_once(self):
        session = PlutoSession()
        a = session.pluto_malloc(8, 4, "a")
        b = session.pluto_malloc(8, 4, "b")
        c = session.pluto_malloc(8, 4, "c")
        t1 = session.pluto_malloc(8, 8, "t1")
        t2 = session.pluto_malloc(8, 8, "t2")
        session.api_pluto_add(a, b, t1, bit_width=4)
        session.api_pluto_add(a, c, t2, bit_width=4)
        compiled = PlutoCompiler().compile(session.calls)
        # Both additions use the same add4 LUT -> one subarray register.
        assert len(compiled.lut_bindings) == 1

    def test_empty_program_rejected(self):
        with pytest.raises(CompilationError):
            PlutoCompiler().compile([])


class TestAllocationTableAndRom:
    def test_rows_and_lut_subarrays_disjoint(self):
        from repro.isa.registers import RegisterFile

        registers = RegisterFile()
        table = AllocationTable(DDR4_8GB)
        row_register = registers.allocate_row(100_000, 8)
        lut_register = registers.allocate_subarray(256, "x")
        row_allocation = table.bind_row(row_register)
        lut_allocation = table.bind_subarray(lut_register)
        assert row_allocation.subarray != lut_allocation.subarray
        assert row_allocation.num_rows == -(-100_000 // DDR4_8GB.elements_per_row(8))
        assert len(row_allocation.addresses) == row_allocation.num_rows
        # Binding again returns the same placement.
        assert table.bind_row(row_register) == row_allocation
        assert table.rows_in_use == row_allocation.num_rows
        assert table.lut_subarrays_in_use == 1

    def test_oversized_lut_rejected(self):
        from repro.isa.registers import RegisterFile

        registers = RegisterFile()
        table = AllocationTable(DDR4_8GB)
        big = registers.allocate_subarray(1024, "big")
        with pytest.raises(AllocationError):
            table.bind_subarray(big)

    def test_rom_expansion_counts(self):
        from repro.isa.registers import RegisterFile
        from repro.isa.instructions import BitwiseKind, PlutoBitwise, PlutoBitShift, ShiftDirection

        registers = RegisterFile()
        a = registers.allocate_row(8, 8)
        b = registers.allocate_row(8, 8)
        lut = registers.allocate_subarray(16, "bc4")
        rom = CommandRom()
        assert rom.expand(PlutoRowAlloc(a, 8, 8)) == []
        sweep = rom.expand(PlutoOp(a, b, lut, 16, 8))
        assert len(sweep) == 1 and sweep[0].kind is CommandType.ROW_SWEEP
        assert sweep[0].rows == 16
        xor = rom.expand(PlutoBitwise(BitwiseKind.XOR, a, a, b))
        assert len(xor) == 7
        shift = rom.expand(PlutoBitShift(ShiftDirection.LEFT, a, 12))
        assert len(shift) == 5


class TestController:
    @pytest.mark.parametrize("design", list(PlutoDesign))
    def test_multiply_add_end_to_end(self, design, rng):
        n = 48
        compiled = _compile_multiply_add(n)
        a = rng.integers(0, 4, n)
        b = rng.integers(0, 4, n)
        c = rng.integers(0, 16, n)
        controller = PlutoController(PlutoEngine(PlutoConfig(design=design)))
        result = controller.execute(compiled, {"A": a, "B": b, "C": c})
        assert np.array_equal(result.outputs["out"], a * b + c)
        assert result.lut_queries == 2
        assert result.latency_ns > 0
        assert result.energy_nj > 0

    def test_unary_map_program(self, rng):
        session = PlutoSession()
        pixels = session.pluto_malloc(100, 8, "pixels")
        out = session.pluto_malloc(100, 8, "binary")
        session.api_pluto_map(binarize_lut(127), pixels, out)
        compiled = PlutoCompiler().compile(session.calls)
        data = rng.integers(0, 256, 100)
        result = PlutoController().execute(compiled, {"pixels": data})
        expected = np.where(data > 127, 255, 0)
        assert np.array_equal(result.outputs["binary"], expected)

    def test_bitwise_program(self, rng):
        session = PlutoSession()
        a = session.pluto_malloc(64, 8, "a")
        b = session.pluto_malloc(64, 8, "b")
        out = session.pluto_malloc(64, 8, "out")
        session.api_pluto_bitwise("xor", a, b, out)
        compiled = PlutoCompiler().compile(session.calls)
        x = rng.integers(0, 256, 64)
        y = rng.integers(0, 256, 64)
        result = PlutoController().execute(compiled, {"a": x, "b": y})
        assert np.array_equal(result.outputs["out"], x ^ y)

    def test_missing_input_rejected(self):
        compiled = _compile_multiply_add(8)
        with pytest.raises(ExecutionError):
            PlutoController().execute(compiled, {"A": np.zeros(8, dtype=int)})

    def test_wrong_sized_input_rejected(self):
        compiled = _compile_multiply_add(8)
        inputs = {
            "A": np.zeros(4, dtype=int),
            "B": np.zeros(8, dtype=int),
            "C": np.zeros(8, dtype=int),
        }
        with pytest.raises(ExecutionError):
            PlutoController().execute(compiled, inputs)

    def test_out_of_range_input_rejected(self):
        compiled = _compile_multiply_add(8)
        inputs = {
            "A": np.full(8, 7),  # A is a 2-bit vector
            "B": np.zeros(8, dtype=int),
            "C": np.zeros(8, dtype=int),
        }
        with pytest.raises(ExecutionError):
            PlutoController().execute(compiled, inputs)

    def test_trace_contains_row_sweeps_and_loads(self, rng):
        compiled = _compile_multiply_add(16)
        controller = PlutoController()
        result = controller.execute(
            compiled,
            {
                "A": rng.integers(0, 4, 16),
                "B": rng.integers(0, 4, 16),
                "C": rng.integers(0, 16, 16),
            },
        )
        assert result.trace.count(CommandType.ROW_SWEEP) == 2
        assert result.trace.count(CommandType.LISA_RBM) >= 2  # LUT loads + moves

    def test_gsa_latency_higher_than_gmc(self, rng):
        n = 32
        inputs = {
            "A": rng.integers(0, 4, n),
            "B": rng.integers(0, 4, n),
            "C": rng.integers(0, 16, n),
        }
        results = {}
        for design in (PlutoDesign.GSA, PlutoDesign.GMC):
            compiled = _compile_multiply_add(n)
            controller = PlutoController(PlutoEngine(PlutoConfig(design=design)))
            results[design] = controller.execute(compiled, dict(inputs)).latency_ns
        assert results[PlutoDesign.GSA] > results[PlutoDesign.GMC]
