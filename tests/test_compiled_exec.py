"""Tests for the whole-program compiled execution tier (backend/compiled.py).

Contract: executing through the compiled tier — one cached NumPy closure
per program structure — is indistinguishable from the per-instruction
interpreted vectorized walk and from the functional oracle: bit-identical
outputs and registers, identical command traces and totals, identical
error behavior (messages included).  Each closure is kept on its
compiled program, so it is bounded with the program cache, surfaced
through ``repro.api.cache_stats()``, and covered by
``clear_all_caches()``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro.api.session as session_module
from repro.api.luts import color_grade_lut
from repro.api.session import (
    PlutoSession,
    cache_stats,
    clear_all_caches,
    compile_cached_with_key,
)
from repro.backend.compiled import CompiledExecutable, compiled_exec_cached
from repro.controller.dispatch import ParallelDispatcher, ShardPlanner
from repro.controller.executor import PlutoController
from repro.core.engine import PlutoConfig, PlutoEngine
from repro.errors import ExecutionError, LUTError
from repro.workloads.programs import workload_program

ELEMENTS = 96


def _mixed_program(elements: int = ELEMENTS):
    """Every compilable instruction class: mul, add, map, bitwise, shift."""
    session = PlutoSession()
    a = session.pluto_malloc(elements, 2, "a")
    b = session.pluto_malloc(elements, 2, "b")
    c = session.pluto_malloc(elements, 4, "c")
    tmp = session.pluto_malloc(elements, 4, "tmp")
    summed = session.pluto_malloc(elements, 8, "summed")
    graded = session.pluto_malloc(elements, 8, "graded")
    mixed = session.pluto_malloc(elements, 8, "mixed")
    shifted = session.pluto_malloc(elements, 8, "shifted")
    session.api_pluto_mul(a, b, tmp, bit_width=2)
    session.api_pluto_add(c, tmp, summed, bit_width=4)
    session.api_pluto_map(color_grade_lut(), summed, graded)
    session.api_pluto_bitwise("xor", graded, summed, mixed)
    session.api_pluto_shift(mixed, shifted, 2, "r")
    rng = np.random.default_rng(9)
    inputs = {
        "a": rng.integers(0, 4, elements, dtype=np.uint64),
        "b": rng.integers(0, 4, elements, dtype=np.uint64),
        "c": rng.integers(0, 16, elements, dtype=np.uint64),
    }
    return session, inputs


def _assert_identical(result, reference):
    assert set(result.outputs) == set(reference.outputs)
    for name, data in reference.outputs.items():
        assert np.array_equal(result.outputs[name], data), name
    assert set(result.registers) == set(reference.registers)
    for name, data in reference.registers.items():
        assert np.array_equal(result.registers[name], data), name
    assert result.lut_queries == reference.lut_queries
    assert result.instructions_executed == reference.instructions_executed
    assert result.trace.total_latency_ns == reference.trace.total_latency_ns
    assert result.trace.total_energy_nj == reference.trace.total_energy_nj
    assert [
        (cmd.kind, cmd.bank, cmd.rows) for cmd in result.trace.commands
    ] == [(cmd.kind, cmd.bank, cmd.rows) for cmd in reference.trace.commands]


class TestCompiledParity:
    def test_matches_interpreted_and_functional(self, any_design):
        session, inputs = _mixed_program()
        compiled, key = compile_cached_with_key(session.calls)
        assert key is not None
        engine = PlutoEngine(PlutoConfig(design=any_design))
        jit = PlutoController(engine, backend="vectorized")
        interp = PlutoController(engine, backend="vectorized", jit=False)
        oracle = PlutoController(engine, backend="functional")
        result = jit.execute(compiled, dict(inputs), structure_key=key)
        _assert_identical(result, interp.execute(compiled, dict(inputs), structure_key=key))
        _assert_identical(result, oracle.execute(compiled, dict(inputs), structure_key=key))

    @pytest.mark.parametrize(
        "name", ["image", "salsa20", "crc", "vmpc", "bitcount", "vector_ops"]
    )
    def test_workload_programs_match(self, name):
        workload = workload_program(name, elements=64, seed=4)
        compiled, key = compile_cached_with_key(workload.session.calls)
        engine = PlutoEngine(PlutoConfig())
        jit = PlutoController(engine, backend="vectorized")
        interp = PlutoController(engine, backend="vectorized", jit=False)
        result = jit.execute(compiled, dict(workload.inputs), structure_key=key)
        reference = interp.execute(
            compiled, dict(workload.inputs), structure_key=key
        )
        _assert_identical(result, reference)

    def test_serve_bails_to_generic_path_on_extra_seeds(self):
        """Seeding a non-external register takes run_finals, same results."""
        session, inputs = _mixed_program(32)
        compiled, key = compile_cached_with_key(session.calls)
        seeded = dict(inputs, tmp=np.zeros(32, dtype=np.uint64))
        engine = PlutoEngine(PlutoConfig())
        jit = PlutoController(engine, backend="vectorized")
        interp = PlutoController(engine, backend="vectorized", jit=False)
        _assert_identical(
            jit.execute(compiled, dict(seeded), structure_key=key),
            interp.execute(compiled, dict(seeded), structure_key=key),
        )

    def test_error_behavior_matches_interpreted(self):
        """Same exception type AND message on every invalid-input shape."""
        workload = workload_program("image", elements=32, seed=0)
        compiled, key = compile_cached_with_key(workload.session.calls)
        engine = PlutoEngine(PlutoConfig())
        jit = PlutoController(engine, backend="vectorized")
        interp = PlutoController(engine, backend="vectorized", jit=False)
        cases = [
            # Signed -1 wraps to 2^64-1 as uint64: the width check on the
            # caller's dtype passes (max is -1), so the LUT query must
            # raise — the intp wrap window may not silently alias it.
            {"pixels": np.full(32, -1, dtype=np.int64)},
            {"pixels": np.full(32, 300, dtype=np.uint64)},
            {"pixels": np.zeros(31, dtype=np.uint64)},
            {},
            {"pixels": np.zeros(32, dtype=np.uint64), "bogus": np.zeros(32)},
        ]
        for inputs in cases:
            with pytest.raises((ExecutionError, LUTError)) as reference:
                interp.execute(compiled, dict(inputs), structure_key=key)
            with pytest.raises(type(reference.value)) as result:
                jit.execute(compiled, dict(inputs), structure_key=key)
            assert str(result.value) == str(reference.value)

    def test_functional_backend_never_compiles(self):
        session, inputs = _mixed_program(16)
        compiled, key = compile_cached_with_key(session.calls)
        oracle = PlutoController(backend="functional")
        assert oracle._compiled_executable(compiled, key) is None
        result = oracle.execute(compiled, dict(inputs), structure_key=key)
        assert result.backend == "functional"


class TestCompiledFused:
    def test_fused_dispatch_uses_compiled_tier(self):
        session, inputs = _mixed_program(66)
        engine = PlutoEngine(PlutoConfig())
        layout = ShardPlanner(engine.geometry).plan(session.calls, 3)
        fused = ParallelDispatcher(engine, fused=True).execute(layout, inputs)
        loop = ParallelDispatcher(engine, fused=False).execute(layout, inputs)
        for name, data in loop.outputs.items():
            assert np.array_equal(fused.outputs[name], data), name
        assert fused.makespan_ns == loop.makespan_ns

    def test_unequal_size_move_refuses_fused_closure(self):
        """A partial-row move (ISA level; the API forbids it) keeps the
        destination tail via slice assignment — which has no stacked
        equivalent, so the executable refuses fused execution."""
        from repro.api.handles import PlutoVector
        from repro.compiler.lowering import CompiledProgram
        from repro.isa.instructions import PlutoMove, PlutoRowAlloc
        from repro.isa.program import PlutoProgram
        from repro.isa.registers import RegisterFile

        register_file = RegisterFile()
        small = register_file.allocate_row(8, 8)
        big = register_file.allocate_row(16, 8)
        program = PlutoProgram()
        program.append(
            PlutoRowAlloc(destination=small, size_elements=8, bit_width=8)
        )
        program.append(
            PlutoRowAlloc(destination=big, size_elements=16, bit_width=8)
        )
        program.append(PlutoMove(destination=big, source=small))
        compiled = CompiledProgram(
            program=program,
            register_file=register_file,
            vector_bindings={"small": small, "big": big},
            lut_bindings={},
            external_inputs=[PlutoVector("small", 8, 8)],
            outputs=[PlutoVector("big", 16, 8)],
        )
        executable = compiled_exec_cached(compiled, structure_key=("partial-row move",))
        assert not executable.supports_fused
        with pytest.raises(ExecutionError, match="fused"):
            executable.run_finals(
                {"small": np.arange(8, dtype=np.uint64)}, shards=2
            )
        finals = executable.run_finals({"small": np.arange(8, dtype=np.uint64)})
        by_slot = dict(zip(executable.final_slots, finals))
        merged = by_slot[big.index]
        assert np.array_equal(merged[:8], np.arange(8))
        assert not merged[8:].any()  # the zero-initialized tail survives


def _closure_stats() -> dict:
    return cache_stats()["compiled_exec"]


class TestCompiledCache:
    def test_hit_then_eviction(self, monkeypatch):
        """The closure lives on its program: a reuse is a hit, and it
        leaves the cache with its program."""
        monkeypatch.setattr(session_module._PROGRAM_CACHE, "limit", 2)
        clear_all_caches()
        sessions = [_mixed_program(elements)[0] for elements in (16, 24, 32)]
        programs = [compile_cached_with_key(session.calls) for session in sessions]
        first, first_key = programs[0]
        assert _closure_stats()["size"] == 0

        executable = compiled_exec_cached(first, structure_key=first_key)
        assert isinstance(executable, CompiledExecutable)
        again = compiled_exec_cached(first, structure_key=first_key)
        assert again is executable  # hit returns the same closure
        stats = _closure_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

        # The third structure evicted the first program from the 2-entry
        # program cache, its closure with it: recompiling the structure
        # builds a fresh program whose closure is built again.
        for program, key in programs[1:]:
            compiled_exec_cached(program, structure_key=key)
        assert _closure_stats()["size"] == 2
        recompiled, _ = compile_cached_with_key(sessions[0].calls)
        assert recompiled is not first
        rebuilt = compiled_exec_cached(recompiled, structure_key=first_key)
        assert rebuilt is not executable
        assert _closure_stats()["misses"] > stats["misses"]

    def test_pickling_drops_the_closure_and_keeps_the_templates(self):
        session, inputs = _mixed_program(16)
        reference = session.run(inputs)
        compiled, key = compile_cached_with_key(session.calls)
        assert isinstance(compiled.__dict__["_jit_executable"], CompiledExecutable)
        assert list(compiled.templates) == [PlutoConfig()]
        clone = pickle.loads(pickle.dumps(compiled))
        assert "_jit_executable" not in clone.__dict__
        assert clone.templates == compiled.templates
        result = PlutoController(backend="vectorized").execute(
            clone, inputs, structure_key=key
        )
        assert isinstance(clone.__dict__["_jit_executable"], CompiledExecutable)
        assert result.trace.commands == reference.trace.commands
        for name, data in reference.outputs.items():
            assert np.array_equal(result.outputs[name], data)

    def test_uncompilable_key_is_counted(self):
        session, _ = _mixed_program(16)
        compiled, _ = compile_cached_with_key(session.calls)
        before = _closure_stats()["uncached"]
        assert compiled_exec_cached(compiled, structure_key=None) is None
        assert _closure_stats()["uncached"] == before + 1

    def test_surfaced_in_session_stats_and_cleared(self):
        session, inputs = _mixed_program(16)
        session.run(inputs)
        stats = cache_stats()["compiled_exec"]
        assert {"hits", "misses", "uncached", "size"} <= set(stats)
        clear_all_caches()
        cleared = cache_stats()["compiled_exec"]
        assert cleared["size"] == 0
        assert cleared["hits"] == 0 and cleared["misses"] == 0
