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
import threading
import tracemalloc

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
from repro.backend.compiled import BUFFERS, CompiledExecutable, compiled_exec_cached
from repro.controller.dispatch import ParallelDispatcher, ShardPlanner
from repro.controller.executor import PlutoController
from repro.core.engine import PlutoConfig, PlutoEngine
from repro.errors import ExecutionError, LUTError
from repro.workloads.programs import optimizer_workload_programs, workload_program

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


def _result_arrays(result) -> list:
    """Every output and register of ``result`` and of each of its shards."""
    return [
        array
        for part in (result, *getattr(result, "shard_results", []))
        for array in (*part.outputs.values(), *part.registers.values())
    ]


def _pinned(calls):
    """The program of ``calls`` and its key, with its closure built.

    A program's first run is interpreted and its second builds the
    closure; building it here makes a compiled controller's first run
    of the program take the closure.
    """
    compiled, key = compile_cached_with_key(calls)
    assert isinstance(compiled_exec_cached(compiled, structure_key=key), CompiledExecutable)
    return compiled, key


class TestCompiledParity:
    def test_matches_interpreted_and_functional(self, any_design):
        session, inputs = _mixed_program()
        compiled, key = _pinned(session.calls)
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
        compiled, key = _pinned(workload.session.calls)
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
        compiled, key = _pinned(session.calls)
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
        compiled, key = _pinned(workload.session.calls)
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
        for key, program in layout.programs.values():
            assert compiled_exec_cached(program, structure_key=key).supports_fused
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


class TestSeedCopies:
    """A final the closure never rebinds holds its input's seed: copied
    while it is the caller's array, handed out when the conversion to
    ``uint64`` already made it fresh, on every compiled route and on the
    interpreted walk."""

    ELEMENTS = 65536

    def _routes(self):
        """The serving entry, its ``run_finals`` fallback (an extra seed
        makes the entry bail out), the fused 8-shard pass and the
        interpreted walk."""
        session = PlutoSession()
        pixels = session.pluto_malloc(self.ELEMENTS, 8, "pixels")
        graded = session.pluto_malloc(self.ELEMENTS, 8, "graded")
        session.api_pluto_map(color_grade_lut(), pixels, graded)
        engine = PlutoEngine(PlutoConfig())
        compiled, key = _pinned(session.calls)
        controller = PlutoController(engine, backend="vectorized")
        extra = {"graded": np.zeros(self.ELEMENTS, dtype=np.uint64)}
        layout = ShardPlanner(engine.geometry).plan(session.calls, 8)
        for shard_key, program in layout.programs.values():
            assert compiled_exec_cached(program, structure_key=shard_key).supports_fused
        dispatcher = ParallelDispatcher(engine, fused=True)
        walk = PlutoController(engine, backend="vectorized", jit=False)
        return {
            "serve": lambda x: controller.execute(compiled, {"pixels": x}, structure_key=key),
            "run_finals": lambda x: controller.execute(
                compiled, {"pixels": x, **extra}, structure_key=key
            ),
            "fused": lambda x: dispatcher.execute(layout, {"pixels": x}),
            "interpreted": lambda x: walk.execute(compiled, {"pixels": x}, structure_key=key),
        }

    @pytest.mark.parametrize("route", ["serve", "run_finals", "fused", "interpreted"])
    def test_no_result_shares_an_input_and_int64_is_copied_once(self, route):
        run = self._routes()[route]
        peaks = {}
        for dtype in (np.uint64, np.int64):
            data = (np.arange(self.ELEMENTS) % 256).astype(dtype)
            result = run(data)  # the layout's first run schedules it
            # Nothing of this result may outlive the check: a live array
            # keeps its recycled buffer from the traced run below.
            assert not any(np.shares_memory(array, data) for array in _result_arrays(result))
            del result
            tracemalloc.start()
            try:
                result = run(data)
                peaks[dtype] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            del result
        # An int64 input is converted once and never copied again, so it
        # peaks no higher than a uint64 input, which is copied once.
        assert peaks[np.int64] - peaks[np.uint64] < data.nbytes // 4


def _buffers() -> dict:
    return cache_stats()["compiled_exec"]["buffers"]


class _Fused:
    """The six families at 65536 elements laid out over 8 shards, their
    closures built, on one vectorized fused dispatcher."""

    ELEMENTS = 65536

    def __init__(self) -> None:
        engine = PlutoEngine(PlutoConfig())
        planner = ShardPlanner(engine.geometry)
        self.dispatcher = ParallelDispatcher(engine, fused=True)
        self.families = {
            workload.name: workload
            for workload in optimizer_workload_programs(elements=self.ELEMENTS, seed=1)
        }
        self.layouts = {}
        for name, workload in self.families.items():
            layout = self.layouts[name] = planner.plan(workload.session.calls, 8)
            for key, program in layout.programs.values():
                assert compiled_exec_cached(program, structure_key=key).supports_fused
        # The image family is one 8-bit input mapped element by element,
        # so the functional oracle's result on every input value is a
        # table of each register over the input.
        every_value = np.arange(self.ELEMENTS, dtype=np.uint64) % 256
        oracle = PlutoController(engine, backend="functional").execute(
            compile_cached_with_key(self.families["image"].session.calls)[0],
            {"pixels": every_value},
        )
        self.tables = {name: data[:256].copy() for name, data in oracle.registers.items()}

    def run(self, name: str, inputs: dict | None = None):
        return self.dispatcher.execute(
            self.layouts[name], self.families[name].inputs if inputs is None else inputs
        )

    def rolled(self, name: str, shift: int) -> dict:
        """The family's inputs rolled by ``shift`` elements (new values per position)."""
        return {key: np.roll(data, shift) for key, data in self.families[name].inputs.items()}

    def matches_oracle(self, result, pixels: np.ndarray) -> bool:
        return all(
            np.array_equal(result.registers[name], table[pixels])
            for name, table in self.tables.items()
        )


@pytest.fixture(scope="class")
def fused() -> _Fused:
    return _Fused()


class TestRecycledBuffers:
    """The fused closure writes into recycled result buffers: a buffer is
    handed out again only once nothing references it, so every live
    result keeps its bytes, and a dropped one's buffers serve the next run."""

    def test_live_results_share_no_memory(self, fused):
        runs = [fused.rolled("salsa20", shift) for shift in (0, 1, 2)]
        results = [fused.run("salsa20", inputs) for inputs in runs]
        groups = [_result_arrays(result) for result in results]
        inputs = [data for run in runs for data in run.values()]
        for index, group in enumerate(groups):
            others = [array for other in groups[index + 1 :] for array in other] + inputs
            for array in group:
                assert not any(np.shares_memory(array, other) for other in others)

    def test_a_dropped_result_lends_its_buffers_to_the_next_run(self, fused):
        for name in fused.families:  # warm: every family has run once
            fused.run(name)
        before = _buffers()
        for _ in range(20):
            for name in fused.families:
                result = fused.run(name)
                del result
        after = _buffers()
        assert after["misses"] == before["misses"]
        assert after["hits"] - before["hits"] >= 20 * len(fused.families)

    @pytest.mark.parametrize("keeper", ["shard row", "register", "output slice"])
    def test_a_view_keeps_its_bytes(self, fused, keeper):
        result = fused.run("image")
        views = {
            "shard row": result.shard_results[3].outputs["inverted"],
            "register": result.registers["graded"],
            "output slice": result.outputs["inverted"][1000:3000],
        }
        kept = views[keeper]
        expected = kept.copy()
        del result, views
        for shift in range(1, 6):
            fused.run("image", fused.rolled("image", shift))
            fused.run("crc", fused.rolled("crc", shift))
        assert np.array_equal(kept, expected)

    def test_an_output_fed_back_as_input(self, fused):
        pixels = fused.families["image"].inputs["pixels"]
        first = fused.run("image")
        fed = first.outputs["inverted"]
        again = fused.run("image", {"pixels": fed})
        assert fused.matches_oracle(first, pixels)
        assert fused.matches_oracle(again, fused.tables["inverted"][pixels])

    def test_threads_running_one_layout(self, fused):
        fused.run("image")
        mismatches: list = []

        def client(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for _ in range(100):
                    pixels = rng.integers(0, 256, fused.ELEMENTS, dtype=np.uint64)
                    if not fused.matches_oracle(fused.run("image", {"pixels": pixels}), pixels):
                        mismatches.append(seed)
            except Exception as error:  # surfaced by the assert below
                mismatches.append(error)

        threads = [threading.Thread(target=client, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert mismatches == []

    def test_the_byte_bound_holds_and_clear_forgets(self, fused, monkeypatch):
        clear_all_caches()
        stacked_bytes = fused.ELEMENTS * 8
        monkeypatch.setattr(BUFFERS, "limit", 3 * stacked_bytes)
        held = [fused.run("image", fused.rolled("image", shift)) for shift in range(4)]
        stats = _buffers()
        assert 0 < stats["bytes"] <= BUFFERS.limit
        assert stats["uncached"] > 0
        pixels = fused.families["image"].inputs["pixels"]
        for shift, result in enumerate(held):
            assert fused.matches_oracle(result, np.roll(pixels, shift))
        clear_all_caches()
        assert _buffers() == {"hits": 0, "misses": 0, "uncached": 0, "size": 0, "bytes": 0}


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

    def test_a_program_builds_its_closure_on_its_second_run(self):
        """The first run is interpreted and marks the program; the second
        builds the closure, and later runs reuse it."""
        clear_all_caches()
        session, inputs = _mixed_program(16)
        compiled, key = compile_cached_with_key(session.calls)
        controller = PlutoController(backend="vectorized")
        reference = PlutoController(backend="vectorized", jit=False).execute(
            compiled, dict(inputs), structure_key=key
        )
        closures = []
        for builds in (0, 1, 1):
            _assert_identical(
                controller.execute(compiled, dict(inputs), structure_key=key), reference
            )
            assert _closure_stats()["misses"] == builds
            closures.append(compiled.__dict__.get("_jit_executable"))
        assert closures[0] is None
        assert isinstance(closures[1], CompiledExecutable)
        assert closures[2] is closures[1]

    def test_pickling_drops_the_closure_and_keeps_the_templates(self):
        """A clone runs interpreted once, like a new program, and builds
        its closure on its second run."""
        session, inputs = _mixed_program(16)
        reference = session.run(inputs)
        session.run(inputs)
        compiled, key = compile_cached_with_key(session.calls)
        assert isinstance(compiled.__dict__["_jit_executable"], CompiledExecutable)
        assert list(compiled.templates) == [PlutoConfig()]
        clone = pickle.loads(pickle.dumps(compiled))
        assert "_jit_executable" not in clone.__dict__
        assert clone.templates == compiled.templates
        controller = PlutoController(backend="vectorized")
        for built in (False, True):
            result = controller.execute(clone, inputs, structure_key=key)
            assert isinstance(clone.__dict__.get("_jit_executable"), CompiledExecutable) == built
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
