"""Tests for fused single-pass shard execution (controller/executor.py).

Contract: executing all shards of a plan in one batched pass over
``(shards, slice)`` views of the inputs is indistinguishable from the
per-shard loop — bit-identical outputs and registers, identical command
traces, identical makespans — with the functional backend kept as the
per-shard bit-exactness oracle.  The results are views of that pass and
never share memory with, or write into, the caller's arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.session import (
    PlutoSession,
    cache_stats,
    clear_all_caches,
    compile_cached,
    compile_cached_with_key,
)
from repro.controller.dispatch import ParallelDispatcher, ShardPlanner
from repro.controller.executor import PlutoController
from repro.core.designs import PlutoDesign
from repro.core.engine import PlutoConfig, PlutoEngine
from repro.errors import ConfigurationError, ExecutionError
from repro.plan import ExecutionPlan

ELEMENTS = 640


def _mixed_program(elements: int = ELEMENTS):
    """Mul + add + map + bitwise + shift: every command class in one trace."""
    from repro.api.luts import color_grade_lut

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
    rng = np.random.default_rng(5)
    inputs = {
        "a": rng.integers(0, 4, elements),
        "b": rng.integers(0, 4, elements),
        "c": rng.integers(0, 16, elements),
    }
    return session, inputs


def _run(dispatcher, session, inputs, shards=None):
    """Lay ``session``'s program out over ``dispatcher``'s device and run it."""
    layout = ShardPlanner(dispatcher.engine.geometry).plan(session.calls, shards)
    return dispatcher.execute(layout, inputs)


def _assert_same_results(fused, loop):
    assert len(fused.shard_results) == len(loop.shard_results)
    for shard_fused, shard_loop in zip(fused.shard_results, loop.shard_results):
        for name, data in shard_loop.outputs.items():
            assert np.array_equal(shard_fused.outputs[name], data), name
        for name, data in shard_loop.registers.items():
            assert np.array_equal(shard_fused.registers[name], data), name
        assert shard_fused.lut_queries == shard_loop.lut_queries
        assert shard_fused.instructions_executed == shard_loop.instructions_executed
        assert (
            shard_fused.trace.total_latency_ns == shard_loop.trace.total_latency_ns
        )
        assert shard_fused.trace.total_energy_nj == shard_loop.trace.total_energy_nj
        assert [
            (cmd.kind, cmd.bank, cmd.rows) for cmd in shard_fused.trace.commands
        ] == [(cmd.kind, cmd.bank, cmd.rows) for cmd in shard_loop.trace.commands]
    for name, data in loop.outputs.items():
        assert np.array_equal(fused.outputs[name], data), name
    assert fused.makespan_ns == loop.makespan_ns
    assert fused.serial_latency_ns == loop.serial_latency_ns
    assert fused.bank_only_makespan_ns == loop.bank_only_makespan_ns
    assert fused.rank_parallel_makespan_ns == loop.rank_parallel_makespan_ns
    assert fused.channel_makespans == loop.channel_makespans
    assert fused.rank_makespans == loop.rank_makespans


class TestFusedDispatch:
    @pytest.mark.parametrize(
        "design", [PlutoDesign.BSA, PlutoDesign.GSA, PlutoDesign.GMC]
    )
    @pytest.mark.parametrize("shards", [1, 3, 7, 16])
    def test_bit_identical_to_per_shard(self, design, shards):
        session, inputs = _mixed_program()
        engine = PlutoEngine(PlutoConfig(design=design, tfaw_fraction=1.0))
        fused = _run(ParallelDispatcher(engine, fused=True), session, inputs, shards)
        loop = _run(ParallelDispatcher(engine, fused=False), session, inputs, shards)
        assert fused.backend == loop.backend == "vectorized"
        _assert_same_results(fused, loop)

    def test_matches_functional_oracle(self):
        """Fused vectorized output == per-shard functional execution."""
        session, inputs = _mixed_program(96)
        engine = PlutoEngine(PlutoConfig())
        fused = _run(ParallelDispatcher(engine, fused=True), session, inputs, 6)
        oracle = _run(ParallelDispatcher(engine, backend="functional"), session, inputs, 6)
        assert oracle.backend == "functional"
        for name, data in oracle.outputs.items():
            assert np.array_equal(fused.outputs[name], data), name
        assert fused.makespan_ns == oracle.makespan_ns

    def test_functional_backend_defaults_to_per_shard(self):
        session, inputs = _mixed_program(64)
        dispatcher = ParallelDispatcher(backend="functional")
        result = _run(dispatcher, session, inputs, 4)
        assert result.backend == "functional"
        with pytest.raises(ConfigurationError, match="cannot run fused"):
            _run(ParallelDispatcher(backend="functional", fused=True), session, inputs, 4)

    def test_uneven_shards_group_by_size(self):
        """29 elements over 6 shards: two size groups, outputs intact."""
        session, inputs = _mixed_program(29)
        engine = PlutoEngine(PlutoConfig())
        reference = session.run(inputs, engine=engine)
        fused = _run(ParallelDispatcher(engine, fused=True), session, inputs, 6)
        sizes = {plan.size for plan in fused.shard_plans}
        assert sizes == {4, 5}
        for name, data in reference.outputs.items():
            assert np.array_equal(fused.outputs[name], data), name

    @pytest.mark.parametrize("channels,ranks", [(1, 1), (2, 2)])
    def test_every_bank_of_the_device_matches_per_shard(self, channels, ranks):
        session, inputs = _mixed_program()
        engine = PlutoEngine(
            PlutoConfig(tfaw_fraction=1.0, channels=channels, ranks=ranks)
        )
        fused = _run(ParallelDispatcher(engine, fused=True), session, inputs)
        loop = _run(ParallelDispatcher(engine, fused=False), session, inputs)
        assert fused.num_shards == engine.geometry.total_banks
        _assert_same_results(fused, loop)


class TestExecuteFused:
    def test_requires_batched_backend(self):
        session, _ = _mixed_program(16)
        compiled = compile_cached(session.calls)
        controller = PlutoController(backend="functional")
        with pytest.raises(ExecutionError, match="fused"):
            controller.execute_fused(
                compiled, {}, banks=[0, 1]
            )

    def test_validates_stacked_shapes_and_widths(self):
        session, inputs = _mixed_program(16)
        compiled = compile_cached(session.calls)
        controller = PlutoController(backend="vectorized")
        # Two "shards" = two 16-element input sets of the same program.
        stacked = {
            name: np.stack([np.asarray(data), np.asarray(data)])
            for name, data in inputs.items()
        }
        results = controller.execute_fused(compiled, stacked, banks=[0, 1])
        assert len(results) == 2
        with pytest.raises(ExecutionError, match="shape"):
            controller.execute_fused(
                compiled, dict(stacked, a=np.zeros((2, 5), dtype=np.uint64)),
                banks=[0, 1],
            )
        with pytest.raises(ExecutionError, match="missing input"):
            controller.execute_fused(
                compiled, {k: v for k, v in stacked.items() if k != "a"},
                banks=[0, 1],
            )
        wide = dict(stacked, a=np.full((2, 16), 9, dtype=np.uint64))
        with pytest.raises(ExecutionError, match="wider"):
            controller.execute_fused(compiled, wide, banks=[0, 1])
        with pytest.raises(ExecutionError, match="bank"):
            controller.execute_fused(compiled, stacked, banks=[0, 99])

    def test_trace_template_cache(self):
        clear_all_caches()
        session, inputs = _mixed_program(32)
        engine = PlutoEngine(PlutoConfig())
        dispatcher = ParallelDispatcher(engine, fused=True)
        _run(dispatcher, session, inputs, 4)
        first = cache_stats()["trace_templates"]
        assert first["misses"] >= 1
        # The template is kept on the slice program, once per engine config.
        (slice_program,) = [
            compile_cached(shard.calls) for shard in ShardPlanner().plan(session.calls, 4).plans[:1]
        ]
        assert list(slice_program.templates) == [engine.config]
        assert first["size"] >= 1
        _run(dispatcher, session, inputs, 4)
        second = cache_stats()["trace_templates"]
        assert second["hits"] > first["hits"]
        assert second["misses"] == first["misses"]


def _uint64_inputs(inputs):
    """``uint64`` inputs, which the fast tiers can use without converting."""
    return {name: np.asarray(data, dtype=np.uint64) for name, data in inputs.items()}


def _fused_and_oracle(placement, session, inputs, shards, jit=True):
    channels, ranks = placement
    engine = PlutoEngine(PlutoConfig(tfaw_fraction=1.0, channels=channels, ranks=ranks))
    fused = _run(ParallelDispatcher(engine, fused=True, jit=jit), session, inputs, shards)
    oracle = _run(ParallelDispatcher(engine, backend="functional"), session, inputs, shards)
    return fused, oracle


#: One rank of one channel (a bank-sharded plan) and a 2 x 2 device.
PLACEMENTS = pytest.mark.parametrize("placement", [(1, 1), (2, 2)])


class TestViewContract:
    """Fused results are views of one pass; caller arrays are never shared."""

    @PLACEMENTS
    @pytest.mark.parametrize("jit", [True, False])
    def test_input_registers_do_not_share_caller_memory(self, placement, jit):
        session, raw = _mixed_program()
        inputs = _uint64_inputs(raw)
        fused, _ = _fused_and_oracle(placement, session, inputs, 8, jit)
        for name, data in inputs.items():
            assert not np.shares_memory(fused.registers[name], data), name
            for shard in fused.shard_results:
                assert not np.shares_memory(shard.registers[name], data), name

    @PLACEMENTS
    @pytest.mark.parametrize("jit", [True, False])
    def test_mutating_outputs_leaves_inputs_unchanged(self, placement, jit):
        session, raw = _mixed_program()
        inputs = _uint64_inputs(raw)
        before = {name: data.copy() for name, data in inputs.items()}
        fused, _ = _fused_and_oracle(placement, session, inputs, 8, jit)
        for data in (*fused.outputs.values(), *fused.registers.values()):
            data[...] = 0
        for name, data in inputs.items():
            assert np.array_equal(data, before[name]), name

    @PLACEMENTS
    @pytest.mark.parametrize("elements,shards", [(ELEMENTS, 8), (29, 6)])
    def test_strided_inputs_match_functional_oracle(self, placement, elements, shards):
        """``arr[::2]`` inputs, even and uneven splits: same as the oracle."""
        session, raw = _mixed_program(elements)
        inputs = {}
        for name, data in raw.items():
            padded = np.full(2 * elements, 3, dtype=np.uint64)
            padded[::2] = data
            inputs[name] = padded[::2]
        fused, oracle = _fused_and_oracle(placement, session, inputs, shards)
        sizes = {plan.size for plan in fused.shard_plans}
        assert len(sizes) == (1 if elements % shards == 0 else 2)
        _assert_same_results(fused, oracle)
        assert fused.energy_nj == oracle.energy_nj
        for name, data in oracle.registers.items():
            assert np.array_equal(fused.registers[name], data), name


class TestCallerArraysUntouched:
    """A ``move`` into a caller-seeded vector never writes the caller's array."""

    @pytest.mark.parametrize("backend", ["functional", "vectorized"])
    @pytest.mark.parametrize("tier", ["compiled", "interpreted"])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_move_destination_is_not_written(self, backend, tier, shards):
        """``compiled`` runs the session, whose controller takes the closure
        where the backend can; ``interpreted`` pins the walk one layer
        down, with ``jit=False`` (fused on the vectorized backend, the
        per-shard loop on the functional one)."""
        session = PlutoSession()
        source = session.pluto_malloc(16, 8, "a")
        destination = session.pluto_malloc(16, 8, "b")
        session.api_pluto_move(source, destination)
        session.backend = backend
        ia = np.arange(16, dtype=np.uint64)
        ib = np.full(16, 7, dtype=np.uint64)
        inputs = {"a": ia, "b": ib}
        if tier == "compiled":
            result = session.run(inputs, plan=ExecutionPlan(shards=shards))
        elif shards == 1:
            compiled, key = compile_cached_with_key(session.calls)
            controller = PlutoController(backend=backend, jit=False)
            result = controller.execute(compiled, inputs, structure_key=key)
        else:
            result = _run(ParallelDispatcher(backend=backend, jit=False), session, inputs, shards)
        assert np.array_equal(result.outputs["b"], np.arange(16))
        assert np.array_equal(ia, np.arange(16))
        assert np.array_equal(ib, np.full(16, 7))


class TestPlannerSharing:
    def test_equal_shards_share_call_tuples(self):
        """The resize fix: one rewritten program per distinct shard size."""
        session, _ = _mixed_program(64)
        layout = ShardPlanner().plan(session.calls, 8)
        assert all(plan.calls is layout.plans[0].calls for plan in layout.plans)
        assert list(layout.programs) == [8]

    def test_two_sizes_share_within_each_group(self):
        session, _ = _mixed_program(29)
        layout = ShardPlanner().plan(session.calls, 6)
        by_size = {}
        for plan in layout.plans:
            by_size.setdefault(plan.size, set()).add(id(plan.calls))
        assert all(len(ids) == 1 for ids in by_size.values())
        assert len(by_size) == 2
        # One compiled program per distinct slice size, from the program cache.
        assert sorted(layout.programs) == [4, 5]
        for plan in layout.plans:
            key, compiled = layout.programs[plan.size]
            assert compile_cached(plan.calls) is compiled
            assert key is not None

    def test_full_size_slice_reuses_original_calls(self):
        session, _ = _mixed_program(64)
        (plan,) = ShardPlanner().plan(session.calls, 1).plans
        assert plan.calls == tuple(session.calls)
        assert plan.calls[0] is session.calls[0]
