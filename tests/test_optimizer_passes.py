"""Unit tests for the program optimizer (repro/opt)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.luts import add_lut, binarize_lut, color_grade_lut, identity_lut, relu_lut
from repro.api.session import PlutoSession, cache_stats, clear_all_caches
from repro.core.engine import PlutoConfig, PlutoEngine
from repro.core.lut import LookupTable, lut_from_function
from repro.errors import CompilationError
from repro.isa.instructions import PlutoSubarrayAlloc
from repro.plan import ExecutionPlan
from repro.opt import (
    CommonSubexpressionEliminationPass,
    DeadOpEliminationPass,
    LutChainFusionPass,
    LutDeduplicationPass,
    can_compose,
    compose_luts,
    optimize_cached,
    optimize_program,
    program_metrics,
)

N = 48


def _inputs(names=("px",), width=8, seed=0):
    rng = np.random.default_rng(seed)
    return {name: rng.integers(0, 1 << width, N, dtype=np.uint64) for name in names}


def _chain_session() -> PlutoSession:
    """px -> grade -> binarize -> identity, a pure unary LUT chain."""
    session = PlutoSession()
    px = session.pluto_malloc(N, 8, "px")
    a = session.pluto_malloc(N, 8, "a")
    b = session.pluto_malloc(N, 8, "b")
    c = session.pluto_malloc(N, 8, "c")
    session.api_pluto_map(color_grade_lut(), px, a)
    session.api_pluto_map(binarize_lut(127), a, b)
    session.api_pluto_map(identity_lut(8), b, c)
    return session


class TestLutComposition:
    def test_compose_is_exact(self):
        inner, outer = color_grade_lut(), binarize_lut(127)
        fused = compose_luts(inner, outer)
        indices = np.arange(256, dtype=np.uint64)
        assert np.array_equal(fused.query(indices), outer.query(inner.query(indices)))
        assert fused.index_bits == inner.index_bits
        assert fused.element_bits == outer.element_bits

    def test_compose_requires_covered_domain(self):
        wide = lut_from_function(lambda x: x, 8, 8, name="wide")
        narrow = lut_from_function(lambda x: x, 4, 4, name="narrow")
        assert not can_compose(wide, narrow)  # 255 cannot index 16 entries
        assert can_compose(narrow, wide)


class TestFusionPass:
    def test_unary_chain_collapses_to_one_query(self):
        session = _chain_session()
        optimized = optimize_program(session.calls)
        assert optimized.report.before.lut_queries == 3
        assert optimized.report.after.lut_queries == 1
        (call,) = optimized.calls
        assert call.operation == "map"
        assert call.inputs[0].name == "px"
        assert call.output.name == "c"

    def test_multi_consumer_intermediate_blocks_fusion(self):
        session = PlutoSession()
        px = session.pluto_malloc(N, 8, "px")
        a = session.pluto_malloc(N, 8, "a")
        b = session.pluto_malloc(N, 8, "b")
        c = session.pluto_malloc(N, 8, "c")
        session.api_pluto_map(color_grade_lut(), px, a)
        session.api_pluto_map(binarize_lut(127), a, b)
        session.api_pluto_map(identity_lut(8), a, c)  # second consumer of a
        optimized = optimize_program(session.calls)
        assert optimized.report.after.lut_queries == 3

    def test_preserved_intermediate_blocks_fusion(self):
        session = PlutoSession()
        px = session.pluto_malloc(N, 8, "px")
        a = session.pluto_malloc(N, 8, "a")
        b = session.pluto_malloc(N, 8, "b")
        session.api_pluto_map(color_grade_lut(), px, a)
        session.api_pluto_map(binarize_lut(127), a, b)
        # 'a' is consumed once, but declaring it an output pins it.
        optimized = optimize_program(session.calls, outputs=["a", "b"])
        assert optimized.report.after.lut_queries == 2

    def test_binary_head_fuses_into_fused_lut(self):
        session = PlutoSession()
        a = session.pluto_malloc(N, 4, "a")
        b = session.pluto_malloc(N, 4, "b")
        t = session.pluto_malloc(N, 8, "t")
        out = session.pluto_malloc(N, 8, "out")
        session.api_pluto_add(a, b, t, bit_width=4)
        session.api_pluto_map(relu_lut(8), t, out)
        optimized = optimize_program(session.calls)
        (call,) = optimized.calls
        assert call.operation == "fused_lut"
        assert call.parameters["bit_width"] == 4
        inputs = _inputs(("a", "b"), width=4)
        expected = PlutoSession(calls=list(session.calls)).run(inputs).outputs["out"]
        got = PlutoSession(calls=list(optimized.calls)).run(inputs).outputs["out"]
        assert np.array_equal(expected, got)


class TestCsePass:
    def test_diamond_reuses_shared_subexpression(self):
        session = PlutoSession()
        px = session.pluto_malloc(N, 8, "px")
        a = session.pluto_malloc(N, 8, "a")
        b = session.pluto_malloc(N, 8, "b")
        out = session.pluto_malloc(N, 8, "out")
        session.api_pluto_map(color_grade_lut(), px, a)
        session.api_pluto_map(color_grade_lut(), px, b)  # duplicate of a
        session.api_pluto_bitwise("xor", a, b, out)
        optimized = optimize_program(session.calls)
        assert optimized.report.after.lut_queries == 1
        xor = optimized.calls[-1]
        assert {operand.name for operand in xor.inputs} == {"a"}
        result = PlutoSession(calls=list(optimized.calls)).run(_inputs())
        assert np.array_equal(result.outputs["out"], np.zeros(N, dtype=np.uint64))

    def test_preserved_duplicate_becomes_move(self):
        session = PlutoSession()
        px = session.pluto_malloc(N, 8, "px")
        a = session.pluto_malloc(N, 8, "a")
        b = session.pluto_malloc(N, 8, "b")
        out = session.pluto_malloc(N, 8, "out")
        session.api_pluto_map(color_grade_lut(), px, a)
        session.api_pluto_bitwise("xor", a, px, out)  # keeps 'a' unfused
        session.api_pluto_map(color_grade_lut(), px, b)  # duplicate, but b is an output
        optimized = optimize_program(session.calls)
        operations = sorted(call.operation for call in optimized.calls)
        assert operations == ["map", "move", "xor"]
        inputs = _inputs()
        expected = PlutoSession(calls=list(session.calls)).run(inputs)
        got = PlutoSession(calls=list(optimized.calls)).run(inputs)
        assert sorted(expected.outputs) == sorted(got.outputs)
        for name in expected.outputs:
            assert np.array_equal(expected.outputs[name], got.outputs[name])

    def test_duplicate_of_preserved_output_left_alone(self):
        session = PlutoSession()
        px = session.pluto_malloc(N, 8, "px")
        a = session.pluto_malloc(N, 8, "a")
        b = session.pluto_malloc(N, 8, "b")
        session.api_pluto_map(color_grade_lut(), px, a)
        session.api_pluto_map(color_grade_lut(), px, b)
        # Both results are program outputs; aliasing either would change
        # the output set, so nothing may be rewritten.
        optimized = optimize_program(session.calls)
        assert [call.operation for call in optimized.calls] == ["map", "map"]

    def test_output_width_is_part_of_the_expression(self):
        session = PlutoSession()
        x = session.pluto_malloc(N, 8, "x")
        wide = session.pluto_malloc(N, 8, "wide")
        narrow = session.pluto_malloc(N, 2, "narrow")
        w2 = session.pluto_malloc(N, 8, "w2")
        n2 = session.pluto_malloc(N, 8, "n2")
        session.api_pluto_shift(x, wide, 1)
        session.api_pluto_shift(x, narrow, 1)  # masked to 2 bits: different values
        session.api_pluto_move(wide, w2)
        session.api_pluto_move(narrow, n2)
        optimized = optimize_program(session.calls)
        result = PlutoSession(calls=list(optimized.calls)).run(_inputs(("x",)))
        reference = PlutoSession(calls=list(session.calls)).run(_inputs(("x",)))
        for name in ("w2", "n2"):
            assert np.array_equal(result.outputs[name], reference.outputs[name])


class TestDeadOpElimination:
    def test_explicit_outputs_drop_dead_branches(self):
        session = _chain_session()
        px = session.vectors[0]
        dead = session.pluto_malloc(N, 8, "dead")
        session.api_pluto_map(identity_lut(8), px, dead)
        optimized = optimize_program(session.calls, outputs=["c"])
        assert all(call.output.name != "dead" for call in optimized.calls)
        assert optimized.report.after.lut_queries == 1

    def test_natural_outputs_keep_everything(self):
        session = _chain_session()
        dead_ish = session.pluto_malloc(N, 8, "tip")
        session.api_pluto_map(identity_lut(8), session.vectors[0], dead_ish)
        optimized = optimize_program(session.calls)
        # 'tip' is produced-but-unconsumed, i.e. a natural output: kept.
        assert any(call.output.name == "tip" for call in optimized.calls)

    def test_unknown_output_rejected(self):
        session = _chain_session()
        with pytest.raises(CompilationError):
            optimize_program(session.calls, outputs=["nope"])
        with pytest.raises(CompilationError):
            optimize_program(session.calls, outputs=[])


class TestLutDeduplication:
    def test_content_equal_tables_share_one_load(self):
        twin = LookupTable(
            values=color_grade_lut().values,
            index_bits=8,
            element_bits=8,
            name="grade-copy",
        )
        session = PlutoSession()
        px = session.pluto_malloc(N, 8, "px")
        a = session.pluto_malloc(N, 8, "a")
        b = session.pluto_malloc(N, 8, "b")
        session.api_pluto_map(color_grade_lut(), px, a)
        session.api_pluto_map(twin, px, b)
        optimized = optimize_program(session.calls)
        assert optimized.report.before.lut_loads == 2
        assert optimized.report.after.lut_loads == 1
        compiled = PlutoSession(calls=list(optimized.calls)).compile()
        allocs = [
            instruction
            for instruction in compiled.program
            if isinstance(instruction, PlutoSubarrayAlloc)
        ]
        assert len(allocs) == 1

    def test_compiler_keeps_distinct_tables_sharing_a_name_apart(self):
        """Regression: LUT registers bind per table, not per name."""
        first = lut_from_function(lambda x: x, 4, 4, name="lut")
        second = lut_from_function(lambda x: 15 - x, 4, 4, name="lut")
        session = PlutoSession()
        x = session.pluto_malloc(N, 4, "x")
        a = session.pluto_malloc(N, 4, "a")
        b = session.pluto_malloc(N, 4, "b")
        session.api_pluto_map(first, x, a)
        session.api_pluto_map(second, x, b)
        inputs = {"x": np.arange(N, dtype=np.uint64) % 16}
        result = PlutoSession(calls=list(session.calls)).run(inputs)
        assert np.array_equal(result.outputs["a"], inputs["x"])
        assert np.array_equal(result.outputs["b"], 15 - inputs["x"])


class TestReportAndCache:
    def test_report_counters(self):
        session = _chain_session()
        optimized = optimize_program(session.calls)
        report = optimized.report
        assert report.ops_saved == 2
        assert report.lut_queries_saved == 2
        assert report.swept_rows_saved == 512
        assert report.lut_query_reduction == pytest.approx(2 / 3)
        assert report.sweep_reduction == pytest.approx(2 / 3)
        assert report.changed
        assert "row sweeps" in report.summary()
        assert report.counters()["lut_queries_saved"] == 2

    def test_metrics_cover_distinct_luts(self):
        session = _chain_session()
        metrics = program_metrics(session.calls)
        assert metrics.ops == 3
        assert metrics.lut_queries == 3
        assert metrics.swept_lut_rows == 3 * 256
        assert metrics.lut_loads == 3

    def test_optimize_cached_memoizes_on_structure(self):
        clear_all_caches()
        session = _chain_session()
        first = optimize_cached(session.calls)
        second = optimize_cached(list(session.calls))
        assert first is second
        stats = cache_stats()["optimizer"]
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_identity_program_reports_no_change(self):
        session = PlutoSession()
        px = session.pluto_malloc(N, 8, "px")
        out = session.pluto_malloc(N, 8, "out")
        session.api_pluto_map(color_grade_lut(), px, out)
        optimized = optimize_program(session.calls)
        assert not optimized.report.changed
        assert list(optimized.calls) == list(session.calls)


class TestSessionIntegration:
    def test_run_optimize_bit_identical_with_report(self):
        session = _chain_session()
        inputs = _inputs()
        plain = session.run(inputs)
        optimized = session.run(inputs, plan=ExecutionPlan(optimize=True))
        assert sorted(plain.outputs) == sorted(optimized.outputs)
        for name in plain.outputs:
            assert np.array_equal(plain.outputs[name], optimized.outputs[name])
        assert plain.optimization is None
        assert optimized.optimization is not None
        assert optimized.lut_queries < plain.lut_queries
        assert optimized.latency_ns < plain.latency_ns

    def test_engine_config_default_and_override(self):
        session = _chain_session()
        inputs = _inputs()
        engine = PlutoEngine(PlutoConfig(optimize=True))
        assert session.run(inputs, engine=engine).optimization is not None
        unoptimized = session.run(
            inputs, engine=engine, plan=ExecutionPlan(optimize=False)
        )
        assert unoptimized.optimization is None

    def test_sharded_run_plans_over_optimized_calls(self):
        session = _chain_session()
        inputs = _inputs()
        plain = session.run(inputs, plan=ExecutionPlan(shards=4))
        optimized = session.run(inputs, plan=ExecutionPlan(shards=4, optimize=True))
        assert np.array_equal(plain.outputs["c"], optimized.outputs["c"])
        assert optimized.lut_queries < plain.lut_queries
        assert optimized.makespan_ns < plain.makespan_ns
        assert optimized.optimization is not None

    def test_hierarchical_run_optimizes(self):
        session = _chain_session()
        inputs = _inputs()
        plain = session.run_hierarchical(inputs)
        optimized = session.run_hierarchical(
            inputs, plan=ExecutionPlan(hierarchical=True, optimize=True)
        )
        assert np.array_equal(plain.outputs["c"], optimized.outputs["c"])
        assert optimized.makespan_ns < plain.makespan_ns

    def test_run_batch_optimizes_once(self):
        session = _chain_session()
        inputs = _inputs()
        batch = session.run_batch([inputs, inputs], plan=ExecutionPlan(optimize=True))
        plain = session.run(inputs)
        for result in batch:
            assert np.array_equal(result.outputs["c"], plain.outputs["c"])


class TestUnhashablePrograms:
    def test_unhashable_parameters_optimize_uncached(self):
        """List-valued parameters bypass the memo instead of crashing."""
        clear_all_caches()
        session = _chain_session()
        session.calls[0].parameters["taps"] = [1, 2, 3]
        inputs = _inputs()
        plain = session.run(inputs)
        optimized = session.run(inputs, plan=ExecutionPlan(optimize=True))  # must not raise
        for name in plain.outputs:
            assert np.array_equal(plain.outputs[name], optimized.outputs[name])
        assert cache_stats()["optimizer"]["uncached"] == 1  # bypassed, not cached

    def test_cse_skips_unhashable_duplicates(self):
        session = PlutoSession()
        px = session.pluto_malloc(N, 8, "px")
        a = session.pluto_malloc(N, 8, "a")
        b = session.pluto_malloc(N, 8, "b")
        session.api_pluto_map(color_grade_lut(), px, a)
        session.api_pluto_map(color_grade_lut(), px, b)
        for call in session.calls:
            call.parameters["taps"] = [1, 2]
        rewritten, stats = CommonSubexpressionEliminationPass().run(
            list(session.calls), frozenset({"a", "b"})
        )
        assert stats.changed == 0 and len(rewritten) == 2
