"""Tests for the cost-based auto-planner and the ExecutionPlan front door."""

from __future__ import annotations

import asyncio
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api.session import (
    PlutoSession,
    cache_stats,
    clear_all_caches,
    compile_cached_with_key,
    prepare_execution,
)
from repro.controller.executor import PlutoController
from repro.core.designs import PlutoDesign
from repro.core.engine import PlutoConfig, PlutoEngine
from repro.core.lut import LookupTable
from repro.errors import AllocationError, ConfigurationError, VerificationError
from repro.plan import ExecutionPlan, plan_program, resolve_plan
from repro.plan.planner import CandidatePlan, _choose
from repro.workloads.programs import optimizer_workload_programs, workload_program

ELEMENTS = 1024


def _add_program(elements: int = ELEMENTS) -> tuple[PlutoSession, dict]:
    session = PlutoSession()
    a = session.pluto_malloc(elements, 4, "a")
    b = session.pluto_malloc(elements, 4, "b")
    out = session.pluto_malloc(elements, 8, "out")
    session.api_pluto_add(a, b, out, bit_width=4)
    rng = np.random.default_rng(11)
    inputs = {
        "a": rng.integers(0, 16, elements),
        "b": rng.integers(0, 16, elements),
    }
    return session, inputs


class TestExecutionPlanValidation:
    def test_default_plan_is_explicit_single_shard(self):
        plan = ExecutionPlan()
        assert not plan.is_auto
        assert plan.effective_shards == 1
        assert not plan.hierarchical

    def test_resolve_plan_accepts_auto_string_and_none(self):
        assert resolve_plan(None) == ExecutionPlan()
        assert resolve_plan("auto").is_auto
        assert resolve_plan(ExecutionPlan(shards=4)).shards == 4
        with pytest.raises(ConfigurationError):
            resolve_plan("fastest")
        with pytest.raises(ConfigurationError):
            resolve_plan(42)

    def test_plans_are_hashable_and_frozen(self):
        plan = ExecutionPlan(shards=4, optimize=True)
        assert hash(plan) == hash(ExecutionPlan(shards=4, optimize=True))
        with pytest.raises(AttributeError):
            plan.shards = 8

    def test_auto_with_pinned_geometry_is_contradictory(self):
        with pytest.raises(VerificationError):
            ExecutionPlan(mode="auto", shards=4)
        with pytest.raises(VerificationError):
            ExecutionPlan(mode="auto", hierarchical=True)

    def test_placement_requires_hierarchical(self):
        with pytest.raises(VerificationError):
            ExecutionPlan(channels=2)
        with pytest.raises(VerificationError):
            ExecutionPlan(ranks=2)
        plan = ExecutionPlan(hierarchical=True, channels=2, ranks=2)
        assert plan.channels == 2

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecutionPlan(shards=0)
        with pytest.raises(ConfigurationError):
            ExecutionPlan(mode="fastest")
        with pytest.raises(ConfigurationError):
            ExecutionPlan(hierarchical=True, channels=0)


class TestPlutoConfigPlanValidation:
    def test_config_accepts_auto_and_plan_objects(self):
        assert PlutoConfig(plan="auto").plan == "auto"
        config = PlutoConfig(plan=ExecutionPlan(shards=8))
        assert config.plan.shards == 8

    def test_config_rejects_overcommitted_shards(self):
        # Default DDR4 module: 1 channel x 1 rank x 16 banks.
        with pytest.raises(VerificationError):
            PlutoConfig(plan=ExecutionPlan(shards=64))
        # A hierarchical plan may use every bank of its placement.
        with pytest.raises(VerificationError, match="shards-overcommit.*32 banks"):
            PlutoConfig(channels=2, plan=ExecutionPlan(hierarchical=True, shards=33))
        assert PlutoConfig(channels=2, plan=ExecutionPlan(hierarchical=True, shards=32))

    def test_config_rejects_placement_wider_than_device(self):
        with pytest.raises(VerificationError):
            PlutoConfig(plan=ExecutionPlan(hierarchical=True, channels=2))
        # Widening the device makes the same plan legal.
        config = PlutoConfig(
            channels=2, plan=ExecutionPlan(hierarchical=True, channels=2)
        )
        assert config.channels == 2

    def test_config_rejects_non_plan_types(self):
        with pytest.raises(ConfigurationError):
            PlutoConfig(plan=4)

    def test_engine_config_plan_is_run_default(self):
        session, inputs = _add_program(256)
        engine = PlutoEngine(PlutoConfig(plan=ExecutionPlan(shards=4)))
        result = session.run(inputs, engine=engine)
        assert result.execution_plan.shards == 4
        assert result.num_shards == 4


def _prepare_auto(session: PlutoSession, engine: PlutoEngine):
    """The artifact of ``session``'s program under ``plan="auto"``."""
    return prepare_execution(session.calls, engine, ExecutionPlan.auto(), verify=False)


class TestArtifactReuse:
    """A repeated auto request reuses its artifact, plan included."""

    def test_second_request_is_artifact_hit_with_zero_analytic_calls(self):
        clear_all_caches()
        session, _ = _add_program()
        engine = PlutoEngine(PlutoConfig(design=PlutoDesign.BSA))
        first = _prepare_auto(session, engine)
        assert not first.planner.cached
        stats = cache_stats()["artifacts"]
        assert stats["misses"] == 1 and stats["hits"] == 0

        merges_before = dict(cache_stats()["scheduler_merges"])
        hierarchy_before = dict(cache_stats()["hierarchy_schedules"])
        second = _prepare_auto(session, engine)
        assert second.planner.cached
        assert second.plan == first.plan
        stats = cache_stats()["artifacts"]
        assert stats["hits"] == 1 and stats["misses"] == 1
        # The hit prices nothing: the analytic scheduler memos are
        # untouched (no hits, no misses — zero model calls).
        assert dict(cache_stats()["scheduler_merges"]) == merges_before
        assert dict(cache_stats()["hierarchy_schedules"]) == hierarchy_before

    def test_one_artifact_whatever_the_backend(self):
        """The artifact names no backend: a functional session runs the one
        a vectorized session prepared, under the same plan."""
        clear_all_caches()
        program = workload_program("crc", elements=256, seed=1)
        engine = PlutoEngine(PlutoConfig())
        vectorized = program.session.run(program.inputs, engine=engine, plan="auto")
        misses = cache_stats()["artifacts"]["misses"]
        session = PlutoSession(
            vectors=list(program.session.vectors),
            calls=list(program.session.calls),
            backend="functional",
        )
        functional = session.run(program.inputs, engine=engine, plan="auto")
        assert cache_stats()["artifacts"]["misses"] == misses
        assert functional.backend == "functional"
        assert functional.execution_plan == vectorized.execution_plan
        assert functional.latency_ns == vectorized.latency_ns
        assert functional.energy_nj == vectorized.energy_nj
        assert functional.outputs.keys() == vectorized.outputs.keys()
        for name, data in vectorized.outputs.items():
            assert np.array_equal(functional.outputs[name], data), name

    def test_structurally_identical_programs_share_a_plan(self):
        clear_all_caches()
        engine = PlutoEngine(PlutoConfig(design=PlutoDesign.BSA))
        first_session, _ = _add_program()
        second_session, _ = _add_program()
        _prepare_auto(first_session, engine)
        artifact = _prepare_auto(second_session, engine)
        assert artifact.planner.cached

    def test_different_engines_plan_separately(self):
        clear_all_caches()
        session, _ = _add_program()
        ddr4 = PlutoEngine(PlutoConfig(design=PlutoDesign.BSA))
        three_ds = PlutoEngine(PlutoConfig(design=PlutoDesign.BSA, memory="3DS"))
        _prepare_auto(session, ddr4)
        artifact = _prepare_auto(session, three_ds)
        assert not artifact.planner.cached


class TestPredictionExactness:
    @pytest.mark.parametrize(
        "family", ["image", "crc", "salsa20", "vmpc", "bitcount", "vector_ops"]
    )
    def test_predicted_equals_measured_on_every_family(self, family):
        workload = workload_program(family, elements=512, seed=3)
        engine = PlutoEngine(PlutoConfig(design=PlutoDesign.BSA))
        result = workload.session.run(workload.inputs, engine=engine, plan="auto")
        report = result.planner
        assert report is not None
        # The planner prices candidates from the same trace templates the
        # execution charges, so prediction is exact — not approximate.
        assert report.predicted_makespan_ns == result.latency_ns
        assert report.chosen == result.execution_plan

    def test_report_carries_ranked_candidates(self):
        session, inputs = _add_program()
        result = session.run(inputs, plan="auto")
        report = result.planner
        assert len(report.candidates) > 1
        predicted = [c.predicted_makespan_ns for c in report.candidates]
        assert report.predicted_makespan_ns == min(predicted)
        assert report.predicted_gain >= 1.0


def _family_plans() -> list[list]:
    """[label, predicted makespan] of every family at 256, 4096 and 65536."""
    engine = PlutoEngine(PlutoConfig())
    plans = []
    for elements in (256, 4096, 65536):
        for program in optimizer_workload_programs(elements=elements, seed=0):
            planned = plan_program(program.session.calls, engine)
            plans.append([planned.plan.label(), planned.report.predicted_makespan_ns])
    return plans


class TestPlannerIsPure:
    """A plan is a function of (program, engine config, request) alone."""

    def test_host_clock_never_changes_a_plan(self, monkeypatch):
        expected = _family_plans()
        rng = random.Random(7)
        now = 0.0

        def clock() -> float:
            nonlocal now
            now += rng.uniform(1e-6, 1.0)
            return now

        monkeypatch.setattr(time, "perf_counter", clock)
        assert _family_plans() == expected

    def test_hash_seed_never_changes_a_plan(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        script = (
            "import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from test_planner import _family_plans; print(json.dumps(_family_plans()))"
        )
        children = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(Path(__file__).parent)],
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
                stdout=subprocess.PIPE,
                text=True,
            )
            for seed in ("1", "2")
        ]
        outputs = [child.communicate(timeout=300)[0] for child in children]
        assert [child.returncode for child in children] == [0, 0]
        expected = _family_plans()
        for output in outputs:
            assert json.loads(output) == expected


class TestSliceResizing:
    @pytest.mark.parametrize("channels, ranks, resizes", [(2, 2, 12), (None, None, 8)])
    def test_each_slice_length_is_resized_once(self, monkeypatch, channels, ranks, resizes):
        """Pricing resizes the calls once per distinct (slice length,
        optimizer) pair, however many placements share the length."""
        from repro.controller.dispatch import ShardPlanner

        original = ShardPlanner._resize_calls
        lengths: list[int] = []

        def counting(calls, size):
            lengths.append(size)
            return original(calls, size)

        monkeypatch.setattr(ShardPlanner, "_resize_calls", staticmethod(counting))
        calls = workload_program("crc", elements=4096, seed=0).session.calls
        plan_program(calls, PlutoEngine(PlutoConfig(channels=channels, ranks=ranks)))
        assert len(lengths) == resizes
        # 2048 down to 64 elements on the 2 x 2 device (2048 down to 256
        # on one rank), once unoptimized and once optimized.
        assert len(set(lengths)) == resizes // 2


def _candidate(
    makespan_ns: float, energy_nj: float, shards: int = 1, **plan: object
) -> CandidatePlan:
    return CandidatePlan(
        plan=ExecutionPlan(shards=shards, **plan),
        predicted_makespan_ns=makespan_ns,
        predicted_energy_nj=energy_nj,
    )


class TestTieBreak:
    def test_lower_energy_wins_inside_the_window(self):
        fast = _candidate(100.0, 20.0, shards=2)
        frugal = _candidate(100.4, 10.0)
        assert _choose([fast, frugal]) is frugal

    def test_makespan_wins_outside_the_window(self):
        fast = _candidate(100.0, 20.0, shards=2)
        frugal = _candidate(100.6, 10.0)
        assert _choose([frugal, fast]) is fast

    def test_equal_energy_goes_to_the_simpler_then_faster_plan(self):
        hierarchical = _candidate(100.0, 10.0, hierarchical=True)
        sharded = _candidate(100.1, 10.0, shards=2)
        slower = _candidate(100.3, 10.0, optimize=True)
        simple = _candidate(100.2, 10.0)
        assert _choose([hierarchical, sharded, slower, simple]) is simple

    def test_near_tied_shards_lose_to_one_shard_on_energy(self):
        session = PlutoSession()
        x0 = session.pluto_malloc(256, 8, "x0")
        x1 = session.pluto_malloc(256, 8, "x1")
        t0 = session.pluto_malloc(256, 8, "t0")
        t1 = session.pluto_malloc(256, 8, "t1")
        table = LookupTable(
            values=tuple((7 * value + 3) % 256 for value in range(256)),
            index_bits=8,
            element_bits=8,
            name="lut",
        )
        session.api_pluto_map(table, x0, t0)
        session.api_pluto_bitwise("and", x1, x0, t1)
        rng = np.random.default_rng(5)
        inputs = {"x0": rng.integers(0, 256, 256), "x1": rng.integers(0, 256, 256)}
        clear_all_caches()
        auto = session.run(inputs, plan="auto")
        default = session.run(inputs, plan=ExecutionPlan())
        priced = {c.plan.label(): c for c in auto.planner.candidates}
        one, two = priced["shards=1"], priced["shards=2"]
        # The premise: two shards are a near-tie at twice the energy.
        assert two.predicted_makespan_ns <= one.predicted_makespan_ns * 1.0003
        assert two.predicted_energy_nj == 2 * one.predicted_energy_nj
        assert auto.execution_plan.effective_shards == 1
        assert auto.energy_nj == default.energy_nj == one.predicted_energy_nj


class TestPredictedGain:
    """The gain is measured against the one-shard plan of the same request."""

    @pytest.mark.parametrize("family, gain", [("image", 3.0), ("crc", 2.0)])
    def test_hierarchy_only_search_reports_the_full_search_gain(self, family, gain):
        calls = workload_program(family, elements=4096, seed=0).session.calls
        engine = PlutoEngine(PlutoConfig())
        full = plan_program(calls, engine).report
        hierarchy = plan_program(calls, engine, modes=("hierarchy",)).report
        assert hierarchy.chosen.hierarchical
        assert full.predicted_gain == pytest.approx(gain)
        assert hierarchy.predicted_gain == pytest.approx(full.predicted_gain)

    @pytest.mark.parametrize("elements", [256, 4096])
    @pytest.mark.parametrize("family", ["image", "crc"])
    def test_pinned_optimizer_one_shard_plan_reports_no_gain(self, family, elements):
        calls = workload_program(family, elements=elements, seed=0).session.calls
        planned = plan_program(
            calls, PlutoEngine(PlutoConfig()), request=ExecutionPlan.auto(optimize=True)
        )
        assert planned.plan.effective_shards == 1
        assert planned.report.predicted_gain == 1.0


class TestAutoMatchesStatic:
    @pytest.mark.parametrize("backend", ["functional", "vectorized"])
    def test_outputs_bit_identical_to_static_plans(self, backend):
        elements = 128 if backend == "functional" else ELEMENTS
        session, inputs = _add_program(elements)
        session.backend = backend
        reference = session.run(inputs, plan=ExecutionPlan())
        auto = session.run(inputs, plan="auto")
        for shards in (1, 2, 4):
            static = session.run(inputs, plan=ExecutionPlan(shards=shards))
            for name in reference.outputs:
                assert np.array_equal(static.outputs[name], reference.outputs[name])
        for name in reference.outputs:
            assert np.array_equal(auto.outputs[name], reference.outputs[name])

    def test_interpreted_controller_matches_compiled(self):
        session, inputs = _add_program(256)
        program, key = compile_cached_with_key(session.calls)
        compiled = PlutoController(backend="vectorized").execute(
            program, dict(inputs), structure_key=key
        )
        interpreted = PlutoController(backend="vectorized", jit=False).execute(
            program, dict(inputs), structure_key=key
        )
        for name in compiled.outputs:
            assert np.array_equal(compiled.outputs[name], interpreted.outputs[name])
        assert compiled.latency_ns == interpreted.latency_ns

    def test_auto_never_worse_than_static_grid(self):
        session, inputs = _add_program()
        engine = PlutoEngine(PlutoConfig(design=PlutoDesign.BSA))
        auto = session.run(inputs, engine=engine, plan="auto")
        static = [
            session.run(
                inputs,
                engine=engine,
                plan=ExecutionPlan(shards=shards, optimize=optimize),
            ).latency_ns
            for shards in (1, 2, 4, 8, 16)
            for optimize in (False, True)
        ]
        assert auto.latency_ns <= min(static) * 1.005


class TestRemovedKeywords:
    def test_removed_keywords_raise_type_error(self):
        """The per-entry-point knobs are gone; only ``plan=`` remains."""
        from repro.api import PlutoService
        from repro.evaluation.harness import EvaluationHarness

        session, inputs = _add_program(256)
        harness = EvaluationHarness()
        calls = [
            lambda: session.run(inputs, shards=4),
            lambda: session.run(inputs, optimize=True),
            lambda: session.run_batch([inputs], optimize=True),
            lambda: session.run_hierarchical(inputs, shards=8),
            lambda: session.run_hierarchical(inputs, optimize=True),
            lambda: session.serve(hierarchical=True),
            lambda: session.serve(shards=8),
            lambda: session.serve(optimize=True),
            lambda: PlutoService(session, hierarchical=True),
            lambda: PlutoService(session, shards=8),
            lambda: PlutoService(session, optimize=True),
            lambda: harness.execute_program(session, inputs, shards=4),
            lambda: harness.execute_program(session, inputs, optimize=True),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="unexpected keyword"):
                call()

        async def submit(nowait: bool):
            async with session.serve() as service:
                if nowait:
                    service.submit_nowait(inputs, optimize=True)
                else:
                    await service.submit(inputs, optimize=True)

        for nowait in (False, True):
            with pytest.raises(TypeError, match="unexpected keyword"):
                asyncio.run(submit(nowait))

    def test_run_hierarchical_coerces_plain_plans(self):
        session, inputs = _add_program()
        result = session.run_hierarchical(inputs, plan=ExecutionPlan(shards=4))
        assert result.execution_plan.hierarchical
        assert result.num_shards == 4

    def test_run_batch_rejects_sharded_plans(self):
        session, inputs = _add_program(256)
        with pytest.raises(ConfigurationError):
            session.run_batch([inputs], plan=ExecutionPlan(shards=4))


class TestAutoOnEntryPoints:
    def test_run_hierarchical_auto_stays_hierarchical(self):
        session, inputs = _add_program()
        engine = PlutoEngine(PlutoConfig(channels=2, ranks=2))
        result = session.run_hierarchical(inputs, engine=engine, plan="auto")
        assert result.execution_plan.hierarchical
        assert result.planner is not None

    def test_run_batch_auto_plans_single_mode(self):
        session, inputs = _add_program(256)
        batch = session.run_batch([inputs, inputs], plan="auto")
        plan = batch.execution_plan
        assert not plan.hierarchical and plan.effective_shards == 1
        assert batch.planner is not None

    def test_service_auto_plans_per_coalesced_batch(self):
        import asyncio

        async def main():
            clear_all_caches()
            session, inputs = _add_program(256)
            async with session.serve(
                max_queue=8, max_batch=4, plan="auto"
            ) as service:
                first = await service.submit(inputs)
                second = await service.submit(inputs)
            assert first.execution_plan == second.execution_plan
            assert not first.planner.cached
            assert second.planner.cached
            # The repeat request takes the session's warm entry, so it
            # never reaches the artifact table (or the planner) again.
            stats = cache_stats()["artifacts"]
            assert stats["misses"] == 1 and stats["hits"] == 0

        asyncio.run(main())

    def test_every_family_auto_plans_through_run(self):
        engine = PlutoEngine(PlutoConfig(design=PlutoDesign.BSA))
        for program in optimizer_workload_programs(elements=256, seed=0):
            reference = program.session.run(program.inputs, engine=engine)
            auto = program.session.run(program.inputs, engine=engine, plan="auto")
            for name in reference.outputs:
                assert np.array_equal(auto.outputs[name], reference.outputs[name])


class TestAutoSearchFits:
    """The search keeps only candidates the device can place and allocate."""

    def test_multi_rank_auto_may_use_more_shards_than_one_rank_has(self):
        engine = PlutoEngine(PlutoConfig(channels=2, ranks=2))
        program = workload_program("crc", 262144)
        default = program.session.run(program.inputs, engine=engine)
        for door in (program.session.run, program.session.run_hierarchical):
            result = door(program.inputs, engine=engine, plan="auto")
            assert result.num_shards > engine.geometry.banks
            assert result.planner.predicted_makespan_ns == result.latency_ns
            for name, data in default.outputs.items():
                assert np.array_equal(result.outputs[name], data), name

    def test_unallocatable_candidates_are_skipped(self):
        program = workload_program("salsa20", 524288)
        auto = program.session.run(program.inputs, plan="auto")
        halves = program.session.run(program.inputs, plan=ExecutionPlan(shards=2))
        assert auto.execution_plan.effective_shards > 1
        for name, data in halves.outputs.items():
            assert np.array_equal(auto.outputs[name], data), name

    def test_the_first_allocation_error_is_raised_when_nothing_fits(self):
        program = workload_program("salsa20", 524288)
        with pytest.raises(AllocationError) as explicit:
            program.session.run(program.inputs, plan=ExecutionPlan(optimize=False))
        with pytest.raises(AllocationError) as auto:
            program.session.run_batch(
                [program.inputs], plan=ExecutionPlan.auto(optimize=False)
            )
        assert str(auto.value) == str(explicit.value)
