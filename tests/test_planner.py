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
from repro.api import identity_lut
from repro.api.session import (
    PlutoSession,
    cache_stats,
    clear_all_caches,
    compile_cached,
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
        for pinned in ({"shards": 4}, {"channels": None, "ranks": None}, {"ranks": 2}):
            with pytest.raises(VerificationError, match="plan-contradiction"):
                ExecutionPlan(mode="auto", **pinned)

    def test_placement_requires_shards(self):
        for placement in ({"channels": 2}, {"ranks": 2}, {"channels": None, "ranks": None}):
            for shards in (None, 1):
                with pytest.raises(VerificationError, match="plan-placement"):
                    ExecutionPlan(shards=shards, **placement)
        plan = ExecutionPlan(shards=4, channels=2, ranks=2)
        assert plan.channels == 2 and plan.hierarchical

    def test_labels_name_a_placement_wider_than_one_rank(self):
        assert ExecutionPlan().label() == "shards=1"
        assert ExecutionPlan(shards=8, channels=1, ranks=1).label() == "shards=8"
        assert not ExecutionPlan(shards=8).hierarchical
        wide = ExecutionPlan(shards=8, channels=None, ranks=None, optimize=True)
        assert wide.label() == "shards=8@allxall+opt"
        assert ExecutionPlan(shards=8, channels=None, ranks=1).label() == "shards=8@allx1"

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecutionPlan(shards=0)
        with pytest.raises(ConfigurationError):
            ExecutionPlan(mode="fastest")
        with pytest.raises(ConfigurationError):
            ExecutionPlan(shards=2, channels=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("shards", 2.5),
            ("channels", 1.5),
            ("shards", "4"),
            ("shards", True),
            ("ranks", 2.0),
            ("optimize", "no"),
            ("optimize", 1),
        ],
    )
    def test_values_of_the_wrong_type_are_rejected(self, field, value):
        """A plan value of the wrong type fails at construction, naming
        the field and the value, not deep inside dispatch."""
        with pytest.raises(ConfigurationError, match=f"plan {field} must be .* got {value!r}"):
            ExecutionPlan(**{"shards": 4, field: value})

    def test_numpy_integers_are_plan_values(self):
        session, inputs = _add_program(256)
        plan = ExecutionPlan(shards=np.int64(4), channels=np.int32(1))
        assert plan == ExecutionPlan(shards=4)
        assert type(plan.shards) is int
        result = session.run(inputs, plan=plan)
        assert result.execution_plan.label() == "shards=4"
        assert result.num_shards == 4


class TestPlutoConfigPlanValidation:
    def test_config_accepts_auto_and_plan_objects(self):
        assert PlutoConfig(plan="auto").plan == "auto"
        config = PlutoConfig(plan=ExecutionPlan(shards=8))
        assert config.plan.shards == 8

    def test_config_rejects_overcommitted_shards(self):
        # Default DDR4 module: 1 channel x 1 rank x 16 banks.
        with pytest.raises(VerificationError):
            PlutoConfig(plan=ExecutionPlan(shards=64))
        # A plan may use every bank of its placement.
        whole = {"channels": None, "ranks": None}
        with pytest.raises(VerificationError, match="shards-overcommit.*32 banks"):
            PlutoConfig(channels=2, plan=ExecutionPlan(shards=33, **whole))
        assert PlutoConfig(channels=2, plan=ExecutionPlan(shards=32, **whole))

    def test_config_rejects_placement_wider_than_device(self):
        with pytest.raises(VerificationError):
            PlutoConfig(plan=ExecutionPlan(shards=2, channels=2))
        # Widening the device makes the same plan legal.
        config = PlutoConfig(channels=2, plan=ExecutionPlan(shards=2, channels=2))
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


def _cold_program(elements: int, tag: str) -> tuple[PlutoSession, dict]:
    """A cold-programs-like shape under names suffixed ``tag``: the nibble
    add, two maps, a bitwise op, a shift and a move over 8-bit vectors."""
    session = PlutoSession()
    rng = np.random.default_rng(elements)

    def vector(role: str, bits: int = 8):
        return session.pluto_malloc(elements, bits, f"{role}_{tag}")

    def table(index: int) -> LookupTable:
        values = tuple(int(value) for value in rng.integers(0, 256, 256))
        return LookupTable(values=values, index_bits=8, element_bits=8, name=f"lut{index}_{tag}")

    x, sums, mapped, mixed, shifted, moved, out = (
        vector(role) for role in ("x", "t0", "t1", "t2", "t3", "t4", "t5")
    )
    session.api_pluto_add(vector("n0", 4), vector("n1", 4), sums, bit_width=4)
    session.api_pluto_map(table(0), x, mapped)
    session.api_pluto_bitwise("xor", sums, mapped, mixed)
    session.api_pluto_shift(mixed, shifted, 3, "l")
    session.api_pluto_move(shifted, moved)
    session.api_pluto_map(table(1), moved, out)
    inputs = {
        f"x_{tag}": rng.integers(0, 256, elements),
        f"n0_{tag}": rng.integers(0, 16, elements),
        f"n1_{tag}": rng.integers(0, 16, elements),
    }
    return session, inputs


def _reference_candidates(calls, engine: PlutoEngine, request: ExecutionPlan) -> list:
    """Every candidate priced without template reuse.

    Each slice length is resized and compiled into its own template, each
    shard's template is realized in its bank, and the streams merge
    through ``merged_makespan_ns``.
    """
    from repro.controller.dispatch import ShardPlanner, merged_makespan_ns
    from repro.opt.pipeline import optimize_cached

    controller = PlutoController(engine, backend="vectorized")
    geometry = engine.geometry
    device = (geometry.channels, geometry.ranks)
    candidates = []
    for optimize in (False, True) if request.optimize is None else (request.optimize,):
        program_calls = tuple(optimize_cached(list(calls)).calls) if optimize else tuple(calls)
        size = ShardPlanner._uniform_size(program_calls)

        def template(length: int):
            resized = ShardPlanner._resize_calls(program_calls, length)
            return controller.trace_template(compile_cached(resized))

        whole = template(size)
        candidates.append(
            CandidatePlan(
                ExecutionPlan(shards=1, optimize=optimize),
                whole.total_latency_ns,
                whole.total_energy_nj,
            )
        )
        for channels, ranks in dict.fromkeys([(1, 1), device, (device[0], 1), (1, device[1])]):
            planner = ShardPlanner(geometry, channels=channels, ranks=ranks)
            cap = min(planner.geometry.total_banks, size)
            grid = sorted({cap, *(2**k for k in range(1, cap.bit_length()) if 2**k <= cap)})
            for shards in grid:
                templates = [
                    template(stop - start)
                    for start, stop in ShardPlanner.slice_bounds(size, shards)
                ]
                streams = [
                    shard.realize(engine.timing, engine.energy, bank=planner.bank(index)).commands
                    for index, shard in enumerate(templates)
                ]
                candidates.append(
                    CandidatePlan(
                        ExecutionPlan(
                            shards=shards, channels=channels, ranks=ranks, optimize=optimize
                        ),
                        merged_makespan_ns(streams, engine, channels=channels, ranks=ranks),
                        sum(shard.total_energy_nj for shard in templates),
                    )
                )
    return candidates


def _exact(candidates) -> list[tuple[str, str, str]]:
    return [
        (c.plan.label(), float.hex(c.predicted_makespan_ns), float.hex(c.predicted_energy_nj))
        for c in candidates
    ]


class TestTemplateReuse:
    """Pricing builds one template per per-register row-count vector."""

    ENGINES = {
        "1x1": PlutoConfig(),
        "2x2": PlutoConfig(channels=2, ranks=2),
    }

    @pytest.mark.parametrize("engine_name", sorted(ENGINES))
    def test_reports_equal_a_pricer_that_compiles_every_slice(self, engine_name):
        """Candidate labels and order, every predicted makespan and energy
        to the bit, the chosen plan and the baseline.  5000 elements split
        into two slice lengths; 65536 crosses row boundaries (8 rows whole,
        1 row at 8192)."""
        engine = PlutoEngine(self.ENGINES[engine_name])
        programs = [
            program.session.calls
            for elements in (4096, 5000, 65536)
            for program in optimizer_workload_programs(elements=elements, seed=0)
        ]
        programs += [
            _cold_program(elements, f"ref{elements}")[0].calls for elements in (256, 1024, 4096)
        ]
        for calls in programs:
            for optimize in (None, True, False):
                request = ExecutionPlan.auto(optimize=optimize)
                report = plan_program(calls, engine, request=request).report
                reference = _reference_candidates(calls, engine, request)
                assert _exact(report.candidates) == _exact(reference)
                chosen = _choose(reference)
                assert report.chosen == chosen.plan
                assert float.hex(report.predicted_makespan_ns) == float.hex(
                    chosen.predicted_makespan_ns
                )
                baseline = next(
                    c.predicted_makespan_ns
                    for c in reference
                    if c.plan == ExecutionPlan(shards=1, optimize=bool(optimize))
                )
                assert float.hex(report.baseline_makespan_ns) == float.hex(baseline)

    @pytest.mark.parametrize(
        "family", ["image", "crc", "salsa20", "vmpc", "bitcount", "vector_ops"]
    )
    def test_a_slice_with_the_whole_programs_row_counts_has_its_template(self, family):
        """At 65536 elements, for every candidate slice length of a 2 x 2
        device and either optimizer setting: the planner's key is the row
        count the allocator binds each of the resized program's registers
        to, and the resized template equals the whole program's exactly
        when the keys match (and differs when they do not)."""
        from repro.controller.allocation_table import AllocationTable
        from repro.controller.dispatch import ShardPlanner
        from repro.opt.pipeline import optimize_cached
        from repro.plan.planner import _row_counts

        engine = PlutoEngine(PlutoConfig(channels=2, ranks=2))
        geometry = engine.geometry
        controller = PlutoController(engine, backend="vectorized")
        calls = workload_program(family, elements=65536, seed=0).session.calls
        lengths = {
            stop - start
            for shards in (2, 4, 8, 16, 32, 64)
            for start, stop in ShardPlanner.slice_bounds(65536, shards)
        }
        for program_calls in (calls, optimize_cached(list(calls)).calls):
            whole = compile_cached(program_calls)
            whole_rows = _row_counts(whole, geometry)
            whole_template = controller.trace_template(whole)
            keys = {}
            for length in sorted(lengths):
                resized = compile_cached(ShardPlanner._resize_calls(program_calls, length))
                rows = _row_counts(whole, geometry, length)
                bound = tuple(
                    AllocationTable(geometry).bind_row(register).num_rows
                    for register in resized.register_file.row_registers
                )
                assert rows == bound, length
                # Template equality compares the commands (renders
                # included), both totals, the LUT queries and the
                # instruction count.
                template = controller.trace_template(resized)
                assert (rows == whole_rows) == (template == whole_template), length
                # One key, one template: lengths sharing a key share it.
                assert keys.setdefault(rows, template) == template, length
            # 65536 elements span 8 rows of 8-bit elements; 32768 and
            # 16384 span 4 and 2; 8192 down to 1024 fit one row.
            assert len(keys) == 3

    @pytest.mark.parametrize(
        "elements, channels, ranks, resized",
        [
            (4096, 2, 2, []),
            (4096, None, None, []),
            (65536, 2, 2, [32768, 16384, 8192] * 2),
            (65536, None, None, [32768, 16384, 8192] * 2),
        ],
    )
    def test_only_a_new_row_count_vector_is_resized(
        self, monkeypatch, elements, channels, ranks, resized
    ):
        """crc at 4096 elements fills one row at every slice length, so
        pricing resizes nothing.  At 65536 the whole program spans 8 rows,
        and 32768, 16384 and 8192 elements span 4, 2 and 1: one resize per
        new row-count vector and optimizer setting, however many slice
        lengths and placements share it."""
        from repro.controller.dispatch import ShardPlanner

        original = ShardPlanner._resize_calls
        lengths: list[int] = []

        def counting(calls, size):
            lengths.append(size)
            return original(calls, size)

        monkeypatch.setattr(ShardPlanner, "_resize_calls", staticmethod(counting))
        calls = workload_program("crc", elements=elements, seed=0).session.calls
        plan_program(calls, PlutoEngine(PlutoConfig(channels=channels, ranks=ranks)))
        assert lengths == resized


class TestColdProgramCost:
    def test_a_cold_program_builds_only_its_own_programs(self, monkeypatch):
        """A never-seen 4096-element program on a verifying engine compiles
        and builds templates for its unoptimized and optimized whole
        programs only, and every merge pricing its shards is a memo hit
        after one program of the same shape warmed the memo.  A hit
        builds no shard stream: the planner realizes no template and no
        placed stream is read.  The run realizes its own template once,
        in bank 0, for its trace.  Run once, the program builds no
        closure; its second run builds exactly one and realizes
        nothing."""
        import repro.plan.planner as planner
        from repro.controller.executor import TraceTemplate
        from repro.dram.analytic import PlacedStream

        clear_all_caches()
        engine = PlutoEngine(PlutoConfig(verify="always"))
        warm, warm_inputs = _cold_program(4096, "warm")
        warm.run(warm_inputs, plan="auto", engine=engine)
        session, inputs = _cold_program(4096, "cold")
        # (phase, stream event): ``plan`` inside plan_program, else ``run``.
        streams: list[tuple[str, str]] = []
        phase = ["run"]
        plans: list[int] = []

        def counting(name, original):
            def wrapper(self, *args, **kwargs):
                streams.append((phase[0], name))
                return original(self, *args, **kwargs)

            return wrapper

        def planning(original):
            def wrapper(*args, **kwargs):
                plans.append(1)
                phase[0] = "plan"
                try:
                    return original(*args, **kwargs)
                finally:
                    phase[0] = "run"

            return wrapper

        monkeypatch.setattr(
            TraceTemplate, "realize", counting("realize", TraceTemplate.realize)
        )
        monkeypatch.setattr(
            PlacedStream, "__iter__", counting("iterate", PlacedStream.__iter__)
        )
        monkeypatch.setattr(planner, "plan_program", planning(planner.plan_program))
        before = cache_stats()
        result = session.run(inputs, plan="auto", engine=engine)
        after = cache_stats()

        def delta(layer: str, counter: str) -> int:
            return after[layer][counter] - before[layer][counter]

        assert result.execution_plan.effective_shards == 1
        assert delta("programs", "misses") <= 2
        assert delta("trace_templates", "misses") <= 2
        assert delta("scheduler_merges", "hits") == 8
        assert delta("scheduler_merges", "misses") == 0
        assert plans == [1]
        assert [event for event in streams if event[0] == "plan"] == []
        assert streams == [("run", "realize")]
        assert delta("compiled_exec", "misses") == 0

        again = session.run(inputs, plan="auto", engine=engine)
        assert cache_stats()["compiled_exec"]["misses"] - after["compiled_exec"]["misses"] == 1
        assert again.trace is result.trace
        assert streams == [("run", "realize")]
        for name, data in result.outputs.items():
            assert np.array_equal(again.outputs[name], data), name
        assert again.latency_ns == result.latency_ns


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
        hierarchical = _candidate(100.0, 10.0, shards=2, channels=None, ranks=None)
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
    def test_the_search_reports_its_gain_over_one_shard(self, family, gain):
        calls = workload_program(family, elements=4096, seed=0).session.calls
        report = plan_program(calls, PlutoEngine(PlutoConfig())).report
        assert report.predicted_gain == pytest.approx(gain)

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

        session, inputs = _add_program(256)
        calls = [
            lambda: session.run(inputs, shards=4),
            lambda: session.run(inputs, optimize=True),
            lambda: session.serve(hierarchical=True),
            lambda: session.serve(shards=8),
            lambda: session.serve(optimize=True),
            lambda: PlutoService(session, hierarchical=True),
            lambda: PlutoService(session, shards=8),
            lambda: PlutoService(session, optimize=True),
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

    def test_removed_placement_spellings_raise(self, tmp_path):
        """A placement is ``channels`` / ``ranks`` on the plan, and auto's
        search is the plan's alone: the second spelling and the planner's
        search modes are gone."""
        from repro.serve.store import SharedArtifactStore

        session, inputs = _add_program(256)
        with pytest.raises(TypeError, match="unexpected keyword"):
            ExecutionPlan(hierarchical=True, shards=4)
        with pytest.raises(AttributeError):
            session.run_hierarchical(inputs)
        with pytest.raises(AttributeError):
            ExecutionPlan(shards=4).placement
        searches = [
            lambda: plan_program(session.calls, modes=("single",)),
            lambda: prepare_execution(
                session.calls, None, ExecutionPlan.auto(), modes=("single",), verify=False
            ),
            lambda: SharedArtifactStore(tmp_path).export(session.calls, modes=("single",)),
        ]
        for search in searches:
            with pytest.raises(TypeError, match="unexpected keyword"):
                search()

    # ``run`` is the one front door: the batch door, its result type, the
    # harness's program door and their spellings are gone.  Each case
    # checks one removed spelling.
    def test_session_run_batch_is_gone(self):
        session, inputs = _add_program(256)
        with pytest.raises(AttributeError):
            session.run_batch([inputs])

    def test_harness_execute_program_is_gone(self):
        from repro.evaluation.harness import EvaluationHarness

        session, inputs = _add_program(256)
        with pytest.raises(AttributeError):
            EvaluationHarness().execute_program(session, inputs)

    def test_harness_evaluate_all_is_gone(self):
        from repro.evaluation.harness import EvaluationHarness
        from repro.workloads.image import ImageBinarization

        with pytest.raises(AttributeError):
            EvaluationHarness().evaluate_all([ImageBinarization()])

    def test_session_cache_stats_is_gone(self):
        session, _ = _add_program(256)
        with pytest.raises(AttributeError):
            session.cache_stats()

    def test_service_stats_cache_stats_is_gone(self):
        from repro.api import ServiceStats

        with pytest.raises(AttributeError):
            ServiceStats().cache_stats()

    def test_harness_backend_keyword_is_gone(self):
        from repro.evaluation.harness import EvaluationHarness

        with pytest.raises(TypeError, match="unexpected keyword"):
            EvaluationHarness(backend="vectorized")

    def test_an_auto_plan_pinning_one_shard_is_contradictory(self):
        with pytest.raises(VerificationError, match="plan-contradiction.*shards=1"):
            ExecutionPlan(mode="auto", shards=1)

    def test_batch_result_is_gone(self):
        with pytest.raises(ImportError):
            from repro.api import BatchResult  # noqa: F401


class TestAutoOnEntryPoints:
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

    @pytest.mark.parametrize(
        "family", ["image", "crc", "salsa20", "vmpc", "bitcount", "vector_ops"]
    )
    def test_a_multi_rank_search_prices_one_unsharded_plan(self, family):
        """On a 2 x 2 device every placement is searched, but one shard
        is one plan per optimizer value, and the choice is exact."""
        program = workload_program(family, elements=4096, seed=0)
        engine = PlutoEngine(PlutoConfig(channels=2, ranks=2))
        result = program.session.run(program.inputs, engine=engine, plan="auto")
        report = result.planner
        one_shard = [c.plan for c in report.candidates if c.plan.effective_shards == 1]
        assert one_shard == [
            ExecutionPlan(shards=1, optimize=False),
            ExecutionPlan(shards=1, optimize=True),
        ]
        assert {(c.plan.channels, c.plan.ranks) for c in report.candidates} == {
            (1, 1), (2, 2), (2, 1), (1, 2)
        }
        assert report.predicted_makespan_ns == result.latency_ns

    @pytest.mark.parametrize("channels, ranks", [(2, 1), (1, 2)])
    @pytest.mark.parametrize(
        "family", ["image", "crc", "salsa20", "vmpc", "bitcount", "vector_ops"]
    )
    def test_a_one_level_device_searches_one_rank_and_the_whole_device(
        self, family, channels, ranks
    ):
        """With one interface level wider than one, that level alone is
        the whole device, so two placements are searched; one shard is
        one plan per optimizer value, and the choice is exact."""
        program = workload_program(family, elements=4096, seed=0)
        engine = PlutoEngine(PlutoConfig(channels=channels, ranks=ranks))
        default = program.session.run(program.inputs, engine=engine)
        result = program.session.run(program.inputs, engine=engine, plan="auto")
        report = result.planner
        one_shard = [c.plan for c in report.candidates if c.plan.effective_shards == 1]
        assert one_shard == [
            ExecutionPlan(shards=1, optimize=False),
            ExecutionPlan(shards=1, optimize=True),
        ]
        assert {(c.plan.channels, c.plan.ranks) for c in report.candidates} == {
            (1, 1), (channels, ranks)
        }
        assert report.predicted_makespan_ns == result.latency_ns
        for name, data in default.outputs.items():
            assert np.array_equal(result.outputs[name], data), name

    @pytest.mark.parametrize(
        "config, candidates",
        [
            (PlutoConfig(), 10),
            (PlutoConfig(memory="3DS"), 10),
            (PlutoConfig(channels=2, ranks=1), 20),
            (PlutoConfig(channels=1, ranks=2), 20),
            (PlutoConfig(channels=2, ranks=2), 42),
        ],
        ids=["1x1", "3DS", "2x1", "1x2", "2x2"],
    )
    def test_each_placement_is_priced_once(self, config, candidates):
        """Per optimizer value: the unsharded plan, then the shard grid
        (powers of two up to the placement's banks) of each distinct
        placement.  16 banks a rank: a one-rank device prices 1 + 4, a
        2 x 1 or 1 x 2 device 1 + 4 + 5, and a 2 x 2 device
        1 + 4 + 6 + 5 + 5."""
        calls = workload_program("image", elements=4096, seed=0).session.calls
        report = plan_program(calls, PlutoEngine(config)).report
        assert len(report.candidates) == candidates
        assert len({c.plan for c in report.candidates}) == candidates

    def test_multi_rank_auto_may_use_more_shards_than_one_rank_has(self):
        engine = PlutoEngine(PlutoConfig(channels=2, ranks=2))
        program = workload_program("crc", 262144)
        default = program.session.run(program.inputs, engine=engine)
        result = program.session.run(program.inputs, engine=engine, plan="auto")
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
        """A 1024-row table fits no 512-row subarray, whatever the shard
        count or placement, so auto raises the explicit plan's error."""
        session = PlutoSession()
        source = session.pluto_malloc(4096, 10, "x")
        out = session.pluto_malloc(4096, 10, "out")
        session.api_pluto_map(identity_lut(10), source, out)
        inputs = {"x": np.arange(4096) % 1024}
        with pytest.raises(AllocationError) as explicit:
            session.run(inputs, plan=ExecutionPlan(optimize=False))
        with pytest.raises(AllocationError) as auto:
            session.run(inputs, plan=ExecutionPlan.auto(optimize=False))
        assert str(auto.value) == str(explicit.value)
        assert str(auto.value) == "LUT 'identity10' needs 1024 rows but a subarray has only 512"
