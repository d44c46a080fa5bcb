"""Tests for sharded execution over the DRAM hierarchy (controller/dispatch.py).

One planner, one dispatcher and one makespan function serve every
placement: a sharded plan stays on one rank of one channel unless its
``channels`` / ``ranks`` spread it over more of the device.
"""

from __future__ import annotations

import asyncio
import re

import numpy as np
import pytest

from repro.api.session import PlutoSession, cache_stats, clear_all_caches
from repro.controller.dispatch import (
    ParallelDispatcher,
    ShardedExecutionResult,
    ShardPlanner,
    _schedule_hierarchy,
    bus_occupancy_ns,
    interleaved_bank_order,
    merged_makespan_ns,
    sweep_act_interval_ns,
    sweep_acts_per_row,
    sweep_tail_ns,
)
from repro.controller.executor import PlutoController
from repro.core.designs import PlutoDesign
from repro.core.engine import PlutoConfig, PlutoEngine
from repro.dram.commands import Command, CommandTrace, CommandType
from repro.dram.geometry import DRAMGeometry
from repro.dram.scheduler import activation_count, tfaw_lower_bound_ns
from repro.errors import ConfigurationError, ExecutionError, VerificationError
from repro.evaluation.harness import default_pluto_configs
from repro.plan import ExecutionPlan
from repro.workloads.programs import workload_program

ELEMENTS = 4096

#: Every (channels, ranks) device shape the dispatcher places shards on.
SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2)]
PLACEMENTS = pytest.mark.parametrize("channels,ranks", SHAPES)


def _program(elements: int = ELEMENTS) -> tuple[PlutoSession, dict]:
    """The Figure 5 multiply-add (plus a bitwise tail) over many elements."""
    session = PlutoSession()
    a = session.pluto_malloc(elements, 2, "a")
    b = session.pluto_malloc(elements, 2, "b")
    c = session.pluto_malloc(elements, 4, "c")
    tmp = session.pluto_malloc(elements, 4, "tmp")
    out = session.pluto_malloc(elements, 8, "out")
    final = session.pluto_malloc(elements, 8, "final")
    session.api_pluto_mul(a, b, tmp, bit_width=2)
    session.api_pluto_add(c, tmp, out, bit_width=4)
    session.api_pluto_bitwise("xor", out, c, final)
    rng = np.random.default_rng(7)
    inputs = {
        "a": rng.integers(0, 4, elements),
        "b": rng.integers(0, 4, elements),
        "c": rng.integers(0, 16, elements),
    }
    return session, inputs


def _mac_program(elements: int = 1024) -> tuple[PlutoSession, dict]:
    """The Figure 5 multiply-add over many elements."""
    session = PlutoSession()
    a = session.pluto_malloc(elements, 2, "a")
    b = session.pluto_malloc(elements, 2, "b")
    c = session.pluto_malloc(elements, 4, "c")
    tmp = session.pluto_malloc(elements, 4, "tmp")
    out = session.pluto_malloc(elements, 8, "out")
    session.api_pluto_mul(a, b, tmp, bit_width=2)
    session.api_pluto_add(c, tmp, out, bit_width=4)
    rng = np.random.default_rng(11)
    inputs = {
        "a": rng.integers(0, 4, elements),
        "b": rng.integers(0, 4, elements),
        "c": rng.integers(0, 16, elements),
    }
    return session, inputs


def _engine(channels: int = 1, ranks: int = 1, **config) -> PlutoEngine:
    return PlutoEngine(
        PlutoConfig(tfaw_fraction=1.0, channels=channels, ranks=ranks, **config)
    )


class TestShardPlanner:
    def test_balanced_contiguous_slices(self):
        session, _ = _program(10)
        plans = ShardPlanner().plan(session.calls, 3).plans
        assert [(p.start, p.stop) for p in plans] == [(0, 4), (4, 7), (7, 10)]
        # One rank of one channel, banks round-robin over bank groups.
        assert [p.bank for p in plans] == [0, 4, 8]
        assert {(p.channel, p.rank) for p in plans} == {(0, 0)}
        for plan in plans:
            sizes = {
                v.size for call in plan.calls for v in (*call.inputs, call.output)
            }
            assert sizes == {plan.size}

    def test_eight_shards_take_two_banks_per_group(self):
        session, _ = _program(64)
        plans = ShardPlanner().plan(session.calls, 8).plans
        assert sorted(p.bank for p in plans) == [0, 1, 4, 5, 8, 9, 12, 13]

    def test_channel_first_placement(self):
        session, _ = _program(64)
        plans = ShardPlanner(DRAMGeometry(channels=2, ranks=2)).plan(session.calls, 8).plans
        assert [plan.channel for plan in plans] == [0, 1, 0, 1, 0, 1, 0, 1]
        assert [plan.rank for plan in plans] == [0, 0, 1, 1, 0, 0, 1, 1]
        # The first four shards use bank 0 of four different (channel,
        # rank) pairs; the next four move to the next bank group.
        assert [plan.bank for plan in plans] == [0, 0, 0, 0, 4, 4, 4, 4]
        assert [plan.bank // 4 for plan in plans] == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_bank_order_round_robins_groups(self):
        order = interleaved_bank_order(DRAMGeometry())
        assert sorted(order) == list(range(16))
        groups = [bank // 4 for bank in order]
        assert groups[:8] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_default_shard_count_uses_every_bank(self):
        session, _ = _program(256)
        geometry = DRAMGeometry(channels=2, ranks=1)
        plans = ShardPlanner(geometry).plan(session.calls).plans
        assert len(plans) == geometry.total_banks == 32

    def test_default_clamps_to_element_count(self):
        session, _ = _program(3)
        plans = ShardPlanner(DRAMGeometry()).plan(session.calls).plans
        assert len(plans) == 3

    def test_narrowing_places_on_a_subset_of_the_device(self):
        session, _ = _program(64)
        device = DRAMGeometry(channels=2, ranks=2)
        planner = ShardPlanner(device, channels=1, ranks=1)
        assert planner.geometry.total_banks == 16
        assert {(p.channel, p.rank) for p in planner.plan(session.calls, 16).plans} == {(0, 0)}
        assert ShardPlanner(device, ranks=1).geometry.total_banks == 32
        with pytest.raises(ConfigurationError, match="channels"):
            ShardPlanner(device, channels=3)
        with pytest.raises(ConfigurationError, match="ranks"):
            ShardPlanner(device, ranks=0)

    @pytest.mark.parametrize(
        "geometry,shards,banks",
        [
            (DRAMGeometry(bank_groups=1, banks_per_group=4), 8, 4),
            (DRAMGeometry(), 17, 16),
            (DRAMGeometry(channels=2, ranks=2), 65, 64),
        ],
    )
    def test_rejects_more_shards_than_placement_banks(self, geometry, shards, banks):
        session, _ = _program(256)
        with pytest.raises(VerificationError, match=f"with {banks} banks") as raised:
            ShardPlanner(geometry).plan(session.calls, shards)
        assert [d.code for d in raised.value.diagnostics] == ["shards-overcommit"]
        assert isinstance(raised.value, ConfigurationError)

    def test_rejects_more_shards_than_elements(self):
        session, _ = _program(2)
        with pytest.raises(ConfigurationError):
            ShardPlanner().plan(session.calls, 3)

    def test_rejects_empty_program(self):
        with pytest.raises(ConfigurationError):
            ShardPlanner().plan([], 2)

    def test_rejects_non_uniform_sizes(self):
        first = PlutoSession()
        a = first.pluto_malloc(8, 4, "a")
        b = first.pluto_malloc(8, 4, "b")
        out = first.pluto_malloc(8, 8, "out")
        first.api_pluto_add(a, b, out, bit_width=4)
        second = PlutoSession()
        c = second.pluto_malloc(16, 4, "c")
        d = second.pluto_malloc(16, 4, "d")
        out2 = second.pluto_malloc(16, 8, "out2")
        second.api_pluto_add(c, d, out2, bit_width=4)
        with pytest.raises(ConfigurationError):
            ShardPlanner().plan(first.calls + second.calls, 2)

    def test_slices_cover_elements_exactly(self):
        session, _ = _program(29)
        plans = ShardPlanner(DRAMGeometry(channels=2, ranks=2)).plan(session.calls, 6).plans
        assert plans[0].start == 0
        assert plans[-1].stop == 29
        for before, after in zip(plans, plans[1:]):
            assert before.stop == after.start


class TestDifferential:
    """Bit-exact outputs and honest timing on every placement."""

    @pytest.mark.parametrize("backend", ["vectorized", "functional"])
    @pytest.mark.parametrize(
        "channels,ranks,banks_used",
        [(*shape, banks) for shape in SHAPES for banks in (1, 2, 4)] + [(1, 1, 8)],
    )
    def test_bit_identical_to_unsharded(self, backend, channels, ranks, banks_used):
        session, inputs = _program()
        session.backend = backend
        engine = _engine(channels, ranks)
        reference = session.run(inputs, engine=engine)
        shards = channels * ranks * banks_used
        layout = ShardPlanner(engine.geometry).plan(session.calls, shards)
        result = ParallelDispatcher(engine, backend=backend).execute(layout, inputs)
        assert isinstance(result, ShardedExecutionResult)
        assert result.num_shards == shards
        assert result.backend == backend
        for name, data in reference.outputs.items():
            assert np.array_equal(result.outputs[name], data), name
        positions = {
            (plan.channel, plan.rank, plan.bank) for plan in result.shard_plans
        }
        assert len(positions) == shards

    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_makespan_between_bounds(self, shards):
        session, inputs = _program()
        engine = _engine()
        layout = ShardPlanner(engine.geometry).plan(session.calls, shards)
        result = ParallelDispatcher(engine).execute(layout, inputs)
        # Strictly faster than draining every shard through one bank ...
        assert result.makespan_ns < result.serial_latency_ns
        # ... but never below the rank's tFAW activation floor.
        timing = engine.timing.with_tfaw_fraction(engine.config.tfaw_fraction)
        activations = sum(
            activation_count(command) for command in result.trace.commands
        )
        assert result.makespan_ns >= tfaw_lower_bound_ns(activations, timing)

    @PLACEMENTS
    def test_single_shard_matches_serial(self, any_design, channels, ranks):
        session, inputs = _program()
        engine = _engine(channels, ranks, design=any_design)
        dispatcher = ParallelDispatcher(engine)
        result = dispatcher.execute(ShardPlanner(engine.geometry).plan(session.calls, 1), inputs)
        assert result.makespan_ns == pytest.approx(
            result.serial_latency_ns, rel=1e-6
        )
        assert result.latency_ns == result.makespan_ns
        assert result.bank_only_makespan_ns == pytest.approx(
            result.makespan_ns, rel=1e-6
        )

    @PLACEMENTS
    def test_rejects_mis_sized_and_unknown_inputs(self, channels, ranks):
        """Sharded runs must reject what unsharded runs reject, not slice."""
        session, inputs = _program(16)
        engine = _engine(channels, ranks)
        dispatcher = ParallelDispatcher(engine)
        layout = ShardPlanner(engine.geometry).plan(session.calls, 2)
        oversized = dict(inputs, a=np.zeros(32, dtype=np.uint64))
        with pytest.raises(ExecutionError, match="'a' has 32 elements, expected 16"):
            dispatcher.execute(layout, oversized)
        unknown = dict(inputs, ghost=np.zeros(16, dtype=np.uint64))
        with pytest.raises(ExecutionError, match="'ghost' is not a vector"):
            dispatcher.execute(layout, unknown)

    @PLACEMENTS
    @pytest.mark.parametrize("verify", ["always", "debug", "off"])
    def test_every_placement_is_statically_verified(
        self, monkeypatch, channels, ranks, verify
    ):
        """A layout is verified once, as it is built, under every verify
        mode; executing it verifies nothing."""
        import repro.analyze.verifier as verifier

        checked = []
        original = verifier.verify_shard_plans

        def recording(plans, **options):
            checked.append((len(plans), options["geometry"]))
            return original(plans, **options)

        monkeypatch.setattr(verifier, "verify_shard_plans", recording)
        session, inputs = _program(64)
        engine = _engine(channels, ranks, verify=verify)
        dispatcher = ParallelDispatcher(engine)
        layout = ShardPlanner(engine.geometry).plan(session.calls, 4)
        assert checked == [(4, engine.geometry)]
        dispatcher.execute(layout, inputs)
        dispatcher.execute(layout, inputs)
        assert checked == [(4, engine.geometry)]

    def test_makespan_improves_with_shards(self):
        # 32768 elements: the add's merged 8-bit index register spans four
        # DRAM rows, so each doubling of the shard count halves the rows
        # (and sweeps) per bank until every shard is down to one row.
        session, inputs = _program(32768)
        dispatcher = ParallelDispatcher(_engine())
        planner = ShardPlanner(dispatcher.engine.geometry)
        makespans = [
            dispatcher.execute(planner.plan(session.calls, n), inputs).makespan_ns
            for n in (1, 2, 4)
        ]
        assert makespans[0] > makespans[1] > makespans[2]

    @PLACEMENTS
    def test_per_level_makespans_are_monotone(self, channels, ranks):
        session, inputs = _mac_program(8192)
        engine = _engine(channels, ranks)
        result = ParallelDispatcher(engine).execute(
            ShardPlanner(engine.geometry).plan(session.calls), inputs
        )
        assert (
            result.makespan_ns
            <= result.rank_parallel_makespan_ns
            <= result.bank_only_makespan_ns
            <= result.serial_latency_ns
        )
        decomposition = result.speedup_decomposition
        assert decomposition["total"] == pytest.approx(
            decomposition["bank"]
            * decomposition["rank"]
            * decomposition["channel"]
        )

    def test_one_rank_levels_are_the_makespan(self):
        """One rank of one channel schedules once; every level is that merge."""
        session, inputs = _mac_program(4096)
        engine = _engine(2, 2)
        layout = ShardPlanner(engine.geometry, channels=1, ranks=1).plan(session.calls, 8)
        result = ParallelDispatcher(engine).execute(layout, inputs)
        makespan = result.makespan_ns
        assert result.bank_only_makespan_ns == makespan
        assert result.rank_parallel_makespan_ns == makespan
        assert result.rank_makespans == {(0, 0): makespan}
        assert result.channel_makespans == {0: makespan}
        streams = [shard.trace.commands for shard in result.shard_results]
        assert makespan == merged_makespan_ns(streams, engine)
        # The channel-bus bound does not bind on one rank.
        assert makespan == _schedule_hierarchy(streams, engine, channels=1, ranks=1)[0]

    def test_levels_help_once_tfaw_binds(self):
        """Extra ranks/channels relieve the per-rank tFAW throttle."""
        session, inputs = _mac_program(16384)
        flat_engine, tall_engine = _engine(1, 1), _engine(2, 2)
        flat = ParallelDispatcher(flat_engine).execute(
            ShardPlanner(flat_engine.geometry).plan(session.calls, 16), inputs
        )
        tall = ParallelDispatcher(tall_engine).execute(
            ShardPlanner(tall_engine.geometry).plan(session.calls, 64), inputs
        )
        assert tall.rank_speedup > 1.5
        assert tall.channel_speedup > 1.5
        assert tall.parallel_speedup > flat.parallel_speedup

    def test_channel_makespans_cover_device_makespan(self):
        session, inputs = _mac_program(4096)
        engine = _engine(2, 2)
        result = ParallelDispatcher(engine).execute(
            ShardPlanner(engine.geometry).plan(session.calls), inputs
        )
        assert set(result.channel_makespans) == {0, 1}
        assert max(result.channel_makespans.values()) == pytest.approx(
            result.makespan_ns
        )
        assert set(result.rank_makespans) == {(c, r) for c in (0, 1) for r in (0, 1)}


class TestShardLayout:
    """A layout is built once, verified as it is built, and only run after."""

    def test_a_layout_for_another_device_is_rejected_before_any_shard_runs(
        self, monkeypatch
    ):
        """A layout runs on a dispatcher whose device it narrows in channels
        and ranks only; one with more ranks, or another memory's banks, is
        refused with its geometry named before any shard runs."""
        import repro.controller.dispatch as dispatch
        from repro.core.engine import THREE_DS

        ran = []
        original = dispatch.execute_shard_plans

        def recording(*args, **options):
            ran.append(1)
            return original(*args, **options)

        monkeypatch.setattr(dispatch, "execute_shard_plans", recording)
        session, inputs = _program(64)
        wide = _engine(2, 2)
        more_ranks = ShardPlanner(wide.geometry).plan(session.calls, 4)
        three_ds = ShardPlanner(_engine(memory=THREE_DS).geometry).plan(session.calls, 4)
        refused = ((_engine(2, 1), more_ranks), (_engine(), three_ds), (wide, three_ds))
        for engine, layout in refused:
            refusal = f"planned for {layout.geometry}, which is not a channel/rank narrowing"
            with pytest.raises(ConfigurationError, match=re.escape(refusal)):
                ParallelDispatcher(engine).execute(layout, inputs)
        assert ran == []
        one_rank = ShardPlanner(wide.geometry, ranks=1).plan(session.calls, 4)
        ParallelDispatcher(wide).execute(one_rank, inputs)
        assert ran == [1]

    def test_one_dispatcher_runs_a_one_rank_and_a_device_wide_layout(self):
        """Both layouts run on one dispatcher, bit-identically to
        ``session.run`` under the plans that lay them out."""
        session, inputs = _program(1024)
        engine = _engine(2, 2)
        dispatcher = ParallelDispatcher(engine)
        for planner, plan, positions in (
            (ShardPlanner(engine.geometry, channels=1, ranks=1), ExecutionPlan(shards=8), 1),
            (ShardPlanner(engine.geometry), ExecutionPlan(shards=8, channels=None, ranks=None), 4),
        ):
            result = dispatcher.execute(planner.plan(session.calls, 8), inputs)
            reference = session.run(inputs, engine=engine, plan=plan)
            assert len({(p.channel, p.rank) for p in result.shard_plans}) == positions
            for name, data in reference.outputs.items():
                assert np.array_equal(result.outputs[name], data), name
            assert [
                (p.channel, p.rank, p.bank, p.start, p.stop) for p in result.shard_plans
            ] == [(p.channel, p.rank, p.bank, p.start, p.stop) for p in reference.shard_plans]
            assert result.latency_ns == reference.latency_ns
            assert result.energy_nj == reference.energy_nj
            assert result.bank_only_makespan_ns == reference.bank_only_makespan_ns
            assert result.rank_parallel_makespan_ns == reference.rank_parallel_makespan_ns
            assert result.rank_makespans == reference.rank_makespans

    def test_an_aliased_or_misplaced_layout_cannot_be_built(self):
        from dataclasses import replace

        session, _ = _program(64)
        layout = ShardPlanner(DRAMGeometry(channels=2, ranks=2)).plan(session.calls, 4)
        first, second, *rest = layout.plans
        aliased = (first, replace(second, start=second.start - 1), *rest)
        with pytest.raises(VerificationError, match="aliased-slices"):
            replace(layout, plans=aliased)
        for position in ({"channel": 2}, {"rank": 2}, {"bank": 16}, {"bank": -1}):
            misplaced = (*layout.plans[:3], replace(layout.plans[3], **position))
            with pytest.raises(VerificationError, match="bank-out-of-range"):
                replace(layout, plans=misplaced)

    @pytest.mark.parametrize(
        "plan,shape,elements",
        [
            (ExecutionPlan(shards=8), (1, 1), 4096),
            (ExecutionPlan(shards=64, channels=None, ranks=None), (2, 2), 4096),
            ("auto", (1, 1), 65536),
        ],
        ids=["shards", "hierarchical", "auto"],
    )
    def test_a_warm_request_slices_compiles_and_verifies_nothing(
        self, monkeypatch, plan, shape, elements
    ):
        import repro.analyze.verifier as verifier
        import repro.api.session as session_module

        program = workload_program("crc", elements=elements, seed=1)
        engine = _engine(*shape)
        cold = program.session.run(program.inputs, engine=engine, plan=plan)
        assert isinstance(cold, ShardedExecutionResult)
        calls: dict[str, int] = {}

        def counting(name, function):
            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return function(*args, **kwargs)

            return counted

        resize = counting("_resize_calls", ShardPlanner._resize_calls)
        monkeypatch.setattr(ShardPlanner, "_resize_calls", staticmethod(resize))
        for owner, name in (
            (session_module, "compile_cached_with_key"),
            (verifier, "verify_shard_plans"),
            (ParallelDispatcher, "execute"),
        ):
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
        warm = program.session.run(program.inputs, engine=engine, plan=plan)
        assert calls == {"execute": 1}
        assert warm.execution_plan == cold.execution_plan
        assert warm.latency_ns == cold.latency_ns
        assert warm.energy_nj == cold.energy_nj
        for name, data in cold.outputs.items():
            assert np.array_equal(warm.outputs[name], data), name


def _charges(result: ShardedExecutionResult) -> tuple:
    """Everything a sharded run charges, every float as its exact hex."""

    def trace(record) -> tuple:
        return (record.commands, record.total_latency_ns.hex(), record.total_energy_nj.hex())

    return (
        result.latency_ns.hex(),
        result.energy_nj.hex(),
        result.bank_only_makespan_ns.hex(),
        result.rank_parallel_makespan_ns.hex(),
        {position: value.hex() for position, value in result.rank_makespans.items()},
        {channel: value.hex() for channel, value in result.channel_makespans.items()},
        trace(result.trace),
        result.lut_queries,
        result.instructions_executed,
        [trace(shard.trace) for shard in result.shard_results],
    )


class TestLayoutCosts:
    """A layout's merged trace and per-level makespans depend on the
    layout and the engine alone: a dispatcher computes them on the
    layout's first run there, and a later run computes only its outputs."""

    @pytest.mark.parametrize("backend", ["vectorized", "functional"])
    @pytest.mark.parametrize("shape", [(1, 1), (2, 2)], ids=["one-rank", "2x2"])
    def test_a_second_run_reuses_the_first_runs_costs(self, monkeypatch, shape, backend):
        """On a 2x2 engine a one-rank and a device-wide layout run one slice
        program in different banks, so each layout keeps its own costs."""
        import repro.controller.dispatch as dispatch

        session, inputs = _program(256)
        engine = _engine(*shape)
        planners = [ShardPlanner(engine.geometry, channels=1, ranks=1)]
        if shape != (1, 1):
            planners.append(ShardPlanner(engine.geometry))
        layouts = [planner.plan(session.calls, 4) for planner in planners]
        dispatcher = ParallelDispatcher(engine, backend)
        firsts = [dispatcher.execute(layout, inputs) for layout in layouts]
        fresh = [ParallelDispatcher(engine, backend).execute(layout, inputs) for layout in layouts]
        built: dict[str, int] = {}

        def counting(name, function):
            def counted(*args, **kwargs):
                built[name] = built.get(name, 0) + 1
                return function(*args, **kwargs)

            return counted

        monkeypatch.setattr(Command, "__init__", counting("Command", Command.__init__))
        monkeypatch.setattr(
            CommandTrace, "__init__", counting("CommandTrace", CommandTrace.__init__)
        )
        for name in ("merged_makespan_ns", "_schedule_hierarchy"):
            monkeypatch.setattr(dispatch, name, counting(name, getattr(dispatch, name)))
        before = cache_stats()
        seconds = [dispatcher.execute(layout, inputs) for layout in layouts]
        after = cache_stats()
        assert built == {}
        for layer in ("scheduler_merges", "hierarchy_schedules"):
            lookups = [stats[layer]["hits"] + stats[layer]["misses"] for stats in (before, after)]
            assert lookups[0] == lookups[1], layer
        for first, second, reference in zip(firsts, seconds, fresh):
            assert _charges(first) == _charges(reference)
            assert _charges(second) == _charges(reference)
            for name, data in reference.outputs.items():
                assert np.array_equal(second.outputs[name], data), name
        if len(layouts) == 2:
            assert _charges(seconds[0]) != _charges(seconds[1])


class TestBankShardedIsOneRankPlacement:
    """``shards=n`` is the device narrowed to one channel and one rank:
    the rest of the device changes nothing it runs or charges."""

    @pytest.mark.parametrize("channels,ranks", [(1, 1), (2, 2)])
    @pytest.mark.parametrize(
        "family", ["image", "crc", "salsa20", "vmpc", "bitcount", "vector_ops"]
    )
    def test_same_results_and_traces(self, family, channels, ranks):
        program = workload_program(family, elements=4096)
        engine = PlutoEngine(PlutoConfig(channels=channels, ranks=ranks))
        one_rank = ShardPlanner(engine.geometry, channels=1, ranks=1)
        dispatcher = ParallelDispatcher(engine)
        one_rank_device = PlutoEngine(PlutoConfig())
        for shards in (2, 4, 8, 16):
            plan = ExecutionPlan(shards=shards)
            banked = program.session.run(program.inputs, engine=engine, plan=plan)
            assert {(p.channel, p.rank) for p in banked.shard_plans} == {(0, 0)}
            for reference in (
                dispatcher.execute(one_rank.plan(program.session.calls, shards), program.inputs),
                program.session.run(program.inputs, engine=one_rank_device, plan=plan),
            ):
                for name, data in banked.outputs.items():
                    assert np.array_equal(reference.outputs[name], data), (shards, name)
                assert banked.latency_ns == reference.latency_ns
                assert banked.energy_nj == reference.energy_nj
                assert [(c.kind, c.bank, c.rows) for c in banked.trace.commands] == [
                    (c.kind, c.bank, c.rows) for c in reference.trace.commands
                ]


class TestMakespanModel:
    def test_collapsed_hierarchy_equals_bank_only(self):
        session, inputs = _mac_program(4096)
        engine = _engine(2, 2)
        dispatcher = ParallelDispatcher(engine)
        result = dispatcher.execute(ShardPlanner(engine.geometry).plan(session.calls), inputs)
        streams = [r.trace.commands for r in result.shard_results]
        assert _schedule_hierarchy(
            streams, engine, channels=1, ranks=1
        )[0] == pytest.approx(result.bank_only_makespan_ns)

    @PLACEMENTS
    def test_empty_streams_have_zero_makespan(self, channels, ranks):
        engine = _engine(channels, ranks)
        assert merged_makespan_ns([], engine, channels=channels, ranks=ranks) == 0.0
        assert merged_makespan_ns([[]], engine, channels=channels, ranks=ranks) == 0.0

    def test_rejects_non_positive_levels(self):
        engine = _engine()
        stream = [[Command(CommandType.ACT, bank=0)]]
        with pytest.raises(ConfigurationError):
            merged_makespan_ns(stream, engine, channels=0, ranks=1)
        with pytest.raises(ConfigurationError):
            merged_makespan_ns(stream, engine, channels=1, ranks=-1)
        with pytest.raises(ConfigurationError):
            merged_makespan_ns(stream, engine, channels=-1, ranks=-1)

    def test_bus_occupancy_counts_activations_and_bursts(self):
        engine = _engine()
        timing = engine.timing
        streams = [
            [
                Command(CommandType.ROW_SWEEP, bank=0, rows=8),
                Command(CommandType.RD, bank=0),
                Command(CommandType.PRE, bank=0),
            ]
        ]
        expected = (
            8 * timing.clock_ns
            + max(timing.t_burst, timing.t_ccd_s, timing.clock_ns)
            + timing.clock_ns
        )
        assert bus_occupancy_ns(streams, engine) == pytest.approx(expected)

    def test_channel_bus_bounds_rank_parallelism(self):
        """A channel cannot finish before issuing every rank's commands."""
        engine = _engine(1, 4)
        # Four one-activation streams, one per rank: rank makespans overlap
        # fully, so the bus occupancy (4 activations) is not the binding
        # constraint — but the model must still include it.
        streams = [[Command(CommandType.ACT, bank=0)] for _ in range(4)]
        makespan = merged_makespan_ns(streams, engine, channels=1, ranks=4)
        assert makespan >= 4 * engine.timing.clock_ns
        assert makespan >= engine.timing.t_rcd


class TestSessionSurface:
    def test_run_with_shards(self):
        session, inputs = _program()
        reference = session.run(inputs)
        sharded = session.run(inputs, plan=ExecutionPlan(shards=4))
        assert isinstance(sharded, ShardedExecutionResult)
        assert np.array_equal(sharded.outputs["final"], reference.outputs["final"])
        assert sharded.parallel_speedup > 1.0
        with pytest.raises(ConfigurationError):
            session.run(inputs, plan=ExecutionPlan(shards=0))

    def test_bank_sharded_plan_stays_on_one_rank_of_a_larger_device(self):
        session, inputs = _program(1024)
        result = session.run(inputs, engine=_engine(2, 2), plan=ExecutionPlan(shards=8))
        assert {(plan.channel, plan.rank) for plan in result.shard_plans} == {(0, 0)}
        with pytest.raises(ConfigurationError, match="16 banks"):
            session.run(inputs, engine=_engine(2, 2), plan=ExecutionPlan(shards=17))

    def test_run_rejects_more_shards_than_banks(self):
        """The session surface, not just the planner, explains the limit."""
        session, inputs = _program(64)
        with pytest.raises(ConfigurationError, match="16 banks"):
            session.run(inputs, plan=ExecutionPlan(shards=17))

    @pytest.mark.parametrize("label", list(default_pluto_configs()))
    def test_sharded_run_on_every_configuration(self, label):
        """Each of the six evaluated pLUTo configurations runs a sharded
        plan to its unsharded outputs."""
        session, inputs = _program(1024)
        engine = PlutoEngine(default_pluto_configs()[label])
        plain = session.run(inputs, engine=engine)
        sharded = session.run(inputs, engine=engine, plan=ExecutionPlan(shards=4))
        assert isinstance(sharded, ShardedExecutionResult)
        assert np.array_equal(sharded.outputs["final"], plain.outputs["final"])

    def test_run_over_every_channel_and_rank(self):
        session, inputs = _mac_program()
        reference = session.run(inputs)
        engine = _engine(2, 2)
        result = session.run(
            inputs, engine=engine, plan=ExecutionPlan(shards=8, channels=None, ranks=None)
        )
        assert isinstance(result, ShardedExecutionResult)
        assert {(p.channel, p.rank) for p in result.shard_plans} == {
            (0, 0), (0, 1), (1, 0), (1, 1)
        }
        assert np.array_equal(result.outputs["out"], reference.outputs["out"])
        assert result.parallel_speedup > 1.0

    def test_run_rejects_more_shards_than_device_banks(self):
        session, inputs = _mac_program(256)
        with pytest.raises(VerificationError, match="shards-overcommit.*64 banks"):
            session.run(
                inputs,
                engine=_engine(2, 2),
                plan=ExecutionPlan(shards=65, channels=None, ranks=None),
            )


class TestSweepInterval:
    def test_design_specific_spacing(self):
        bsa = PlutoEngine(PlutoConfig(design=PlutoDesign.BSA))
        gsa = PlutoEngine(PlutoConfig(design=PlutoDesign.GSA))
        gmc = PlutoEngine(PlutoConfig(design=PlutoDesign.GMC))
        timing = bsa.timing
        assert sweep_act_interval_ns(bsa) == pytest.approx(
            timing.t_rcd + timing.t_rp
        )
        assert sweep_act_interval_ns(gmc) == pytest.approx(timing.t_rcd)
        assert sweep_act_interval_ns(gsa) > sweep_act_interval_ns(bsa)
        assert sweep_acts_per_row(gsa) == 2
        assert sweep_acts_per_row(bsa) == sweep_acts_per_row(gmc) == 1

    @pytest.mark.parametrize("rows", [16, 256])
    def test_sweep_decomposition_matches_cost_model(self, any_design, rows):
        """interval x rows + tail must equal Table 1's query latency.

        The dispatcher re-encodes the per-design sweep decomposition that
        PlutoCostModel expresses in closed form; this pins the two
        encodings together so the single-shard makespan stays equal to
        the serial trace latency for every design.
        """
        engine = PlutoEngine(PlutoConfig(design=any_design))
        reconstructed = rows * sweep_act_interval_ns(engine) + sweep_tail_ns(
            engine
        )
        assert reconstructed == pytest.approx(
            engine.cost_model.query_latency_ns(any_design, rows)
        )

    def test_gsa_sweeps_count_reload_activations(self):
        """GSA's destructive-read reloads double the tFAW pressure."""
        from repro.dram.scheduler import CommandScheduler
        from repro.dram.timing import TimingParameters

        timing = TimingParameters(t_faw=1000.0, t_rrd=0.0)
        streams = [[Command(CommandType.ROW_SWEEP, bank=0, rows=4)]]
        single = CommandScheduler(
            timing, sweep_act_interval_ns=10.0, sweep_acts_per_row=1
        )
        double = CommandScheduler(
            timing, sweep_act_interval_ns=10.0, sweep_acts_per_row=2
        )
        # Four rows = four activations: inside the window.  Eight
        # activations (reload + sweep per row) must trip tFAW.
        assert single.merge_streams(streams) == pytest.approx(40.0)
        assert double.merge_streams(streams) >= 1000.0

    def test_merge_streams_requires_fresh_scheduler(self):
        from repro.dram.scheduler import CommandScheduler
        from repro.dram.timing import DDR4_2400
        from repro.errors import TimingViolationError

        scheduler = CommandScheduler(DDR4_2400)
        scheduler.issue(Command(CommandType.ACT, bank=0))
        with pytest.raises(TimingViolationError):
            scheduler.merge_streams([[Command(CommandType.ACT, bank=1)]])


#: One plan per placement a 2x2 device serves: unsharded, sharded on one
#: rank, and sharded over every channel and rank.
PLACEMENT_PLANS = (
    None,
    ExecutionPlan(shards=4),
    ExecutionPlan(shards=2, channels=None, ranks=None),
)


@pytest.fixture
def controllers(monkeypatch) -> list:
    """Every :class:`PlutoController` constructed while the test runs."""
    built: list = []
    original = PlutoController.__init__

    def counting(self, *args, **options):
        built.append(self)
        original(self, *args, **options)

    monkeypatch.setattr(PlutoController, "__init__", counting)
    return built


class TestOneControllerRunsEveryPlacement:
    """Each front door keeps one dispatcher per engine and backend, and its
    one controller runs every plan's placement."""

    def test_a_session(self, controllers):
        session, inputs = _program(64)
        engine = _engine(2, 2)
        for plan in PLACEMENT_PLANS:
            session.run(inputs, engine=engine, plan=plan)
        assert len(controllers) == 1

    def test_a_service(self, controllers):
        session, inputs = _program(64)
        engine = _engine(2, 2)

        async def serve():
            async with session.serve(engine=engine) as service:
                return [await service.submit(inputs, plan=plan) for plan in PLACEMENT_PLANS]

        served = asyncio.run(serve())
        sharded = [isinstance(result.result, ShardedExecutionResult) for result in served]
        assert sharded == [False, True, True]
        assert len(controllers) == 1


#: Two spellings of one placement: the device's counts and ``None``.  The
#: default engine's device is one rank of one channel.
SPELLINGS = {
    "default": (
        None,
        ExecutionPlan(shards=8),
        ExecutionPlan(shards=8, channels=None, ranks=None),
        "shards=8",
    ),
    "2x2": (
        (2, 2),
        ExecutionPlan(shards=8, channels=2, ranks=2),
        ExecutionPlan(shards=8, channels=None, ranks=None),
        "shards=8@2x2",
    ),
}


class TestOnePlacementOneArtifact:
    """A placement level spelled ``None`` is read as the device's count
    before the artifact is keyed, so the two spellings of one placement
    prepare one artifact and run under one plan and one label."""

    @pytest.mark.parametrize(
        "shape, counted, whole, label", list(SPELLINGS.values()), ids=list(SPELLINGS)
    )
    def test_both_spellings_share_one_artifact(self, shape, counted, whole, label):
        clear_all_caches()
        session, inputs = _program(1024)
        engine = None
        if shape is not None:
            engine = PlutoEngine(PlutoConfig(channels=shape[0], ranks=shape[1]))
        first = session.run(inputs, engine=engine, plan=counted)
        second = session.run(inputs, engine=engine, plan=whole)
        stats = cache_stats()["artifacts"]
        assert (stats["misses"], stats["hits"], stats["size"]) == (1, 1, 1)
        assert first.execution_plan == second.execution_plan == counted
        assert {first.execution_plan.label(), second.execution_plan.label()} == {label}
        assert second.latency_ns == first.latency_ns
        assert np.array_equal(second.outputs["final"], first.outputs["final"])
