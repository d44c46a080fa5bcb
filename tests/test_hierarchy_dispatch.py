"""Tests for hierarchical channel/rank/bank dispatch (controller/hierarchy.py)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.session import PlutoSession
from repro.controller.hierarchy import (
    HierarchicalDispatcher,
    HierarchicalExecutionResult,
    HierarchyPlanner,
    bus_occupancy_ns,
    hierarchical_makespan_ns,
    interleaved_bank_order,
)
from repro.core.engine import PlutoConfig, PlutoEngine
from repro.dram.commands import Command, CommandType
from repro.dram.geometry import DRAMGeometry
from repro.errors import ConfigurationError, ExecutionError
from repro.plan import ExecutionPlan

ELEMENTS = 1024


def _program(elements: int = ELEMENTS) -> tuple[PlutoSession, dict]:
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


def _engine(channels: int = 1, ranks: int = 1) -> PlutoEngine:
    return PlutoEngine(
        PlutoConfig(tfaw_fraction=1.0, channels=channels, ranks=ranks)
    )


class TestHierarchyPlanner:
    def test_channel_first_placement(self):
        session, _ = _program(64)
        geometry = DRAMGeometry(channels=2, ranks=2)
        plans = HierarchyPlanner(geometry).plan(session.calls, 8)
        assert [plan.channel for plan in plans] == [0, 1, 0, 1, 0, 1, 0, 1]
        assert [plan.rank for plan in plans] == [0, 0, 1, 1, 0, 0, 1, 1]
        # The first four shards use bank 0 of four different (channel,
        # rank) pairs; the next four move to the next bank group.
        assert [plan.bank for plan in plans] == [0, 0, 0, 0, 4, 4, 4, 4]
        assert [plan.bank_group for plan in plans] == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_bank_order_round_robins_groups(self):
        order = interleaved_bank_order(DRAMGeometry())
        assert sorted(order) == list(range(16))
        groups = [bank // 4 for bank in order]
        assert groups[:8] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_default_shard_count_uses_every_bank(self):
        session, _ = _program(256)
        geometry = DRAMGeometry(channels=2, ranks=1)
        plans = HierarchyPlanner(geometry).plan(session.calls)
        assert len(plans) == geometry.total_banks == 32

    def test_default_clamps_to_element_count(self):
        session, _ = _program(3)
        plans = HierarchyPlanner(DRAMGeometry()).plan(session.calls)
        assert len(plans) == 3

    def test_rejects_more_shards_than_device_banks(self):
        session, _ = _program(256)
        with pytest.raises(ConfigurationError, match="16 banks"):
            HierarchyPlanner(DRAMGeometry()).plan(session.calls, 17)

    def test_slices_cover_elements_exactly(self):
        session, _ = _program(29)
        plans = HierarchyPlanner(DRAMGeometry(channels=2, ranks=2)).plan(
            session.calls, 6
        )
        assert plans[0].start == 0
        assert plans[-1].stop == 29
        for before, after in zip(plans, plans[1:]):
            assert before.stop == after.start


class TestDifferential:
    """Bit-exactness across the full hierarchy grid, on both backends."""

    @pytest.mark.parametrize("backend", ["vectorized", "functional"])
    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("ranks", [1, 2])
    @pytest.mark.parametrize("banks_used", [1, 2, 4])
    def test_bit_identical_to_serial(self, backend, channels, ranks, banks_used):
        session, inputs = _program()
        session.backend = backend
        engine = _engine(channels, ranks)
        reference = session.run(inputs, engine=engine)
        shards = channels * ranks * banks_used
        result = HierarchicalDispatcher(engine, backend=backend).execute(
            session.calls, inputs, shards=shards
        )
        assert isinstance(result, HierarchicalExecutionResult)
        assert result.num_shards == shards
        assert result.backend == backend
        for name, data in reference.outputs.items():
            assert np.array_equal(result.outputs[name], data), name
        banks_touched = {
            (plan.channel, plan.rank, plan.bank) for plan in result.shards
        }
        assert len(banks_touched) == shards

    @pytest.mark.parametrize("channels,ranks", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_per_level_makespans_are_monotone(self, channels, ranks):
        session, inputs = _program(8192)
        engine = _engine(channels, ranks)
        result = HierarchicalDispatcher(engine).execute(session.calls, inputs)
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

    def test_levels_help_once_tfaw_binds(self):
        """Extra ranks/channels relieve the per-rank tFAW throttle."""
        session, inputs = _program(16384)
        flat = HierarchicalDispatcher(_engine(1, 1)).execute(
            session.calls, inputs, shards=16
        )
        tall = HierarchicalDispatcher(_engine(2, 2)).execute(
            session.calls, inputs, shards=64
        )
        assert tall.rank_speedup > 1.5
        assert tall.channel_speedup > 1.5
        assert tall.parallel_speedup > flat.parallel_speedup

    def test_single_shard_matches_serial(self):
        session, inputs = _program()
        result = HierarchicalDispatcher(_engine(2, 2)).execute(
            session.calls, inputs, shards=1
        )
        assert result.makespan_ns == pytest.approx(
            result.serial_latency_ns, rel=1e-6
        )
        assert result.bank_only_makespan_ns == pytest.approx(
            result.makespan_ns, rel=1e-6
        )

    def test_channel_makespans_cover_device_makespan(self):
        session, inputs = _program(4096)
        result = HierarchicalDispatcher(_engine(2, 2)).execute(
            session.calls, inputs
        )
        assert set(result.channel_makespans) == {0, 1}
        assert max(result.channel_makespans.values()) == pytest.approx(
            result.makespan_ns
        )
        assert set(result.rank_makespans) == {(c, r) for c in (0, 1) for r in (0, 1)}

    def test_rejects_mis_sized_and_unknown_inputs(self):
        session, inputs = _program(16)
        dispatcher = HierarchicalDispatcher(_engine())
        oversized = dict(inputs, a=np.zeros(32, dtype=np.uint64))
        with pytest.raises(ExecutionError):
            dispatcher.execute(session.calls, oversized, shards=2)
        unknown = dict(inputs, ghost=np.zeros(16, dtype=np.uint64))
        with pytest.raises(ExecutionError):
            dispatcher.execute(session.calls, unknown, shards=2)


class TestMakespanModel:
    def test_collapsed_hierarchy_equals_bank_only(self):
        session, inputs = _program(4096)
        engine = _engine(2, 2)
        result = HierarchicalDispatcher(engine).execute(session.calls, inputs)
        streams = [r.trace.commands for r in result.shard_results]
        assert hierarchical_makespan_ns(
            streams, engine, channels=1, ranks=1
        ) == pytest.approx(result.bank_only_makespan_ns)

    def test_empty_streams_have_zero_makespan(self):
        engine = _engine()
        assert hierarchical_makespan_ns([], engine, channels=2, ranks=2) == 0.0
        assert hierarchical_makespan_ns([[]], engine, channels=1, ranks=1) == 0.0

    def test_rejects_non_positive_levels(self):
        engine = _engine()
        stream = [[Command(CommandType.ACT, bank=0)]]
        with pytest.raises(ConfigurationError):
            hierarchical_makespan_ns(stream, engine, channels=0, ranks=1)
        with pytest.raises(ConfigurationError):
            hierarchical_makespan_ns(stream, engine, channels=1, ranks=-1)

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
        makespan = hierarchical_makespan_ns(streams, engine, channels=1, ranks=4)
        assert makespan >= 4 * engine.timing.clock_ns
        assert makespan >= engine.timing.t_rcd


class TestSessionSurface:
    def test_run_hierarchical(self):
        session, inputs = _program()
        reference = session.run(inputs)
        engine = _engine(2, 2)
        result = session.run_hierarchical(
            inputs, engine=engine, plan=ExecutionPlan(hierarchical=True, shards=8)
        )
        assert isinstance(result, HierarchicalExecutionResult)
        assert np.array_equal(result.outputs["out"], reference.outputs["out"])
        assert result.parallel_speedup > 1.0

    def test_run_hierarchical_default_shards(self):
        session, inputs = _program(64)
        result = session.run_hierarchical(inputs)
        # Default engine: a single-channel, single-rank, 16-bank module.
        assert result.num_shards == 16
