"""Tests for bank-parallel sharded execution (controller/dispatch.py)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.session import PlutoSession
from repro.controller.dispatch import (
    ParallelDispatcher,
    ShardedExecutionResult,
    ShardPlanner,
    merged_makespan_ns,
    sweep_act_interval_ns,
    sweep_acts_per_row,
    sweep_tail_ns,
)
from repro.core.designs import PlutoDesign
from repro.core.engine import PlutoConfig, PlutoEngine
from repro.dram.scheduler import activation_count, tfaw_lower_bound_ns
from repro.errors import ConfigurationError
from repro.plan import ExecutionPlan


ELEMENTS = 4096


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


class TestShardPlanner:
    def test_balanced_contiguous_slices(self):
        session, _ = _program(10)
        plans = ShardPlanner(num_banks=16).plan(session.calls, 3)
        assert [(p.start, p.stop) for p in plans] == [(0, 4), (4, 7), (7, 10)]
        assert [p.bank for p in plans] == [0, 1, 2]
        for plan in plans:
            sizes = {
                v.size for call in plan.calls for v in (*call.inputs, call.output)
            }
            assert sizes == {plan.size}

    def test_rejects_more_shards_than_banks(self):
        session, _ = _program(64)
        with pytest.raises(ConfigurationError):
            ShardPlanner(num_banks=4).plan(session.calls, 8)

    def test_rejects_more_shards_than_elements(self):
        session, _ = _program(2)
        with pytest.raises(ConfigurationError):
            ShardPlanner(num_banks=16).plan(session.calls, 3)

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


class TestDifferential:
    """The PR's acceptance criteria: bit-identical outputs, honest timing."""

    @pytest.mark.parametrize("backend", ["vectorized", "functional"])
    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_sharded_matches_unsharded(self, backend, shards):
        session, inputs = _program()
        session.backend = backend
        engine = PlutoEngine(PlutoConfig(tfaw_fraction=1.0))
        reference = session.run(inputs, engine=engine)
        result = ParallelDispatcher(engine, backend=backend).execute(
            session.calls, inputs, shards=shards
        )
        assert isinstance(result, ShardedExecutionResult)
        assert result.num_shards == shards
        for name, data in reference.outputs.items():
            assert np.array_equal(result.outputs[name], data), name

    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_makespan_between_bounds(self, shards):
        session, inputs = _program()
        engine = PlutoEngine(PlutoConfig(tfaw_fraction=1.0))
        result = ParallelDispatcher(engine).execute(
            session.calls, inputs, shards=shards
        )
        # Strictly faster than draining every shard through one bank ...
        assert result.makespan_ns < result.serial_latency_ns
        # ... but never below the rank's tFAW activation floor.
        timing = engine.timing.with_tfaw_fraction(engine.config.tfaw_fraction)
        activations = sum(
            activation_count(command) for command in result.trace.commands
        )
        assert result.makespan_ns >= tfaw_lower_bound_ns(activations, timing)

    def test_single_shard_makespan_matches_serial(self, any_design):
        session, inputs = _program()
        engine = PlutoEngine(
            PlutoConfig(design=any_design, tfaw_fraction=1.0)
        )
        result = ParallelDispatcher(engine).execute(session.calls, inputs, shards=1)
        assert result.makespan_ns == pytest.approx(
            result.serial_latency_ns, rel=1e-6
        )
        assert result.latency_ns == result.makespan_ns

    def test_rejects_mis_sized_and_unknown_inputs(self):
        """Sharded runs must reject what unsharded runs reject, not slice."""
        from repro.errors import ExecutionError

        session, inputs = _program(16)
        dispatcher = ParallelDispatcher()
        oversized = dict(inputs, a=np.zeros(32, dtype=np.uint64))
        with pytest.raises(ExecutionError):
            dispatcher.execute(session.calls, oversized, shards=2)
        unknown = dict(inputs, ghost=np.zeros(16, dtype=np.uint64))
        with pytest.raises(ExecutionError):
            dispatcher.execute(session.calls, unknown, shards=2)

    def test_makespan_improves_with_shards(self):
        # 32768 elements: the add's merged 8-bit index register spans four
        # DRAM rows, so each doubling of the shard count halves the rows
        # (and sweeps) per bank until every shard is down to one row.
        session, inputs = _program(32768)
        engine = PlutoEngine(PlutoConfig(tfaw_fraction=1.0))
        dispatcher = ParallelDispatcher(engine)
        makespans = [
            dispatcher.execute(session.calls, inputs, shards=n).makespan_ns
            for n in (1, 2, 4)
        ]
        assert makespans[0] > makespans[1] > makespans[2]


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

    def test_run_batch_parallel_makespan(self):
        session, inputs = _program(1024)
        batch = [inputs, inputs, inputs, inputs]
        serial = session.run_batch(batch)
        parallel = session.run_batch(batch, parallel=True)
        # Serial batches keep sum semantics; parallel batches report the
        # scheduler-derived makespan and keep the sum on serial_latency_ns.
        assert serial.makespan_ns is None
        assert serial.total_latency_ns == serial.serial_latency_ns
        assert parallel.makespan_ns is not None
        assert parallel.total_latency_ns < parallel.serial_latency_ns
        assert parallel.serial_latency_ns == pytest.approx(
            serial.serial_latency_ns
        )
        for one, other in zip(serial, parallel):
            assert np.array_equal(one.outputs["final"], other.outputs["final"])

    def test_run_rejects_more_shards_than_banks(self):
        """The session surface, not just the planner, explains the limit."""
        session, inputs = _program(64)
        with pytest.raises(ConfigurationError, match="16 banks"):
            session.run(inputs, plan=ExecutionPlan(shards=17))

    def test_run_batch_parallel_warns_when_oversubscribed(self):
        """More jobs than banks clamps round-robin with a warning.

        Jobs beyond the module's bank count wrap onto already-used banks
        and serialise there; the results stay correct and the makespan
        reflects the serialisation, but callers expecting one bank per
        job are told.
        """
        session, inputs = _program(64)
        batch = [inputs] * 18  # 18 jobs > 16 banks
        with pytest.warns(UserWarning, match="16 banks"):
            oversubscribed = session.run_batch(batch, parallel=True)
        assert len(oversubscribed) == 18
        reference = session.run(inputs)
        for result in oversubscribed:
            assert np.array_equal(
                result.outputs["final"], reference.outputs["final"]
            )
        # Still a true makespan: bounded by the serial drain of all jobs.
        assert oversubscribed.makespan_ns is not None
        assert oversubscribed.makespan_ns < oversubscribed.serial_latency_ns
        # A bank-count-sized batch stays warning-free.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            session.run_batch([inputs] * 4, parallel=True)

    def test_harness_sharded_execution(self):
        from repro.evaluation.harness import EvaluationHarness

        session, inputs = _program(1024)
        harness = EvaluationHarness()
        plain = harness.execute_program(session, inputs)
        sharded = harness.execute_program(
            session, inputs, plan=ExecutionPlan(shards=4)
        )
        assert set(sharded) == set(plain)
        for label, result in sharded.items():
            assert isinstance(result, ShardedExecutionResult)
            assert np.array_equal(
                result.outputs["final"], plain[label].outputs["final"]
            ), label


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
        from repro.dram.commands import Command, CommandType
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
        from repro.dram.commands import Command, CommandType
        from repro.dram.scheduler import CommandScheduler
        from repro.dram.timing import DDR4_2400
        from repro.errors import TimingViolationError

        scheduler = CommandScheduler(DDR4_2400)
        scheduler.issue(Command(CommandType.ACT, bank=0))
        with pytest.raises(TimingViolationError):
            scheduler.merge_streams([[Command(CommandType.ACT, bank=1)]])

    def test_empty_streams_have_zero_makespan(self):
        engine = PlutoEngine(PlutoConfig())
        assert merged_makespan_ns([], engine) == 0.0
        assert merged_makespan_ns([[]], engine) == 0.0
