"""Tests for memoized scheduling (dram/analytic.py).

The contract under test: the memoized fast merge is *bit-identical* to
the reference event-driven :meth:`CommandScheduler.merge_streams` (same
floating-point operations in the same order), both stay inside the
bounds the timing rules alone put on a merge of Row Sweeps, the memo
keys on the scheduler, a frozen value of its settings, and the makespan
floor never exceeds either merge.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.session import cache_stats, clear_all_caches
from repro.controller.dispatch import (
    _schedule_hierarchy,
    _throttled_timing,
    interleaved_bank_order,
    merged_makespan_ns,
    rank_scheduler,
    sweep_act_interval_ns,
    sweep_acts_per_row,
    sweep_tail_ns,
)
from repro.core.designs import PlutoDesign
from repro.core.engine import DDR4, THREE_DS, PlutoConfig, PlutoEngine
from repro.dram.analytic import (
    FLOOR_MARGIN,
    PlacedStream,
    fast_merge_makespan_ns,
    makespan_floor_ns,
    memoized_merge_makespan_ns,
    stream_bound,
    stream_signature,
)
from repro.dram.commands import Command, CommandType
from repro.dram.scheduler import CommandScheduler, tfaw_lower_bound_ns
from repro.dram.timing import DDR4_2400, HMC_3DS
from repro.errors import TimingViolationError

DESIGNS = [PlutoDesign.BSA, PlutoDesign.GSA, PlutoDesign.GMC]
MEMORIES = [DDR4, THREE_DS]


def _engine(design, memory, tfaw_fraction):
    return PlutoEngine(
        PlutoConfig(design=design, memory=memory, tfaw_fraction=tfaw_fraction)
    )


def _sweep_streams(banks, rows, *, lut_rows=0):
    """One Row-Sweep stream per bank, optionally preceded by a LUT load."""
    streams = []
    for bank in banks:
        stream = []
        if lut_rows:
            stream.append(Command(CommandType.LISA_RBM, bank=bank, rows=lut_rows))
        stream.append(Command(CommandType.ROW_SWEEP, bank=bank, rows=rows))
        streams.append(stream)
    return streams


def _sweep_bounds_ns(scheduler, banks, rows):
    """Lower and upper bounds on the makespan of ``banks`` equal sweeps.

    Derived from the timing rules alone, not from the greedy: each bank
    spaces its own activations ``sub`` apart and then holds its tail;
    consecutive activations of the rank are at least one bus clock and
    tRRD apart, and tFAW admits four per window; and no activation issues
    later than ``sub``, a clock, tRRD or tFAW, whichever is longest,
    after the one before it.
    """
    timing = scheduler.timing
    per_bank = rows * scheduler.sweep_acts_per_row
    acts = banks * per_bank
    sub = scheduler.sweep_act_interval_ns / scheduler.sweep_acts_per_row
    tail = scheduler.sweep_tail_ns
    last_act_floor = max(
        tfaw_lower_bound_ns(acts, timing),
        (acts - 1) * max(timing.t_rrd, timing.clock_ns),
        (per_bank - 1) * sub,
    )
    step = max(sub, timing.clock_ns, timing.t_rrd, timing.t_faw)
    return last_act_floor + sub + tail, (acts - 1) * step + sub + tail


def _assert_exact_and_bounded(scheduler, banks, rows):
    """Fast merge equals the reference bit for bit, inside the bounds."""
    streams = _sweep_streams(range(banks), rows)
    reference = scheduler.merge_streams(streams)
    assert fast_merge_makespan_ns(streams, scheduler) == reference
    lower, upper = _sweep_bounds_ns(scheduler, banks, rows)
    # The bounds multiply where the merge accumulates: allow rounding.
    assert lower - 1e-6 <= reference <= upper + 1e-6


class TestFastMergeExactness:
    """fast_merge_makespan_ns replays merge_streams bit-for-bit."""

    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("memory", MEMORIES)
    @pytest.mark.parametrize("tfaw_fraction", [0.0, 1.0])
    def test_row_sweep_streams(self, design, memory, tfaw_fraction):
        engine = _engine(design, memory, tfaw_fraction)
        streams = _sweep_streams(range(engine.geometry.banks), 24, lut_rows=24)
        reference = rank_scheduler(engine).merge_streams(streams)
        fast = fast_merge_makespan_ns(streams, rank_scheduler(engine))
        assert fast == reference  # exact, not approximate

    def test_exceeding_the_16_pending_act_window(self):
        """Streams whose activation backlog overflows the tFAW deque."""
        engine = PlutoEngine(PlutoConfig(tfaw_fraction=2.0))
        # 4 streams per bank: 64 concurrent streams of multi-row sweeps
        # keep far more than 16 activations pending at all times.
        streams = _sweep_streams(
            [bank % engine.geometry.banks for bank in range(64)], 20
        )
        reference = rank_scheduler(engine).merge_streams(streams)
        fast = fast_merge_makespan_ns(streams, rank_scheduler(engine))
        assert fast == reference

    def test_mixed_pum_commands(self):
        """TRA/SHIFT/LISA/PRE/REF mixtures match the reference exactly."""
        random.seed(3)
        engine = PlutoEngine(PlutoConfig(tfaw_fraction=1.0))
        kinds = [
            CommandType.ROW_SWEEP,
            CommandType.LISA_RBM,
            CommandType.TRA,
            CommandType.SHIFT,
            CommandType.PRE,
            CommandType.ACT,
            CommandType.REF,
        ]
        for _ in range(25):
            streams = []
            for _ in range(random.randint(1, 20)):
                bank = random.randrange(engine.geometry.banks)
                streams.append(
                    [
                        Command(
                            random.choice(kinds),
                            bank=bank,
                            rows=random.randint(1, 12),
                        )
                        for _ in range(random.randint(1, 5))
                    ]
                )
            reference = rank_scheduler(engine).merge_streams(streams)
            fast = fast_merge_makespan_ns(streams, rank_scheduler(engine))
            assert fast == reference

    def test_column_streams_fall_back(self):
        """RD/WR streams return None: the reference owns tCCD modelling."""
        engine = PlutoEngine(PlutoConfig())
        streams = [
            [Command(CommandType.ACT, bank=0), Command(CommandType.RD, bank=0)]
        ]
        assert fast_merge_makespan_ns(streams, rank_scheduler(engine)) is None
        # merged_makespan_ns still resolves them through the reference.
        direct = rank_scheduler(engine).merge_streams(streams)
        assert merged_makespan_ns(streams, engine) == direct

    def test_rejects_out_of_range_banks(self):
        engine = PlutoEngine(PlutoConfig())
        streams = [[Command(CommandType.ACT, bank=99)]]
        with pytest.raises(TimingViolationError):
            fast_merge_makespan_ns(streams, rank_scheduler(engine))


class TestMemoization:
    def test_repeat_merges_hit_the_cache(self):
        clear_all_caches()
        engine = PlutoEngine(PlutoConfig(tfaw_fraction=1.0))
        streams = _sweep_streams(range(8), 16, lut_rows=16)
        first = merged_makespan_ns(streams, engine)
        stats = cache_stats()["scheduler_merges"]
        assert stats["misses"] == 1 and stats["hits"] == 0
        second = merged_makespan_ns(streams, engine)
        assert second == first
        stats = cache_stats()["scheduler_merges"]
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_memoized_equals_reference_exactly(self):
        clear_all_caches()
        for design, memory in itertools.product(DESIGNS, MEMORIES):
            engine = _engine(design, memory, 1.0)
            streams = _sweep_streams(range(engine.geometry.banks), 18, lut_rows=18)
            reference = rank_scheduler(engine).merge_streams(streams)
            assert merged_makespan_ns(streams, engine) == reference
            # ... and the warm path returns the identical float.
            assert merged_makespan_ns(streams, engine) == reference

    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("memory", MEMORIES)
    @pytest.mark.parametrize("tfaw_fraction", [0.0, 0.5, 1.0])
    def test_a_scheduler_is_a_value_and_its_own_memo_key(
        self, design, memory, tfaw_fraction
    ):
        """A scheduler merges twice to the same value; engines of equal
        configuration give equal schedulers that share memo entries."""
        clear_all_caches()
        engine = _engine(design, memory, tfaw_fraction)
        twin = _engine(design, memory, tfaw_fraction)
        scheduler = rank_scheduler(engine)
        assert rank_scheduler(engine) is scheduler
        assert rank_scheduler(twin) == scheduler
        assert hash(rank_scheduler(twin)) == hash(scheduler)
        streams = _sweep_streams(range(4), 6, lut_rows=6)
        first = scheduler.merge_streams(streams)
        assert scheduler.merge_streams(streams) == first
        assert merged_makespan_ns(streams, engine) == first
        assert merged_makespan_ns(streams, twin) == first
        assert cache_stats()["scheduler_merges"]["misses"] == 1
        assert cache_stats()["scheduler_merges"]["hits"] == 1

    def test_signature_ignores_metadata_but_not_structure(self):
        clear_all_caches()
        scheduler = CommandScheduler(DDR4_2400)
        a = [Command(CommandType.ROW_SWEEP, bank=1, rows=4, meta="x")]
        b = [Command(CommandType.ROW_SWEEP, bank=1, rows=4, meta="y")]
        c = [Command(CommandType.ROW_SWEEP, bank=1, rows=5, meta="x")]
        assert stream_signature(a) == stream_signature(b)
        assert stream_signature(a) != stream_signature(c)
        memoized_merge_makespan_ns([a], scheduler)
        memoized_merge_makespan_ns([b], scheduler)
        assert cache_stats()["scheduler_merges"]["hits"] == 1

    def test_distinct_timing_distinct_entries(self):
        clear_all_caches()
        streams = _sweep_streams(range(16), 8)
        throttled = merged_makespan_ns(
            streams, PlutoEngine(PlutoConfig(tfaw_fraction=2.0))
        )
        unthrottled = merged_makespan_ns(
            streams, PlutoEngine(PlutoConfig(tfaw_fraction=0.0))
        )
        assert throttled > unthrottled
        assert cache_stats()["scheduler_merges"]["misses"] == 2

    def test_hierarchy_schedule_memo(self):
        clear_all_caches()
        engine = PlutoEngine(PlutoConfig(tfaw_fraction=1.0, channels=2, ranks=2))
        streams = _sweep_streams([0] * 8, 16, lut_rows=16)
        cold = _schedule_hierarchy(streams, engine, channels=2, ranks=2)
        assert cache_stats()["hierarchy_schedules"]["misses"] == 1
        warm = _schedule_hierarchy(streams, engine, channels=2, ranks=2)
        assert cache_stats()["hierarchy_schedules"]["hits"] == 1
        assert warm[0] == cold[0]
        assert warm[1] == cold[1] and warm[2] == cold[2]
        # The memo hands out copies: mutating a result must not poison it.
        warm[1].clear()
        again = _schedule_hierarchy(streams, engine, channels=2, ranks=2)
        assert again[1] == cold[1]

    def test_helper_caches_report_hits(self):
        engine = PlutoEngine(PlutoConfig())
        before = cache_stats()["engine_helpers"]["interleaved_bank_order"]["hits"]
        interleaved_bank_order(engine.geometry)
        interleaved_bank_order(engine.geometry)
        after = cache_stats()["engine_helpers"]["interleaved_bank_order"]["hits"]
        assert after >= before + 1

    def test_clearing_the_helpers_empties_the_throttled_timings(self):
        merged_makespan_ns(_sweep_streams(range(4), 8), PlutoEngine(PlutoConfig()))
        assert _throttled_timing.cache_info().currsize > 0
        clear_all_caches()
        assert _throttled_timing.cache_info().currsize == 0


class TestPlacedStreams:
    """A placed stream is its commands moved to a bank, keyed without them."""

    COMMANDS = (
        Command(CommandType.LISA_RBM, bank=0, subarray=3, rows=16, meta="load"),
        Command(CommandType.ROW_SWEEP, bank=0, subarray=3, rows=16, meta="op"),
        Command(CommandType.TRA, bank=2, row=7, meta="and"),
        Command(CommandType.PRE, bank=0),
    )

    @pytest.mark.parametrize("bank", [0, 2, 5])
    def test_reading_it_builds_the_moved_commands(self, bank):
        moved = [
            Command(c.kind, bank, c.subarray, c.row, c.rows, c.meta) for c in self.COMMANDS
        ]
        placed = PlacedStream(self.COMMANDS, bank)
        assert len(placed) == len(moved)
        assert list(placed) == moved
        assert placed[1] == moved[1] and placed[1:3] == moved[1:3]
        assert placed.signature == stream_signature(moved)
        assert stream_signature(placed) is placed.signature
        # Moving a placed stream moves the recorded commands.
        again = PlacedStream(placed, 4)
        assert list(again) == list(PlacedStream(self.COMMANDS, 4))
        assert again.signature == stream_signature(list(again))
        assert PlacedStream(placed, bank).signature is placed.signature

    @pytest.mark.parametrize("placement", [1, 2])
    def test_placed_and_realized_streams_share_memo_entries(self, placement):
        """The planner prices placed templates; the run of a priced
        candidate merges realized traces and finds the entry pricing made:
        the merge of a one-rank plan, the schedule of a whole 2 x 2 one.
        Eight shards are merged on both placements (sixteen are pruned)."""
        from repro.api.luts import color_grade_lut
        from repro.api.session import PlutoSession
        from repro.plan import ExecutionPlan, plan_program

        clear_all_caches()
        session = PlutoSession()
        pixels = session.pluto_malloc(65536, 8, "pixels")
        graded = session.pluto_malloc(65536, 8, "graded")
        session.api_pluto_map(color_grade_lut(), pixels, graded)
        inputs = {"pixels": np.arange(65536, dtype=np.uint64) % 256}
        engine = PlutoEngine(PlutoConfig(channels=2, ranks=2))
        report = plan_program(session.calls, engine).report
        plan = ExecutionPlan(shards=8, channels=placement, ranks=placement, optimize=False)
        (candidate,) = [c for c in report.candidates if c.plan == plan]
        assert candidate.pruned is None
        before = cache_stats()
        result = session.run(inputs, plan=plan, engine=engine)
        after = cache_stats()
        assert result.latency_ns == candidate.predicted_makespan_ns
        layer = "scheduler_merges" if placement == 1 else "hierarchy_schedules"
        assert after[layer]["hits"] > before[layer]["hits"]
        if placement == 1:
            assert after[layer]["misses"] == before[layer]["misses"]


class TestMergeAcrossGeometries:
    """Row-Sweep merges over designs, memories, tFAW and bank counts: the
    fast merge replays the reference exactly and both honour the timing
    bounds, which catch a fault the two merges would share."""

    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("memory", MEMORIES)
    @pytest.mark.parametrize("tfaw_fraction", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("banks_used", [1, 4, 7, 16])
    def test_matches_reference_across_designs_and_geometries(
        self, design, memory, tfaw_fraction, banks_used
    ):
        engine = _engine(design, memory, tfaw_fraction)
        scheduler = rank_scheduler(engine)
        # The scheduler carries the design's sweep shape.
        assert scheduler.sweep_act_interval_ns == sweep_act_interval_ns(engine)
        assert scheduler.sweep_acts_per_row == sweep_acts_per_row(engine)
        assert scheduler.sweep_tail_ns == sweep_tail_ns(engine)
        _assert_exact_and_bounded(scheduler, banks_used, 24)

    def test_covers_the_16_plus_pending_act_regime(self):
        """24 banks x 20-row sweeps: far beyond the 16-act tFAW deque."""
        scheduler = CommandScheduler(
            DDR4_2400.with_tfaw_fraction(2.0),
            num_banks=24,
            banks_per_group=4,
            sweep_act_interval_ns=28.32,
        )
        _assert_exact_and_bounded(scheduler, 24, 20)

    @pytest.mark.parametrize("timing", [DDR4_2400, HMC_3DS])
    def test_grid_against_reference(self, timing):
        for fraction, banks, rows, gap in itertools.product(
            [0.0, 1.0], [1, 2, 5, 9, 16], [1, 2, 33], [3.0, 14.16, 28.32]
        ):
            scheduler = CommandScheduler(
                timing.with_tfaw_fraction(fraction),
                num_banks=banks,
                sweep_act_interval_ns=gap,
            )
            _assert_exact_and_bounded(scheduler, banks, rows)

    def test_degenerate_inputs(self):
        """No streams, empty streams and zero-row sweeps cost nothing but
        their tails, on both merges."""
        plain = CommandScheduler(DDR4_2400)
        tailed = CommandScheduler(DDR4_2400, sweep_tail_ns=7.0)
        empty_sweeps = _sweep_streams(range(4), 0)
        for scheduler, streams, expected in (
            (plain, [], 0.0),
            (plain, [[], []], 0.0),
            (plain, empty_sweeps, 0.0),
            (tailed, empty_sweeps, 7.0),
        ):
            assert scheduler.merge_streams(streams) == expected
            assert fast_merge_makespan_ns(streams, scheduler) == expected


#: Engines of the floor tests, by (design, tfaw fraction, channels, ranks).
_FLOOR_ENGINES: dict[tuple, PlutoEngine] = {}


def _floor_engine(design, tfaw_fraction, channels, ranks) -> PlutoEngine:
    key = (design, tfaw_fraction, channels, ranks)
    if key not in _FLOOR_ENGINES:
        _FLOOR_ENGINES[key] = PlutoEngine(
            PlutoConfig(
                design=design, tfaw_fraction=tfaw_fraction, channels=channels, ranks=ranks
            )
        )
    return _FLOOR_ENGINES[key]


def _placed(streams, engine, channels, ranks) -> list[PlacedStream]:
    """Stream *i* in the bank the dispatcher places shard *i* in."""
    order = interleaved_bank_order(engine.geometry)
    return [
        PlacedStream(stream, order[index // (channels * ranks)])
        for index, stream in enumerate(streams)
    ]


#: Streams of one to five sweeps, LISA loads, TRAs and precharges, with
#: row counts from zero (a sweep of nothing) up.
_STREAMS = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from(
                [CommandType.ROW_SWEEP, CommandType.LISA_RBM, CommandType.TRA, CommandType.PRE]
            ),
            st.integers(0, 12),
        ),
        min_size=1,
        max_size=5,
    ),
    min_size=1,
    max_size=16,
)


class TestMakespanFloor:
    """The floor the auto-planner prunes with is at or below both merges."""

    @settings(max_examples=200, deadline=None)
    @given(
        shapes=_STREAMS,
        design=st.sampled_from(DESIGNS),
        placement=st.sampled_from([(1, 1), (2, 1), (2, 2)]),
        tfaw_fraction=st.sampled_from([0.0, 1.0]),
    )
    def test_the_floor_is_at_or_below_both_merges(
        self, shapes, design, placement, tfaw_fraction
    ):
        channels, ranks = placement
        engine = _floor_engine(design, tfaw_fraction, channels, ranks)
        scheduler = rank_scheduler(engine)
        streams = _placed(
            [[Command(kind, bank=0, rows=rows) for kind, rows in shape] for shape in shapes],
            engine,
            channels,
            ranks,
        )
        floor = makespan_floor_ns(
            [(stream_bound(stream, scheduler), 1) for stream in streams],
            scheduler,
            channels=channels,
            ranks=ranks,
        )
        slots = channels * ranks
        for slot in range(min(slots, len(streams))):
            rank_streams = streams[slot::slots]
            fast = fast_merge_makespan_ns(rank_streams, scheduler)
            assert fast == scheduler.merge_streams(rank_streams)
        makespan = merged_makespan_ns(streams, engine, channels=channels, ranks=ranks)
        assert floor <= makespan
        if slots == 1:
            assert floor <= fast

    @pytest.mark.parametrize("design", DESIGNS)
    def test_a_rank_of_one_sweep_is_tight(self, design):
        """Unthrottled, one sweep's merge is its serial event sum, which
        the floor meets up to its margin."""
        engine = _floor_engine(design, 0.0, 1, 1)
        scheduler = rank_scheduler(engine)
        stream = [Command(CommandType.ROW_SWEEP, bank=0, rows=256)]
        floor = makespan_floor_ns([(stream_bound(stream, scheduler), 1)], scheduler)
        makespan = fast_merge_makespan_ns([stream], scheduler)
        assert makespan * (1.0 - 2 * FLOOR_MARGIN) <= floor <= makespan

    def test_a_run_of_equal_streams_is_one_part(self):
        """``(bound, count)`` is ``count`` consecutive streams of one bound,
        wherever the run falls across ranks."""
        engine = _floor_engine(PlutoDesign.BSA, 1.0, 2, 2)
        scheduler = rank_scheduler(engine)
        long = stream_bound([Command(CommandType.ROW_SWEEP, bank=0, rows=9)], scheduler)
        short = stream_bound([Command(CommandType.ROW_SWEEP, bank=0, rows=4)], scheduler)
        for longer, shorter in ((3, 6), (1, 4), (0, 5), (6, 0)):
            runs = makespan_floor_ns(
                [(long, longer), (short, shorter)], scheduler, channels=2, ranks=2
            )
            single = makespan_floor_ns(
                [(long, 1)] * longer + [(short, 1)] * shorter, scheduler, channels=2, ranks=2
            )
            assert runs == single
