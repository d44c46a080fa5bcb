"""Tests for memoized/analytic scheduling (dram/analytic.py).

The contract under test: the memoized fast merge is *bit-identical* to
the reference event-driven :meth:`CommandScheduler.merge_streams` (same
floating-point operations in the same order), and the closed-form
homogeneous Row-Sweep model matches it to machine precision (it
multiplies where the merge accumulates, so the comparison allows
last-ulp slack).
"""

from __future__ import annotations

import itertools
import random

import pytest

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
    fast_merge_makespan_ns,
    homogeneous_sweep_makespan_ns,
    merge_signature,
    stream_signature,
)
from repro.dram.commands import Command, CommandType
from repro.dram.scheduler import CommandScheduler
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

    def test_signature_ignores_metadata_but_not_structure(self):
        scheduler = CommandScheduler(DDR4_2400)
        a = [Command(CommandType.ROW_SWEEP, bank=1, rows=4, meta="x")]
        b = [Command(CommandType.ROW_SWEEP, bank=1, rows=4, meta="y")]
        c = [Command(CommandType.ROW_SWEEP, bank=1, rows=5, meta="x")]
        assert stream_signature(a) == stream_signature(b)
        assert stream_signature(a) != stream_signature(c)
        assert merge_signature([a], scheduler) == merge_signature([b], scheduler)

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


class TestClosedForm:
    """The analytic model vs the event-driven merge, to machine precision."""

    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("memory", MEMORIES)
    @pytest.mark.parametrize("tfaw_fraction", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("banks_used", [1, 4, 7, 16])
    def test_matches_reference_across_designs_and_geometries(
        self, design, memory, tfaw_fraction, banks_used
    ):
        engine = _engine(design, memory, tfaw_fraction)
        gap = sweep_act_interval_ns(engine) / sweep_acts_per_row(engine)
        rows = 24
        timing = engine.timing.with_tfaw_fraction(tfaw_fraction)
        closed = homogeneous_sweep_makespan_ns(
            banks_used,
            rows * sweep_acts_per_row(engine),
            gap,
            timing,
            tail_ns=sweep_tail_ns(engine),
        )
        if closed is None:  # outside the wave model: fallback is the contract
            return
        streams = _sweep_streams(range(banks_used), rows)
        reference = rank_scheduler(engine).merge_streams(streams)
        assert closed == pytest.approx(reference, rel=1e-9, abs=1e-6)

    def test_covers_the_16_plus_pending_act_regime(self):
        """24 banks x 20-row sweeps: far beyond the 16-act tFAW deque."""
        timing = DDR4_2400.with_tfaw_fraction(2.0)
        gap = 28.32
        closed = homogeneous_sweep_makespan_ns(24, 20, gap, timing)
        assert closed is not None
        scheduler = CommandScheduler(
            timing, num_banks=24, banks_per_group=4, sweep_act_interval_ns=gap
        )
        streams = _sweep_streams(range(24), 20)
        assert closed == pytest.approx(scheduler.merge_streams(streams), rel=1e-9)

    @pytest.mark.parametrize("timing", [DDR4_2400, HMC_3DS])
    def test_grid_against_reference(self, timing):
        checked = 0
        for fraction, banks, rows, gap in itertools.product(
            [0.0, 1.0], [1, 2, 5, 9, 16], [1, 2, 33], [3.0, 14.16, 28.32]
        ):
            throttled = timing.with_tfaw_fraction(fraction)
            closed = homogeneous_sweep_makespan_ns(banks, rows, gap, throttled)
            if closed is None:
                continue
            scheduler = CommandScheduler(
                throttled, num_banks=banks, sweep_act_interval_ns=gap
            )
            reference = scheduler.merge_streams(_sweep_streams(range(banks), rows))
            assert closed == pytest.approx(reference, rel=1e-9, abs=1e-6), (
                fraction,
                banks,
                rows,
                gap,
            )
            checked += 1
        assert checked > 20  # the model must cover most of the grid

    def test_degenerate_inputs(self):
        assert homogeneous_sweep_makespan_ns(4, 0, 10.0, DDR4_2400) == 0.0
        assert homogeneous_sweep_makespan_ns(0, 4, 10.0, DDR4_2400) is None
        assert homogeneous_sweep_makespan_ns(4, 4, -1.0, DDR4_2400) is None
