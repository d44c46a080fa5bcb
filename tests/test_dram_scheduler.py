"""Tests for the timing-aware command scheduler."""

from __future__ import annotations

import pytest

from repro.dram.commands import Command, CommandType
from repro.dram.scheduler import (
    CommandScheduler,
    activation_count,
    tfaw_lower_bound_ns,
)
from repro.dram.timing import DDR4_2400, TimingParameters
from repro.errors import TimingViolationError


def _act(bank: int) -> Command:
    return Command(CommandType.ACT, bank=bank)


class TestActivationTiming:
    """tRRD, tFAW and the command bus, as the merge enforces them."""

    def test_trrd_between_banks(self):
        # The second bank's ACT waits only for tRRD, not for the first
        # bank's full activation.
        makespan = CommandScheduler(DDR4_2400).merge_streams([[_act(0)], [_act(1)]])
        assert makespan == pytest.approx(DDR4_2400.t_rrd + DDR4_2400.t_rcd)

    def test_fifth_activation_waits_for_tfaw(self):
        # Use a huge tFAW so the delay is unambiguous.
        timing = TimingParameters(t_faw=1000.0, t_rrd=0.0)
        scheduler = CommandScheduler(timing)
        four = scheduler.merge_streams([[_act(bank)] for bank in range(4)])
        five = scheduler.merge_streams([[_act(bank)] for bank in range(5)])
        assert four < 1000.0
        assert five == pytest.approx(1000.0 + timing.t_rcd)

    def test_no_tfaw_constraint_when_zero(self):
        timing = TimingParameters(t_faw=0.0, t_rrd=0.0)
        makespan = CommandScheduler(timing).merge_streams([[_act(bank)] for bank in range(8)])
        # Only the command-bus serialisation (one clock per command) remains.
        assert makespan == pytest.approx(7 * timing.clock_ns + timing.t_rcd)

    @pytest.mark.parametrize(
        "filler",
        [
            [Command(CommandType.ROW_SWEEP, bank=0, rows=4)],
            [Command(CommandType.LISA_RBM, bank=0, rows=4)],
            [Command(CommandType.TRA, bank=0), Command(CommandType.TRA, bank=0)],
            [_act(0)] * 4,
        ],
        ids=["sweep", "lisa", "tra", "act"],
    )
    def test_activations_count_toward_the_window(self, filler):
        """Four activations of any kind on bank 0 close the window: the
        ACT bank 1 issues after a refresh waits a full tFAW."""
        timing = TimingParameters(t_faw=1000.0, t_rrd=0.0)
        scheduler = CommandScheduler(timing, sweep_act_interval_ns=10.0)
        waiting = [Command(CommandType.REF, bank=1), _act(1)]
        assert scheduler.merge_streams([filler, waiting]) == pytest.approx(
            1000.0 + timing.t_rcd
        )
        # Three activations leave the window open.
        fewer = [Command(CommandType.ROW_SWEEP, bank=0, rows=3)]
        assert scheduler.merge_streams([fewer, waiting]) == pytest.approx(
            timing.t_rfc + timing.t_rcd
        )

    def test_reload_activations_fill_the_window(self):
        """A swept row costs ``sweep_acts_per_row`` activations: two rows
        of GSA-style sweeps (reload + sweep) close the window that two
        rows of plain sweeps leave open."""
        timing = TimingParameters(t_faw=1000.0, t_rrd=0.0)
        waiting = [Command(CommandType.REF, bank=1), _act(1)]
        sweep = [Command(CommandType.ROW_SWEEP, bank=0, rows=2)]
        reloading = CommandScheduler(
            timing, sweep_act_interval_ns=10.0, sweep_acts_per_row=2
        )
        plain = CommandScheduler(timing, sweep_act_interval_ns=10.0)
        assert reloading.merge_streams([sweep, waiting]) == pytest.approx(
            1000.0 + timing.t_rcd
        )
        assert plain.merge_streams([sweep, waiting]) == pytest.approx(
            timing.t_rfc + timing.t_rcd
        )

    def test_back_to_back_row_sweeps_across_banks(self):
        """Sweeps on different banks interleave, coupled only by tRRD and
        tFAW.

        With tFAW disabled bank 1's activations trail bank 0's by one
        tRRD (bank 0 at 0, 10, ..., 70 ns; bank 1 at 5, 15, ..., 75 ns),
        so the two 8-row sweeps end at 85 ns.  A 200 ns window admits
        four activations per window (0, 5, 10, 15, then 200, 205, ...),
        so the 16th starts at 615 ns and its bank is free at 625 ns.
        """
        sweeps = [
            [Command(CommandType.ROW_SWEEP, bank=0, rows=8)],
            [Command(CommandType.ROW_SWEEP, bank=1, rows=8)],
        ]
        relaxed = TimingParameters(t_faw=0.0, t_rrd=5.0, clock_ns=0.5)
        throttled = TimingParameters(t_faw=200.0, t_rrd=5.0, clock_ns=0.5)
        assert CommandScheduler(
            relaxed, sweep_act_interval_ns=10.0
        ).merge_streams(sweeps) == pytest.approx(85.0)
        assert CommandScheduler(
            throttled, sweep_act_interval_ns=10.0
        ).merge_streams(sweeps) == pytest.approx(625.0)

    def test_window_survives_the_16_entry_trim(self):
        """Only the 16 newest activations are kept; after a 100-activation
        sweep the next ACT still waits a full tFAW after the 4th newest."""
        timing = TimingParameters(t_faw=1000.0, t_rrd=0.0)
        scheduler = CommandScheduler(timing, sweep_act_interval_ns=0.0)
        sweep = Command(CommandType.ROW_SWEEP, bank=0, rows=100)
        # Activations go four per window: the last four at 24000 ns and
        # one, two and three clocks later, so the 101st waits for 25000.
        assert scheduler.merge_streams([[sweep, _act(0)]]) == pytest.approx(
            25000.0 + timing.t_rcd
        )


class TestSingleStreamDurations:
    def test_rowclone_duration(self):
        makespan = CommandScheduler(DDR4_2400).merge_streams(
            [[Command(CommandType.ROWCLONE, bank=0)]]
        )
        assert makespan == pytest.approx(2 * DDR4_2400.t_rcd + DDR4_2400.t_rp)

    def test_lisa_duration(self):
        makespan = CommandScheduler(DDR4_2400).merge_streams(
            [[Command(CommandType.LISA_RBM, bank=0)]]
        )
        assert makespan == pytest.approx(DDR4_2400.t_rcd + DDR4_2400.t_rp)

    def test_refresh_duration(self):
        makespan = CommandScheduler(DDR4_2400).merge_streams(
            [[Command(CommandType.REF, bank=0)]]
        )
        assert makespan == pytest.approx(DDR4_2400.t_rfc)

    def test_act_then_pre_duration(self):
        """A precharge follows its activation's tRCD and takes tRP; the
        merge models no tRAS."""
        scheduler = CommandScheduler(DDR4_2400)
        pre = Command(CommandType.PRE, bank=0)
        assert scheduler.merge_streams([[_act(0), pre]]) == pytest.approx(
            DDR4_2400.t_rcd + DDR4_2400.t_rp
        )
        assert scheduler.merge_streams([[_act(0), pre, _act(0)]]) == pytest.approx(
            2 * DDR4_2400.t_rcd + DDR4_2400.t_rp
        )

    def test_sweep_tail_occupies_only_its_bank(self):
        """The trailing precharge of a sweep delays its bank's next sweep
        but not another bank's activations."""
        timing = TimingParameters(t_faw=0.0, t_rrd=0.0, clock_ns=0.5)
        scheduler = CommandScheduler(
            timing, sweep_act_interval_ns=10.0, sweep_tail_ns=7.0
        )
        sweep = Command(CommandType.ROW_SWEEP, bank=0, rows=8)
        other = Command(CommandType.ROW_SWEEP, bank=1, rows=8)
        assert scheduler.merge_streams([[sweep]]) == pytest.approx(87.0)
        assert scheduler.merge_streams([[sweep, sweep]]) == pytest.approx(174.0)
        # Bank 1 trails bank 0 by one bus clock and keeps its own tail.
        assert scheduler.merge_streams([[sweep], [other]]) == pytest.approx(87.5)


class TestMergeStreams:
    def _sweep(self, bank: int, rows: int = 8) -> Command:
        return Command(CommandType.ROW_SWEEP, bank=bank, rows=rows)

    def test_single_stream_matches_serial_cost(self):
        timing = TimingParameters(t_faw=0.0, t_rrd=0.0, clock_ns=0.5)
        scheduler = CommandScheduler(timing, sweep_act_interval_ns=10.0)
        makespan = scheduler.merge_streams([[self._sweep(0), self._sweep(0)]])
        assert makespan == pytest.approx(160.0)

    def test_two_banks_overlap_under_relaxed_timing(self):
        timing = TimingParameters(t_faw=0.0, t_rrd=1.0, clock_ns=0.5)
        scheduler = CommandScheduler(timing, sweep_act_interval_ns=10.0)
        makespan = scheduler.merge_streams(
            [[self._sweep(0)], [self._sweep(1)]]
        )
        # Both sweeps run concurrently, offset only by tRRD per activation
        # pair: far closer to one sweep (80 ns) than to two (160 ns).
        assert makespan == pytest.approx(81.0)

    def test_tfaw_throttles_merged_streams(self):
        relaxed = CommandScheduler(
            TimingParameters(t_faw=0.0, t_rrd=0.0, clock_ns=0.5),
            sweep_act_interval_ns=10.0,
        )
        throttled = CommandScheduler(
            TimingParameters(t_faw=120.0, t_rrd=0.0, clock_ns=0.5),
            sweep_act_interval_ns=10.0,
        )
        streams = [[self._sweep(bank)] for bank in range(8)]
        fast = relaxed.merge_streams(streams)
        slow = throttled.merge_streams(streams)
        # 64 activations across 8 banks: with a 120 ns window only four
        # can start per window, so the throttled makespan must sit above
        # the activation floor and above the unthrottled one.
        assert slow > fast
        assert slow >= tfaw_lower_bound_ns(64, throttled.timing)

    def test_streams_sharing_a_bank_serialise(self):
        timing = TimingParameters(t_faw=0.0, t_rrd=0.0, clock_ns=0.5)
        scheduler = CommandScheduler(timing, sweep_act_interval_ns=10.0)
        makespan = scheduler.merge_streams(
            [[self._sweep(3)], [self._sweep(3)]]
        )
        assert makespan == pytest.approx(160.0)

    def test_rejects_out_of_range_bank(self):
        scheduler = CommandScheduler(DDR4_2400, num_banks=2)
        with pytest.raises(TimingViolationError):
            scheduler.merge_streams([[self._sweep(7)]])

    def test_rejects_negative_bank(self):
        scheduler = CommandScheduler(DDR4_2400)
        with pytest.raises(TimingViolationError):
            scheduler.merge_streams([[_act(-1)]])

    def test_hierarchical_merge_beyond_sixteen_pending_activations(self):
        """A full rank of sweeps: 64 activations across all 4 bank groups.

        The merge must exercise the 16-entry sliding-window trim (more
        than 16 activations are pending at once), keep the tFAW floor for
        the whole activation population, and never beat the per-bank
        serial cost of its deepest bank.
        """
        timing = TimingParameters(t_faw=120.0, t_rrd=0.0, clock_ns=0.5)
        scheduler = CommandScheduler(
            timing, sweep_act_interval_ns=10.0, banks_per_group=4
        )
        streams = [[self._sweep(bank, rows=4)] for bank in range(16)]
        makespan = scheduler.merge_streams(streams)
        assert makespan >= tfaw_lower_bound_ns(64, timing)
        # Each bank alone needs rows x interval = 40 ns.
        assert makespan >= 40.0

    def test_merged_sweeps_unaffected_by_bank_groups(self):
        """Row activations couple through tRRD/tFAW, not tCCD."""
        timing = TimingParameters(t_faw=0.0, t_rrd=1.0, clock_ns=0.5)
        same_group = CommandScheduler(
            timing, sweep_act_interval_ns=10.0, banks_per_group=4
        )
        cross_group = CommandScheduler(
            timing, sweep_act_interval_ns=10.0, banks_per_group=4
        )
        assert same_group.merge_streams(
            [[self._sweep(0)], [self._sweep(1)]]
        ) == pytest.approx(
            cross_group.merge_streams([[self._sweep(0)], [self._sweep(4)]])
        )


class TestBankGroupColumnTiming:
    """tCCD_L / tCCD_S enforcement on column accesses (RD/WR)."""

    def _rd(self, bank: int) -> Command:
        return Command(CommandType.RD, bank=bank)

    def test_merge_same_group_pays_tccd_l(self):
        scheduler = CommandScheduler(DDR4_2400, banks_per_group=4)
        makespan = scheduler.merge_streams([[self._rd(0)], [self._rd(1)]])
        assert makespan == pytest.approx(
            DDR4_2400.t_ccd_l + DDR4_2400.t_cl + DDR4_2400.t_burst
        )

    def test_merge_cross_group_pays_tccd_s(self):
        scheduler = CommandScheduler(DDR4_2400, banks_per_group=4)
        makespan = scheduler.merge_streams([[self._rd(0)], [self._rd(4)]])
        assert makespan == pytest.approx(
            DDR4_2400.t_ccd_s + DDR4_2400.t_cl + DDR4_2400.t_burst
        )
        # The long/short asymmetry is exactly tCCD_L - tCCD_S.
        assert DDR4_2400.t_ccd_l - DDR4_2400.t_ccd_s == pytest.approx(
            5.0 - 3.33
        )

    def test_group_boundary_follows_banks_per_group(self):
        """Banks 0 and 3 share a group only while banks_per_group > 3."""
        long = DDR4_2400.t_ccd_l + DDR4_2400.t_cl + DDR4_2400.t_burst
        short = DDR4_2400.t_ccd_s + DDR4_2400.t_cl + DDR4_2400.t_burst
        wide = CommandScheduler(DDR4_2400, banks_per_group=4)
        narrow = CommandScheduler(DDR4_2400, banks_per_group=1)
        assert wide.merge_streams([[self._rd(0)], [self._rd(3)]]) == pytest.approx(long)
        assert wide.merge_streams([[self._rd(3)], [self._rd(4)]]) == pytest.approx(short)
        assert narrow.merge_streams([[self._rd(0)], [self._rd(1)]]) == pytest.approx(short)

    def test_rejects_non_positive_banks_per_group(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            CommandScheduler(DDR4_2400, banks_per_group=0)

    def test_tccd_l_shorter_than_tccd_s_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            TimingParameters(t_ccd_l=1.0, t_ccd_s=2.0)


class TestActivationAccounting:
    def test_activation_count_per_kind(self):
        assert activation_count(Command(CommandType.ROW_SWEEP, rows=256)) == 256
        assert activation_count(Command(CommandType.LISA_RBM, rows=16)) == 16
        assert activation_count(Command(CommandType.TRA)) == 2
        assert activation_count(Command(CommandType.SHIFT)) == 2
        assert activation_count(Command(CommandType.ROWCLONE)) == 2
        assert activation_count(Command(CommandType.ACT)) == 1
        assert activation_count(Command(CommandType.PRE)) == 0
        assert activation_count(Command(CommandType.RD)) == 0

    def test_tfaw_lower_bound(self):
        timing = TimingParameters(t_faw=100.0)
        assert tfaw_lower_bound_ns(4, timing) == 0.0
        assert tfaw_lower_bound_ns(5, timing) == pytest.approx(100.0)
        assert tfaw_lower_bound_ns(8, timing) == pytest.approx(100.0)
        assert tfaw_lower_bound_ns(9, timing) == pytest.approx(200.0)
        assert tfaw_lower_bound_ns(1000, TimingParameters(t_faw=0.0)) == 0.0
