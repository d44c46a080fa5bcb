"""Benchmark: merge/makespan throughput, event-driven vs memoized+analytic.

Times the three ways the simulator can answer "what is the makespan of
these per-bank command streams":

* the reference event-driven :meth:`CommandScheduler.merge_streams`
  (replays every activation through the Python scheduling loop),
* the memoized path used by the dispatcher
  (:func:`repro.controller.dispatch.merged_makespan_ns` — structural
  signature + cache, bit-identical results),
* the closed-form homogeneous Row-Sweep model
  (:func:`repro.dram.analytic.homogeneous_sweep_makespan_ns` — pure
  tRRD/tFAW arithmetic, no events at all).

Asserts the memoized path answers repeat queries at least
``MIN_SPEEDUP`` times faster than the event-driven merge and emits the
numbers as JSON for the bench trajectory (stdout +
``benchmarks/scheduler_speed.json``, overridable via the
``SCHEDULER_SPEED_JSON`` environment variable); CI's perf-track job
folds them into ``BENCH_pr4.json``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.api.session import clear_all_caches
from repro.controller.dispatch import (
    merged_makespan_ns,
    rank_scheduler,
    sweep_act_interval_ns,
)
from repro.core.engine import PlutoConfig, PlutoEngine
from repro.dram.analytic import homogeneous_sweep_makespan_ns
from repro.dram.commands import Command, CommandType

#: One LUT load + one Row Sweep per bank over a 128-entry LUT.
ROWS = 128
BANKS = 16
#: Repeat makespan queries of one warm structure (the serving pattern).
QUERIES = 200
MIN_SPEEDUP = 25.0


def _streams():
    return [
        [
            Command(CommandType.LISA_RBM, bank=bank, rows=ROWS),
            Command(CommandType.ROW_SWEEP, bank=bank, rows=ROWS),
        ]
        for bank in range(BANKS)
    ]


def test_memoized_scheduling_is_faster():
    engine = PlutoEngine(PlutoConfig(tfaw_fraction=1.0))
    streams = _streams()

    # Reference: every query replays the event-driven merge.
    reference = rank_scheduler(engine).merge_streams(streams)
    event_runs = 3
    start = time.perf_counter()
    for _ in range(event_runs):
        rank_scheduler(engine).merge_streams(streams)
    event_s = (time.perf_counter() - start) / event_runs

    # Memoized: the first query computes (exact fast merge), repeats hit
    # the structural-signature cache.
    clear_all_caches()
    assert merged_makespan_ns(streams, engine) == reference
    start = time.perf_counter()
    for _ in range(QUERIES):
        merged_makespan_ns(streams, engine)
    memoized_s = (time.perf_counter() - start) / QUERIES

    # Analytic: the closed-form homogeneous model, no events at all.
    gap = sweep_act_interval_ns(engine)
    timing = engine.timing.with_tfaw_fraction(engine.config.tfaw_fraction)
    analytic = homogeneous_sweep_makespan_ns(BANKS, 2 * ROWS, gap, timing)
    assert analytic == pytest.approx(reference, rel=1e-9)
    start = time.perf_counter()
    for _ in range(QUERIES):
        homogeneous_sweep_makespan_ns(BANKS, 2 * ROWS, gap, timing)
    analytic_s = (time.perf_counter() - start) / QUERIES

    memoized_speedup = event_s / max(memoized_s, 1e-12)
    analytic_speedup = event_s / max(analytic_s, 1e-12)
    payload = {
        "workload": f"{BANKS} banks x (LUT load + Row Sweep) over {ROWS} rows",
        "streams": BANKS,
        "activations": BANKS * 2 * ROWS,
        "event_driven_s_per_merge": event_s,
        "memoized_s_per_query": memoized_s,
        "analytic_s_per_query": analytic_s,
        "event_driven_merges_per_s": 1.0 / max(event_s, 1e-12),
        "memoized_queries_per_s": 1.0 / max(memoized_s, 1e-12),
        "analytic_queries_per_s": 1.0 / max(analytic_s, 1e-12),
        "memoized_speedup": memoized_speedup,
        "analytic_speedup": analytic_speedup,
        # The asserted floor, recorded so the perf-track CI gate reads
        # the same threshold this test enforces.
        "min_speedup": MIN_SPEEDUP,
    }
    print("SCHEDULER_SPEED_JSON " + json.dumps(payload))
    output = Path(
        os.environ.get(
            "SCHEDULER_SPEED_JSON",
            Path(__file__).resolve().parent / "scheduler_speed.json",
        )
    )
    output.write_text(json.dumps(payload, indent=2) + "\n")

    assert memoized_speedup >= MIN_SPEEDUP, (
        f"memoized scheduling is only {memoized_speedup:.1f}x faster than "
        f"the event-driven merge (required {MIN_SPEEDUP}x)"
    )
