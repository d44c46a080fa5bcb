"""Benchmark: merge/makespan throughput, event-driven vs memoized.

Times the two ways the simulator answers "what is the makespan of these
per-bank command streams":

* the reference event-driven :meth:`CommandScheduler.merge_streams`
  (replays every activation through the Python scheduling loop),
* the memoized path used by the dispatcher
  (:func:`repro.controller.dispatch.merged_makespan_ns` — structural
  signature + cache, bit-identical results).

Asserts that both answer alike, and records how much faster the
memoized path answers repeat queries than the event-driven merge, with
its ``MIN_SPEEDUP`` floor, which ``perf_track.py`` gates (the ratio is
host wall-clock).  The numbers go out as JSON for the bench trajectory
(stdout +
``benchmarks/scheduler_speed.json``, overridable via the
``SCHEDULER_SPEED_JSON`` environment variable); CI's perf-track job
folds them into ``BENCH_pr4.json``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.api.session import clear_all_caches
from repro.controller.dispatch import merged_makespan_ns, rank_scheduler
from repro.core.engine import PlutoConfig, PlutoEngine
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

    memoized_speedup = event_s / max(memoized_s, 1e-12)
    payload = {
        "workload": f"{BANKS} banks x (LUT load + Row Sweep) over {ROWS} rows",
        "streams": BANKS,
        "activations": BANKS * 2 * ROWS,
        "event_driven_s_per_merge": event_s,
        "memoized_s_per_query": memoized_s,
        "event_driven_merges_per_s": 1.0 / max(event_s, 1e-12),
        "memoized_queries_per_s": 1.0 / max(memoized_s, 1e-12),
        "memoized_speedup": memoized_speedup,
        # The floor perf_track.py gates this host wall-clock ratio on.
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
