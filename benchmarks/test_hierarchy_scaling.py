"""Benchmark: per-level makespans of hierarchical dispatch.

Runs the reference 256-entry LUT map through the dispatcher, one shard
per bank, for growing device shapes and asserts these properties of the
modelled makespan decomposition:

* per level, enabling more hierarchy never hurts —
  channel-parallel <= rank-parallel <= bank-only <= serial;
* rank- and channel-level parallelism genuinely help at scale — the
  2-channel x 2-rank device beats the single-rank module;
* fused dispatch and the per-shard loop give bit-identical outputs and
  identical makespans on the largest device.

It also measures two host wall-clock floors and records them with their
thresholds, which ``perf_track.py`` gates (host ratios do not belong in
the tier-1 run): fused single-pass execution and memoized analytic
scheduling should keep the whole figure under ``MAX_WALL_CLOCK_S`` (a
>= 5x improvement on the 2.63 s the unfused dispatcher took), and fused
dispatch should beat the per-shard loop by ``MIN_FUSION_SPEEDUP``.

The numbers are emitted as JSON for the bench trajectory (stdout +
``benchmarks/hierarchy_scaling.json``, overridable via the
``HIERARCHY_SCALING_JSON`` environment variable); CI's perf-track job
folds them into ``BENCH_pr4.json``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.evaluation.figures import figure_hierarchy_scaling

ELEMENTS = 65536
#: The full hierarchy must beat banks alone by at least the rank x channel
#: product's worth of headroom on the largest device (2 x 2 = 4, with
#: slack for bus-occupancy serialization).
MIN_HIERARCHY_GAIN = 2.0
#: Whole-figure wall-clock budget: >= 5x under PR 3's recorded 2.63 s.
MAX_WALL_CLOCK_S = 0.53
#: Fused single-pass execution vs the per-shard loop, warm caches both
#: (so this isolates fusion itself — the memoized scheduling layers are
#: already active on both sides).
MIN_FUSION_SPEEDUP = 1.5


def _fusion_comparison() -> dict:
    """Time fused vs per-shard dispatch of the 64-shard colorgrade map."""
    from repro.api.luts import color_grade_lut
    from repro.api.session import PlutoSession
    from repro.controller.dispatch import ParallelDispatcher, ShardPlanner
    from repro.core.designs import PlutoDesign
    from repro.core.engine import PlutoConfig, PlutoEngine

    session = PlutoSession()
    source = session.pluto_malloc(ELEMENTS, 8, "pixels")
    out = session.pluto_malloc(ELEMENTS, 8, "graded")
    session.api_pluto_map(color_grade_lut(), source, out)
    inputs = {"pixels": np.arange(ELEMENTS, dtype=np.uint64) % 256}
    engine = PlutoEngine(
        PlutoConfig(design=PlutoDesign.BSA, tfaw_fraction=1.0, channels=2, ranks=2)
    )

    planner = ShardPlanner(engine.geometry)
    timings = {}
    results = {}
    for label, fused in (("per_shard", False), ("fused", True)):
        dispatcher = ParallelDispatcher(engine, fused=fused)
        # Warm-up: caches, compiles, and the fused closure, which a
        # program's second run builds.
        for _ in range(2):
            dispatcher.execute(planner.plan(session.calls), inputs)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            results[label] = dispatcher.execute(planner.plan(session.calls), inputs)
            best = min(best, time.perf_counter() - start)
        timings[label] = best

    fused, per_shard = results["fused"], results["per_shard"]
    assert fused.num_shards == per_shard.num_shards == 64
    assert np.array_equal(fused.outputs["graded"], per_shard.outputs["graded"])
    assert fused.makespan_ns == per_shard.makespan_ns
    assert fused.bank_only_makespan_ns == per_shard.bank_only_makespan_ns
    return {
        "shards": fused.num_shards,
        "per_shard_s": timings["per_shard"],
        "fused_s": timings["fused"],
        "fusion_speedup": timings["per_shard"] / max(timings["fused"], 1e-12),
        "min_fusion_speedup": MIN_FUSION_SPEEDUP,
    }


def test_hierarchy_levels_scale():
    start = time.perf_counter()
    figure = figure_hierarchy_scaling(elements=ELEMENTS)
    wall_s = time.perf_counter() - start

    by_shape = {(row["channels"], row["ranks"]): row for row in figure.rows}
    for shape, row in by_shape.items():
        assert (
            row["channel_parallel_makespan_ns"]
            <= row["rank_parallel_makespan_ns"]
            <= row["bank_only_makespan_ns"]
            <= row["serial_latency_ns"]
        ), f"per-level makespans not monotone for {shape}: {row}"

    single = by_shape[(1, 1)]
    largest = by_shape[(2, 2)]
    hierarchy_gain = (
        largest["total_speedup"] / largest["bank_speedup"]
    )
    assert largest["total_speedup"] > single["total_speedup"], (
        "adding channels/ranks did not increase the total speedup"
    )
    assert hierarchy_gain >= MIN_HIERARCHY_GAIN, (
        f"rank+channel levels only contribute {hierarchy_gain:.2f}x "
        f"(required {MIN_HIERARCHY_GAIN}x)"
    )

    fusion = _fusion_comparison()

    payload = {
        "workload": "hierarchy-scaling (colorgrade8 map, one shard per bank)",
        "elements": ELEMENTS,
        "wall_clock_s": wall_s,
        "max_wall_clock_s": MAX_WALL_CLOCK_S,
        "min_hierarchy_gain": MIN_HIERARCHY_GAIN,
        "hierarchy_gain": hierarchy_gain,
        "dispatch_fusion": fusion,
        "rows": figure.rows,
    }
    print("HIERARCHY_SCALING_JSON " + json.dumps(payload))
    output = Path(
        os.environ.get(
            "HIERARCHY_SCALING_JSON",
            Path(__file__).resolve().parent / "hierarchy_scaling.json",
        )
    )
    output.write_text(json.dumps(payload, indent=2) + "\n")
