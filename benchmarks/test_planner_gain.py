"""Benchmark: the cost-based auto-planner against the static grid.

Runs every registry-family pipeline through
:func:`repro.evaluation.figures.figure_auto_planner` — ``plan="auto"``
against the full static shard x optimizer grid on pLUTo-BSA — and
asserts the PR's acceptance criteria:

* the auto-planned makespan is within ``MAX_AUTO_VS_BEST`` (5 %) of the
  best static configuration on **every** family;
* auto strictly beats the naive default (one shard, no optimizer) on at
  least ``MIN_FAMILIES_BEATING_DEFAULT`` of the six families;
* the planner's predicted makespan matches the measured makespan
  exactly (the analytic model prices candidates from the very trace
  templates execution charges);
* outputs are bit-identical (the figure itself raises otherwise), and
  an equal-structure program reuses the first one's artifact, plan
  included.

The numbers are emitted as JSON (stdout + ``benchmarks/planner_gain.json``,
overridable via ``PLANNER_GAIN_JSON``); CI's perf-track job folds them
into ``BENCH_pr8.json`` and gates on the floors.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.evaluation.figures import figure_auto_planner

#: Auto may lose at most this fraction to the best static configuration.
MAX_AUTO_VS_BEST = 0.05
#: Auto must strictly beat the naive default on at least this many of
#: the six registry families.
MIN_FAMILIES_BEATING_DEFAULT = 4


def _memo_hit_check() -> dict:
    """An equal-structure auto request must be a pure artifact-table hit."""
    from repro.api.session import cache_stats, clear_all_caches
    from repro.workloads.programs import workload_program

    clear_all_caches()
    first = workload_program("image", elements=512, seed=0)
    second = workload_program("image", elements=512, seed=1)
    cold = first.session.run(first.inputs, plan="auto")
    warm = second.session.run(second.inputs, plan="auto")
    stats = cache_stats()["artifacts"]
    assert not cold.planner.cached and warm.planner.cached
    assert stats["hits"] == 1 and stats["misses"] == 1
    return {
        "plan": warm.execution_plan.label(),
        "hits": stats["hits"],
        "misses": stats["misses"],
    }


def test_auto_planner_gains_hold():
    start = time.perf_counter()
    figure = figure_auto_planner()
    wall_s = time.perf_counter() - start

    beats_default = 0
    worst_vs_best = 0.0
    for row in figure.rows:
        name = row["workload"]
        assert row["auto_vs_best"] <= 1.0 + MAX_AUTO_VS_BEST, (
            f"{name}: auto-planned makespan is "
            f"{100 * (row['auto_vs_best'] - 1):.1f}% worse than the best "
            f"static configuration (allowed {100 * MAX_AUTO_VS_BEST:.0f}%)"
        )
        assert row["prediction_error"] == 0.0, (
            f"{name}: planner predicted-vs-measured error is "
            f"{row['prediction_error']} (must be exact)"
        )
        worst_vs_best = max(worst_vs_best, row["auto_vs_best"])
        if row["auto_makespan_ns"] < row["default_makespan_ns"]:
            beats_default += 1
    assert beats_default >= MIN_FAMILIES_BEATING_DEFAULT, (
        f"auto beats the naive default on only {beats_default} of "
        f"{len(figure.rows)} families "
        f"(required {MIN_FAMILIES_BEATING_DEFAULT})"
    )

    memo = _memo_hit_check()
    payload = {
        "workload": "auto-planner (registry pipelines, pLUTo-BSA)",
        "max_auto_vs_best": MAX_AUTO_VS_BEST,
        "min_families_beating_default": MIN_FAMILIES_BEATING_DEFAULT,
        "worst_auto_vs_best": worst_vs_best,
        "families_beating_default": beats_default,
        "families": len(figure.rows),
        "max_prediction_error": max(
            row["prediction_error"] for row in figure.rows
        ),
        "memo_hit_check": memo,
        "wall_clock_s": wall_s,
        "rows": figure.rows,
    }
    print("PLANNER_GAIN_JSON " + json.dumps(payload))
    output = Path(
        os.environ.get(
            "PLANNER_GAIN_JSON",
            Path(__file__).resolve().parent / "planner_gain.json",
        )
    )
    output.write_text(json.dumps(payload, indent=2) + "\n")
