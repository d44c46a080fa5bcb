"""Perf-tracking gate: run the speed benchmarks and emit ``BENCH_pr10.json``.

CI's ``perf-track`` job calls this script.  It

1. runs ``benchmarks/test_backend_speed.py`` (vectorized vs functional
   wall-clock, the whole-program compiled tier vs the interpreted
   vectorized walk, and verified vs unverified serving),
   ``benchmarks/test_hierarchy_scaling.py`` (per-level
   makespan decomposition + fused vs per-shard dispatch),
   ``benchmarks/test_scheduler_speed.py`` (event-driven vs memoized
   makespan throughput),
   ``benchmarks/test_optimizer_gain.py`` (program-optimizer row-sweep
   and makespan savings), ``benchmarks/test_planner_gain.py``
   (cost-based auto-planner vs the static configuration grid), and
   ``benchmarks/test_serving_throughput.py`` (multi-worker pool
   throughput, modelled worker scaling, warm-start latency), and
   ``benchmarks/test_obs_overhead.py`` (tracing-on vs tracing-off
   serving wall-clock and energy-accounting determinism) through
   pytest, collecting their JSON payloads;
2. gates on the recorded floors — the PR 1-5 floors (vectorized backend
   speedup, hierarchy gain, per-level monotonicity, hierarchy-figure
   wall-clock budget, dispatch-fusion speedup, memoized-scheduling
   speedup, optimizer sweep/makespan reduction), the PR 6 floor
   (compiled-tier speedup over the interpreted vectorized path on every
   serving workload), the PR 7 ceiling (static verification must
   cost less than 5% of unverified serving wall-clock), the PR 8
   floors (the auto-planned makespan within 5% of the best static
   configuration on every family, beating the naive default on most,
   with exact predicted-vs-measured makespans), and the PR 9 floors
   (pool requests/sec, modelled >= 2x device-throughput scaling at 4
   workers, a >= 1.3x wall-clock speedup at 4 workers on >= 4 cores,
   warm-started first request within 2x of hot and the cold
   first request at least 10x the warm one), and the PR 10 gates
   (tracing-enabled serving within 5% of tracing-disabled, and
   bit-identical per-request energy attribution across repeated
   serves) — exiting
   non-zero on a regression so future PRs cannot silently lose the fast
   paths;
3. writes the combined record to ``BENCH_pr10.json``, including the
   cross-PR wall-clock trajectory (carried forward from
   ``BENCH_pr9.json`` when present — a missing or unreadable prior file
   is warned about, not fatal), which CI uploads as an artifact.

Run locally with:  python benchmarks/perf_track.py
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = Path(__file__).resolve().parent
PR = 10


def run_benchmarks(
    workdir: Path,
) -> tuple[dict, dict, dict, dict, dict, dict, dict, float]:
    """Run the benchmark files, returning their payloads and wall time."""
    backend_json = workdir / "backend_speed.json"
    hierarchy_json = workdir / "hierarchy_scaling.json"
    scheduler_json = workdir / "scheduler_speed.json"
    optimizer_json = workdir / "optimizer_gain.json"
    planner_json = workdir / "planner_gain.json"
    serving_json = workdir / "serving_throughput.json"
    obs_json = workdir / "obs_overhead.json"
    env = dict(
        os.environ,
        BACKEND_SPEED_JSON=str(backend_json),
        HIERARCHY_SCALING_JSON=str(hierarchy_json),
        SCHEDULER_SPEED_JSON=str(scheduler_json),
        OPTIMIZER_GAIN_JSON=str(optimizer_json),
        PLANNER_GAIN_JSON=str(planner_json),
        SERVING_THROUGHPUT_JSON=str(serving_json),
        OBS_OVERHEAD_JSON=str(obs_json),
    )
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    start = time.perf_counter()
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            str(BENCHMARKS / "test_backend_speed.py"),
            str(BENCHMARKS / "test_hierarchy_scaling.py"),
            str(BENCHMARKS / "test_scheduler_speed.py"),
            str(BENCHMARKS / "test_optimizer_gain.py"),
            str(BENCHMARKS / "test_planner_gain.py"),
            str(BENCHMARKS / "test_serving_throughput.py"),
            str(BENCHMARKS / "test_obs_overhead.py"),
            "-q",
        ],
        env=env,
        cwd=REPO_ROOT,
    )
    wall_s = time.perf_counter() - start
    if completed.returncode != 0:
        raise SystemExit(
            f"benchmark run failed with exit code {completed.returncode}"
        )
    return (
        json.loads(backend_json.read_text()),
        json.loads(hierarchy_json.read_text()),
        json.loads(scheduler_json.read_text()),
        json.loads(optimizer_json.read_text()),
        json.loads(planner_json.read_text()),
        json.loads(serving_json.read_text()),
        json.loads(obs_json.read_text()),
        wall_s,
    )


def gate(
    backend: dict,
    hierarchy: dict,
    scheduler: dict,
    optimizer: dict,
    planner: dict,
    serving: dict,
    obs: dict,
) -> list[str]:
    """Return regression messages (empty when every floor holds)."""
    failures = []
    backend_floor = backend.get("min_speedup", 5.0)
    if backend["speedup"] < backend_floor:
        failures.append(
            f"backend speedup {backend['speedup']:.1f}x fell below the "
            f"asserted floor {backend_floor}x"
        )
    hierarchy_floor = hierarchy.get("min_hierarchy_gain", 2.0)
    if hierarchy["hierarchy_gain"] < hierarchy_floor:
        failures.append(
            f"hierarchy gain {hierarchy['hierarchy_gain']:.2f}x fell below "
            f"the asserted floor {hierarchy_floor}x"
        )
    for row in hierarchy["rows"]:
        ordered = (
            row["channel_parallel_makespan_ns"]
            <= row["rank_parallel_makespan_ns"]
            <= row["bank_only_makespan_ns"]
            <= row["serial_latency_ns"]
        )
        if not ordered:
            failures.append(
                "per-level makespans not monotone for "
                f"{row['channels']}x{row['ranks']}: {row}"
            )
    wall_budget = hierarchy.get("max_wall_clock_s", 0.53)
    if hierarchy["wall_clock_s"] > wall_budget:
        failures.append(
            f"hierarchy figure wall-clock {hierarchy['wall_clock_s']:.2f}s "
            f"blew the fused+memoized budget {wall_budget}s"
        )
    fusion = hierarchy.get("dispatch_fusion", {})
    fusion_floor = fusion.get("min_fusion_speedup", 1.5)
    if fusion and fusion["fusion_speedup"] < fusion_floor:
        failures.append(
            f"dispatch fusion speedup {fusion['fusion_speedup']:.2f}x fell "
            f"below the asserted floor {fusion_floor}x"
        )
    scheduler_floor = scheduler.get("min_speedup", 25.0)
    if scheduler["memoized_speedup"] < scheduler_floor:
        failures.append(
            f"memoized scheduling speedup {scheduler['memoized_speedup']:.1f}x "
            f"fell below the asserted floor {scheduler_floor}x"
        )
    sweep_floor = optimizer.get("min_sweep_reduction", 0.30)
    if optimizer["sweep_reduction"] < sweep_floor:
        failures.append(
            f"optimizer sweep reduction {optimizer['sweep_reduction']:.2f} "
            f"fell below the asserted floor {sweep_floor}"
        )
    makespan_floor = optimizer.get("min_makespan_reduction", 0.20)
    if optimizer["makespan_reduction"] < makespan_floor:
        failures.append(
            f"optimizer makespan reduction {optimizer['makespan_reduction']:.2f} "
            f"fell below the asserted floor {makespan_floor}"
        )
    compiled = backend.get("compiled", {})
    compiled_floor = compiled.get("min_speedup", 5.0)
    for name, row in compiled.get("workloads", {}).items():
        if row["speedup"] < compiled_floor:
            failures.append(
                f"compiled-tier speedup {row['speedup']:.2f}x on {name} fell "
                f"below the asserted floor {compiled_floor}x"
            )
    verified = backend.get("verified_serving", {})
    if verified:
        overhead_ceiling = verified.get("max_overhead", 0.05)
        if verified["overhead"] > overhead_ceiling:
            failures.append(
                f"verified serving costs {100 * verified['overhead']:.1f}% over "
                f"unverified (allowed {100 * overhead_ceiling:.0f}%)"
            )
    planner_ceiling = planner.get("max_auto_vs_best", 0.05)
    if planner["worst_auto_vs_best"] > 1.0 + planner_ceiling:
        failures.append(
            f"auto-planned makespan is "
            f"{100 * (planner['worst_auto_vs_best'] - 1):.1f}% worse than the "
            f"best static configuration (allowed {100 * planner_ceiling:.0f}%)"
        )
    beating_floor = planner.get("min_families_beating_default", 4)
    if planner["families_beating_default"] < beating_floor:
        failures.append(
            f"auto beats the naive default on only "
            f"{planner['families_beating_default']} of {planner['families']} "
            f"families (required {beating_floor})"
        )
    if planner["max_prediction_error"] != 0.0:
        failures.append(
            f"planner predicted-vs-measured error "
            f"{planner['max_prediction_error']} (must be exact)"
        )
    sustained = serving.get("sustained", {})
    throughput_floor = sustained.get("min_requests_per_sec", 150.0)
    if sustained and sustained["requests_per_sec"] < throughput_floor:
        failures.append(
            f"pool throughput {sustained['requests_per_sec']:.0f} req/s "
            f"fell below the asserted floor {throughput_floor:.0f} req/s"
        )
    if sustained and not sustained.get("bit_identical", False):
        failures.append(
            "pooled serving results diverged from single-process execution"
        )
    scaling = serving.get("scaling", {})
    scaling_floor = scaling.get("min_modelled_scaling_4w", 2.0)
    if scaling and scaling["modelled_scaling_4w"] < scaling_floor:
        failures.append(
            f"modelled 4-worker scaling {scaling['modelled_scaling_4w']:.2f}x "
            f"fell below the asserted floor {scaling_floor}x"
        )
    wall_floor = scaling.get("min_wall_clock_ratio_4w", 1.3)
    if scaling and scaling.get("cpu_cores", 1) >= 4 and scaling["wall_clock_ratio_4w"] < wall_floor:
        failures.append(
            f"4-worker wall-clock speedup {scaling['wall_clock_ratio_4w']:.2f}x on a "
            f"{scaling['cpu_cores']}-core machine fell below the floor {wall_floor}x"
        )
    warm = serving.get("warm_start", {})
    if warm:
        warm_ceiling = warm.get("max_warm_vs_hot", 2.0)
        if warm["warm_vs_hot"] > warm_ceiling:
            failures.append(
                f"warm-started first request is {warm['warm_vs_hot']:.2f}x "
                f"the hot request (allowed {warm_ceiling}x)"
            )
        cold_floor = warm.get("min_cold_vs_warm", 10.0)
        if warm["cold_vs_warm"] < cold_floor:
            failures.append(
                f"cold first request is only {warm['cold_vs_warm']:.1f}x the "
                f"warm-started one (expected >= {cold_floor}x)"
            )
    tracing = obs.get("tracing", {})
    if tracing:
        tracing_ceiling = tracing.get("max_overhead", 0.05)
        if tracing["overhead"] > tracing_ceiling:
            failures.append(
                f"tracing costs {100 * tracing['overhead']:.1f}% over "
                f"untraced serving (allowed {100 * tracing_ceiling:.0f}%)"
            )
    energy = obs.get("energy_determinism", {})
    if energy and not energy.get("deterministic", False):
        failures.append(
            "per-request energy attribution varied across identical serves"
        )
    return failures


def trajectory(
    backend: dict,
    hierarchy: dict,
    optimizer: dict,
    planner: dict,
    serving: dict,
    obs: dict,
    wall_s: float,
) -> list[dict]:
    """The cross-PR wall-clock record, carried forward from the last file."""
    points: list[dict] = []
    previous = REPO_ROOT / f"BENCH_pr{PR - 1}.json"
    if not previous.exists():
        print(
            f"WARNING: {previous.name} not found; the cross-PR trajectory "
            "restarts at this PR",
            file=sys.stderr,
        )
    else:
        try:
            record = json.loads(previous.read_text())
            carried = record.get("trajectory")
            if isinstance(carried, list):
                points.extend(point for point in carried if isinstance(point, dict))
            else:
                previous_hierarchy = record.get("hierarchy_scaling", {})
                points.append(
                    {
                        "pr": record.get("pr", PR - 1),
                        "benchmark_wall_clock_s": record.get("benchmark_wall_clock_s"),
                        "hierarchy_wall_clock_s": previous_hierarchy.get("wall_clock_s"),
                    }
                )
        except (json.JSONDecodeError, OSError) as error:
            print(
                f"WARNING: could not read {previous.name} ({error}); the "
                "cross-PR trajectory restarts at this PR",
                file=sys.stderr,
            )
    compiled_rows = backend.get("compiled", {}).get("workloads", {})
    points.append(
        {
            "pr": PR,
            "benchmark_wall_clock_s": wall_s,
            "hierarchy_wall_clock_s": hierarchy["wall_clock_s"],
            "optimizer_sweep_reduction": optimizer["sweep_reduction"],
            "optimizer_makespan_reduction": optimizer["makespan_reduction"],
            "compiled_tier_speedups": {
                name: row["speedup"] for name, row in compiled_rows.items()
            },
            "verified_serving_overhead": backend.get(
                "verified_serving", {}
            ).get("overhead"),
            "planner_worst_auto_vs_best": planner["worst_auto_vs_best"],
            "planner_families_beating_default": planner[
                "families_beating_default"
            ],
            "serving_requests_per_sec": serving.get("sustained", {}).get(
                "requests_per_sec"
            ),
            "serving_modelled_scaling_4w": serving.get("scaling", {}).get(
                "modelled_scaling_4w"
            ),
            "serving_warm_vs_hot": serving.get("warm_start", {}).get(
                "warm_vs_hot"
            ),
            "serving_cold_vs_warm": serving.get("warm_start", {}).get(
                "cold_vs_warm"
            ),
            "tracing_overhead": obs.get("tracing", {}).get("overhead"),
            "energy_pj_per_request": obs.get("energy_determinism", {}).get("energy_pj"),
        }
    )
    return points


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / f"BENCH_pr{PR}.json",
        help="where to write the combined trajectory record",
    )
    arguments = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        (
            backend,
            hierarchy,
            scheduler,
            optimizer,
            planner,
            serving,
            obs,
            wall_s,
        ) = run_benchmarks(Path(tmp))
    failures = gate(backend, hierarchy, scheduler, optimizer, planner, serving, obs)

    record = {
        "pr": PR,
        "benchmark_wall_clock_s": wall_s,
        "backend_speed": backend,
        "hierarchy_scaling": hierarchy,
        "scheduler_speed": scheduler,
        "optimizer_gain": optimizer,
        "planner_gain": planner,
        "serving_throughput": serving,
        "obs_overhead": obs,
        "dispatch_fusion": hierarchy.get("dispatch_fusion", {}),
        "trajectory": trajectory(
            backend, hierarchy, optimizer, planner, serving, obs, wall_s
        ),
        "regressions": failures,
    }
    arguments.output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {arguments.output}")
    fusion = hierarchy.get("dispatch_fusion", {})
    print(
        f"backend speedup {backend['speedup']:.1f}x "
        f"(floor {backend.get('min_speedup', 5.0)}x); "
        f"hierarchy gain {hierarchy['hierarchy_gain']:.2f}x "
        f"(floor {hierarchy.get('min_hierarchy_gain', 2.0)}x); "
        f"hierarchy wall {hierarchy['wall_clock_s']:.2f}s "
        f"(budget {hierarchy.get('max_wall_clock_s', 0.53)}s); "
        f"fusion {fusion.get('fusion_speedup', float('nan')):.2f}x "
        f"(floor {fusion.get('min_fusion_speedup', 1.5)}x); "
        f"memoized scheduling {scheduler['memoized_speedup']:.0f}x "
        f"(floor {scheduler.get('min_speedup', 25.0)}x); "
        f"optimizer sweeps -{100 * optimizer['sweep_reduction']:.0f}% "
        f"(floor {100 * optimizer.get('min_sweep_reduction', 0.30):.0f}%), "
        f"makespan -{100 * optimizer['makespan_reduction']:.0f}% "
        f"(floor {100 * optimizer.get('min_makespan_reduction', 0.20):.0f}%)"
    )
    compiled = backend.get("compiled", {})
    if compiled.get("workloads"):
        speedups = "; ".join(
            f"{name} {row['speedup']:.2f}x"
            for name, row in compiled["workloads"].items()
        )
        print(
            f"compiled tier {speedups} "
            f"(floor {compiled.get('min_speedup', 5.0)}x)"
        )
    verified = backend.get("verified_serving", {})
    if verified:
        print(
            f"verified serving {100 * verified['overhead']:+.1f}% "
            f"(ceiling +{100 * verified.get('max_overhead', 0.05):.0f}%)"
        )
    print(
        f"auto-planner worst-vs-best "
        f"{100 * (planner['worst_auto_vs_best'] - 1):+.1f}% "
        f"(ceiling +{100 * planner.get('max_auto_vs_best', 0.05):.0f}%); "
        f"beats default on {planner['families_beating_default']}/"
        f"{planner['families']} families "
        f"(floor {planner.get('min_families_beating_default', 4)}); "
        f"prediction error {planner['max_prediction_error']}"
    )
    sustained = serving.get("sustained", {})
    scaling = serving.get("scaling", {})
    warm = serving.get("warm_start", {})
    if sustained:
        print(
            f"pool throughput {sustained['requests_per_sec']:.0f} req/s "
            f"(floor {sustained.get('min_requests_per_sec', 150.0):.0f}); "
            f"modelled 4-worker scaling "
            f"{scaling.get('modelled_scaling_4w', float('nan')):.2f}x "
            f"(floor {scaling.get('min_modelled_scaling_4w', 2.0)}x); "
            f"warm first {warm.get('warm_vs_hot', float('nan')):.2f}x hot "
            f"(ceiling {warm.get('max_warm_vs_hot', 2.0)}x); "
            f"cold {warm.get('cold_vs_warm', float('nan')):.0f}x warm "
            f"(floor {warm.get('min_cold_vs_warm', 10.0)}x)"
        )
    tracing = obs.get("tracing", {})
    energy = obs.get("energy_determinism", {})
    if tracing:
        print(
            f"tracing overhead {100 * tracing['overhead']:+.1f}% "
            f"(ceiling +{100 * tracing.get('max_overhead', 0.05):.0f}%); "
            f"energy {energy.get('energy_pj', float('nan')):.0f} pJ/request "
            f"over {energy.get('dram_commands', '?')} DRAM commands "
            f"(deterministic={energy.get('deterministic')})"
        )
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        raise SystemExit(1)


if __name__ == "__main__":
    main()
