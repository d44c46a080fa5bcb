"""Benchmark: multi-worker serving throughput and warm-start floors.

Three benchmarks share this file (and the ``serving_throughput.json``
payload, overridable via the ``SERVING_THROUGHPUT_JSON`` environment
variable).  Each records its host wall-clock floors next to its
measurements, and ``perf_track.py`` gates them; the tests themselves
assert only what is exact or modelled:

1. ``test_sustained_mixed_traffic_throughput`` — sustained mixed
   traffic over all six registry families through a
   :class:`~repro.serve.pool.PlutoWorkerPool`: every result must be
   bit-identical (CRC32 digests) to single-process ``session.run``, and
   the aggregate requests/sec is recorded with its floor.
2. ``test_worker_scaling_is_near_linear`` — the affinity router must
   spread the six families well enough that the *modelled* device
   throughput (summed per-request DRAM makespan per worker) scales at
   least 2x from 1 worker to 4.  The modelled metric is deterministic,
   so the floor holds on single-core CI runners where wall-clock cannot
   scale; the measured 4-worker wall-clock ratio is recorded alongside
   with its floor, gated only when the machine has 4 cores.
3. ``test_warm_start_latency_floors`` — a genuinely cold worker process
   (spawn start method) warm-starting from a shared artifact store
   should serve its first request within 2x of a hot request, while a
   cold worker without the store pays at least 10x more than the warm
   one; all three latencies are recorded with both floors.

Scale the sustained-traffic volume with
``SERVING_REQUESTS_PER_FAMILY`` (default 32; the worker-scaling figure
in ``run_all_experiments.py`` pushes far higher).
"""

from __future__ import annotations

import json
import os
import statistics
import time
import zlib
from pathlib import Path

import numpy as np

from repro.serve import PlutoWorkerPool, fan_out
from repro.serve.store import SharedArtifactStore
from repro.workloads.programs import (
    optimizer_workload_programs,
    workload_program,
)

ELEMENTS = 256
REQUESTS_PER_FAMILY = int(os.environ.get("SERVING_REQUESTS_PER_FAMILY", "32"))

#: Aggregate pool throughput floor (requests/second, 6-family mix on a
#: 2-worker pool).  A single CI core measures ~1500-2000 req/s; the
#: floor leaves an order of magnitude for slower machines.
MIN_REQUESTS_PER_SEC = 150.0

#: Modelled device-throughput scaling floor at 4 workers vs 1 — the
#: PR 9 acceptance gate.  Deterministic: derived from per-request
#: modelled DRAM makespans and the router's actual placement.
MIN_MODELLED_SCALING_4W = 2.0

#: Wall-clock speedup floor at 4 workers vs 1, on a machine with at
#: least 4 cores (fewer cannot run four workers at once).
MIN_WALL_CLOCK_RATIO_4W = 1.3

#: Warm-start latency floors: a warm-started worker's first request
#: must sit within 2x of a hot request, and a store-less cold worker's
#: first request must cost at least 10x the warm-started one.
MAX_WARM_VS_HOT = 2.0
MIN_COLD_VS_WARM = 10.0

#: Spawned-pool trials for the latency medians (first-request latency
#: exists once per process, so the median spans processes).
LATENCY_TRIALS = 3


def _merge_payload(fields: dict) -> None:
    """Read-modify-write the shared JSON payload (tests must not clobber)."""
    output = Path(
        os.environ.get(
            "SERVING_THROUGHPUT_JSON",
            Path(__file__).resolve().parent / "serving_throughput.json",
        )
    )
    payload: dict = {}
    if output.exists():
        try:
            payload = json.loads(output.read_text())
        except (json.JSONDecodeError, OSError):
            payload = {}
    payload.update(fields)
    output.write_text(json.dumps(payload, indent=2) + "\n")


def _traffic(families, per_family: int):
    """An interleaved mixed-structure request stream."""
    return [
        (family.session, family.inputs)
        for _ in range(per_family)
        for family in families
    ]


def _reference_digests(families) -> dict[str, dict[str, int]]:
    return {
        family.name: {
            name: zlib.crc32(np.asarray(array).tobytes())
            for name, array in family.session.run(family.inputs).outputs.items()
        }
        for family in families
    }


def _run_pool(families, workers: int, per_family: int):
    """(wall seconds, results, pool) for one sustained-traffic run."""
    jobs = _traffic(families, per_family)
    with PlutoWorkerPool(workers=workers, chunk_size=32) as pool:
        assert pool.wait_ready(120.0)
        start = time.perf_counter()
        results = fan_out(pool, jobs, return_outputs=False)
        wall_s = time.perf_counter() - start
    return wall_s, results, pool


def test_sustained_mixed_traffic_throughput():
    families = optimizer_workload_programs(ELEMENTS, 0)
    references = _reference_digests(families)
    wall_s, results, pool = _run_pool(families, 2, REQUESTS_PER_FAMILY)

    # Bit-identity: every pooled result matches single-process execution.
    jobs = _traffic(families, REQUESTS_PER_FAMILY)
    by_session = {
        id(family.session): family.name for family in families
    }
    for (session, _), result in zip(jobs, results):
        assert result.digests == references[by_session[id(session)]]

    requests_per_sec = len(results) / wall_s
    summary = pool.stats.summary()
    payload = {
        "families": len(families),
        "requests": len(results),
        "wall_clock_s": wall_s,
        "requests_per_sec": requests_per_sec,
        "min_requests_per_sec": MIN_REQUESTS_PER_SEC,
        "latency": summary["latency"],
        "per_worker_served": summary["per_worker_served"],
        "bit_identical": True,
    }
    print("SERVING_THROUGHPUT_JSON " + json.dumps(payload))
    _merge_payload({"sustained": payload})


def test_worker_scaling_is_near_linear():
    families = optimizer_workload_programs(ELEMENTS, 0)
    rows = {}
    for workers in (1, 2, 4):
        wall_s, results, pool = _run_pool(families, workers, REQUESTS_PER_FAMILY)
        busy_ns = pool.stats.per_worker_busy_ns
        rows[workers] = {
            "wall_clock_s": wall_s,
            "requests": len(results),
            "per_worker_busy_ns": list(busy_ns),
            "modelled_scaling": sum(busy_ns) / max(busy_ns),
            "programs_per_worker": list(pool._programs_per_worker),
        }
    modelled_4w = rows[4]["modelled_scaling"]
    wall_ratio_4w = rows[1]["wall_clock_s"] / rows[4]["wall_clock_s"]
    cores = os.cpu_count() or 1
    payload = {
        "rows": rows,
        "modelled_scaling_4w": modelled_4w,
        "min_modelled_scaling_4w": MIN_MODELLED_SCALING_4W,
        "wall_clock_ratio_4w": wall_ratio_4w,
        "min_wall_clock_ratio_4w": MIN_WALL_CLOCK_RATIO_4W,
        "cpu_cores": cores,
    }
    print("WORKER_SCALING_JSON " + json.dumps(payload))
    _merge_payload({"scaling": payload})

    assert modelled_4w >= MIN_MODELLED_SCALING_4W, (
        f"modelled 4-worker scaling {modelled_4w:.2f}x fell below the "
        f"floor {MIN_MODELLED_SCALING_4W}x"
    )


def _first_and_second_execute_s(family, store_path):
    """First- and subsequent-request execute latency of a spawned worker."""
    with PlutoWorkerPool(
        workers=1, store_path=store_path, start_method="spawn"
    ) as pool:
        assert pool.wait_ready(120.0)
        first = pool.submit(
            family.session, family.inputs, return_outputs=False
        ).result(120.0)
        later = [
            pool.submit(
                family.session, family.inputs, return_outputs=False
            ).result(120.0)
            for _ in range(3)
        ]
    return first.execute_s, statistics.median(r.execute_s for r in later)


def test_warm_start_latency_floors(tmp_path):
    family = workload_program("crc", elements=ELEMENTS, seed=0)
    store_path = str(tmp_path / "store")
    SharedArtifactStore(store_path).export(family.session.calls)

    cold_firsts, warm_firsts, hots = [], [], []
    for _ in range(LATENCY_TRIALS):
        cold_first, _ = _first_and_second_execute_s(family, None)
        warm_first, hot = _first_and_second_execute_s(family, store_path)
        cold_firsts.append(cold_first)
        warm_firsts.append(warm_first)
        hots.append(hot)
    cold_first = statistics.median(cold_firsts)
    warm_first = statistics.median(warm_firsts)
    hot = statistics.median(hots)

    payload = {
        "cold_first_s": cold_first,
        "warm_first_s": warm_first,
        "hot_s": hot,
        "warm_vs_hot": warm_first / hot,
        "cold_vs_warm": cold_first / warm_first,
        "max_warm_vs_hot": MAX_WARM_VS_HOT,
        "min_cold_vs_warm": MIN_COLD_VS_WARM,
        "trials": LATENCY_TRIALS,
    }
    print("WARM_START_JSON " + json.dumps(payload))
    _merge_payload({"warm_start": payload})
