"""Serving demo: the async frontend over hierarchical sharded dispatch.

Simulates a small burst of traffic against one pLUTo module:

1. builds two programs — an 8-bit image-pipeline LUT map and a 4-bit
   multiply-add — and starts a :class:`~repro.api.PlutoService` bound to
   the first;
2. fires a mixed stream of requests at the bounded queue (the two program
   shapes interleave, so the worker's structure-key coalescing has to
   split batches);
3. demonstrates backpressure by overfilling the queue with
   ``submit_nowait`` and counting rejections;
4. re-runs the same traffic through a *hierarchical* service on a
   2-channel x 2-rank engine and prints the per-level speedup
   decomposition of one request.

Run with:  python examples/serving_demo.py
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.api import PlutoSession, cache_stats
from repro.api.luts import binarize_lut, color_grade_lut
from repro.core import PlutoConfig, PlutoEngine
from repro.errors import ServiceOverloadError
from repro.obs import enable_tracing, render_stage_breakdown
from repro.plan import ExecutionPlan
from repro.utils.units import format_time

ELEMENTS = 4096
REQUESTS = 24


def image_pipeline() -> PlutoSession:
    """Colour-grade + binarize, the IMG workload's command mix."""
    session = PlutoSession()
    pixels = session.pluto_malloc(ELEMENTS, 8, "pixels")
    graded = session.pluto_malloc(ELEMENTS, 8, "graded")
    binary = session.pluto_malloc(ELEMENTS, 8, "binary")
    session.api_pluto_map(color_grade_lut(), pixels, graded)
    session.api_pluto_map(binarize_lut(127), graded, binary)
    return session


def multiply_add() -> PlutoSession:
    """The Figure 5 multiply-and-add over 4-bit operands."""
    session = PlutoSession()
    a = session.pluto_malloc(ELEMENTS, 2, "a")
    b = session.pluto_malloc(ELEMENTS, 2, "b")
    c = session.pluto_malloc(ELEMENTS, 4, "c")
    tmp = session.pluto_malloc(ELEMENTS, 4, "tmp")
    out = session.pluto_malloc(ELEMENTS, 8, "out")
    session.api_pluto_mul(a, b, tmp, bit_width=2)
    session.api_pluto_add(c, tmp, out, bit_width=4)
    return session


def request_stream(rng: np.random.Generator):
    """REQUESTS requests alternating between the two program shapes."""
    image, mac = image_pipeline(), multiply_add()
    for index in range(REQUESTS):
        if index % 3 == 2:
            yield mac, {
                "a": rng.integers(0, 4, ELEMENTS),
                "b": rng.integers(0, 4, ELEMENTS),
                "c": rng.integers(0, 16, ELEMENTS),
            }
        else:
            yield image, {"pixels": rng.integers(0, 256, ELEMENTS)}


async def serve_mixed_traffic() -> None:
    rng = np.random.default_rng(2022)
    image = image_pipeline()
    start = time.perf_counter()
    async with image.serve(max_queue=8, max_batch=8) as service:
        results = await asyncio.gather(
            *(
                service.submit(inputs, session=session)
                for session, inputs in request_stream(rng)
            )
        )
        wall = time.perf_counter() - start
        stats = service.stats
        print(f"Served {stats.served} requests in {wall * 1e3:.1f} ms wall-clock")
        print(
            f"Batches: {stats.batches} "
            f"(coalesced {stats.coalesced} requests; "
            f"mean batch {stats.mean_batch_size:.1f}; "
            f"peak queue depth {stats.max_queue_depth})"
        )
        print(
            f"Mean queue wait {stats.mean_queue_wait_s * 1e3:.2f} ms; "
            f"modelled DRAM time {format_time(stats.total_latency_ns)}"
        )
        slowest = max(results, key=lambda served: served.turnaround_s)
        print(
            f"Slowest request #{slowest.request_id}: "
            f"{slowest.turnaround_s * 1e3:.2f} ms turnaround in a "
            f"batch of {slowest.batch_size}"
        )
        for name, quantiles in stats.summary()["latency"].items():
            print(
                f"  {name:>10}: p50 {quantiles['p50_s'] * 1e3:.3f} ms  "
                f"p95 {quantiles['p95_s'] * 1e3:.3f} ms  "
                f"p99 {quantiles['p99_s'] * 1e3:.3f} ms"
            )
        caches = cache_stats()
        merges = caches["scheduler_merges"]
        print(
            f"Memo effectiveness: {caches['programs']['size']} compiled "
            f"programs; trace templates "
            f"{caches['trace_templates']['hits']} hits / "
            f"{caches['trace_templates']['misses']} misses; "
            f"scheduler merges {merges['hits']} hits / "
            f"{merges['misses']} misses"
        )

        # The span trees attached to every served request break the
        # wall-clock down by pipeline stage and attribute the modelled
        # DRAM energy to each request.
        traces = [
            served.request_trace
            for served in results
            if served.request_trace is not None
        ]
        if traces:
            print()
            print(render_stage_breakdown(traces, title="Per-stage latency"))
            energies = [
                trace.attributes["energy_pj"]
                for trace in traces
                if "energy_pj" in trace.attributes
            ]
            commands = [
                trace.attributes["dram_commands"]
                for trace in traces
                if "dram_commands" in trace.attributes
            ]
            print(
                f"Energy per request: mean {np.mean(energies) / 1e3:.1f} nJ "
                f"(total {np.sum(energies) / 1e6:.2f} uJ over "
                f"{len(energies)} requests; "
                f"mean {np.mean(commands):.0f} DRAM commands each)"
            )


async def demonstrate_backpressure() -> None:
    image = image_pipeline()
    rng = np.random.default_rng(7)
    async with image.serve(max_queue=2, max_batch=2) as service:
        pending, rejected = [], 0
        for _ in range(12):
            try:
                pending.append(
                    service.submit_nowait({"pixels": rng.integers(0, 256, ELEMENTS)})
                )
            except ServiceOverloadError:
                rejected += 1
                # A real client would retry with backoff; here we yield so
                # the worker can drain the queue.
                await asyncio.sleep(0)
        await asyncio.gather(*pending)
        print(
            f"Backpressure: {service.stats.served} served, "
            f"{rejected} rejected by the bounded queue "
            f"(max_queue={service.max_queue})"
        )


async def serve_hierarchically() -> None:
    engine = PlutoEngine(PlutoConfig(tfaw_fraction=1.0, channels=2, ranks=2))
    image = image_pipeline()
    rng = np.random.default_rng(13)
    # One shard per bank, spread over every channel and rank.
    plan = ExecutionPlan(shards=engine.geometry.total_banks, channels=None, ranks=None)
    async with image.serve(engine=engine, plan=plan) as service:
        served = await service.submit({"pixels": rng.integers(0, 256, ELEMENTS)})
        decomposition = served.result.speedup_decomposition
        print(
            "Hierarchical request on 2 channels x 2 ranks: "
            f"{served.result.num_shards} shards, "
            f"makespan {format_time(served.latency_ns)} "
            f"(serial {format_time(served.result.serial_latency_ns)})"
        )
        print(
            "Speedup decomposition: "
            + " x ".join(
                f"{level} {decomposition[level]:.2f}"
                for level in ("bank", "rank", "channel")
            )
            + f" = {decomposition['total']:.2f} total"
        )


def serve_with_worker_pool() -> None:
    """The multi-worker tier: affinity routing + shared warm-start store."""
    import tempfile

    from repro.serve import PlutoWorkerPool, fan_out

    rng = np.random.default_rng(29)
    store_path = tempfile.mkdtemp(prefix="pluto-artifacts-")
    start = time.perf_counter()
    with PlutoWorkerPool(workers=2, store_path=store_path) as pool:
        pool.wait_ready(60.0)
        fan_out(pool, request_stream(rng), return_outputs=False)
        wall = time.perf_counter() - start
        summary = pool.stats.summary()
        print(
            f"Worker pool ({pool.workers} workers): "
            f"{summary['completed']} requests in {wall * 1e3:.0f} ms; "
            f"per-worker served {summary['per_worker_served']} "
            "(structure-key affinity)"
        )
        end_to_end = summary["latency"]["end_to_end"]
        print(
            f"  end-to-end: p50 {end_to_end['p50_s'] * 1e3:.2f} ms  "
            f"p95 {end_to_end['p95_s'] * 1e3:.2f} ms  "
            f"p99 {end_to_end['p99_s'] * 1e3:.2f} ms"
        )
    # A fresh pool warm-starts from what the first one exported.
    with PlutoWorkerPool(workers=1, store_path=store_path) as pool:
        pool.wait_ready(60.0)
        report = pool.warm_reports[0] or {}
        print(
            f"Fresh worker warm-started {report.get('installed', 0)} "
            f"program(s) from the shared store in "
            f"{report.get('load_time_s', 0.0) * 1e3:.1f} ms"
        )


def main() -> None:
    enable_tracing(True)
    asyncio.run(serve_mixed_traffic())
    asyncio.run(demonstrate_backpressure())
    asyncio.run(serve_hierarchically())
    serve_with_worker_pool()


if __name__ == "__main__":
    main()
