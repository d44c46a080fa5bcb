"""Benchmark: observability must stay (nearly) free.

Two tests share this file (and the ``obs_overhead.json`` payload,
overridable via the ``OBS_OVERHEAD_JSON`` environment variable):

1. ``test_tracing_overhead_on_serving_path`` — the PR 10 ceiling:
   serving with tracing enabled may cost at most 5% wall-clock over
   serving with tracing disabled.  Interleaved rounds against one
   long-lived service (so loop/service setup, identical either way,
   stays out of the measurement): each round serves the same burst
   with tracing off then on, and the recorded overhead compares
   best-of-rounds (``timeit``-style — the minimum filters
   scheduler/GC hiccups that would otherwise dominate a ~4 ms burst)
   with the median ratio kept in the payload as a drift diagnostic.
   The test checks that tracing ran and records the overhead;
   ``perf_track.py`` gates the ceiling, since the ratio depends on
   host load.
2. ``test_energy_accounting_determinism`` — the per-request energy
   attribution is a pure function of the program structure: repeated
   serves report bit-identical energy/command numbers, and they match
   the command trace's own totals exactly.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import time
from pathlib import Path

from repro.obs.metrics import request_accounting
from repro.obs.trace import enable_tracing, tracing_enabled
from repro.workloads.programs import workload_program

ELEMENTS = 4096
REQUESTS_PER_ROUND = 48
ROUNDS = 15
MAX_TRACING_OVERHEAD = 0.05


def _merge_payload(fields: dict) -> None:
    """Merge ``fields`` into the shared obs-overhead JSON payload."""
    output = Path(
        os.environ.get(
            "OBS_OVERHEAD_JSON",
            Path(__file__).resolve().parent / "obs_overhead.json",
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


async def _serve_burst(program, requests: int) -> list:
    async with program.session.serve(
        max_queue=max(8, requests), max_batch=8
    ) as service:
        return list(
            await asyncio.gather(
                *(
                    service.submit(dict(program.inputs))
                    for _ in range(requests)
                )
            )
        )


async def _measure_interleaved(program) -> tuple[list[float], float, float, list]:
    """Serve interleaved off/on bursts against one long-lived service.

    Keeping the service (and the event loop) alive across rounds measures
    the steady-state serving path itself — service construction and loop
    startup are identical whether tracing is on or off, and at ~7 ms per
    round they would otherwise drown the signal in setup noise.
    """
    ratios: list[float] = []
    off_best = on_best = float("inf")
    served: list = []
    async with program.session.serve(
        max_queue=max(8, REQUESTS_PER_ROUND), max_batch=8
    ) as service:

        async def burst(requests: int) -> list:
            return list(
                await asyncio.gather(
                    *(
                        service.submit(dict(program.inputs))
                        for _ in range(requests)
                    )
                )
            )

        # Warm everything both paths share: compile caches, trace
        # templates, and (traced) the accounting memo + verify-span set.
        await burst(REQUESTS_PER_ROUND)
        enable_tracing(True)
        await burst(REQUESTS_PER_ROUND)
        enable_tracing(False)

        for _ in range(ROUNDS):
            enable_tracing(False)
            start = time.perf_counter()
            await burst(REQUESTS_PER_ROUND)
            off_s = (time.perf_counter() - start) / REQUESTS_PER_ROUND

            enable_tracing(True)
            start = time.perf_counter()
            # Results are deliberately NOT retained here: holding the
            # previous traced round's results would charge their teardown
            # (arrays, traces, spans) to the next traced burst only,
            # skewing the comparison against the untraced rounds.
            await burst(REQUESTS_PER_ROUND)
            on_s = (time.perf_counter() - start) / REQUESTS_PER_ROUND
            enable_tracing(False)

            off_best = min(off_best, off_s)
            on_best = min(on_best, on_s)
            ratios.append(on_s / max(off_s, 1e-12))

        # One untimed traced burst for the "did it actually trace" check.
        enable_tracing(True)
        served = await burst(REQUESTS_PER_ROUND)
        enable_tracing(False)
    return ratios, off_best, on_best, served


def test_tracing_overhead_on_serving_path():
    """What serving with tracing on costs over tracing off."""
    program = workload_program("image", elements=ELEMENTS, seed=0)
    assert not tracing_enabled()

    try:
        ratios, off_best, on_best, served = asyncio.run(
            _measure_interleaved(program)
        )
    finally:
        enable_tracing(False)

    # The traced rounds must actually have traced: every request carries
    # a span tree summing into its recorded turnaround.
    assert all(item.request_trace is not None for item in served)

    overhead = on_best / max(off_best, 1e-12) - 1.0
    payload = {
        "workload": "image",
        "elements": ELEMENTS,
        "requests_per_round": REQUESTS_PER_ROUND,
        "rounds": ROUNDS,
        "untraced_s": off_best,
        "traced_s": on_best,
        "overhead": overhead,
        "median_round_overhead": statistics.median(ratios) - 1.0,
        "max_overhead": MAX_TRACING_OVERHEAD,
    }
    print("OBS_OVERHEAD_JSON " + json.dumps(payload))
    _merge_payload({"tracing": payload})
    # No ratio assertion here: the ratio depends on host load, so the
    # ceiling is gated by ``perf_track.py`` from this payload's
    # ``max_overhead``.


def test_energy_accounting_determinism():
    """Energy attribution is exact and repeatable, serve after serve."""
    program = workload_program("salsa20", elements=1024, seed=0)
    enable_tracing(True)
    try:
        first = asyncio.run(_serve_burst(program, 4))
        second = asyncio.run(_serve_burst(program, 4))
    finally:
        enable_tracing(False)

    reference = request_accounting(first[0].result.trace)
    deterministic = True
    for item in first + second:
        accounting = request_accounting(item.result.trace)
        if accounting != reference:
            deterministic = False
        assert item.request_trace is not None
        attributes = item.request_trace.attributes
        assert attributes["energy_pj"] == accounting["energy_pj"]
        assert (
            attributes["energy_pj"]
            == item.result.trace.total_energy_nj * 1000.0
        )
        assert attributes["dram_commands"] == accounting["dram_commands"]

    payload = {
        "workload": "salsa20",
        "requests": len(first) + len(second),
        "energy_pj": reference["energy_pj"],
        "dram_commands": reference["dram_commands"],
        "deterministic": deterministic,
    }
    print("OBS_ENERGY_JSON " + json.dumps(payload))
    _merge_payload({"energy_determinism": payload})

    assert deterministic, "energy attribution varied across identical serves"
