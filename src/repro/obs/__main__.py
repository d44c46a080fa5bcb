"""``python -m repro.obs`` — trace a workload and print its breakdown.

Runs one of the registry workload families through the async serving
front door with tracing enabled, then prints the per-stage latency
breakdown, the DRAM-command/energy attribution of a served request, and
(optionally) writes the Chrome trace, Prometheus exposition, and metrics
JSON snapshot to files.

Examples::

    python -m repro.obs --workload image --requests 16
    python -m repro.obs --workload crc --chrome /tmp/trace.json
"""

from __future__ import annotations

import argparse
import asyncio
from pathlib import Path
from typing import Any

from repro.obs.export import (
    chrome_trace_json,
    metrics_json,
    prometheus_text,
    render_stage_breakdown,
)
from repro.obs.trace import RequestTrace, enable_tracing

WORKLOADS = ("image", "crc", "salsa20", "vmpc", "bitcount", "vector_ops")


async def _serve(workload: str, requests: int, elements: int) -> list[Any]:
    from repro.workloads.programs import workload_program

    program = workload_program(workload, elements=elements)
    async with program.session.serve(max_queue=max(8, requests)) as service:
        return list(
            await asyncio.gather(
                *(service.submit(dict(program.inputs)) for _ in range(requests))
            )
        )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=(__doc__ or "").split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=WORKLOADS, default="image")
    parser.add_argument("--requests", type=int, default=16)
    parser.add_argument("--elements", type=int, default=4096)
    parser.add_argument("--chrome", type=Path, default=None,
                        help="write Chrome trace-event JSON (Perfetto) here")
    parser.add_argument("--prometheus", type=Path, default=None,
                        help="write the Prometheus text exposition here")
    parser.add_argument("--json", type=Path, default=None,
                        help="write the metrics JSON snapshot here")
    arguments = parser.parse_args(argv)

    enable_tracing(True)
    results = asyncio.run(
        _serve(arguments.workload, arguments.requests, arguments.elements)
    )
    traces: list[RequestTrace] = [
        served.request_trace for served in results if served.request_trace is not None
    ]

    print(
        f"{arguments.workload}: served {len(results)} requests "
        f"({arguments.elements} elements each)"
    )
    print()
    print(render_stage_breakdown(traces, title="per-stage latency breakdown"))
    print()

    last = results[-1]
    attributes = traces[-1].attributes if traces else {}
    print("per-request hardware attribution (last request):")
    print(f"  modelled latency     {last.latency_ns:.1f} ns")
    print(f"  modelled energy      {last.energy_nj * 1000.0:.1f} pJ")
    for key in (
        "dram_commands",
        "refresh_overhead_fraction",
        "refresh_inflated_latency_ns",
    ):
        if key in attributes:
            print(f"  {key:<20} {attributes[key]}")
    by_type = attributes.get("dram_commands_by_type")
    if by_type:
        rendered = ", ".join(f"{kind}={count}" for kind, count in by_type.items())
        print(f"  commands by type     {rendered}")

    if arguments.chrome is not None:
        arguments.chrome.write_text(chrome_trace_json(traces))
        print(f"wrote Chrome trace to {arguments.chrome}")
    if arguments.prometheus is not None:
        arguments.prometheus.write_text(prometheus_text())
        print(f"wrote Prometheus exposition to {arguments.prometheus}")
    if arguments.json is not None:
        arguments.json.write_text(metrics_json())
        print(f"wrote metrics snapshot to {arguments.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
