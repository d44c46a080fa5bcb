"""End-to-end observability: request tracing, metrics, energy attribution.

Three pieces:

* :mod:`repro.obs.trace` — a cheap, optional :class:`RequestTrace` span
  tree wired through every pipeline stage (plan → verify → optimize →
  compile → execute → schedule), propagated across the worker-pool
  process boundary.
* :mod:`repro.obs.metrics` — a process-wide registry of counters /
  gauges / histograms (the ``cache_stats()`` mirror, both serving front
  doors' request series, per-request DRAM-command/energy/refresh
  attribution), and :class:`ServedLatency`, a front door's queue-wait /
  execute / end-to-end histograms, fed together with the registry by one
  call per served request.
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto),
  Prometheus text exposition, JSON snapshots, and terminal tables.

``python -m repro.obs`` runs a workload with tracing on and prints the
per-stage breakdown and energy-per-request attribution.
"""

from repro.obs.export import (
    chrome_trace_events,
    chrome_trace_json,
    metrics_json,
    prometheus_text,
    render_stage_breakdown,
    stage_summary,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ServedLatency,
    command_counts,
    record_cache_stats,
    record_served_request,
    registry,
    request_accounting,
    reset_metrics,
)
from repro.obs.trace import (
    RequestTrace,
    Span,
    activate,
    current_trace,
    deactivate,
    enable_tracing,
    new_trace,
    span_of,
    stage,
    tracing,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RequestTrace",
    "ServedLatency",
    "Span",
    "activate",
    "chrome_trace_events",
    "chrome_trace_json",
    "command_counts",
    "current_trace",
    "deactivate",
    "enable_tracing",
    "metrics_json",
    "new_trace",
    "prometheus_text",
    "record_cache_stats",
    "record_served_request",
    "registry",
    "render_stage_breakdown",
    "request_accounting",
    "reset_metrics",
    "span_of",
    "stage",
    "stage_summary",
    "tracing",
    "tracing_enabled",
]
