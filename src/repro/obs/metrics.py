"""Process-wide metrics registry and per-request energy attribution.

:class:`MetricsRegistry` holds Prometheus-style counters, gauges, and
histograms for the whole stack: the served-request series of both
serving front doors, and the per-request *energy attribution* — DRAM
command counts by type, energy in picojoules, and refresh overhead drawn
from :class:`repro.dram.refresh.RefreshModel`.  The process-wide
registry also carries one ``pluto_cache_*`` gauge per memo-layer
statistic, read from the memo table (:mod:`repro.utils.memo`, the one
``cache_stats()`` reports) each time its metrics are iterated, so every
exposition shows the layers as they are.  :class:`Histogram` is the one
streaming histogram of the package; :class:`ServedLatency` keeps a front
door's own queue-wait / execute / end-to-end distributions and records
each served request there and in the registry with one call.

Everything here is pure bookkeeping over plain dicts — no third-party
client library — and the exposition formats live in
:mod:`repro.obs.export`.
"""

from __future__ import annotations

import math
import threading
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from repro.errors import ConfigurationError
from repro.utils.memo import layer_stats

if TYPE_CHECKING:
    from repro.dram.commands import CommandTrace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ServedLatency",
    "command_counts",
    "record_served_request",
    "registry",
    "request_accounting",
    "reset_metrics",
]

#: Bucket-boundary growth factor: ~7% value resolution, so a quantile is
#: within ~±3.5% of the sample it stands for.
_GROWTH = 1.07
_LOG_GROWTH = math.log(_GROWTH)
#: Smallest resolvable observation.  Observations are recorded in seconds
#: or nanoseconds depending on the metric; 1e-9 resolves both.
_FLOOR = 1e-9

LabelPairs = tuple[tuple[str, str], ...]


def _label_pairs(labels: Mapping[str, str]) -> LabelPairs:
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "help", "labels", "value")

    def __init__(self, name: str, help: str = "", labels: LabelPairs = ()) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "help", "labels", "value")

    def __init__(self, name: str, help: str = "", labels: LabelPairs = ()) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Log-bucketed streaming histogram with quantile estimation.

    Label-aware and unit-agnostic, with O(1) recording and bounded memory.
    A quantile is the geometric midpoint of the bucket holding rank
    ``q * (count - 1)``, capped at the largest sample, so no answer
    exceeds a recorded value and ``quantile(1.0)`` is that sample exactly.
    """

    __slots__ = ("name", "help", "labels", "buckets", "count", "total", "max_value")

    def __init__(self, name: str, help: str = "", labels: LabelPairs = ()) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0

    def observe(self, value: float) -> None:
        if value < 0:
            value = 0.0
        bucket = 0 if value < _FLOOR else int(math.log(value / _FLOOR) / _LOG_GROWTH) + 1
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value

    @staticmethod
    def _bucket_value(bucket: int) -> float:
        if bucket <= 0:
            return 0.0
        # Geometric midpoint of the bucket's [lo, lo*growth) range.
        return _FLOOR * (_GROWTH ** (bucket - 1)) * math.sqrt(_GROWTH)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile of the samples (0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if q == 1.0:
            return self.max_value
        rank = q * (self.count - 1)
        seen = 0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            if seen > rank:
                return min(self._bucket_value(bucket), self.max_value)
        return self.max_value  # pragma: no cover - rank < count always hits

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.total,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "max": self.max_value,
        }


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """Get-or-create store of named, optionally labelled metrics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, LabelPairs], Metric] = {}
        self._help: dict[str, str] = {}
        #: Path -> the served-request series of that path, resolved once
        #: (:func:`record_served_request`); dropped with the metrics.
        self._served: dict[str, _ServedSeries] = {}

    def _get(
        self,
        kind: type[Counter] | type[Gauge] | type[Histogram],
        name: str,
        help: str,
        labels: Mapping[str, str],
    ) -> Metric:
        pairs = _label_pairs(labels) if labels else ()
        key = (name, pairs)
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    if help:
                        self._help.setdefault(name, help)
                    metric = kind(name, self._help.get(name, help), pairs)
                    self._metrics[key] = metric
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        metric = self._get(Counter, name, help, labels)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        metric = self._get(Gauge, name, help, labels)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str, help: str = "", **labels: str) -> Histogram:
        metric = self._get(Histogram, name, help, labels)
        assert isinstance(metric, Histogram)
        return metric

    def __iter__(self) -> Iterator[Metric]:
        return iter(list(self._metrics.values()))

    def __len__(self) -> int:
        return len(self._metrics)

    def help_for(self, name: str) -> str:
        return self._help.get(name, "")

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict view of every metric (JSON-serialisable)."""

        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict[str, float]] = {}
        for metric in self:
            label = _render_name(metric.name, metric.labels)
            if isinstance(metric, Counter):
                counters[label] = metric.value
            elif isinstance(metric, Gauge):
                gauges[label] = metric.value
            else:
                histograms[label] = metric.summary()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()
            self._help.clear()
            self._served.clear()


def _render_name(name: str, labels: LabelPairs) -> str:
    if not labels:
        return name
    rendered = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{rendered}}}"


class _ProcessRegistry(MetricsRegistry):
    """The process-wide registry: iterating its metrics (every snapshot
    and exposition does) first sets its ``pluto_cache_*`` gauges from the
    memo table."""

    def __iter__(self) -> Iterator[Metric]:
        self._set_cache_gauges("pluto_cache", layer_stats())
        return super().__iter__()

    def _set_cache_gauges(self, prefix: str, stats: Mapping[str, Any]) -> None:
        for key, value in stats.items():
            if isinstance(value, Mapping):
                self._set_cache_gauges(f"{prefix}_{key}", value)
            elif isinstance(value, (int, float)):
                self.gauge(
                    f"{prefix}_{key}", help="Memo-layer statistic from cache_stats()"
                ).set(float(value))


#: The process-wide registry every layer records into.
REGISTRY: MetricsRegistry = _ProcessRegistry()


def registry() -> MetricsRegistry:
    """Return the process-wide registry."""

    return REGISTRY


def reset_metrics() -> None:
    """Clear the process-wide registry (tests and benchmarks)."""

    REGISTRY.reset()


# --------------------------------------------------------------------------- #
# Per-request DRAM command and energy attribution
# --------------------------------------------------------------------------- #


def _pin_store(trace: Any) -> dict[str, Any]:
    """The dict observability results are memoized in for ``trace``.

    Traces realized from a :class:`~repro.controller.executor.TraceTemplate`
    carry ``_obs_pins`` — a reference to the template's own ``__dict__`` —
    so every realization of one program structure shares a single memo;
    free-standing traces memoize on themselves.
    """

    store: dict[str, Any] | None = trace.__dict__.get("_obs_pins")
    if store is not None:
        return store
    own: dict[str, Any] = trace.__dict__
    return own


def command_counts(trace: "CommandTrace | Any") -> dict[str, int]:
    """Per-type DRAM command counts for a command trace, memoized in place.

    Works on both :class:`~repro.dram.commands.CommandTrace` instances and
    :class:`~repro.controller.executor.TraceTemplate` realisations; the
    counts are pinned on the trace's shared pin store so the hot serving
    path (which reuses one template per structure key) computes them
    exactly once per program structure.
    """

    store = _pin_store(trace)
    cached: dict[str, int] | None = store.get("_obs_command_counts")
    if cached is not None:
        return dict(cached)
    counts: dict[str, int] = {}
    for command in trace.commands:
        kind = command.kind.value
        counts[kind] = counts.get(kind, 0) + 1
    store["_obs_command_counts"] = counts
    return dict(counts)


def request_accounting(trace: "CommandTrace | Any") -> dict[str, Any]:
    """Full hardware-cost attribution for one request's command trace.

    Returns a JSON-friendly dict with the paper's units: DRAM command
    counts by type, modelled energy in picojoules, and the refresh
    overhead the ROADMAP asks to fold into served-path accounting
    (refresh-inflated latency, refresh commands falling inside the
    request's window).  Memoized on the trace object like
    :func:`command_counts`, and like it every call returns fresh dicts
    (the by-type counts included), so a caller that edits its copy
    cannot change what later requests are charged.
    """

    store = _pin_store(trace)
    accounting: dict[str, Any] | None = store.get("_obs_accounting")
    if accounting is None:
        from repro.dram.refresh import RefreshModel

        refresh = RefreshModel(trace.timing)
        latency_ns = float(trace.total_latency_ns)
        counts = command_counts(trace)
        overhead = refresh.overhead_fraction
        inflated = (
            refresh.inflate_latency(latency_ns) if overhead < 1.0 else float("inf")
        )
        accounting = {
            "dram_commands": int(sum(counts.values())),
            "dram_commands_by_type": counts,
            "energy_pj": float(trace.total_energy_nj) * 1000.0,
            "refresh_overhead_fraction": overhead,
            "refresh_commands": refresh.refreshes_during(latency_ns),
            "refresh_inflated_latency_ns": inflated,
        }
        store["_obs_accounting"] = accounting
    return {**accounting, "dram_commands_by_type": dict(accounting["dram_commands_by_type"])}


# --------------------------------------------------------------------------- #
# Served-request recording
# --------------------------------------------------------------------------- #


class _ServedSeries:
    """One serving path's registry series, resolved once per registry
    lifetime so that recording a request sorts no labels."""

    __slots__ = ("requests", "energy", "seconds", "queue_wait", "execute", "commands")

    def __init__(self, reg: MetricsRegistry, path: str) -> None:
        self.requests = reg.counter("pluto_requests_total", "Requests served", path=path)
        self.energy = reg.counter(
            "pluto_energy_pj_total", "Modelled DRAM energy spent serving", path=path
        )
        self.seconds = reg.histogram(
            "pluto_request_seconds", "End-to-end request latency", path=path
        )
        # Created on their first non-zero sample: a request recorded without
        # a queue wait or execute time leaves no empty series behind.
        self.queue_wait: Histogram | None = None
        self.execute: Histogram | None = None
        #: DRAM command type -> its ``pluto_dram_commands_total`` counter.
        self.commands: dict[str, Counter] = {}


def record_served_request(
    *,
    path: str,
    end_to_end_s: float,
    queue_wait_s: float = 0.0,
    execute_s: float = 0.0,
    energy_nj: float = 0.0,
    commands: Mapping[str, int] | None = None,
) -> None:
    """Record one served request into the process-wide registry."""

    series = REGISTRY._served.get(path)
    if series is None:
        series = REGISTRY._served[path] = _ServedSeries(REGISTRY, path)
    series.requests.inc()
    series.energy.inc(energy_nj * 1000.0)
    series.seconds.observe(end_to_end_s)
    if queue_wait_s:
        if series.queue_wait is None:
            series.queue_wait = REGISTRY.histogram(
                "pluto_queue_wait_seconds", "Time spent queued before execution", path=path
            )
        series.queue_wait.observe(queue_wait_s)
    if execute_s:
        if series.execute is None:
            series.execute = REGISTRY.histogram(
                "pluto_execute_seconds", "Time spent executing on the device", path=path
            )
        series.execute.observe(execute_s)
    if commands:
        for kind, count in commands.items():
            counter = series.commands.get(kind)
            if counter is None:
                counter = series.commands[kind] = REGISTRY.counter(
                    "pluto_dram_commands_total", "DRAM commands issued", type=kind
                )
            counter.inc(float(count))


class ServedLatency:
    """One serving front door's latency distributions, in seconds.

    Holds the ``queue_wait``, ``execute`` and ``end_to_end``
    :class:`Histogram` of the requests served through ``path``
    (``"service"`` or ``"pool"``); :meth:`observe` records one request
    there and in the registry's series for ``path`` in one call.
    """

    __slots__ = ("path", "queue_wait", "execute", "end_to_end")

    def __init__(self, path: str) -> None:
        self.path = path
        self.queue_wait = Histogram("queue_wait")
        self.execute = Histogram("execute")
        self.end_to_end = Histogram("end_to_end")

    def observe(
        self,
        *,
        queue_wait_s: float,
        execute_s: float,
        end_to_end_s: float,
        energy_nj: float,
        commands: Mapping[str, int] | None,
    ) -> None:
        """Record one served request's wall-clock components and cost."""
        self.queue_wait.observe(queue_wait_s)
        self.execute.observe(execute_s)
        self.end_to_end.observe(end_to_end_s)
        record_served_request(
            path=self.path,
            end_to_end_s=end_to_end_s,
            queue_wait_s=queue_wait_s,
            execute_s=execute_s,
            energy_nj=energy_nj,
            commands=commands,
        )

    def summary(self) -> dict[str, dict[str, float]]:
        """Count, mean, p50/p95/p99 and max of each distribution."""
        return {
            name: {
                "count": float(histogram.count),
                "mean_s": histogram.mean,
                "p50_s": histogram.quantile(0.50),
                "p95_s": histogram.quantile(0.95),
                "p99_s": histogram.quantile(0.99),
                "max_s": histogram.max_value,
            }
            for name, histogram in (
                ("queue_wait", self.queue_wait),
                ("execute", self.execute),
                ("end_to_end", self.end_to_end),
            )
        }
