"""Tests for the unified metrics registry and energy attribution."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api.session import PlutoSession, cache_stats, clear_all_caches
from repro.errors import ConfigurationError
from repro.obs.export import prometheus_text
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    ServedLatency,
    command_counts,
    record_served_request,
    registry,
    request_accounting,
    reset_metrics,
)


@pytest.fixture(autouse=True)
def _clean_registry():
    reset_metrics()
    yield
    reset_metrics()


def _session(elements: int = 128) -> PlutoSession:
    session = PlutoSession()
    a = session.pluto_malloc(elements, 4, "a")
    b = session.pluto_malloc(elements, 4, "b")
    out = session.pluto_malloc(elements, 8, "out")
    session.api_pluto_add(a, b, out, bit_width=4)
    return session


def _inputs(elements: int = 128) -> dict:
    rng = np.random.default_rng(11)
    return {
        "a": rng.integers(0, 16, elements),
        "b": rng.integers(0, 16, elements),
    }


class TestRegistry:
    def test_get_or_create_is_stable_per_name_and_labels(self):
        reg = MetricsRegistry()
        first = reg.counter("requests", path="service")
        second = reg.counter("requests", path="service")
        other = reg.counter("requests", path="pool")
        assert first is second
        assert first is not other
        first.inc()
        first.inc(2.5)
        assert first.value == 3.5
        assert other.value == 0.0
        assert len(reg) == 2

    def test_kind_mismatch_is_rejected(self):
        reg = MetricsRegistry()
        reg.counter("metric")
        with pytest.raises(TypeError):
            reg.gauge("metric")

    def test_counter_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("requests").inc(-1.0)

    def test_histogram_quantiles_and_summary(self):
        histogram = MetricsRegistry().histogram("latency")
        for value in (0.001, 0.002, 0.004, 0.008, 0.1):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 5.0
        assert summary["sum"] == pytest.approx(0.115)
        assert summary["max"] == pytest.approx(0.1)
        # log-bucketed with ~7% resolution
        assert histogram.quantile(0.5) == pytest.approx(0.004, rel=0.08)
        # nearest-rank on 5 samples: p99 falls on the 4th observation
        assert summary["p99"] == pytest.approx(0.008, rel=0.08)
        assert histogram.quantile(1.0) == pytest.approx(0.1, rel=0.08)

    def test_quantiles_track_numpy_within_bucket_error(self):
        rng = np.random.default_rng(3)
        samples = rng.lognormal(mean=-6.0, sigma=1.5, size=5000)
        histogram = Histogram("latency")
        for sample in samples:
            histogram.observe(float(sample))
        for q in (0.5, 0.95, 0.99):
            # log-bucketed with growth 1.07 -> a few percent of error
            assert histogram.quantile(q) == pytest.approx(
                float(np.quantile(samples, q)), rel=0.08
            )
        assert histogram.count == 5000
        assert histogram.mean == pytest.approx(float(samples.mean()))
        assert histogram.quantile(1.0) == float(samples.max())

    @pytest.mark.parametrize(
        "samples",
        [(), (0.0,), (0.01,), (0.001, 0.002, 0.004, 0.008, 0.1)],
        ids=["empty", "zero", "one-sample", "five-samples"],
    )
    def test_quantiles_never_exceed_the_largest_sample(self, samples):
        histogram = Histogram("latency")
        for sample in samples:
            histogram.observe(sample)
        largest = max(samples, default=0.0)
        quantiles = [histogram.quantile(q) for q in (0.0, 0.5, 0.95, 0.99)]
        assert quantiles == sorted(quantiles)
        assert all(0.0 <= value <= largest for value in quantiles)
        assert histogram.quantile(1.0) == largest
        assert histogram.count == len(samples)
        for q in (1.5, -0.1):
            with pytest.raises(ConfigurationError):
                histogram.quantile(q)

    def test_exposed_quantiles_never_exceed_the_largest_sample(self):
        reg = MetricsRegistry()
        reg.histogram("pluto_request_seconds", path="service").observe(0.01)
        exposed = [
            float(line.rsplit(" ", 1)[1])
            for line in prometheus_text(reg).splitlines()
            if "quantile=" in line
        ]
        assert len(exposed) == 3
        assert all(value <= 0.01 for value in exposed)

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c", path="x").inc()
        reg.gauge("g").set(2.0)
        reg.histogram("h").observe(1.0)
        snapshot = reg.snapshot()
        assert snapshot["counters"] == {'c{path="x"}': 1.0}
        assert snapshot["gauges"] == {"g": 2.0}
        assert set(snapshot["histograms"]["h"]) == {
            "count", "sum", "mean", "p50", "p95", "p99", "max",
        }


class TestCacheStatsBridge:
    #: The public dict shape of ``cache_stats()`` — routing it through the
    #: registry must not change a single key (downstream dashboards and the
    #: worker pool's final reports consume this exact shape).
    EXPECTED_LAYERS = {
        "programs",
        "artifacts",
        "shared_store",
        "verifier",
        "optimizer",
        "lut_compositions",
        "trace_templates",
        "compiled_exec",
        "scheduler_merges",
        "hierarchy_schedules",
        "engine_helpers",
        "lut_gather_arrays",
    }

    def test_cache_stats_dict_shape_is_unchanged(self):
        stats = cache_stats()
        assert set(stats) == self.EXPECTED_LAYERS
        for layer, values in stats.items():
            assert isinstance(values, dict), layer
        assert {"hits", "misses", "size"} <= set(stats["scheduler_merges"])
        assert stats is not cache_stats()  # fresh snapshots, not aliases

    def test_a_fresh_interpreter_reports_every_layer(self):
        """The layers never depend on which modules were imported first."""
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        completed = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.api.session import cache_stats; print(sorted(cache_stats()))",
            ],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert completed.stdout.strip() == str(sorted(self.EXPECTED_LAYERS))

    def test_pluto_cache_gauges_are_read_at_exposition(self):
        """No ``cache_stats()`` call is needed, and no exposition is stale."""
        clear_all_caches()
        _session().run(_inputs())
        gauges = registry().snapshot()["gauges"]
        size = cache_stats()["programs"]["size"]
        assert gauges["pluto_cache_programs_size"] == size
        # nested layers land too, their keys joined by "_"
        assert "pluto_cache_engine_helpers_interleaved_bank_order_size" in gauges

        _session(136).run(_inputs(136))  # a never-seen program structure
        grown = cache_stats()["programs"]["size"]
        assert grown == size + 1
        assert f"\npluto_cache_programs_size {grown}\n" in prometheus_text()


class TestEnergyAttribution:
    def test_command_counts_and_accounting_from_a_real_run(self):
        result = _session().run(_inputs())
        counts = command_counts(result.trace)
        assert counts
        assert all(count > 0 for count in counts.values())
        accounting = request_accounting(result.trace)
        assert accounting["dram_commands"] == sum(counts.values())
        assert accounting["dram_commands_by_type"] == counts
        assert accounting["energy_pj"] == pytest.approx(
            result.trace.total_energy_nj * 1000.0
        )
        assert 0.0 <= accounting["refresh_overhead_fraction"] < 1.0
        assert accounting["refresh_inflated_latency_ns"] >= (
            result.trace.total_latency_ns
        )
        assert accounting["refresh_commands"] >= 0

    def test_accounting_is_memoized_on_the_trace(self):
        result = _session().run(_inputs())
        first = request_accounting(result.trace)
        second = request_accounting(result.trace)
        assert first == second
        assert "_obs_accounting" in result.trace.__dict__ or (
            "_obs_accounting" in result.trace.__dict__.get("_obs_pins", {})
        )

    def test_template_realizations_share_one_pin_store(self):
        session = _session()
        first = session.run(_inputs())
        second = session.run(_inputs())  # warm path realizes from the same template
        command_counts(first.trace)
        # The second realization must already carry the memoized counts.
        store = second.trace.__dict__.get("_obs_pins")
        if store is not None:  # warm path took the template
            assert "_obs_command_counts" in store


class TestServedRequestRecording:
    def test_record_served_request_populates_all_families(self):
        record_served_request(
            path="service",
            end_to_end_s=0.01,
            queue_wait_s=0.004,
            execute_s=0.006,
            energy_nj=2.5,
            commands={"ACT": 3, "ROW_SWEEP": 1},
        )
        snapshot = registry().snapshot()
        assert snapshot["counters"]['pluto_requests_total{path="service"}'] == 1.0
        assert snapshot["counters"][
            'pluto_energy_pj_total{path="service"}'
        ] == pytest.approx(2500.0)
        assert snapshot["counters"]['pluto_dram_commands_total{type="ACT"}'] == 3.0
        assert (
            snapshot["histograms"]['pluto_request_seconds{path="service"}']["count"]
            == 1.0
        )
        assert (
            snapshot["histograms"]['pluto_queue_wait_seconds{path="service"}']["count"]
            == 1.0
        )

    def test_served_latency_feeds_its_histograms_and_the_registry(self):
        latency = ServedLatency("pool")
        latency.observe(
            queue_wait_s=0.001,
            execute_s=0.002,
            end_to_end_s=0.003,
            energy_nj=1.0,
            commands=None,
        )
        latency.observe(
            queue_wait_s=0.003,
            execute_s=0.004,
            end_to_end_s=0.009,
            energy_nj=1.0,
            commands={"ACT": 2},
        )
        summary = latency.summary()
        assert set(summary) == {"queue_wait", "execute", "end_to_end"}
        for distribution in summary.values():
            assert set(distribution) == {
                "count", "mean_s", "p50_s", "p95_s", "p99_s", "max_s"
            }
            assert distribution["count"] == 2
        assert summary["end_to_end"]["max_s"] == 0.009
        # The same call fed the registry's series for the front door.
        snapshot = registry().snapshot()
        assert snapshot["counters"]['pluto_requests_total{path="pool"}'] == 2.0
        assert (
            snapshot["histograms"]['pluto_request_seconds{path="pool"}']["count"]
            == 2.0
        )
