"""Tests for the unified metrics registry and energy attribution."""

from __future__ import annotations

import pytest

from repro.api.session import PlutoSession, cache_stats
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    command_counts,
    record_cache_stats,
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


def _session() -> PlutoSession:
    session = PlutoSession()
    a = session.pluto_malloc(128, 4, "a")
    b = session.pluto_malloc(128, 4, "b")
    out = session.pluto_malloc(128, 8, "out")
    session.api_pluto_add(a, b, out, bit_width=4)
    return session


def _inputs() -> dict:
    import numpy as np

    rng = np.random.default_rng(11)
    return {
        "a": rng.integers(0, 16, 128),
        "b": rng.integers(0, 16, 128),
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
        "planner",
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

    def test_cache_stats_mirrors_into_pluto_cache_gauges(self):
        cache_stats()
        gauges = registry().snapshot()["gauges"]
        assert "pluto_cache_programs_size" in gauges
        assert "pluto_cache_compiled_exec_size" in gauges
        # every numeric leaf of every layer lands in the registry
        assert any(name.startswith("pluto_cache_verifier") for name in gauges)

    def test_record_cache_stats_recurses_nested_layers(self):
        record_cache_stats({"outer": {"inner": {"deep": 3}, "flat": 1.5}})
        gauges = registry().snapshot()["gauges"]
        assert gauges["pluto_cache_outer_inner_deep"] == 3.0
        assert gauges["pluto_cache_outer_flat"] == 1.5


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
