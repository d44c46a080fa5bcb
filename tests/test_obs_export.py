"""Tests for the trace/metrics exposition formats (obs/export.py)."""

from __future__ import annotations

import json

from repro.obs.export import (
    chrome_trace_events,
    chrome_trace_json,
    metrics_json,
    prometheus_text,
    render_stage_breakdown,
    stage_summary,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import RequestTrace


def _trace(name: str = "request", base_ns: int = 1_000_000) -> RequestTrace:
    trace = RequestTrace(name=name)
    submit = trace.add_span("submit", 2_000, start_ns=base_ns)
    submit.children.append(
        type(submit)(name="plan", start_ns=base_ns + 100, duration_ns=500,
                     attributes={"cached": False})
    )
    trace.add_span("execute", 8_000, start_ns=base_ns + 2_000, backend="vectorized")
    return trace


class TestChromeTrace:
    def test_round_trips_through_json_with_valid_events(self):
        document = json.loads(chrome_trace_json([_trace(), _trace("second")]))
        events = document["traceEvents"]
        assert events, "no events emitted"
        metadata = [event for event in events if event["ph"] == "M"]
        spans = [event for event in events if event["ph"] == "X"]
        assert {event["args"]["name"] for event in metadata} == {
            "request", "second",
        }
        for event in spans:
            assert event["ph"] == "X"
            assert event["ts"] >= 0.0  # rebased to the earliest span
            assert event["dur"] >= 0.0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)

    def test_nested_spans_emit_child_events_within_the_parent(self):
        events = chrome_trace_events(_trace())
        by_name = {event["name"]: event for event in events if event.get("ph") == "X"}
        submit, plan = by_name["submit"], by_name["plan"]
        assert submit["ts"] <= plan["ts"]
        assert plan["ts"] + plan["dur"] <= submit["ts"] + submit["dur"]
        assert plan["args"] == {"cached": False}

    def test_single_trace_argument_is_accepted(self):
        events = chrome_trace_events(_trace())
        assert any(event.get("ph") == "X" for event in events)

    def test_non_json_attributes_are_stringified(self):
        trace = RequestTrace(name="r")
        trace.add_span("execute", 10, backend=object())
        json.loads(chrome_trace_json(trace))  # must not raise


class TestPrometheus:
    def test_exposition_parses_line_by_line(self):
        reg = MetricsRegistry()
        reg.counter("pluto_requests_total", "Requests served", path="service").inc(4)
        reg.gauge("pluto_cache_programs_size").set(2)
        reg.histogram("pluto_request_seconds", path="service").observe(0.01)
        text = prometheus_text(reg)
        assert text.endswith("\n")
        for line in text.strip().splitlines():
            if line.startswith("# HELP"):
                assert len(line.split(" ", 3)) == 4
                continue
            if line.startswith("# TYPE"):
                kind = line.split()[3]
                assert kind in {"counter", "gauge", "summary"}
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)  # every sample line ends in a parseable number
            assert name_part
        assert 'pluto_requests_total{path="service"} 4' in text
        assert "pluto_cache_programs_size 2" in text
        assert 'pluto_request_seconds_count{path="service"} 1' in text
        assert 'quantile="0.5"' in text

    def test_families_are_typed_once(self):
        reg = MetricsRegistry()
        reg.counter("c", path="a").inc()
        reg.counter("c", path="b").inc()
        text = prometheus_text(reg)
        assert text.count("# TYPE c counter") == 1


class TestJsonSnapshot:
    def test_metrics_json_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("requests").inc()
        snapshot = json.loads(metrics_json(reg))
        assert snapshot["counters"]["requests"] == 1.0
        assert set(snapshot) == {"counters", "gauges", "histograms"}


class TestStageBreakdown:
    def test_stage_summary_aggregates_top_level_spans(self):
        summary = stage_summary([_trace(), _trace()])
        assert summary["submit"]["count"] == 2.0
        assert summary["submit"]["total_ns"] == 4_000.0
        assert summary["execute"]["mean_ns"] == 8_000.0
        assert "plan" not in summary  # nested spans stay nested

    def test_render_contains_every_stage_and_shares(self):
        table = render_stage_breakdown([_trace()], title="breakdown")
        assert table.splitlines()[0] == "breakdown"
        assert "submit" in table
        assert "execute" in table
        assert "%" in table
