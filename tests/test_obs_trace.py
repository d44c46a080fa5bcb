"""Tests for the request-tracing core (obs/trace.py)."""

from __future__ import annotations

import pickle

from repro.obs.trace import (
    NOOP_SPAN,
    RequestTrace,
    Span,
    activate,
    current_trace,
    deactivate,
    new_trace,
    span_of,
    stage,
    tracing,
    tracing_enabled,
)


class TestEnableDisable:
    def test_disabled_by_default_and_scoped_enable(self):
        assert not tracing_enabled()
        with tracing():
            assert tracing_enabled()
        assert not tracing_enabled()

    def test_new_trace_returns_none_when_disabled(self):
        assert new_trace("request") is None
        with tracing():
            trace = new_trace("request", request_id=7)
            assert isinstance(trace, RequestTrace)
            assert trace.request_id == 7

    def test_stage_is_noop_without_active_trace(self):
        with tracing():
            assert stage("plan") is NOOP_SPAN
        # and when disabled entirely, even with a trace active
        trace = RequestTrace(name="r")
        token = activate(trace)
        try:
            assert stage("plan") is NOOP_SPAN
        finally:
            deactivate(token)

    def test_span_of_none_is_noop(self):
        scope = span_of(None, "anything")
        assert scope is NOOP_SPAN
        with scope as span:
            span.set(ignored=True)  # must not raise


class TestSpanTree:
    def test_spans_nest_through_the_scope_stack(self):
        trace = RequestTrace(name="r")
        with trace.span("outer") as outer:
            with trace.span("inner", detail=1) as inner:
                pass
        assert [span.name for span in trace.spans] == ["outer"]
        assert [child.name for child in outer.children] == ["inner"]
        assert inner.attributes == {"detail": 1}
        assert outer.duration_ns >= inner.duration_ns >= 0
        assert inner.start_ns >= outer.start_ns

    def test_stage_attaches_to_context_active_trace(self):
        trace = RequestTrace(name="r")
        token = activate(trace)
        try:
            with tracing():
                assert current_trace() is trace
                with stage("verify", checks=3) as span:
                    assert isinstance(span, Span)
        finally:
            deactivate(token)
        assert trace.spans[0].name == "verify"
        assert trace.spans[0].attributes == {"checks": 3}

    def test_add_span_records_premeasured_durations(self):
        trace = RequestTrace(name="r")
        span = trace.add_span("queue_wait", 5_000, batch_size=4)
        assert span.duration_ns == 5_000
        assert span.end_ns == span.start_ns + 5_000
        assert trace.total_ns == 5_000
        assert trace.stage_totals() == {"queue_wait": 5_000}

    def test_find_and_walk_cover_the_whole_tree(self):
        trace = RequestTrace(name="r")
        with trace.span("execute"):
            with trace.span("compile"):
                pass
        assert trace.find("compile") is not None
        assert trace.find("missing") is None
        assert [span.name for span in trace.walk()] == ["execute", "compile"]


class TestGraft:
    def test_graft_rebases_foreign_clocks_under_a_wrapper(self):
        worker = RequestTrace(name="worker-side")
        worker.add_span("execute", 2_000, start_ns=1_000_000_000)
        worker.annotate(backend="vectorized")
        pool = RequestTrace(name="pool")
        wrapper = pool.graft(worker, under="worker", start_ns=50, worker=3)
        assert wrapper.name == "worker"
        assert wrapper.duration_ns == worker.total_ns
        assert wrapper.attributes["worker"] == 3
        assert wrapper.attributes["worker_attributes"] == {"backend": "vectorized"}
        grafted = wrapper.children[0]
        assert grafted.name == "execute"
        # The earliest worker span is shifted to the wrapper's start.
        assert grafted.start_ns == 50

    def test_pickle_round_trip_drops_open_spans(self):
        trace = RequestTrace(name="r")
        scope = trace.span("execute")
        scope.__enter__()  # leave the span open on purpose
        clone = pickle.loads(pickle.dumps(trace))
        assert clone._stack == []
        assert [span.name for span in clone.spans] == ["execute"]
        scope.__exit__(None, None, None)


class TestOverheadShape:
    def test_disabled_stage_allocates_nothing(self):
        # The disabled path must return the shared singleton, not a fresh
        # object per call — this is what keeps the hot path under the gate.
        scopes = {id(stage("a")) for _ in range(16)}
        assert scopes == {id(NOOP_SPAN)}

    def test_span_sums_stay_within_wall_clock(self):
        import time

        trace = RequestTrace(name="r")
        begin = time.perf_counter_ns()
        with trace.span("outer"):
            with trace.span("inner"):
                sum(range(1000))
        wall = time.perf_counter_ns() - begin
        assert 0 < trace.total_ns <= wall
