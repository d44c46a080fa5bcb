"""End-to-end tracing through the serving front doors.

The acceptance bar of the observability PR: a served request — through
both :class:`~repro.api.service.PlutoService` and
:class:`~repro.serve.pool.PlutoWorkerPool` — carries a complete span tree
whose stage durations sum to within the recorded end-to-end latency,
plus DRAM command counts and energy in picojoules.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.api import PlutoSession
from repro.obs.metrics import registry, reset_metrics
from repro.obs.trace import enable_tracing, tracing_enabled
from repro.plan import ExecutionPlan

ELEMENTS = 128

#: Span sums are compared against wall-clock intervals measured around
#: them; scheduler jitter between the two clock reads gets this allowance.
SLACK_NS = 2_000_000


@pytest.fixture(autouse=True)
def _traced():
    reset_metrics()
    enable_tracing(True)
    yield
    enable_tracing(False)
    reset_metrics()


def _program() -> tuple[PlutoSession, dict[str, np.ndarray]]:
    session = PlutoSession()
    a = session.pluto_malloc(ELEMENTS, 4, "a")
    b = session.pluto_malloc(ELEMENTS, 4, "b")
    out = session.pluto_malloc(ELEMENTS, 8, "out")
    session.api_pluto_add(a, b, out, bit_width=4)
    rng = np.random.default_rng(7)
    inputs = {
        "a": rng.integers(0, 16, ELEMENTS),
        "b": rng.integers(0, 16, ELEMENTS),
    }
    return session, inputs


async def _serve(count: int):
    session, inputs = _program()
    async with session.serve(max_queue=max(8, count)) as service:
        return list(
            await asyncio.gather(
                *(service.submit(dict(inputs)) for _ in range(count))
            )
        )


class TestServiceTracing:
    def test_served_request_carries_a_complete_span_tree(self):
        results = asyncio.run(_serve(4))
        for served in results:
            trace = served.request_trace
            assert trace is not None
            names = {span.name for span in trace.spans}
            assert {"submit", "queue_wait", "execute"} <= names
            # turnaround is queue_wait + execute by construction; the span
            # durations must agree with the recorded wall-clock seconds.
            turnaround_ns = served.turnaround_s * 1e9
            staged_ns = sum(
                span.duration_ns
                for span in trace.spans
                if span.name in ("queue_wait", "execute")
            )
            assert staged_ns <= turnaround_ns + SLACK_NS
            assert staged_ns >= 0.5 * turnaround_ns - SLACK_NS

    def test_submit_span_nests_the_planner_when_auto_planning(self):
        async def _serve_auto():
            session, inputs = _program()
            async with session.serve(max_queue=8, plan="auto") as service:
                return await service.submit(dict(inputs))

        served = asyncio.run(_serve_auto())
        trace = served.request_trace
        submit = trace.find("submit")
        assert submit is not None
        nested = {span.name for span in submit.walk()}
        assert "plan" in nested
        plan = trace.find("plan")
        assert "cached" in plan.attributes

    def test_queue_wait_span_notes_the_coalesced_batch(self):
        results = asyncio.run(_serve(4))
        trace = results[-1].request_trace
        coalesce = trace.find("coalesce")
        assert coalesce is not None
        assert coalesce.attributes["batch_size"] >= 1

    def test_trace_attributes_carry_energy_attribution(self):
        results = asyncio.run(_serve(2))
        for served in results:
            attributes = served.request_trace.attributes
            assert attributes["energy_pj"] == pytest.approx(
                served.energy_nj * 1000.0
            )
            assert attributes["dram_commands"] > 0
            assert attributes["dram_commands_by_type"]
            assert 0.0 <= attributes["refresh_overhead_fraction"] < 1.0

    def test_service_requests_land_in_the_registry(self):
        asyncio.run(_serve(3))
        snapshot = registry().snapshot()
        assert snapshot["counters"]['pluto_requests_total{path="service"}'] == 3.0
        assert snapshot["counters"]['pluto_energy_pj_total{path="service"}'] > 0.0
        assert any(
            name.startswith("pluto_dram_commands_total")
            for name in snapshot["counters"]
        )

    def test_tracing_off_leaves_results_untraced(self):
        enable_tracing(False)
        results = asyncio.run(_serve(2))
        assert all(served.request_trace is None for served in results)

    def test_reset_metrics_strands_no_series(self):
        """Registry series resolved before ``reset_metrics()`` are dropped
        with it: the next request lands in the fresh registry, while the
        service's own distributions keep every request."""
        from repro.api.service import PlutoService

        session, inputs = _program()
        service = PlutoService(session)
        service.serve_chunk(session, [dict(inputs)])
        reset_metrics()
        service.serve_chunk(session, [dict(inputs)])
        snapshot = registry().snapshot()
        assert snapshot["counters"]['pluto_requests_total{path="service"}'] == 1.0
        assert (
            snapshot["histograms"]['pluto_request_seconds{path="service"}']["count"]
            == 1.0
        )
        assert service.stats.summary()["latency"]["end_to_end"]["count"] == 2

    def test_editing_one_trace_changes_no_later_accounting(self):
        """Every request gets its own copy of the memoized accounting:
        editing a served request's by-type counts changes neither a later
        request's attributes and accounting nor the registry counters."""
        from repro.api.service import PlutoService
        from repro.obs.metrics import request_accounting

        session, inputs = _program()
        service = PlutoService(session)
        [first] = service.serve_chunk(session, [dict(inputs)])
        by_type = first.request_trace.attributes["dram_commands_by_type"]
        expected = dict(by_type)
        by_type["ROW_SWEEP"] = 10**6
        [second] = service.serve_chunk(session, [dict(inputs)])
        assert second.request_trace.attributes["dram_commands_by_type"] == expected
        assert request_accounting(second.result.trace)["dram_commands_by_type"] == expected
        counters = registry().snapshot()["counters"]
        row_sweeps = counters['pluto_dram_commands_total{type="ROW_SWEEP"}']
        assert row_sweeps == 2 * expected["ROW_SWEEP"]


class TestSessionTracing:
    def test_run_builds_a_trace_with_pipeline_spans(self):
        session, inputs = _program()
        result = session.run(inputs)
        trace = result.request_trace
        assert trace is not None
        names = [span.name for span in trace.spans]
        assert "execute" in names
        assert trace.attributes["latency_ns"] == pytest.approx(result.latency_ns)
        assert trace.attributes["energy_pj"] == pytest.approx(
            result.trace.total_energy_nj * 1000.0
        )

    def test_a_sharded_run_records_the_dispatchers_schedule_span(self):
        session, inputs = _program()
        result = session.run(inputs, plan=ExecutionPlan(shards=2))
        trace = result.request_trace
        assert trace is not None
        assert trace.find("execute") is not None
        schedule = trace.find("schedule")
        assert schedule is not None
        assert schedule.attributes["shards"] == 2


class TestPoolTracing:
    def test_pool_results_preserve_worker_side_spans(self):
        from repro.serve import PlutoWorkerPool

        assert tracing_enabled()
        session, inputs = _program()
        with PlutoWorkerPool(workers=1, max_batch=4) as pool:
            assert pool.wait_ready(60)
            futures = pool.submit_many(
                session, [dict(inputs) for _ in range(3)]
            )
            entries = [future.result(60) for future in futures]
        for entry in entries:
            trace = entry.request_trace
            assert trace is not None
            top = [span.name for span in trace.spans]
            assert top == ["pool_rpc", "worker"]
            # one span per leg of the hop, summing to the rpc remainder
            rpc = trace.spans[0]
            legs = {child.name: child.duration_ns for child in rpc.children}
            assert list(legs) == ["to_worker", "in_worker", "to_dispatcher"]
            assert all(duration >= 0 for duration in legs.values())
            assert sum(legs.values()) == rpc.duration_ns
            worker = trace.spans[1]
            worker_stages = {child.name for child in worker.children}
            assert {"submit", "queue_wait", "execute"} <= worker_stages
            # grafted spans sum to the wrapper; wrapper + rpc = end to end
            assert trace.total_ns > 0
            assert trace.attributes["energy_pj"] == pytest.approx(
                entry.energy_nj * 1000.0
            )
        snapshot = registry().snapshot()
        assert snapshot["counters"]['pluto_requests_total{path="pool"}'] == 3.0


class TestObsCli:
    def test_module_entry_point_prints_a_breakdown(self, capsys, tmp_path):
        from repro.obs.__main__ import main

        chrome = tmp_path / "trace.json"
        code = main(
            [
                "--workload", "crc",
                "--requests", "2",
                "--elements", "64",
                "--chrome", str(chrome),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-stage latency breakdown" in out
        assert "modelled energy" in out
        import json

        document = json.loads(chrome.read_text())
        assert document["traceEvents"]
