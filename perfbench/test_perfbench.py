"""Tests of the benchmark's own code (not of the program it measures)."""

from __future__ import annotations

import time
import zlib

import numpy as np
import pytest

from perfbench import hostspeed
from perfbench.oracle import compute
from perfbench.spans import WRAPPED, Tracer
from perfbench.stats import (
    TooFewSamples,
    declaration,
    declared_units,
    emit,
    percentile,
    samples_beyond,
    scaled_rate,
    scaled_time,
    window_size,
)
from perfbench.workloads import (
    KERNEL_ELEMENTS,
    SAMPLE_FLOOR,
    WORKLOADS,
    InProcess,
    Measurement,
    cold_shapes,
    digest,
    instantiate,
    poisson_schedule,
)


def test_p99_needs_ten_samples_beyond_it():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    assert percentile(list(range(1000)), 99) == pytest.approx(
        np.percentile(np.arange(1000), 99)
    )
    with pytest.raises(TooFewSamples):
        percentile(list(range(999)), 99)
    with pytest.raises(TooFewSamples):
        percentile([1.0] * 19, 50)


def test_segments_support_a_median_in_whole_rounds():
    # Six classes: four rounds put 12 samples beyond the median.
    assert window_size(50, 6) == 24
    assert window_size(99, 6) == 1002
    assert window_size(50, 15) == 30


def test_scaled_medians_divide_out_the_host_slowdown():
    # A segment measured while the host ran twice as slow reads the same.
    assert scaled_time([(50.0, 1.0), (100.0, 2.0), (60.0, 1.0)]) == 50.0
    assert scaled_rate([(2000.0, 1.0), (1000.0, 2.0), (1500.0, 1.0)]) == 2000.0
    with pytest.raises(TooFewSamples):
        scaled_time([])
    with pytest.raises(TooFewSamples):
        scaled_rate([])


def test_every_workload_has_a_host_speed_kernel():
    assert set(KERNEL_ELEMENTS) == set(WORKLOADS)
    assert set(KERNEL_ELEMENTS.values()) <= set(hostspeed.REFERENCE_S)
    assert 0 < hostspeed.kernel_seconds(256) < 1


def test_seed_fixes_the_poisson_schedule():
    offsets, order = poisson_schedule(7, 2000, 200.0, 6)
    again = poisson_schedule(7, 2000, 200.0, 6)
    np.testing.assert_array_equal(offsets, again[0])
    np.testing.assert_array_equal(order, again[1])
    other = poisson_schedule(8, 2000, 200.0, 6)
    assert not np.array_equal(offsets, other[0])
    assert np.all(np.diff(offsets) > 0)
    assert np.mean(np.diff(offsets)) == pytest.approx(1 / 200.0, rel=0.1)
    # Every whole run of six arrivals holds each class once.
    assert all(
        sorted(order[start : start + 6].tolist()) == list(range(6))
        for start in range(0, 1998, 6)
    )


def _program_of(shape, tag):
    from repro.api.session import program_structure_key

    request = instantiate(shape, tag)
    return program_structure_key(request.session.calls), request


def test_seed_fixes_the_cold_programs():
    shapes, again = cold_shapes(7), cold_shapes(7)
    assert [shape.ops for shape in shapes] == [shape.ops for shape in again]
    for shape, twin in zip(shapes, again):
        key, request = _program_of(shape, "a")
        twin_key, twin_request = _program_of(twin, "a")
        assert key == twin_key
        assert request.inputs.keys() == twin_request.inputs.keys()
        for name in request.inputs:
            np.testing.assert_array_equal(request.inputs[name], twin_request.inputs[name])
    # Another seed keeps the operations and operands and redraws the data.
    other = cold_shapes(8)
    assert [shape.ops for shape in other] != [shape.ops for shape in shapes]
    for shape, twin in zip(shapes, other):
        assert [op[:2] if op[0] == "map" else op for op in shape.ops] == [
            op[:2] if op[0] == "map" else op for op in twin.ops
        ]
        assert not np.array_equal(shape.inputs["x0"], twin.inputs["x0"])


def test_instances_are_new_structures_with_the_shape_outputs():
    shape = cold_shapes(3)[0]
    first_key, first = _program_of(shape, "r1")
    second_key, second = _program_of(shape, "r2")
    assert first_key != second_key
    outputs = first.digests(first.session.run(first.inputs).outputs)
    assert outputs == second.digests(second.session.run(second.inputs).outputs)
    assert outputs


def test_digest_matches_the_pool_digest():
    array = np.arange(4096, dtype=np.uint64) * 7
    assert digest(array) == zlib.crc32(array.tobytes())


@pytest.fixture(scope="module")
def run_small_reference():
    return compute("run-small", 0)


def _measure(reference, trace):
    runner = InProcess("run-small", 0)
    runner.setup()
    measurement = Measurement(reference)
    runner.measure(measurement, 0.0, trace)
    return measurement


def test_untraced_run_prints_exactly_the_declared_metrics(run_small_reference):
    measurement = _measure(run_small_reference, trace=False)
    assert measurement.failed == 0
    assert measurement.attempted == measurement.window >= SAMPLE_FLOOR
    values = dict(measurement.end_to_end(), setup_s=1.0)
    assert set(emit(values, "end_to_end")) == set(declared_units("end_to_end"))
    assert all(value > 0 for value in values.values())


def test_traced_run_restores_callables_and_declares_metrics(run_small_reference):
    originals = [target.original() for target in WRAPPED]
    measurement = _measure(run_small_reference, trace=True)
    assert [target.original() for target in WRAPPED] == originals
    assert all(
        target.original() is original
        for target, original in zip(WRAPPED, originals)
    )
    values = measurement.per_layer()
    assert set(emit(values, "per_layer")) == set(declared_units("per_layer"))
    assert values["latency_p99_us"] > 0
    assert values["session.run.calls_per_request"] == 1.0
    assert values["failed_ratio"] == 0.0
    assert values["dispatch.execute.calls_per_request"] == 0.0


def test_wrong_outputs_count_as_failures(run_small_reference):
    wrong = {
        name: {role: value ^ 1 for role, value in digests.items()}
        for name, digests in run_small_reference.items()
    }
    measurement = _measure(wrong, trace=False)
    assert measurement.failed == measurement.attempted == measurement.window


def test_self_times_sum_to_the_outermost_span():
    from repro.workloads.programs import workload_program

    program = workload_program("salsa20", 64, 0)
    with Tracer() as tracer:
        tracer.install()
        began = time.perf_counter_ns()
        program.session.run(program.inputs, plan="auto")
        elapsed = time.perf_counter_ns() - began
    totals = tracer.totals()
    # The self times add up to the one outermost span (session.run),
    # which lies inside the measured call and covers nearly all of it.
    summed = sum(self_ns for self_ns, _ in totals.values())
    assert elapsed / 2 < summed <= elapsed
    assert totals["session.run"][1] == 1
    assert tracer.span_count > 1
    assert not tracer.installed


def test_each_segment_is_scaled_by_the_host_slowdown(run_small_reference, monkeypatch):
    from perfbench import workloads

    monkeypatch.setattr(workloads.hostspeed, "slowdown", lambda elements: 2.0)
    monkeypatch.setattr(workloads, "SEGMENT_S", 0.0)
    measurement = _measure(run_small_reference, trace=False)
    # Every segment is the shortest that supports a median, four rounds;
    # the trailing 18 requests make no segment.
    assert len(measurement.p50_segments) == measurement.window // 24
    first = measurement.latency_ns[:24]
    assert measurement.p50_segments[0] == (percentile(first, 50) / 1e3, 2.0)
    assert measurement.rate_segments[0] == (24 * 1e9 / sum(first), 2.0)
    values = measurement.end_to_end()
    raw_p50 = np.median([p50 for p50, _ in measurement.p50_segments])
    raw_rate = np.median([rate for rate, _ in measurement.rate_segments])
    assert values["latency_p50_us"] == pytest.approx(raw_p50 / 2)
    assert values["throughput_rps"] == pytest.approx(raw_rate * 2)


def test_pool_measurement_reports_every_per_layer_metric():
    # serve-pool wraps nothing: no traced samples and no spans.
    measurement = Measurement({}, period=6)
    measurement.attempted = 1200
    measurement.latency_ns = [1000 + index for index in range(1200)]
    measurement.fixed = [(1.0, 2.0, 12, 3, False)] * measurement.window
    measurement.queue_wait_s = [1e-5] * 1200
    measurement.execute_s = [1e-4] * 1200
    measurement.rpc_s = [1e-3] * 1200
    measurement.late_s = [1e-4] * 1200
    measurement.batch_sizes = [16] * 512
    values = measurement.per_layer()
    assert set(values) == set(declared_units("per_layer"))
    assert values["service.batch_size_mean"] == 16.0
    assert values["bench.trace_overhead"] == 0.0
    assert values["session.run.calls_per_request"] == 0.0


def test_emit_refuses_undeclared_or_missing_metrics():
    with pytest.raises(ValueError):
        emit({"latency_p50_us": 1.0}, "end_to_end")
    values = {name: 1.0 for name in declared_units("end_to_end")}
    with pytest.raises(ValueError):
        emit(dict(values, undeclared=1.0), "end_to_end")


def test_declaration_meets_the_benchmark_contract():
    declared = declaration()
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [workload["name"] for workload in declared["workloads"]] == list(WORKLOADS)
    bounds = {metric["name"]: metric["bound"] for metric in declared["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    names = [
        metric["name"] for kind in ("end_to_end", "per_layer") for metric in declared[kind]
    ]
    assert len(names) == len(set(names))
    assert all(len(workload["why"]) <= 200 for workload in declared["workloads"])
