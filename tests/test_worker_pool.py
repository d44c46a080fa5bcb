"""Tests for the multi-worker serving tier (serve/pool.py, serve/client.py)."""

from __future__ import annotations

import threading
import time
import zlib

import numpy as np
import pytest

from repro.api import PlutoSession
from repro.errors import (
    ConfigurationError,
    ServiceClosedError,
    ServiceOverloadError,
    WorkerCrashedError,
)
from repro.serve import PlutoWorkerPool, fan_out, map_parallel

ELEMENTS = 256


def _add_program(elements: int = ELEMENTS) -> PlutoSession:
    session = PlutoSession()
    a = session.pluto_malloc(elements, 4, "a")
    b = session.pluto_malloc(elements, 4, "b")
    out = session.pluto_malloc(elements, 8, "out")
    session.api_pluto_add(a, b, out, bit_width=4)
    return session


def _mul_program(elements: int = ELEMENTS) -> PlutoSession:
    session = PlutoSession()
    a = session.pluto_malloc(elements, 2, "a")
    b = session.pluto_malloc(elements, 2, "b")
    out = session.pluto_malloc(elements, 4, "out")
    session.api_pluto_mul(a, b, out, bit_width=2)
    return session


def _add_inputs(
    rng: np.random.Generator, elements: int = ELEMENTS
) -> dict[str, np.ndarray]:
    return {
        "a": rng.integers(0, 16, elements),
        "b": rng.integers(0, 16, elements),
    }


def _mul_inputs(
    rng: np.random.Generator, elements: int = ELEMENTS
) -> dict[str, np.ndarray]:
    return {
        "a": rng.integers(0, 4, elements),
        "b": rng.integers(0, 4, elements),
    }


def _digests(outputs) -> dict[str, int]:
    return {
        name: zlib.crc32(np.asarray(array).tobytes())
        for name, array in outputs.items()
    }


class TestWorkerPool:
    def test_serves_correct_outputs_in_order(self):
        session = _add_program()
        rng = np.random.default_rng(3)
        requests = [_add_inputs(rng) for _ in range(12)]
        with PlutoWorkerPool(workers=2, chunk_size=4) as pool:
            assert pool.wait_ready(60.0)
            results = map_parallel(pool, session, requests)
        assert len(results) == len(requests)
        for inputs, result in zip(requests, results):
            assert np.array_equal(
                result.outputs["out"], inputs["a"] + inputs["b"]
            )
            assert result.latency_ns > 0
            assert result.digests == _digests(result.outputs)
        assert pool.stats.completed == len(requests)
        assert pool.stats.failed == 0

    def test_results_bit_identical_to_single_process(self):
        session = _add_program()
        rng = np.random.default_rng(5)
        inputs = _add_inputs(rng)
        reference = _digests(session.run(inputs).outputs)
        with PlutoWorkerPool(workers=1) as pool:
            result = pool.submit(session, inputs).result(60.0)
        assert result.digests == reference

    def test_return_outputs_false_still_ships_digests(self):
        session = _add_program()
        rng = np.random.default_rng(7)
        inputs = _add_inputs(rng)
        reference = _digests(session.run(inputs).outputs)
        with PlutoWorkerPool(workers=1) as pool:
            result = pool.submit(
                session, inputs, return_outputs=False
            ).result(60.0)
        assert result.outputs is None
        assert result.digests == reference

    def test_affinity_routes_distinct_programs_to_distinct_workers(self):
        adds, muls = _add_program(), _mul_program()
        rng = np.random.default_rng(11)
        jobs = [
            (adds, _add_inputs(rng)) if index % 2 == 0
            else (muls, _mul_inputs(rng))
            for index in range(10)
        ]
        with PlutoWorkerPool(workers=2, chunk_size=4) as pool:
            results = fan_out(pool, jobs, return_outputs=False)
        assert len(results) == 10
        # One program per worker, every request on its program's worker.
        assert sorted(pool._programs_per_worker) == [1, 1]
        assert sorted(pool.stats.per_worker_served) == [5, 5]

    def test_same_program_coalesces_on_one_worker(self):
        session = _add_program()
        rng = np.random.default_rng(13)
        with PlutoWorkerPool(workers=2, chunk_size=8, max_batch=8) as pool:
            results = map_parallel(
                pool, session, [_add_inputs(rng) for _ in range(8)],
                return_outputs=False,
            )
        served = pool.stats.per_worker_served
        assert sorted(served) == [0, 8]  # affinity keeps one worker warm
        assert any(result.batch_size > 1 for result in results)

    def test_shedding_raises_overload(self):
        session = _add_program()
        rng = np.random.default_rng(17)
        with PlutoWorkerPool(
            workers=1, max_inflight=4, chunk_size=4
        ) as pool:
            # Fill the in-flight window while the worker cold-compiles.
            futures = pool.submit_many(
                session, [_add_inputs(rng) for _ in range(4)]
            )
            with pytest.raises(ServiceOverloadError):
                pool.submit(session, _add_inputs(rng), shed=True)
            for future in futures:
                future.result(60.0)
        assert pool.stats.shed == 1
        assert pool.stats.completed == 4

    def test_blocking_admission_eventually_serves_everything(self):
        session = _add_program()
        rng = np.random.default_rng(19)
        with PlutoWorkerPool(
            workers=1, max_inflight=2, chunk_size=2
        ) as pool:
            results = map_parallel(
                pool, session, [_add_inputs(rng) for _ in range(10)],
                return_outputs=False,
            )
        assert len(results) == 10
        assert pool.stats.completed == 10

    def test_per_request_errors_surface_on_their_future(self):
        session = _add_program()
        rng = np.random.default_rng(23)
        with PlutoWorkerPool(workers=1) as pool:
            good = pool.submit(session, _add_inputs(rng))
            bad = pool.submit(session, {"nonsense": rng.integers(0, 4, 8)})
            assert good.result(60.0).outputs["out"].size == ELEMENTS
            with pytest.raises(Exception):
                bad.result(60.0)
        assert pool.stats.completed == 1
        assert pool.stats.failed == 1

    def test_unhashable_structure_is_rejected_at_routing(self):
        session = _add_program()
        session.calls[0].parameters["taps"] = [1, 2, 3]
        with PlutoWorkerPool(workers=1) as pool:
            with pytest.raises(ConfigurationError):
                pool.submit(session, {})

    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            PlutoWorkerPool(workers=0)
        with pytest.raises(ConfigurationError):
            PlutoWorkerPool(workers=1, max_inflight=0)
        with pytest.raises(ConfigurationError):
            PlutoWorkerPool(workers=1, chunk_size=0)

    def test_frames_larger_than_the_pipe_buffer_flow_both_ways(self):
        """~4 MB request frames and ~2 MB result frames, from two threads
        onto two workers, against a pipe buffer of a few hundred KB: a
        submitter blocked writing to a full pipe must never stop the
        results that let the worker read on."""
        elements, count = 8192, 64
        programs = [
            (_add_program(elements), _add_inputs),
            (_mul_program(elements), _mul_inputs),
        ]
        jobs = []
        for seed, (session, make_inputs) in enumerate(programs):
            rng = np.random.default_rng(61 + seed)
            requests = [make_inputs(rng, elements) for _ in range(count)]
            expected = [_digests(session.run(inputs).outputs) for inputs in requests]
            jobs.append((session, requests, expected))
        served: dict[int, list] = {}
        failures: list[BaseException] = []

        def _serve(index: int, pool: PlutoWorkerPool) -> None:
            session, requests, _ = jobs[index]
            try:
                served[index] = map_parallel(pool, session, requests)
            except BaseException as error:  # reported by the main thread
                failures.append(error)

        with PlutoWorkerPool(workers=2, chunk_size=32) as pool:
            assert pool.wait_ready(60.0)
            threads = [
                threading.Thread(target=_serve, args=(index, pool), daemon=True)
                for index in range(len(jobs))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120.0)
            assert not any(thread.is_alive() for thread in threads)
        assert not failures
        for index, (_, _, expected) in enumerate(jobs):
            results = served[index]
            assert [result.digests for result in results] == expected
            for result in results:
                assert result.digests == _digests(result.outputs)
        assert sorted(pool.stats.per_worker_served) == [count, count]

    def test_latency_percentiles_stream_into_pool_stats(self):
        session = _add_program()
        rng = np.random.default_rng(29)
        with PlutoWorkerPool(workers=1, chunk_size=4) as pool:
            map_parallel(
                pool, session, [_add_inputs(rng) for _ in range(8)],
                return_outputs=False,
            )
        latency = pool.stats.summary()["latency"]
        for name in ("queue_wait", "execute", "end_to_end"):
            quantiles = latency[name]
            assert quantiles["count"] == 8
            assert (
                0.0
                <= quantiles["p50_s"]
                <= quantiles["p95_s"]
                <= quantiles["p99_s"]
                <= quantiles["max_s"]
            )
        assert latency["end_to_end"]["mean_s"] > 0.0


class TestGracefulShutdown:
    def test_close_drains_queued_requests(self):
        """Requests accepted before close() complete, never hang or drop."""
        session = _add_program()
        rng = np.random.default_rng(31)
        pool = PlutoWorkerPool(workers=2, chunk_size=2)
        requests = [_add_inputs(rng) for _ in range(8)]
        futures = pool.submit_many(session, requests, return_outputs=True)
        pool.close()  # immediately: the stop sentinel rides behind them
        for inputs, future in zip(requests, futures):
            result = future.result(1.0)  # already resolved by close()
            assert np.array_equal(
                result.outputs["out"], inputs["a"] + inputs["b"]
            )

    def test_close_leaves_no_orphan_processes(self):
        session = _add_program()
        rng = np.random.default_rng(37)
        pool = PlutoWorkerPool(workers=2)
        pool.submit(session, _add_inputs(rng)).result(60.0)
        pool.close()
        assert all(not process.is_alive() for process in pool._processes)
        pool.close()  # idempotent

    def test_submit_after_close_raises_closed(self):
        session = _add_program()
        rng = np.random.default_rng(41)
        pool = PlutoWorkerPool(workers=1)
        pool.close()
        with pytest.raises(ServiceClosedError):
            pool.submit(session, _add_inputs(rng))

    @pytest.mark.parametrize("warm_started", [False, True], ids=["cold", "warm-started"])
    def test_workers_report_final_statistics_at_close(self, warm_started, tmp_path):
        """A warm-started worker primes its programs outside the
        service's accounting: only the real request is counted."""
        from repro.serve.store import SharedArtifactStore

        session = _add_program()
        rng = np.random.default_rng(43)
        store_path = None
        if warm_started:
            store_path = str(tmp_path / "store")
            SharedArtifactStore(store_path).export(session.calls)
        with PlutoWorkerPool(workers=1, store_path=store_path) as pool:
            pool.submit(session, _add_inputs(rng)).result(60.0)
        if warm_started:
            assert pool.warm_reports[0]["installed"] == 1
        report = pool.worker_reports[0]
        assert report["programs"] == 1
        assert report["service"]["served"] == 1
        assert report["service"]["latency"]["end_to_end"]["count"] == 1
        assert "programs" in report["cache_stats"]

    def test_workers_export_what_they_serve(self, tmp_path):
        from repro.serve.store import SharedArtifactStore

        session = _add_program()
        rng = np.random.default_rng(53)
        store_path = str(tmp_path / "store")
        with PlutoWorkerPool(workers=1, store_path=store_path) as pool:
            expected = pool.submit(session, _add_inputs(rng)).result(60.0)
        assert pool.warm_reports[0]["entries"] == 0
        assert len(SharedArtifactStore(store_path)) == 1
        with PlutoWorkerPool(workers=1, store_path=store_path) as pool:
            assert pool.wait_ready(60.0)
            assert pool.warm_reports[0]["installed"] == 1
            served = pool.submit(session, _add_inputs(np.random.default_rng(53))).result(60.0)
        assert served.digests == expected.digests

    def test_crashed_worker_fails_its_requests_not_the_pool(self):
        session = _add_program()
        rng = np.random.default_rng(47)
        pool = PlutoWorkerPool(workers=1)
        try:
            pool.submit(session, _add_inputs(rng)).result(60.0)
            pool._processes[0].kill()
            deadline = time.monotonic() + 10.0
            while 0 not in pool._dead and time.monotonic() < deadline:
                time.sleep(0.05)
            assert 0 in pool._dead
            with pytest.raises(WorkerCrashedError):
                pool.submit(session, _add_inputs(rng))
        finally:
            pool.close(timeout=10.0)
        assert all(not process.is_alive() for process in pool._processes)

    def test_dead_worker_is_noticed_while_another_keeps_answering(self):
        """A worker's exit is noticed when it happens, even while a steady
        stream of results from another worker keeps the collector busy."""
        adds, muls = _add_program(), _mul_program()
        pool = PlutoWorkerPool(workers=2)
        stop = threading.Event()
        failures: list[BaseException] = []

        def _steady_adds() -> None:
            rng = np.random.default_rng(67)
            try:
                while not stop.is_set():
                    pool.submit(adds, _add_inputs(rng)).result(10.0)
                    time.sleep(0.02)
            except BaseException as error:  # reported by the main thread
                failures.append(error)

        traffic = threading.Thread(target=_steady_adds, daemon=True)
        try:
            rng = np.random.default_rng(71)
            pool.submit(adds, _add_inputs(rng)).result(60.0)
            pool.submit(muls, _mul_inputs(rng)).result(60.0)
            # Least-programs routing put the second program on worker 1.
            assert pool.stats.per_worker_served == [1, 1]
            traffic.start()
            pool._processes[1].kill()
            time.sleep(0.5)
            with pytest.raises(WorkerCrashedError):
                pool.submit(muls, _mul_inputs(rng)).result(2.0)
        finally:
            stop.set()
            if traffic.is_alive():
                traffic.join(10.0)
            pool.close(timeout=10.0)
        assert not traffic.is_alive()
        assert not failures
        assert pool._dead == {1}
