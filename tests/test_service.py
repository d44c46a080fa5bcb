"""Tests for the async serving frontend (api/service.py)."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.api import PlutoSession, PlutoService
from repro.api.session import cache_stats, clear_all_caches
from repro.controller.dispatch import ShardedExecutionResult
from repro.core.engine import PlutoConfig, PlutoEngine
from repro.errors import (
    ConfigurationError,
    ServiceClosedError,
    ServiceOverloadError,
    VerificationError,
)
from repro.obs.trace import tracing
from repro.plan import ExecutionPlan

ELEMENTS = 512


def _add_program() -> PlutoSession:
    session = PlutoSession()
    a = session.pluto_malloc(ELEMENTS, 4, "a")
    b = session.pluto_malloc(ELEMENTS, 4, "b")
    out = session.pluto_malloc(ELEMENTS, 8, "out")
    session.api_pluto_add(a, b, out, bit_width=4)
    return session


def _mul_program() -> PlutoSession:
    session = PlutoSession()
    a = session.pluto_malloc(ELEMENTS, 2, "a")
    b = session.pluto_malloc(ELEMENTS, 2, "b")
    out = session.pluto_malloc(ELEMENTS, 4, "out")
    session.api_pluto_mul(a, b, out, bit_width=2)
    return session


def _add_inputs(rng: np.random.Generator) -> dict[str, np.ndarray]:
    return {
        "a": rng.integers(0, 16, ELEMENTS),
        "b": rng.integers(0, 16, ELEMENTS),
    }


def _mul_inputs(rng: np.random.Generator) -> dict[str, np.ndarray]:
    return {
        "a": rng.integers(0, 4, ELEMENTS),
        "b": rng.integers(0, 4, ELEMENTS),
    }


class TestServing:
    def test_serves_correct_outputs_with_accounting(self):
        async def main():
            session = _add_program()
            rng = np.random.default_rng(3)
            requests = [_add_inputs(rng) for _ in range(10)]
            async with session.serve(max_queue=4, max_batch=4) as service:
                results = await asyncio.gather(
                    *(service.submit(inputs) for inputs in requests)
                )
            for inputs, served in zip(requests, results):
                assert np.array_equal(
                    served.outputs["out"], inputs["a"] + inputs["b"]
                )
                assert served.latency_ns > 0
                assert served.energy_nj > 0
                assert served.queue_wait_s >= 0
                assert served.execute_s >= 0
                assert served.turnaround_s == pytest.approx(
                    served.queue_wait_s + served.execute_s
                )
                assert 1 <= served.batch_size <= 4
            assert [served.request_id for served in results] == list(range(10))
            stats = service.stats
            assert stats.served == 10
            assert stats.failed == 0
            assert stats.max_queue_depth <= 4
            assert stats.total_latency_ns == pytest.approx(
                sum(served.latency_ns for served in results)
            )

        asyncio.run(main())

    def test_coalesces_structurally_identical_requests(self):
        async def main():
            session = _add_program()
            rng = np.random.default_rng(5)
            async with session.serve(max_queue=16, max_batch=8) as service:
                results = await asyncio.gather(
                    *(service.submit(_add_inputs(rng)) for _ in range(8))
                )
                assert service.stats.coalesced > 0
                assert any(served.batch_size > 1 for served in results)
            assert service.stats.mean_batch_size > 1.0

        asyncio.run(main())

    def test_fused_batch_falls_back_on_individual_errors(self):
        """A poisoned request fails alone; its batch mates still serve."""

        async def main():
            session = _add_program()
            rng = np.random.default_rng(13)
            good = [_add_inputs(rng) for _ in range(3)]
            bad = {
                "a": np.full(ELEMENTS, 99, dtype=np.uint64),  # > 4 bits
                "b": rng.integers(0, 16, ELEMENTS),
            }
            async with session.serve(max_queue=16, max_batch=8) as service:
                jobs = [
                    asyncio.ensure_future(service.submit(inputs))
                    for inputs in (good[0], bad, good[1], good[2])
                ]
                results = await asyncio.gather(*jobs, return_exceptions=True)
            assert isinstance(results[1], Exception)
            for inputs, served in zip(
                (good[0], None, good[1], good[2]), results
            ):
                if inputs is not None:
                    assert np.array_equal(
                        served.outputs["out"], inputs["a"] + inputs["b"]
                    )
            assert service.stats.failed == 1
            assert service.stats.served == 3

        asyncio.run(main())

    def test_repeat_requests_report_memo_hits(self):
        """cache_stats() shows the memo layers warming up."""

        async def main():
            session = _add_program()
            rng = np.random.default_rng(17)
            async with session.serve(max_queue=16, max_batch=4) as service:
                await asyncio.gather(
                    *(service.submit(_add_inputs(rng)) for _ in range(6))
                )
                stats = cache_stats()
            assert stats["programs"]["size"] >= 1
            assert set(stats) >= {"scheduler_merges", "trace_templates"}

        asyncio.run(main())

    def test_mixed_programs_split_batches(self):
        async def main():
            add, mul = _add_program(), _mul_program()
            rng = np.random.default_rng(7)
            mul_inputs = {
                "a": rng.integers(0, 4, ELEMENTS),
                "b": rng.integers(0, 4, ELEMENTS),
            }
            async with add.serve(max_queue=16, max_batch=8) as service:
                jobs = []
                for index in range(6):
                    if index % 2:
                        jobs.append(service.submit(mul_inputs, session=mul))
                    else:
                        jobs.append(service.submit(_add_inputs(rng)))
                results = await asyncio.gather(*jobs)
            for index, served in enumerate(results):
                if index % 2:
                    assert np.array_equal(
                        served.outputs["out"], mul_inputs["a"] * mul_inputs["b"]
                    )
            # Alternating shapes cannot coalesce across the boundary.
            assert service.stats.batches >= 2

        asyncio.run(main())

    def test_submit_nowait_sheds_load(self):
        async def main():
            session = _add_program()
            rng = np.random.default_rng(9)
            async with session.serve(max_queue=1, max_batch=1) as service:
                futures, rejected = [], 0
                for _ in range(6):
                    try:
                        futures.append(service.submit_nowait(_add_inputs(rng)))
                    except ServiceOverloadError:
                        rejected += 1
                await asyncio.gather(*futures)
                assert rejected > 0
                assert service.stats.rejected == rejected
                assert service.stats.served == len(futures)

        asyncio.run(main())

    def test_closed_service_rejects_submissions(self):
        async def main():
            session = _add_program()
            service = session.serve()
            with pytest.raises(ServiceClosedError):
                await service.submit(_add_inputs(np.random.default_rng(1)))
            async with service:
                assert service.running
            assert not service.running
            with pytest.raises(ServiceClosedError):
                await service.submit(_add_inputs(np.random.default_rng(1)))

        asyncio.run(main())

    def test_execution_errors_surface_on_the_caller(self):
        async def main():
            session = _add_program()
            rng = np.random.default_rng(13)
            async with session.serve() as service:
                with pytest.raises(Exception):
                    await service.submit({"a": np.zeros(7), "b": np.zeros(7)})
                assert service.stats.failed == 1
                # The service keeps serving after a failed request.
                served = await service.submit(_add_inputs(rng))
                assert served.latency_ns > 0

        asyncio.run(main())

    def test_hierarchical_service(self):
        async def main():
            session = _add_program()
            rng = np.random.default_rng(17)
            engine = PlutoEngine(
                PlutoConfig(tfaw_fraction=1.0, channels=2, ranks=2)
            )
            inputs = _add_inputs(rng)
            async with session.serve(
                engine=engine, plan=ExecutionPlan(shards=8, channels=None, ranks=None)
            ) as service:
                served = await service.submit(inputs)
            assert isinstance(served.result, ShardedExecutionResult)
            assert served.result.num_shards == 8
            assert np.array_equal(
                served.outputs["out"], inputs["a"] + inputs["b"]
            )
            assert served.latency_ns == served.result.makespan_ns

        asyncio.run(main())

    def test_session_override_keeps_its_backend(self):
        """A request's overriding session runs on *that* session's backend."""

        async def main():
            vectorized = _add_program()
            functional = _add_program()
            functional.backend = "functional"
            rng = np.random.default_rng(29)
            inputs = _add_inputs(rng)
            async with vectorized.serve() as service:
                fast = await service.submit(inputs)
                slow = await service.submit(inputs, session=functional)
            assert fast.backend == "vectorized"
            assert slow.backend == "functional"
            assert np.array_equal(fast.outputs["out"], slow.outputs["out"])
            assert fast.latency_ns == pytest.approx(slow.latency_ns)

        asyncio.run(main())

    def test_worker_crash_resolves_all_pending_futures(self):
        """A dead worker must not leave submitters awaiting forever."""

        async def main():
            session = _add_program()
            rng = np.random.default_rng(19)
            service = session.serve(max_queue=8, max_batch=2)
            async with service:
                def boom(*args):
                    raise RuntimeError("worker loop crashed")

                service._execute_batch = boom
                futures = [
                    service.submit_nowait(_add_inputs(rng)) for _ in range(4)
                ]
                # close() drains: every future must resolve (with the
                # crash or ServiceClosedError), never hang.
                done, pending = await asyncio.wait(futures, timeout=5.0)
                assert not pending
            for future in futures:
                with pytest.raises((RuntimeError, ServiceClosedError)):
                    future.result()
            assert service.stats.failed == 4
            assert service.stats.served == 0

        asyncio.run(main())

    def test_turnaround_covers_intra_batch_wait(self):
        """Later requests of a batch count earlier executions as queueing."""

        async def main():
            session = _add_program()
            rng = np.random.default_rng(23)
            async with session.serve(max_queue=8, max_batch=8) as service:
                results = await asyncio.gather(
                    *(service.submit(_add_inputs(rng)) for _ in range(6))
                )
            coalesced = [s for s in results if s.batch_size > 1]
            assert coalesced, "expected at least one coalesced batch"
            # Within one batch, queue_wait grows with position: request
            # i waits for requests 0..i-1 of its own batch.
            by_batch: dict[float, list] = {}
            for served in results:
                by_batch.setdefault(served.batch_size, []).append(served)
            for served in results:
                assert served.queue_wait_s >= 0
                assert served.turnaround_s >= served.execute_s

        asyncio.run(main())

    def test_rejects_bad_bounds(self):
        session = _add_program()
        with pytest.raises(ConfigurationError):
            PlutoService(session, max_queue=0)
        with pytest.raises(ConfigurationError):
            PlutoService(session, max_batch=-1)

    def test_streaming_percentiles_cover_every_request(self):
        async def main():
            session = _add_program()
            rng = np.random.default_rng(61)
            async with session.serve(max_queue=16, max_batch=4) as service:
                await asyncio.gather(
                    *(service.submit(_add_inputs(rng)) for _ in range(12))
                )
            summary = service.stats.summary()
            assert summary["served"] == 12
            latency = summary["latency"]
            for name in ("queue_wait", "execute", "end_to_end"):
                quantiles = latency[name]
                assert quantiles["count"] == 12
                assert (
                    0.0
                    <= quantiles["p50_s"]
                    <= quantiles["p95_s"]
                    <= quantiles["p99_s"]
                    <= quantiles["max_s"]
                )
            assert latency["end_to_end"]["mean_s"] >= (
                latency["execute"]["mean_s"]
            )

        asyncio.run(main())

    def test_submit_many_preserves_order_and_outputs(self):
        async def main():
            session = _add_program()
            rng = np.random.default_rng(67)
            requests = [_add_inputs(rng) for _ in range(6)]
            async with session.serve(max_queue=16, max_batch=4) as service:
                results = await service.submit_many(requests)
            assert [served.request_id for served in results] == list(range(6))
            for inputs, served in zip(requests, results):
                assert np.array_equal(
                    served.outputs["out"], inputs["a"] + inputs["b"]
                )

        asyncio.run(main())

    def test_submit_many_surfaces_the_first_failure(self):
        async def main():
            session = _add_program()
            rng = np.random.default_rng(71)
            bad = {"a": rng.integers(0, 16, 8)}  # wrong size, missing b
            async with session.serve(max_queue=16, max_batch=4) as service:
                with pytest.raises(Exception):
                    await service.submit_many(
                        [_add_inputs(rng), bad, _add_inputs(rng)]
                    )
                # the good batch mates still served
                assert service.stats.served == 2

        asyncio.run(main())


class TestRequestCore:
    """The async loop and ``serve_chunk`` serve through one request core."""

    def test_both_serving_paths_batch_and_serve_alike(self):
        """``A A A A A B B A`` with a poisoned second request, through
        gathered submits and through ``serve_chunk``.  A chunk carries one
        program (as the pool sends it), so the sequence goes down as one
        chunk per run of equal programs."""
        add, mul = _add_program(), _mul_program()
        rng = np.random.default_rng(37)
        sequence = [(add, _add_inputs(rng)) for _ in range(5)]
        sequence += [(mul, _mul_inputs(rng)) for _ in range(2)]
        sequence += [(add, _add_inputs(rng))]
        # More than 4 bits: fails the fused pass, then fails alone.
        sequence[1][1]["a"] = np.full(ELEMENTS, 99)

        async def gathered():
            async with PlutoService(add, max_queue=8, max_batch=4) as service:
                outcomes = await asyncio.gather(
                    *(service.submit(inputs, session=owner) for owner, inputs in sequence),
                    return_exceptions=True,
                )
            return service, outcomes

        submitted, by_submit = asyncio.run(gathered())
        chunked = PlutoService(add, max_queue=8, max_batch=4)
        by_chunk = []
        for first, last in ((0, 5), (5, 7), (7, 8)):
            owner = sequence[first][0]
            by_chunk += chunked.serve_chunk(owner, [inputs for _, inputs in sequence[first:last]])

        sizes = []
        for index, (left, right) in enumerate(zip(by_submit, by_chunk)):
            if index == 1:
                assert isinstance(left, Exception) and type(left) is type(right)
                assert str(left) == str(right)
                continue
            sizes.append(left.batch_size)
            assert left.batch_size == right.batch_size, index
            assert left.latency_ns == right.latency_ns, index
            assert left.energy_nj == right.energy_nj, index
            assert np.array_equal(left.outputs["out"], right.outputs["out"]), index
        assert sizes == [4, 4, 4, 1, 2, 2, 1]
        for name in ("served", "failed", "batches", "coalesced"):
            assert getattr(submitted.stats, name) == getattr(chunked.stats, name), name
        assert (submitted.stats.served, submitted.stats.failed) == (7, 1)
        assert (submitted.stats.batches, submitted.stats.coalesced) == (4, 4)

    def test_loop_crash_in_a_later_batch_strands_no_request(self):
        """The batch that ran keeps its results; every other request
        fails with the crash or ``ServiceClosedError``, counted once."""

        async def main():
            add, mul = _add_program(), _mul_program()
            rng = np.random.default_rng(41)
            service = add.serve(max_queue=8, max_batch=4)
            async with service:
                execute = service._execute_batch
                batches = []

                def crash_on_second(batch, *args):
                    batches.append(len(batch))
                    if len(batches) == 2:
                        raise RuntimeError("worker loop crashed")
                    execute(batch, *args)

                service._execute_batch = crash_on_second
                requests = [_add_inputs(rng) for _ in range(2)]
                futures = [service.submit_nowait(inputs) for inputs in requests]
                futures += [
                    service.submit_nowait(_mul_inputs(rng), session=mul) for _ in range(2)
                ]
                futures += [service.submit_nowait(_add_inputs(rng)) for _ in range(2)]
                done, pending = await asyncio.wait(futures, timeout=5.0)
                assert not pending
            assert batches == [2, 2]
            for inputs, future in zip(requests, futures):
                assert np.array_equal(
                    future.result().outputs["out"], inputs["a"] + inputs["b"]
                )
            for future in futures[2:]:
                with pytest.raises((RuntimeError, ServiceClosedError)):
                    future.result()
            assert service.stats.served == 2
            assert service.stats.served + service.stats.failed == len(futures)

        asyncio.run(main())


def _chain_program() -> PlutoSession:
    """A fusible two-query LUT chain (the optimizer halves its sweeps)."""
    from repro.api import binarize_lut, color_grade_lut

    session = PlutoSession()
    px = session.pluto_malloc(ELEMENTS, 8, "px")
    a = session.pluto_malloc(ELEMENTS, 8, "a")
    out = session.pluto_malloc(ELEMENTS, 8, "out")
    session.api_pluto_map(color_grade_lut(), px, a)
    session.api_pluto_map(binarize_lut(127), a, out)
    return session


def _chain_inputs(rng: np.random.Generator) -> dict[str, np.ndarray]:
    return {"px": rng.integers(0, 256, ELEMENTS)}


class TestOptimizedServing:
    def test_optimized_requests_serve_identical_outputs(self):
        async def main():
            session = _chain_program()
            rng = np.random.default_rng(41)
            requests = [_chain_inputs(rng) for _ in range(6)]
            async with session.serve(max_queue=16, max_batch=8) as plain_service:
                plain = await asyncio.gather(
                    *(plain_service.submit(inputs) for inputs in requests)
                )
            async with session.serve(
                max_queue=16, max_batch=8, plan=ExecutionPlan(optimize=True)
            ) as service:
                optimized = await asyncio.gather(
                    *(service.submit(inputs) for inputs in requests)
                )
            for before, after in zip(plain, optimized):
                assert np.array_equal(before.outputs["out"], after.outputs["out"])
                assert after.optimization is not None
                assert after.optimization.lut_queries_saved == 1
                assert after.result.lut_queries < before.result.lut_queries
            stats = service.stats
            assert stats.optimized == 6
            assert stats.optimizer_lut_queries_saved == 6
            assert stats.optimizer_swept_rows_saved == 6 * 256

        asyncio.run(main())

    def test_optimized_requests_coalesce_on_post_optimization_key(self):
        async def main():
            session = _chain_program()
            rng = np.random.default_rng(43)
            async with session.serve(
                max_queue=16, max_batch=8, plan=ExecutionPlan(optimize=True)
            ) as service:
                results = await asyncio.gather(
                    *(service.submit(_chain_inputs(rng)) for _ in range(8))
                )
                assert any(served.batch_size > 1 for served in results)
                assert service.stats.coalesced > 0

        asyncio.run(main())

    def test_optimized_and_unoptimized_do_not_cross_coalesce(self):
        """Regression: the same recording, optimized and not, never shares
        a batch — even when the optimizer leaves the program unchanged
        (identical post-optimization structure key)."""

        async def main():
            session = _add_program()  # single call: optimization is a no-op
            rng = np.random.default_rng(47)
            async with session.serve(max_queue=16, max_batch=8) as service:
                futures = [
                    service.submit_nowait(
                        _add_inputs(rng), plan=ExecutionPlan(optimize=True)
                    )
                    for _ in range(3)
                ]
                futures += [
                    service.submit_nowait(
                        _add_inputs(rng), plan=ExecutionPlan(optimize=False)
                    )
                    for _ in range(3)
                ]
                results = await asyncio.gather(*futures)
            for index, served in enumerate(results):
                assert served.batch_size <= 3
                assert (served.optimization is not None) == (index < 3)
            # The six consecutive requests split on the optimized flag.
            assert service.stats.batches >= 2
            assert service.stats.optimized == 3

        asyncio.run(main())

    def test_unhashable_structure_requests_run_alone(self):
        """The unified ``None`` sentinel: unhashable programs never coalesce."""

        async def main():
            session = _add_program()
            # A list-valued parameter makes the structure key unhashable.
            session.calls[0].parameters["taps"] = [1, 2, 3]
            rng = np.random.default_rng(53)
            async with session.serve(max_queue=16, max_batch=8) as service:
                results = await asyncio.gather(
                    *(service.submit(_add_inputs(rng)) for _ in range(4))
                )
            assert all(served.batch_size == 1 for served in results)
            assert service.stats.coalesced == 0
            assert service.stats.served == 4

        asyncio.run(main())


def _shift_program() -> tuple[PlutoSession, dict[str, np.ndarray]]:
    session = PlutoSession()
    a = session.pluto_malloc(ELEMENTS, 8, "a")
    out = session.pluto_malloc(ELEMENTS, 8, "out")
    session.api_pluto_shift(a, out, bits=1, direction="l")
    return session, {"a": np.random.default_rng(17).integers(0, 256, ELEMENTS)}


class TestWarmEntryReuse:
    """The service takes a request's program from the submitting
    session's warm entry while the entry is valid for it."""

    def test_unverified_warm_entry_never_serves_a_verified_request(self):
        session, inputs = _shift_program()
        session.calls[0].parameters["direction"] = "x"  # after recording
        session.run(inputs)  # unverified: accepted, leaves a warm entry
        assert session._warm

        async def main():
            async with session.serve(verify=True) as service:
                await service.submit(inputs)

        with pytest.raises(VerificationError, match="shift-direction"):
            asyncio.run(main())

    def test_verifying_request_on_an_unverified_artifact_plans_nothing(self):
        """It verifies the artifact's calls once and keeps it as verified."""
        clear_all_caches()
        session, inputs = _shift_program()
        expected = session.run(inputs, plan="auto")  # default engine: no verification
        service = PlutoService(session, plan="auto", verify=True)
        with tracing():
            [served] = service.serve_chunk(None, [inputs])
        spans = served.request_trace.spans
        assert [span.name for span in spans] == ["submit", "queue_wait", "execute"]
        assert [span.name for span in spans[0].children] == ["verify"]
        stats = cache_stats()["artifacts"]
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert np.array_equal(served.outputs["out"], expected.outputs["out"])

    def test_repeat_request_prepares_nothing(self):
        async def main():
            session, inputs = _shift_program()
            async with session.serve() as service:
                first = await service.submit(inputs)
                before = cache_stats()
                second = await service.submit(inputs)
                after = cache_stats()
            return first, second, before, after

        first, second, before, after = asyncio.run(main())
        for layer in ("artifacts", "programs", "optimizer", "verifier"):
            assert after[layer] == before[layer], layer
        assert np.array_equal(first.outputs["out"], second.outputs["out"])

    @pytest.mark.parametrize("change", ["parameter mutation", "clear_all_caches"])
    def test_invalidating_change_prepares_again(self, change):
        async def main():
            session, inputs = _shift_program()
            async with session.serve() as service:
                first = await service.submit(inputs)
                if change == "parameter mutation":
                    session.calls[0].parameters["bits"] = 3
                else:
                    clear_all_caches()
                misses = cache_stats()["artifacts"]["misses"]
                second = await service.submit(inputs)
                assert cache_stats()["artifacts"]["misses"] == misses + 1
            return session, inputs, first, second

        session, inputs, first, second = asyncio.run(main())
        fresh = PlutoSession(vectors=list(session.vectors), calls=list(session.calls))
        reference = fresh.run(inputs)
        assert np.array_equal(second.outputs["out"], reference.outputs["out"])
        assert second.latency_ns == reference.latency_ns
        assert second.energy_nj == reference.energy_nj
        if change == "parameter mutation":
            assert not np.array_equal(second.outputs["out"], first.outputs["out"])
