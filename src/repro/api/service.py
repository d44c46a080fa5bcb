"""Async serving frontend for pLUTo programs.

The ROADMAP's north star is a system that serves heavy traffic, not a
one-shot script, so this module puts an :mod:`asyncio` service above the
execution stack:

* a **bounded request queue** — :meth:`PlutoService.submit` applies
  backpressure by awaiting a queue slot, and
  :meth:`PlutoService.submit_nowait` raises
  :class:`~repro.errors.ServiceOverloadError` immediately when the queue
  is full, so callers can shed load instead of buffering without bound;
* **compiled-program cache reuse** — requests compile through the
  process-wide structure-keyed cache (:func:`repro.api.session.compile_cached`),
  so a million structurally identical requests compile once;
* **batch coalescing** — the worker drains the queue and groups
  consecutive requests with the same program structure into one batch
  executed on one warm controller (shared backend LUT gather arrays);
* **per-request latency accounting** — every :class:`ServedResult` carries
  the wall-clock queue wait and execution time next to the modelled DRAM
  latency of its program;
* **warm memo caches** — repeat requests hit the process-wide compiled
  program, trace-template, and scheduler-makespan memos (hierarchical
  requests re-merge nothing), and
  :meth:`ServiceStats.cache_stats` reports their effectiveness;
* **program optimization** — with ``optimize=True`` every request runs
  through the pass pipeline of :mod:`repro.opt` (memoized on program
  structure) before compilation, and batches coalesce on the
  *post-optimization* structure key, so all downstream memo layers work
  on the rewritten, cheaper program.

How each request executes is governed by one
:class:`~repro.plan.ExecutionPlan` (the service-wide ``plan=``): the plain
controller for unsharded plans, the bank-parallel
:class:`~repro.controller.dispatch.ParallelDispatcher` for sharded plans,
or the :class:`~repro.controller.hierarchy.HierarchicalDispatcher` for
hierarchical plans.  With ``plan="auto"`` the cost-based planner
(:func:`repro.plan.plan_program`) prices the candidate configurations per
distinct request structure — memoized, so a coalesced batch plans once —
and each :class:`ServedResult` carries the chosen plan and its
:class:`~repro.plan.PlannerReport`.
"""

from __future__ import annotations

import asyncio
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.api.session import _LEGACY_UNSET
from repro.errors import ServiceClosedError, ServiceOverloadError
from repro.obs.metrics import record_served_request, request_accounting
from repro.obs.trace import (
    RequestTrace,
    Span,
    activate,
    deactivate,
    new_trace,
    span_of,
)
from repro.serve.stats import LatencyBreakdown

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.api.session import PlutoSession
    from repro.controller.executor import ExecutionResult
    from repro.core.engine import PlutoEngine
    from repro.opt.report import OptimizationReport
    from repro.plan.execution_plan import ExecutionPlan
    from repro.plan.planner import PlannerReport

__all__ = ["PlutoService", "ServedResult", "ServiceStats"]


@dataclass
class ServedResult:
    """One served request: outputs plus latency accounting."""

    request_id: int
    outputs: dict[str, np.ndarray]
    #: Modelled DRAM latency of the program (makespan when hierarchical).
    latency_ns: float
    #: Modelled DRAM energy of the program.
    energy_nj: float
    #: Wall-clock seconds spent queued before execution started.
    queue_wait_s: float
    #: Wall-clock seconds spent executing.
    execute_s: float
    #: Number of requests coalesced into the batch this one ran in.
    batch_size: int
    #: Execution backend that produced the outputs.
    backend: str
    #: The full execution result (trace, registers, per-shard results).
    result: "ExecutionResult"
    #: Program-optimizer report for this request (None when unoptimized).
    optimization: "OptimizationReport | None" = None
    #: The concrete plan this request executed under.
    execution_plan: "ExecutionPlan | None" = None
    #: Planner report when the plan came from ``plan="auto"``.
    planner: "PlannerReport | None" = None
    #: Span tree of this request's trip through the stack
    #: (``None`` unless :func:`repro.obs.enable_tracing` is on).
    request_trace: "RequestTrace | None" = None

    @property
    def turnaround_s(self) -> float:
        """Wall-clock seconds from submission to completion."""
        return self.queue_wait_s + self.execute_s


@dataclass
class ServiceStats:
    """Aggregate counters over the lifetime of one service."""

    served: int = 0
    failed: int = 0
    rejected: int = 0
    batches: int = 0
    coalesced: int = 0
    max_queue_depth: int = 0
    total_queue_wait_s: float = 0.0
    total_execute_s: float = 0.0
    total_latency_ns: float = 0.0
    #: Requests run through the program optimizer before compilation.
    optimized: int = 0
    #: Optimizer savings summed over every optimized request
    #: (:meth:`repro.opt.report.OptimizationReport.counters`).
    optimizer_ops_saved: int = 0
    optimizer_lut_queries_saved: int = 0
    optimizer_swept_rows_saved: int = 0
    optimizer_lut_loads_saved: int = 0
    #: Streaming latency distributions (queue wait, execute, end-to-end):
    #: mergeable log-bucketed histograms, so p50/p95/p99 are available at
    #: any point in the service's life and worker-pool dispatchers can
    #: fold per-worker stats into pool-wide percentiles.
    latency: LatencyBreakdown = field(default_factory=LatencyBreakdown)

    def summary(self) -> dict:
        """Counters plus p50/p95/p99 latency percentiles (picklable).

        The reporting shape of the serving tier: every counter of this
        dataclass, with the three latency distributions rendered as
        :meth:`~repro.serve.stats.LatencyHistogram.summary` snapshots.
        """
        return {
            "served": self.served,
            "failed": self.failed,
            "rejected": self.rejected,
            "batches": self.batches,
            "coalesced": self.coalesced,
            "max_queue_depth": self.max_queue_depth,
            "mean_queue_wait_s": self.mean_queue_wait_s,
            "mean_batch_size": self.mean_batch_size,
            "total_latency_ns": self.total_latency_ns,
            "optimized": self.optimized,
            "latency": self.latency.summary(),
        }

    @property
    def mean_queue_wait_s(self) -> float:
        """Average wall-clock queue wait per served request."""
        return self.total_queue_wait_s / self.served if self.served else 0.0

    @property
    def mean_batch_size(self) -> float:
        """Average number of requests executed per coalesced batch."""
        return self.served / self.batches if self.batches else 0.0

    @staticmethod
    def cache_stats() -> dict[str, dict]:
        """Memo effectiveness of the execution stack serving the requests.

        A snapshot of the process-wide caches (compiled programs, trace
        templates, scheduler makespan memo, hierarchical schedules,
        per-engine helpers, LUT gather arrays) — repeat requests for the
        same program structure should show the hit counters climbing
        while the miss counters stay put.
        """
        from repro.api.session import cache_stats

        return cache_stats()


@dataclass
class _PendingRequest:
    request_id: int
    calls: list
    inputs: dict[str, np.ndarray]
    #: Backend selection of the session this request came from.
    backend: object
    enqueued_at: float
    future: "asyncio.Future[ServedResult]"
    #: Structure key of ``calls`` (post-optimization when optimized);
    #: ``None`` is the single unhashable-structure sentinel, used both to
    #: keep such requests out of coalesced batches and to skip the
    #: structure-keyed memo layers.
    structure_key: tuple | None = field(default=None)
    #: Whether ``calls`` went through the program optimizer.
    optimized: bool = False
    #: The optimizer's report for this request, when optimized.
    optimization: "OptimizationReport | None" = None
    #: The concrete plan this request executes under (auto plans are
    #: resolved by the planner at submission time).
    plan: "ExecutionPlan | None" = None
    #: Planner report when the service plans automatically.
    planner: "PlannerReport | None" = None
    #: Request trace collecting per-stage spans (``None`` when tracing is off).
    trace: "RequestTrace | None" = None

    @property
    def backend_key(self) -> object:
        """Hashable identity of the backend (names share, instances don't)."""
        return self.backend if isinstance(self.backend, str) else id(self.backend)

    @property
    def coalesce_key(self) -> object:
        """Batch identity: requests coalesce iff these keys are equal.

        Optimized requests carry their *post-optimization* structure key,
        and the concrete :class:`~repro.plan.ExecutionPlan` is part of
        the key, so requests only share a batch when they run the same
        program the same way (an optimized and an unoptimized recording
        of the same program never coalesce).  Requests with unhashable
        structure get an identity key and run alone.
        """
        if self.structure_key is None:
            return (id(self),)
        return (self.structure_key, self.backend_key, self.plan)


class PlutoService:
    """An asyncio frontend that serves pLUTo programs from a queue.

    ``session`` fixes the default program every request runs (requests may
    override it by passing their own session to :meth:`submit`).  Use as an
    async context manager::

        async with session.serve(max_queue=128) as service:
            results = await asyncio.gather(
                *(service.submit(inputs) for inputs in request_stream)
            )

    ``max_queue`` bounds the number of queued requests (backpressure);
    ``max_batch`` caps how many structurally identical requests one batch
    coalesces.  ``plan`` is the service-wide
    :class:`~repro.plan.ExecutionPlan` (or ``"auto"``) every request
    executes under — sharding, hierarchy placement, optimizer, and
    execution tier, exactly as in :meth:`PlutoSession.run`; with
    ``"auto"`` the cost-based planner resolves a concrete plan per
    distinct request structure (memoized, so one planning pass serves a
    whole coalesced batch).  A plan with ``optimize=True`` runs every
    request's program through the optimizer (:mod:`repro.opt`) before
    compilation — memoized on program structure, with the batch
    coalescing then keyed on the *post-optimization* structure so the
    compile, trace-template, and makespan caches all hit on the
    rewritten program.  The deprecated ``hierarchical=`` / ``shards=`` /
    ``optimize=`` keywords build the equivalent plan with a
    ``DeprecationWarning``.
    ``verify=True`` (the default) statically verifies every request's
    program at submission and rejects malformed ones with
    :class:`~repro.errors.VerificationError` carrying the structured
    diagnostics — *before* the request takes a queue slot, so a bad
    program cannot crash the warm worker loop.  Verification reports
    are memoized on the program structure key, so repeated request
    shapes cost one dict hit.
    """

    def __init__(
        self,
        session: "PlutoSession",
        *,
        engine: "PlutoEngine | None" = None,
        max_queue: int = 64,
        max_batch: int = 16,
        plan: "ExecutionPlan | str | None" = None,
        hierarchical: object = _LEGACY_UNSET,
        shards: object = _LEGACY_UNSET,
        optimize: object = _LEGACY_UNSET,
        verify: bool = True,
    ) -> None:
        from repro.errors import ConfigurationError
        from repro.plan.execution_plan import ExecutionPlan, resolve_plan

        if max_queue <= 0:
            raise ConfigurationError("max_queue must be positive")
        if max_batch <= 0:
            raise ConfigurationError("max_batch must be positive")
        legacy: dict[str, object] = {}
        if hierarchical is not _LEGACY_UNSET:
            legacy["hierarchical"] = hierarchical
        if shards is not _LEGACY_UNSET:
            legacy["shards"] = shards
        if optimize is not _LEGACY_UNSET:
            legacy["optimize"] = optimize
        if legacy:
            if plan is not None:
                raise ConfigurationError(
                    "PlutoService got both plan= and the deprecated "
                    f"{sorted(legacy)} keyword(s); pass only plan="
                )
            names = ", ".join(f"{name}=" for name in sorted(legacy))
            warnings.warn(
                f"PlutoService({names}) is deprecated; pass "
                "plan=ExecutionPlan(...) (or plan='auto') instead",
                DeprecationWarning,
                stacklevel=3,
            )
            wants_hierarchy = bool(legacy.get("hierarchical", False))
            plan = ExecutionPlan(
                hierarchical=wants_hierarchy,
                # The legacy shards= knob only ever applied to
                # hierarchical dispatch; plain services ignored it.
                shards=legacy.get("shards") if wants_hierarchy else None,  # type: ignore[arg-type]
                optimize=legacy.get("optimize"),  # type: ignore[arg-type]
            )
        if plan is None and engine is not None:
            plan = engine.config.plan
        self.session = session
        self.engine = engine
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.plan = resolve_plan(plan)
        self.verify = verify
        self.stats = ServiceStats()
        self._queue: asyncio.Queue[_PendingRequest] | None = None
        self._worker: asyncio.Task | None = None
        #: A drained-but-unprocessed request: the first one whose program
        #: structure did not match its batch leader's.  It leads the next
        #: batch (arrival order is preserved).
        self._pending: _PendingRequest | None = None
        self._next_id = 0
        #: Warm executors, keyed on backend selection plus the plan
        #: facets that shape the executor (tier, placement).
        self._controllers: dict[object, object] = {}
        self._dispatchers: dict[object, object] = {}
        #: Structure keys this service has already verified: repeat shapes
        #: skip the per-request verify span (the memoized check itself still
        #: runs), keeping the traced hot path under the overhead gate.
        self._verified_keys: set = set()
        #: Coalesce wall-clock of the batch currently being executed,
        #: stashed by the worker loop for the coalesce span.
        self._coalesce_ns = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def running(self) -> bool:
        """Whether the worker loop is accepting requests."""
        return self._worker is not None and not self._worker.done()

    async def __aenter__(self) -> "PlutoService":
        self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    def start(self) -> None:
        """Start the worker loop (idempotent)."""
        if self.running:
            return
        self._queue = asyncio.Queue(maxsize=self.max_queue)
        self._worker = asyncio.get_running_loop().create_task(self._run())
        self._worker.add_done_callback(self._on_worker_done)

    def _on_worker_done(self, worker: "asyncio.Task") -> None:
        """If the worker loop died, fail queued requests immediately.

        Without this, a crashed worker would leave submitters awaiting
        until :meth:`close` — retrieving the exception here also keeps
        asyncio from logging it as never-retrieved.
        """
        if worker.cancelled():
            return
        error = worker.exception()
        if error is not None:
            self._fail_pending(error)

    async def close(self) -> None:
        """Drain the queue, stop the worker, and reject new submissions.

        Requests that never ran — because the worker died, or because a
        producer slipped one in during shutdown — get
        :class:`~repro.errors.ServiceClosedError` (or the worker's crash)
        set on their futures, so no caller is left awaiting forever.
        """
        worker, queue = self._worker, self._queue
        self._worker = None
        crash: BaseException | None = None
        if worker is not None:
            if not worker.done() and queue is not None:
                # Drain gracefully, but stop waiting if the worker dies
                # first (its queue would never empty).
                join = asyncio.ensure_future(queue.join())
                await asyncio.wait(
                    {join, worker}, return_when=asyncio.FIRST_COMPLETED
                )
                if not join.done():
                    join.cancel()
            worker.cancel()
            try:
                await worker
            except asyncio.CancelledError:
                pass
            except Exception as error:  # the worker loop crashed
                crash = error
        self._fail_pending(
            crash
            if crash is not None
            else ServiceClosedError("service closed before the request ran")
        )

    def _fail_pending(self, error: BaseException) -> None:
        """Resolve every request that will never execute with ``error``."""
        leftovers: list[_PendingRequest] = []
        if self._pending is not None:
            leftovers.append(self._pending)
            self._pending = None
        if self._queue is not None:
            while not self._queue.empty():
                leftovers.append(self._queue.get_nowait())
        for request in leftovers:
            self.stats.failed += 1
            if not request.future.done():
                request.future.set_exception(error)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    async def submit(
        self,
        inputs: Mapping[str, np.ndarray],
        *,
        session: "PlutoSession | None" = None,
        plan: "ExecutionPlan | str | None" = None,
        optimize: bool | None = None,
    ) -> ServedResult:
        """Queue one request and await its result.

        Blocks (asynchronously) while the bounded queue is full — this is
        the service's backpressure: a flood of producers is slowed to the
        rate the executor drains, instead of buffering without bound.
        ``plan`` overrides the service-wide execution plan for this
        request; the deprecated ``optimize=`` keyword adjusts only the
        plan's optimizer flag (with a ``DeprecationWarning``).
        """
        request = self._make_request(inputs, session, plan, optimize)
        queue = self._require_queue()
        await queue.put(request)
        self._note_depth(queue)
        return await request.future

    async def submit_many(
        self,
        inputs_list: "Sequence[Mapping[str, np.ndarray]]",
        *,
        session: "PlutoSession | None" = None,
        plan: "ExecutionPlan | str | None" = None,
    ) -> "list[ServedResult]":
        """Queue a bulk of requests and await every result, in order.

        The bulk client helper: submissions enter the queue together, so
        consecutive same-structure requests coalesce into fused batches,
        and the bounded queue's backpressure applies exactly as for
        :meth:`submit`.  The first failed request re-raises its error
        after every submission has settled (no request is abandoned
        mid-queue).
        """
        results = await asyncio.gather(
            *(
                self.submit(inputs, session=session, plan=plan)
                for inputs in inputs_list
            ),
            return_exceptions=True,
        )
        for result in results:
            if isinstance(result, BaseException):
                raise result
        return results  # type: ignore[return-value]

    def submit_nowait(
        self,
        inputs: Mapping[str, np.ndarray],
        *,
        session: "PlutoSession | None" = None,
        plan: "ExecutionPlan | str | None" = None,
        optimize: bool | None = None,
    ) -> "asyncio.Future[ServedResult]":
        """Enqueue without waiting; shed load when the queue is full.

        Synchronous on purpose: the enqueue-or-reject decision happens at
        call time, so a producer can catch
        :class:`~repro.errors.ServiceOverloadError` and back off
        immediately.  Returns a future resolving to the
        :class:`ServedResult`.  ``plan`` / ``optimize`` as in
        :meth:`submit`.
        """
        request = self._make_request(inputs, session, plan, optimize)
        queue = self._require_queue()
        try:
            queue.put_nowait(request)
        except asyncio.QueueFull:
            self.stats.rejected += 1
            raise ServiceOverloadError(
                f"request queue is full ({self.max_queue} pending requests)"
            ) from None
        self._note_depth(queue)
        return request.future

    def _request_plan(
        self, plan: "ExecutionPlan | str | None", optimize: bool | None
    ) -> "ExecutionPlan":
        """The effective plan for one request: override or service-wide.

        The deprecated per-request ``optimize=`` keyword keeps its old
        meaning — it adjusts only the optimizer flag of the service-wide
        plan (auto plans search with the flag pinned).
        """
        from repro.errors import ConfigurationError
        from repro.plan.execution_plan import resolve_plan

        if optimize is not None:
            if plan is not None:
                raise ConfigurationError(
                    "submit() got both plan= and the deprecated optimize= "
                    "keyword; pass only plan="
                )
            warnings.warn(
                "submit(optimize=) is deprecated; pass "
                "plan=ExecutionPlan(optimize=...) (or plan='auto') instead",
                DeprecationWarning,
                stacklevel=4,
            )
            return replace(self.plan, optimize=bool(optimize))
        if plan is None:
            return self.plan
        return resolve_plan(plan)

    def _make_request(
        self,
        inputs: Mapping[str, np.ndarray],
        session: "PlutoSession | None",
        plan: "ExecutionPlan | str | None" = None,
        optimize: bool | None = None,
    ) -> _PendingRequest:
        if not self.running:
            raise ServiceClosedError(
                "service is not running; use 'async with session.serve()' "
                "or call start() first"
            )
        source = session if session is not None else self.session
        request_plan = self._request_plan(plan, optimize)
        calls = list(source.calls)
        planner_report: "PlannerReport | None" = None
        trace = new_trace("service", request_id=self._next_id)
        token = activate(trace)
        try:
            with span_of(trace, "submit"):
                if request_plan.is_auto:
                    from repro.backend.base import resolve_backend
                    from repro.plan.planner import plan_program

                    with span_of(trace, "plan") as plan_span:
                        planned = plan_program(
                            calls,
                            self.engine,
                            request=request_plan,
                            modes=("single", "banks", "hierarchy"),
                            supports_batched=resolve_backend(
                                source.backend
                            ).supports_batched,
                            subject="request",
                        )
                        request_plan, planner_report = planned.plan, planned.report
                        plan_span.set(cached=planner_report.cached)
                optimized = request_plan.optimize
                if optimized is None:
                    optimized = (
                        self.engine is not None and self.engine.config.optimize
                    )
                report = None
                if optimized:
                    from repro.opt.pipeline import optimize_cached

                    with span_of(trace, "optimize"):
                        program = optimize_cached(calls)
                        calls = list(program.calls)
                        report = program.report
                structure_key = self._structure_key(calls)
                if self.verify:
                    # Reject malformed programs at submission —
                    # synchronously, before the request takes a queue slot
                    # — with the structured diagnostics on the raised
                    # VerificationError.  Memoized on the program structure
                    # key (reusing the coalescing key computed above), so
                    # repeat shapes cost a dict hit.
                    from repro.analyze.verifier import verify_cached

                    if structure_key in self._verified_keys:
                        verify_cached(
                            calls, subject="request", key=structure_key
                        ).raise_if_errors()
                    else:
                        with span_of(trace, "verify"):
                            verify_cached(
                                calls, subject="request", key=structure_key
                            ).raise_if_errors()
                        if structure_key is not None:
                            self._verified_keys.add(structure_key)
        finally:
            deactivate(token)
        request = _PendingRequest(
            request_id=self._next_id,
            calls=calls,
            inputs={name: np.asarray(data) for name, data in inputs.items()},
            backend=source.backend,
            enqueued_at=time.monotonic(),
            future=asyncio.get_running_loop().create_future(),
            structure_key=structure_key,
            optimized=optimized,
            optimization=report,
            plan=request_plan,
            planner=planner_report,
            trace=trace,
        )
        self._next_id += 1
        return request

    @staticmethod
    def _structure_key(calls: list) -> tuple | None:
        """The program structure key, or ``None`` when unhashable.

        The key tuple builds fine around unhashable parameter values
        (e.g. lists) and only fails at hash time, so hashability is
        probed here — downstream the key is both compared (coalescing)
        and hashed (compile/trace-template memos).
        """
        from repro.api.session import program_structure_key

        try:
            key = program_structure_key(calls)
            hash(key)
            return key
        except TypeError:
            return None

    def _require_queue(self) -> "asyncio.Queue[_PendingRequest]":
        if self._queue is None:
            raise ServiceClosedError("service has no queue; call start() first")
        return self._queue

    def _note_depth(self, queue: "asyncio.Queue[_PendingRequest]") -> None:
        self.stats.max_queue_depth = max(self.stats.max_queue_depth, queue.qsize())

    # ------------------------------------------------------------------ #
    # Worker loop
    # ------------------------------------------------------------------ #
    async def _run(self) -> None:
        queue = self._require_queue()
        while True:
            if self._pending is not None:
                leader, self._pending = self._pending, None
            else:
                leader = await queue.get()
            batch = [leader]
            try:
                coalesce_start = time.perf_counter_ns()
                self._coalesce_into(batch, queue)
                # Stashed on the instance (not passed as an argument) so
                # _execute_batch keeps its original batch-only signature.
                self._coalesce_ns = time.perf_counter_ns() - coalesce_start
                self._execute_batch(batch)
            except BaseException as error:
                # The loop itself failed (per-request execution errors are
                # handled inside _execute_batch): resolve the in-flight
                # requests before the worker dies, so no submitter hangs.
                for request in batch:
                    if not request.future.done():
                        self.stats.failed += 1
                        request.future.set_exception(error)
                raise
            finally:
                # One task_done per drained request (the held-over
                # ``_pending`` request is acknowledged with *its* batch,
                # so ``queue.join()`` waits for it to actually run).
                for _ in batch:
                    queue.task_done()
            # Yield so producers blocked on the bounded queue make progress
            # before the next batch is drained.
            await asyncio.sleep(0)

    def _coalesce_into(
        self,
        batch: "list[_PendingRequest]",
        queue: "asyncio.Queue[_PendingRequest]",
    ) -> None:
        """Pull queued requests with the same program structure into ``batch``.

        Only *consecutive* structurally identical requests coalesce, so
        results keep arrival order; the first request for a different
        program is parked in ``_pending`` and leads the next batch.
        Keys are computed at submission time (post-optimization for
        optimized requests); requests with unhashable structure carry
        the ``None`` sentinel and never coalesce.
        """
        leader_key = batch[0].coalesce_key
        while len(batch) < self.max_batch and not queue.empty():
            candidate = queue.get_nowait()
            if candidate.coalesce_key != leader_key:
                self._pending = candidate
                break
            batch.append(candidate)

    @staticmethod
    def _note_queue_wait(
        request: _PendingRequest,
        queue_wait_s: float,
        coalesce_ns: int,
        batch: int,
        shared_coalesce: "Span | None" = None,
    ) -> None:
        """Record the explicit queue-wait span (with its coalesce slice).

        Built directly (one timer read, no scope machinery): this runs per
        request on the traced hot path, and no span scope is open on the
        request's own trace here, so the spans attach at the top level.
        ``shared_coalesce`` lets the fused batch path reuse one coalesce
        child (identical timing/attributes for every member) across the
        whole batch — surviving span allocations are what drive extra GC
        work in traced serving, so batches share where values coincide.
        """
        if request.trace is None:
            return
        if shared_coalesce is None:
            now = time.perf_counter_ns()
            shared_coalesce = Span(
                "coalesce", now - coalesce_ns, coalesce_ns, {"batch_size": batch}
            )
        else:
            now = shared_coalesce.end_ns
        wait_ns = int(queue_wait_s * 1e9)
        wait = Span("queue_wait", now - wait_ns, wait_ns)
        wait.children = [shared_coalesce]
        request.trace.spans.append(wait)

    def _execute_batch(self, batch: "list[_PendingRequest]") -> None:
        coalesce_ns = self._coalesce_ns
        self.stats.batches += 1
        self.stats.coalesced += len(batch) - 1
        # Only plain single-bank plans fuse into one batched pass;
        # sharded and hierarchical plans go through their dispatchers.
        leader_plan = batch[0].plan
        simple = leader_plan is None or (
            not leader_plan.hierarchical and leader_plan.effective_shards == 1
        )
        if (
            len(batch) > 1
            and simple
            and self._execute_batch_fused(batch, coalesce_ns)
        ):
            return
        for request in batch:
            begin = time.monotonic()
            self._note_queue_wait(
                request, begin - request.enqueued_at, coalesce_ns, len(batch)
            )
            token = activate(request.trace)
            try:
                with span_of(request.trace, "execute"):
                    result = self._execute(request)
            except Exception as error:  # surface on the caller's future
                self.stats.failed += 1
                if not request.future.cancelled():
                    request.future.set_exception(error)
                continue
            finally:
                deactivate(token)
            finish = time.monotonic()
            served = ServedResult(
                request_id=request.request_id,
                outputs=result.outputs,
                latency_ns=result.latency_ns,
                energy_nj=result.energy_nj,
                # Everything before *this request's* execution counts as
                # queueing — including earlier requests of its own batch —
                # so turnaround_s is true submission-to-completion time.
                queue_wait_s=begin - request.enqueued_at,
                execute_s=finish - begin,
                batch_size=len(batch),
                backend=result.backend,
                result=result,
                optimization=request.optimization,
                execution_plan=request.plan,
                planner=(
                    request.planner.with_measured(result.latency_ns)
                    if request.planner is not None
                    else None
                ),
                request_trace=request.trace,
            )
            self._account_served(request, served)
            if not request.future.cancelled():
                request.future.set_result(served)

    def _account_served(self, request: _PendingRequest, served: ServedResult) -> None:
        """Fold one successfully executed request into the aggregates.

        Optimizer savings are counted here — not at submission — so
        load-shed or never-run requests cannot inflate the counters.
        """
        self.stats.served += 1
        self.stats.total_queue_wait_s += served.queue_wait_s
        self.stats.total_execute_s += served.execute_s
        self.stats.total_latency_ns += served.latency_ns
        self.stats.latency.observe_result(served)
        # Per-request hardware attribution: DRAM command counts, energy in
        # picojoules, and refresh overhead, memoized on the (shared, for
        # warm JIT requests) command trace so the hot path pays a dict hit.
        command_trace = getattr(served.result, "trace", None)
        accounting = (
            request_accounting(command_trace) if command_trace is not None else None
        )
        if served.request_trace is not None and accounting is not None:
            attributes = served.request_trace.attributes
            attributes.update(accounting)
            attributes["latency_ns"] = served.latency_ns
            attributes["backend"] = served.backend
            attributes["batch_size"] = served.batch_size
        record_served_request(
            path="service",
            end_to_end_s=served.turnaround_s,
            queue_wait_s=served.queue_wait_s,
            execute_s=served.execute_s,
            energy_nj=served.energy_nj,
            commands=(
                accounting["dram_commands_by_type"] if accounting is not None else None
            ),
        )
        report = request.optimization
        if request.optimized and report is not None:
            self.stats.optimized += 1
            self.stats.optimizer_ops_saved += report.ops_saved
            self.stats.optimizer_lut_queries_saved += report.lut_queries_saved
            self.stats.optimizer_swept_rows_saved += report.swept_rows_saved
            self.stats.optimizer_lut_loads_saved += report.lut_loads_saved

    def _execute_batch_fused(
        self, batch: "list[_PendingRequest]", coalesce_ns: int = 0
    ) -> bool:
        """Run a coalesced batch in one fused controller pass.

        The batch shares one program structure by construction, so the
        per-request input sets stack into a ``(requests, elements)`` array
        and execute as a single pass
        (:meth:`~repro.controller.executor.PlutoController.execute_fused`)
        — one gather per LUT query for the whole batch, with each
        request's trace synthesized from the shared template.  Returns
        ``False`` (leaving the batch untouched) when the backend cannot
        batch or the inputs do not stack; the per-request loop then
        surfaces any individual errors.
        """
        controller = self._controller_for(batch[0])
        if not controller.backend.supports_batched:
            return False
        from repro.api.session import compile_cached_with_key

        names = set(batch[0].inputs)
        if any(set(request.inputs) != names for request in batch[1:]):
            # Differing provided-input sets seed different registers; the
            # per-request loop handles them individually.
            return False
        # The unified sentinel: ``None`` structure keys (unhashable
        # programs) simply skip the trace-template memo.
        structure_key = batch[0].structure_key
        leader = batch[0]
        begin = time.monotonic()
        # The fused pass runs once for the whole batch: the leader's trace
        # is context-active so inner stages (compile, backend) attach their
        # spans to it; followers get explicit evenly-attributed spans below.
        token = activate(leader.trace)
        fused_span: Span | None = None
        try:
            with span_of(
                leader.trace, "execute", fused=True, batch_size=len(batch)
            ) as opened:
                if isinstance(opened, Span):
                    fused_span = opened
                compiled, _ = compile_cached_with_key(batch[0].calls, structure_key)
                stacked = {
                    name: np.stack([request.inputs[name] for request in batch])
                    for name in batch[0].inputs
                }
                results = controller.execute_fused(
                    compiled,
                    stacked,
                    banks=[0] * len(batch),
                    structure_key=structure_key,
                )
        except Exception:
            # The per-request fallback loop will record its own execute
            # span; drop the aborted fused one so stage sums stay honest.
            if fused_span is not None and leader.trace is not None:
                if fused_span in leader.trace.spans:
                    leader.trace.spans.remove(fused_span)
            return False
        finally:
            deactivate(token)
        finish = time.monotonic()
        # The pass ran once for everyone: attribute the wall-clock evenly.
        execute_s = (finish - begin) / len(batch)
        execute_ns = int(execute_s * 1e9)
        finish_ns = time.perf_counter_ns()
        if fused_span is not None:
            # Shrink the leader's span to its even share too, keeping the
            # full batch wall-clock as an attribute, so every request's
            # top-level spans sum to its own recorded turnaround.
            fused_span.set(batch_wall_ns=fused_span.duration_ns)
            fused_span.duration_ns = execute_ns
        # Shared across the batch's traces (identical values; treated as
        # read-only) to keep surviving allocations per traced request low.
        shared_coalesce: Span | None = None
        execute_attrs = {"fused": True, "batch_size": len(batch)}
        for request, result in zip(batch, results):
            if request.trace is not None and shared_coalesce is None:
                now_ns = time.perf_counter_ns()
                shared_coalesce = Span(
                    "coalesce",
                    now_ns - coalesce_ns,
                    coalesce_ns,
                    {"batch_size": len(batch)},
                )
            self._note_queue_wait(
                request,
                begin - request.enqueued_at,
                coalesce_ns,
                len(batch),
                shared_coalesce,
            )
            if request is not leader and request.trace is not None:
                # Built directly (shared timer read) — per-request hot path.
                request.trace.spans.append(
                    Span("execute", finish_ns - execute_ns, execute_ns, execute_attrs)
                )
            served = ServedResult(
                request_id=request.request_id,
                outputs=result.outputs,
                latency_ns=result.latency_ns,
                energy_nj=result.energy_nj,
                queue_wait_s=begin - request.enqueued_at,
                execute_s=execute_s,
                batch_size=len(batch),
                backend=result.backend,
                result=result,
                optimization=request.optimization,
                execution_plan=request.plan,
                planner=(
                    request.planner.with_measured(result.latency_ns)
                    if request.planner is not None
                    else None
                ),
                request_trace=request.trace,
            )
            self._account_served(request, served)
            if not request.future.cancelled():
                request.future.set_result(served)
        return True

    @staticmethod
    def _wants_jit(request: _PendingRequest) -> bool:
        return request.plan is None or request.plan.tier != "interpreted"

    def _controller_for(self, request: _PendingRequest):
        """The warm :class:`PlutoController` for a request's backend/tier."""
        jit = self._wants_jit(request)
        key = (request.backend_key, jit)
        controller = self._controllers.get(key)
        if controller is None:
            from repro.controller.executor import PlutoController

            controller = PlutoController(
                self.engine, backend=request.backend, jit=jit
            )
            self._controllers[key] = controller
        return controller

    def _execute(self, request: _PendingRequest) -> "ExecutionResult":
        """Run one request on a warm executor for *its* backend and plan.

        Executors are cached per backend selection plus the plan facets
        that shape them (tier, hierarchy placement), so a request that
        arrived with an overriding session (e.g. a functional-backend
        session on a vectorized service) runs on the backend that session
        chose, while same-backend requests keep sharing LUT caches.
        ``request.calls`` is already post-optimization, so sharded and
        hierarchical dispatch never re-optimizes.
        """
        from repro.api.session import compile_cached_with_key

        plan = request.plan
        jit = self._wants_jit(request)
        if plan is not None and plan.hierarchical:
            key = ("hierarchy", request.backend_key, plan.channels, plan.ranks, jit)
            dispatcher = self._dispatchers.get(key)
            if dispatcher is None:
                from repro.controller.hierarchy import HierarchicalDispatcher

                dispatcher = HierarchicalDispatcher(
                    self.engine,
                    backend=request.backend,
                    jit=jit,
                    channels=plan.channels,
                    ranks=plan.ranks,
                )
                self._dispatchers[key] = dispatcher
            return dispatcher.execute(
                request.calls, request.inputs, shards=plan.shards
            )
        if plan is not None and plan.effective_shards > 1:
            key = ("banks", request.backend_key, jit)
            dispatcher = self._dispatchers.get(key)
            if dispatcher is None:
                from repro.controller.dispatch import ParallelDispatcher

                dispatcher = ParallelDispatcher(
                    self.engine, backend=request.backend, jit=jit
                )
                self._dispatchers[key] = dispatcher
            return dispatcher.execute(
                request.calls, request.inputs, shards=plan.effective_shards
            )
        controller = self._controller_for(request)
        return controller.execute(
            compile_cached_with_key(request.calls, request.structure_key)[0],
            dict(request.inputs),
            structure_key=request.structure_key,
        )
