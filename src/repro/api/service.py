"""Async serving frontend for pLUTo programs.

The ROADMAP's north star is a system that serves heavy traffic, not a
one-shot script, so this module puts an :mod:`asyncio` service above the
execution stack:

* a **bounded request queue** — :meth:`PlutoService.submit` applies
  backpressure by awaiting a queue slot, and
  :meth:`PlutoService.submit_nowait` raises
  :class:`~repro.errors.ServiceOverloadError` immediately when the queue
  is full, so callers can shed load instead of buffering without bound;
* **prepared at submission** — every request's program is planned,
  optimized, compiled and verified (and, under a sharded plan, laid out
  over its placement) into a :class:`~repro.api.session.ProgramArtifact`
  before it takes a queue slot, so a program or plan that cannot run
  raises from the submit call; a repeat request takes the artifact from
  the submitting session's warm entry and prepares nothing;
* **batch coalescing** — one synchronous request core
  (``PlutoService._serve_requests``) takes prepared requests batch by
  batch, each batch a run of consecutive requests with the same program
  structure (``_next_batch``), and runs each batch on one warm controller
  (``_execute_batch``: one fused pass, or each request on its own); the
  async worker loop drains its queue into the core, and
  :meth:`PlutoService.serve_chunk` runs it on the caller's thread with
  no event loop (how a worker-pool process serves);
* **per-request latency accounting** — every :class:`ServedResult` carries
  the wall-clock queue wait and execution time next to the modelled DRAM
  latency of its program;
* **warm memo caches** — repeat requests reuse the compiled program's
  trace template and closure and hit the scheduler-makespan memo
  (hierarchical requests re-merge nothing), and
  :func:`repro.api.cache_stats` reports their effectiveness;
* **program optimization** — under a plan with ``optimize=True`` every
  request runs through the pass pipeline of :mod:`repro.opt` (memoized
  on program structure) before compilation, and batches coalesce on the
  *post-optimization* structure key, so all downstream memo layers work
  on the rewritten, cheaper program.

How each request executes is governed by one
:class:`~repro.plan.ExecutionPlan` (the service-wide ``plan=``, or the
request's own), and every request runs on the service's one warm
:class:`~repro.controller.dispatch.ParallelDispatcher` for its backend:
unsharded programs on its controller, sharded ones as the layouts their
artifacts carry (one rank of one channel unless the plan's ``channels``
/ ``ranks`` widen it), so every placement shares one controller.  With
``plan="auto"`` the cost-based planner
(:func:`repro.plan.plan_program`) prices the candidate configurations
once per distinct request structure — a repeat request reuses its
program artifact, plan included — and each :class:`ServedResult`
carries the chosen plan and its :class:`~repro.plan.PlannerReport`.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

from repro.api.session import ProgramArtifact
from repro.errors import ServiceClosedError, ServiceOverloadError
from repro.obs.metrics import ServedLatency, request_accounting
from repro.obs.trace import (
    RequestTrace,
    Span,
    activate,
    deactivate,
    new_trace,
    span_of,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.api.session import PlutoSession
    from repro.backend.base import ExecutionBackend
    from repro.controller.dispatch import ParallelDispatcher
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
    total_latency_ns: float = 0.0
    #: Requests run through the program optimizer before compilation.
    optimized: int = 0
    #: Optimizer savings summed over every optimized request
    #: (:meth:`repro.opt.report.OptimizationReport.counters`).
    optimizer_ops_saved: int = 0
    optimizer_lut_queries_saved: int = 0
    optimizer_swept_rows_saved: int = 0
    optimizer_lut_loads_saved: int = 0
    #: Streaming latency distributions (queue wait, execute, end-to-end)
    #: of the served requests, so p50/p95/p99 are available at any point
    #: in the service's life; each served request is recorded there and in
    #: the registry's ``path="service"`` series by one call.
    latency: ServedLatency = field(default_factory=lambda: ServedLatency("service"))

    def summary(self) -> dict:
        """Counters plus p50/p95/p99 latency percentiles (picklable).

        The reporting shape of the serving tier: the request counters, the
        mean queue wait and batch size, the summed modelled latency, and
        the three latency distributions as
        :meth:`~repro.obs.metrics.ServedLatency.summary` renders them.
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
        return self.latency.queue_wait.mean

    @property
    def mean_batch_size(self) -> float:
        """Average number of requests executed per coalesced batch."""
        return self.served / self.batches if self.batches else 0.0


@dataclass
class _PendingRequest:
    request_id: int
    inputs: dict[str, np.ndarray]
    #: The service's dispatcher for the backend of the session this
    #: request came from.
    dispatcher: "ParallelDispatcher"
    enqueued_at: float
    #: The request's program, prepared at submission: concrete plan,
    #: post-optimization calls and structure key, compiled program.
    artifact: ProgramArtifact
    #: Request trace collecting per-stage spans (``None`` when tracing is off).
    trace: "RequestTrace | None" = None
    #: The submitter's future (``None`` when served by ``serve_chunk``).
    future: "asyncio.Future[ServedResult] | None" = None
    #: What the request core left: the served result or the request's own
    #: error (``None`` until the core reaches it).
    outcome: "ServedResult | BaseException | None" = None

    @property
    def coalesce_key(self) -> object:
        """Batch identity: requests coalesce iff these keys are equal.

        Optimized requests carry their *post-optimization* structure key,
        and the concrete :class:`~repro.plan.ExecutionPlan` is part of
        the key, so requests only share a batch when they run the same
        program the same way on the same backend (an optimized and an
        unoptimized recording of the same program never coalesce).
        Requests with unhashable structure get an identity key and run
        alone.
        """
        artifact = self.artifact
        if artifact.structure_key is None:
            return (id(self),)
        return (artifact.structure_key, self.dispatcher, artifact.plan)

    def resolve(self) -> None:
        """Settle the submitter's future (if any, and not cancelled) with
        the outcome."""
        future, outcome = self.future, self.outcome
        if future is None or future.done():
            return
        if isinstance(outcome, ServedResult):
            future.set_result(outcome)
        else:
            future.set_exception(outcome)


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
    executes under — shards, their placement and the optimizer,
    exactly as in :meth:`PlutoSession.run`; with
    ``"auto"`` the cost-based planner resolves a concrete plan once per
    distinct request structure (a repeat request reuses its program
    artifact, so one planning pass serves a whole coalesced batch).  A
    plan with ``optimize=True`` runs every request's program through the
    optimizer (:mod:`repro.opt`) before compilation — memoized on
    program structure, with the batch coalescing then keyed on the
    *post-optimization* structure so the compile, trace-template, and
    makespan caches all hit on the rewritten program.
    ``verify=True`` (the default) statically verifies every request's
    program at submission and rejects malformed ones with
    :class:`~repro.errors.VerificationError` carrying the structured
    diagnostics — *before* the request takes a queue slot, so a bad
    program cannot crash the warm worker loop.  A clean verdict is
    remembered on the artifact, so repeated request shapes skip the
    check.  Unsharded programs compile at submission too, so with
    ``verify=False`` a program the compiler rejects fails from
    :meth:`submit` rather than on its future.
    """

    def __init__(
        self,
        session: "PlutoSession",
        *,
        engine: "PlutoEngine | None" = None,
        max_queue: int = 64,
        max_batch: int = 16,
        plan: "ExecutionPlan | str | None" = None,
        verify: bool = True,
    ) -> None:
        from repro.errors import ConfigurationError
        from repro.plan.execution_plan import resolve_plan

        if max_queue <= 0:
            raise ConfigurationError("max_queue must be positive")
        if max_batch <= 0:
            raise ConfigurationError("max_batch must be positive")
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
        self._next_id = 0
        #: One warm dispatcher per backend selection (names share,
        #: instances don't), so requests from an overriding session run on
        #: the backend that session chose.
        self._dispatchers: "dict[object, ParallelDispatcher]" = {}

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
            self._fail_queued(error, self._queue)

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
                await asyncio.wait({join, worker}, return_when=asyncio.FIRST_COMPLETED)
                if not join.done():
                    join.cancel()
            worker.cancel()
            try:
                await worker
            except asyncio.CancelledError:
                pass
            except Exception as error:  # the worker loop crashed
                crash = error
        if crash is None:
            crash = ServiceClosedError("service closed before the request ran")
        self._fail_queued(crash, queue)

    def _fail_queued(
        self, error: BaseException, queue: "asyncio.Queue[_PendingRequest] | None"
    ) -> None:
        """Fail every request still in ``queue`` with ``error``: none of
        them will execute."""
        while queue is not None and not queue.empty():
            request = queue.get_nowait()
            self.stats.failed += 1
            request.outcome = error
            request.resolve()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    async def submit(
        self,
        inputs: Mapping[str, np.ndarray],
        *,
        session: "PlutoSession | None" = None,
        plan: "ExecutionPlan | str | None" = None,
    ) -> ServedResult:
        """Queue one request and await its result.

        Blocks (asynchronously) while the bounded queue is full — this is
        the service's backpressure: a flood of producers is slowed to the
        rate the executor drains, instead of buffering without bound.
        ``plan`` overrides the service-wide execution plan for this
        request.
        """
        request = self._make_request(inputs, session, plan, self._loop_future())
        queue = self._require_queue()
        await queue.put(request)
        self._note_depth(queue.qsize())
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
            *(self.submit(inputs, session=session, plan=plan) for inputs in inputs_list),
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
    ) -> "asyncio.Future[ServedResult]":
        """Enqueue without waiting; shed load when the queue is full.

        Synchronous on purpose: the enqueue-or-reject decision happens at
        call time, so a producer can catch
        :class:`~repro.errors.ServiceOverloadError` and back off
        immediately.  Returns a future resolving to the
        :class:`ServedResult`.  ``plan`` as in :meth:`submit`.
        """
        request = self._make_request(inputs, session, plan, self._loop_future())
        queue = self._require_queue()
        try:
            queue.put_nowait(request)
        except asyncio.QueueFull:
            self.stats.rejected += 1
            raise ServiceOverloadError(
                f"request queue is full ({self.max_queue} pending requests)"
            ) from None
        self._note_depth(queue.qsize())
        return request.future

    def serve_chunk(
        self,
        session: "PlutoSession | None",
        inputs_list: "Sequence[Mapping[str, np.ndarray]]",
    ) -> "list[ServedResult | Exception]":
        """Serve a chunk of requests synchronously, on the calling thread.

        The service's event-loop-free serving path (a worker-pool process
        serves through it): each request is prepared as :meth:`submit`
        prepares it under the service-wide plan (verification, the
        session's warm artifact), then the chunk runs through the request
        core the async worker loop drains into (``_serve_requests``: the
        same batches, batch executor, statistics, metrics and traces).
        It needs no :meth:`start`, and is meant for a service whose async
        loop is not running.  Returns one :class:`ServedResult` or one
        exception per request, in order: a request's own failure never
        fails its neighbours.
        """
        slots: "list[_PendingRequest | Exception]" = []
        for inputs in inputs_list:
            try:
                slots.append(self._make_request(inputs, session, None))
            except Exception as error:  # rejected at submission
                slots.append(error)
        requests = deque(slot for slot in slots if isinstance(slot, _PendingRequest))
        self._note_depth(len(requests))
        for _ in self._serve_requests(requests):
            pass
        return [slot.outcome if isinstance(slot, _PendingRequest) else slot for slot in slots]

    def _loop_future(self) -> "asyncio.Future[ServedResult]":
        """A future on the running loop, for a request the worker loop serves."""
        if not self.running:
            raise ServiceClosedError(
                "service is not running; use 'async with session.serve()' "
                "or call start() first"
            )
        return asyncio.get_running_loop().create_future()

    def _make_request(
        self,
        inputs: Mapping[str, np.ndarray],
        session: "PlutoSession | None",
        plan: "ExecutionPlan | str | None",
        future: "asyncio.Future[ServedResult] | None" = None,
    ) -> _PendingRequest:
        source = session if session is not None else self.session
        trace = new_trace("service", request_id=self._next_id)
        token = activate(trace)
        try:
            with span_of(trace, "submit"):
                artifact = self._artifact(source, plan)
        finally:
            deactivate(token)
        request = _PendingRequest(
            request_id=self._next_id,
            inputs={name: np.asarray(data) for name, data in inputs.items()},
            dispatcher=self._dispatcher_for(source.backend),
            enqueued_at=time.monotonic(),
            future=future,
            artifact=artifact,
            trace=trace,
        )
        self._next_id += 1
        return request

    def _artifact(
        self, session: "PlutoSession", plan: "ExecutionPlan | str | None"
    ) -> ProgramArtifact:
        """The artifact of ``session``'s program, from its warm entry when
        one is valid (the session's own rule, plus this service's verify
        setting), else prepared and kept as a new entry."""
        from repro.plan.execution_plan import resolve_plan

        return session._prepare(
            self.plan if plan is None else resolve_plan(plan),
            self.engine,
            verify=self.verify,
            subject="request",
        )

    def _prime(self, session: "PlutoSession", inputs: Mapping[str, np.ndarray]) -> None:
        """Run ``session``'s program once on the dispatcher its requests
        use, outside the service's statistics and the metrics registry,
        so the first real request finds the program and its controller
        warm."""
        self._artifact(session, None).run(self._dispatcher_for(session.backend), inputs)

    def _dispatcher_for(self, backend: "str | ExecutionBackend") -> "ParallelDispatcher":
        key = backend if isinstance(backend, str) else id(backend)
        dispatcher = self._dispatchers.get(key)
        if dispatcher is None:
            from repro.controller.dispatch import ParallelDispatcher

            dispatcher = self._dispatchers[key] = ParallelDispatcher(self.engine, backend)
        return dispatcher

    def _require_queue(self) -> "asyncio.Queue[_PendingRequest]":
        if self._queue is None:
            raise ServiceClosedError("service has no queue; call start() first")
        return self._queue

    def _note_depth(self, depth: int) -> None:
        self.stats.max_queue_depth = max(self.stats.max_queue_depth, depth)

    # ------------------------------------------------------------------ #
    # Worker loop
    # ------------------------------------------------------------------ #
    async def _run(self) -> None:
        queue = self._require_queue()
        while True:
            requests = deque([await queue.get()])
            while not queue.empty():
                requests.append(queue.get_nowait())
            try:
                for batch in self._serve_requests(requests):
                    for request in batch:
                        request.resolve()
                        queue.task_done()
                    # Yield after each batch, not once per drain: its
                    # submitters resume and drop their requests, and
                    # producers blocked on the bounded queue make progress,
                    # before the next batch runs.
                    await asyncio.sleep(0)
            finally:
                # Left only if the loop stopped mid-drain (a crash, or a
                # cancellation at the yield): settle what never ran.
                if requests:
                    self._fail_unserved(
                        requests, ServiceClosedError("service closed before the request ran")
                    )
                    for request in requests:
                        request.resolve()
                        queue.task_done()

    def _serve_requests(
        self, requests: "deque[_PendingRequest]"
    ) -> "Iterator[list[_PendingRequest]]":
        """The request core: serve prepared ``requests`` batch by batch.

        Both serving paths run it: the async worker loop over each drained
        set of queued requests (yielding to the event loop between
        batches), and :meth:`serve_chunk` over one chunk.  Each batch is
        taken off the front of ``requests`` by :meth:`_next_batch`, run
        through :meth:`_execute_batch` — which leaves every request in it
        with its :class:`ServedResult` or its own error as ``outcome`` —
        and yielded.  If the core itself fails, the batch goes back to the
        front of ``requests``, and every request there without an outcome
        fails with that error (counted once) before it propagates, so the
        caller can settle every request.
        """
        while requests:
            batch, coalesce_ns = self._next_batch(requests)
            try:
                self._execute_batch(batch, coalesce_ns)
            except BaseException as error:
                requests.extendleft(reversed(batch))
                self._fail_unserved(requests, error)
                raise
            yield batch

    def _next_batch(
        self, requests: "deque[_PendingRequest]"
    ) -> "tuple[list[_PendingRequest], int]":
        """Take the next batch off the front of ``requests``.

        A batch is a run of consecutive requests with equal
        :attr:`~_PendingRequest.coalesce_key` (computed at submission,
        post-optimization for optimized requests), at most ``max_batch``
        long, in arrival order; a request with unhashable structure has a
        key of its own and runs alone.  Also returns the wall-clock ns
        spent forming the batch (the coalesce span).
        """
        began = time.perf_counter_ns()
        leader = requests.popleft()
        batch = [leader]
        key = leader.coalesce_key
        while requests and len(batch) < self.max_batch and requests[0].coalesce_key == key:
            batch.append(requests.popleft())
        return batch, time.perf_counter_ns() - began

    def _fail_unserved(self, requests: "deque[_PendingRequest]", error: BaseException) -> None:
        """Fail every request of ``requests`` that has no outcome yet."""
        for request in requests:
            if request.outcome is None:
                self.stats.failed += 1
                request.outcome = error

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

    def _execute_batch(self, batch: "list[_PendingRequest]", coalesce_ns: int) -> None:
        """Run one batch: one fused pass, or each request on its own."""
        self.stats.batches += 1
        self.stats.coalesced += len(batch) - 1
        # Only plain single-bank plans fuse into one batched pass;
        # sharded plans go through the dispatcher.
        if (
            len(batch) > 1
            and batch[0].artifact.compiled is not None
            and self._execute_batch_fused(batch, coalesce_ns)
        ):
            return
        for request in batch:
            begin = time.monotonic()
            self._note_queue_wait(request, begin - request.enqueued_at, coalesce_ns, len(batch))
            token = activate(request.trace)
            try:
                with span_of(request.trace, "execute"):
                    result = request.artifact.run(request.dispatcher, request.inputs)
            except Exception as error:  # this request's own failure
                self.stats.failed += 1
                request.outcome = error
                continue
            finally:
                deactivate(token)
            # Everything before *this request's* execution counts as
            # queueing — including earlier requests of its own batch — so
            # turnaround_s is true submission-to-completion time.
            self._serve(request, result, begin, time.monotonic() - begin, len(batch))

    def _serve(
        self,
        request: _PendingRequest,
        result: "ExecutionResult",
        begin: float,
        execute_s: float,
        batch_size: int,
    ) -> None:
        """Leave one executed request with its served result."""
        request.artifact.attach(result)
        served = ServedResult(
            request_id=request.request_id,
            outputs=result.outputs,
            latency_ns=result.latency_ns,
            energy_nj=result.energy_nj,
            queue_wait_s=begin - request.enqueued_at,
            execute_s=execute_s,
            batch_size=batch_size,
            backend=result.backend,
            result=result,
            optimization=result.optimization,
            execution_plan=result.execution_plan,
            planner=result.planner,
            request_trace=request.trace,
        )
        self._account_served(served)
        request.outcome = served

    def _account_served(self, served: ServedResult) -> None:
        """Fold one successfully executed request into the aggregates.

        Optimizer savings are counted here — not at submission — so
        load-shed or never-run requests cannot inflate the counters.
        """
        self.stats.served += 1
        self.stats.total_latency_ns += served.latency_ns
        # Per-request hardware attribution: DRAM command counts, energy in
        # picojoules, and refresh overhead, memoized on the (shared, for
        # warm JIT requests) command trace so the hot path pays a dict hit.
        command_trace = getattr(served.result, "trace", None)
        accounting = request_accounting(command_trace) if command_trace is not None else None
        if served.request_trace is not None and accounting is not None:
            attributes = served.request_trace.attributes
            attributes.update(accounting)
            attributes["latency_ns"] = served.latency_ns
            attributes["backend"] = served.backend
            attributes["batch_size"] = served.batch_size
        self.stats.latency.observe(
            queue_wait_s=served.queue_wait_s,
            execute_s=served.execute_s,
            end_to_end_s=served.turnaround_s,
            energy_nj=served.energy_nj,
            commands=(accounting["dram_commands_by_type"] if accounting is not None else None),
        )
        report = served.optimization
        if report is not None:
            self.stats.optimized += 1
            self.stats.optimizer_ops_saved += report.ops_saved
            self.stats.optimizer_lut_queries_saved += report.lut_queries_saved
            self.stats.optimizer_swept_rows_saved += report.swept_rows_saved
            self.stats.optimizer_lut_loads_saved += report.lut_loads_saved

    def _execute_batch_fused(self, batch: "list[_PendingRequest]", coalesce_ns: int) -> bool:
        """Run a coalesced batch in one fused controller pass.

        The batch shares one program structure by construction, so the
        per-request input sets stack into a ``(requests, elements)`` array
        and execute as a single pass
        (:meth:`~repro.controller.executor.PlutoController.execute_fused`)
        — one gather per LUT query for the whole batch, every request
        sharing the program's one bank-0 trace.  Returns
        ``False`` (leaving the batch untouched) when the backend cannot
        batch or the inputs do not stack; the per-request loop then
        surfaces any individual errors.
        """
        leader = batch[0]
        artifact = leader.artifact
        controller = leader.dispatcher.controller
        if not controller.backend.supports_batched:
            return False
        names = set(leader.inputs)
        if any(set(request.inputs) != names for request in batch[1:]):
            # Differing provided-input sets seed different registers; the
            # per-request loop handles them individually.
            return False
        begin = time.monotonic()
        # The fused pass runs once for the whole batch: the leader's trace
        # is context-active so inner stages (backend) attach their spans to
        # it; followers get explicit evenly-attributed spans below.
        token = activate(leader.trace)
        fused_span: Span | None = None
        try:
            with span_of(leader.trace, "execute", fused=True, batch_size=len(batch)) as opened:
                if isinstance(opened, Span):
                    fused_span = opened
                stacked = {
                    name: np.stack([request.inputs[name] for request in batch])
                    for name in leader.inputs
                }
                results = controller.execute_fused(
                    artifact.compiled,
                    stacked,
                    banks=[0] * len(batch),
                    structure_key=artifact.structure_key,
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
            self._serve(request, result, begin, execute_s, len(batch))
        return True
