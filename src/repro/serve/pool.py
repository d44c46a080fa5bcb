"""The multi-worker serving tier: a dispatcher over N worker processes.

:class:`PlutoWorkerPool` scales the single-process
:class:`~repro.api.service.PlutoService` across CPU cores: each worker
process runs one warm service loop (coalescing, fused batches, every
process-wide memo layer), and the dispatcher routes requests to workers
with **structure-key affinity** — every request of one program structure
lands on the same worker, so that worker's caches stay hot and
same-structure requests still coalesce into fused batches.  Requests and
results cross the process boundary in chunks to amortize pickling.

Admission control sits dispatcher-side: each worker has a bounded
in-flight depth, :meth:`PlutoWorkerPool.submit` blocks (backpressure)
while its worker is full, and ``shed=True`` raises
:class:`~repro.errors.ServiceOverloadError` immediately instead —
the pool-wide analogue of ``submit`` vs ``submit_nowait`` on the
single-process service.  :meth:`PlutoWorkerPool.close` drains
gracefully: a stop sentinel rides each worker's FIFO inbox behind every
accepted chunk, so queued requests complete, workers report their final
statistics, and anything left unresolved fails with
:class:`~repro.errors.ServiceClosedError` — no orphaned processes.

Workers warm-start from a :class:`~repro.serve.store.SharedArtifactStore`
when one is configured, and export the artifact of every program they
serve back to it, so a freshly spawned worker's first request runs the
fully warm path.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
import zlib
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.errors import (
    ConfigurationError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadError,
    WorkerCrashedError,
)
from repro.obs.trace import new_trace, tracing_enabled
from repro.serve.stats import LatencyBreakdown

if TYPE_CHECKING:  # pragma: no cover - typing only
    import concurrent.futures

    import numpy as np

    from repro.api.session import PlutoSession
    from repro.core.engine import PlutoConfig
    from repro.obs.trace import RequestTrace
    from repro.plan.execution_plan import ExecutionPlan

__all__ = ["PlutoWorkerPool", "WorkerResult", "PoolStats"]


@dataclass
class WorkerResult:
    """One request served by a pool worker (the picklable result shape).

    ``outputs`` is ``None`` when the request was submitted with
    ``return_outputs=False`` — the benchmark mode where shipping arrays
    back through the pipe would dominate; ``digests`` (CRC32 of each
    output array's bytes) always crosses, so bit-identity stays checkable
    either way.
    """

    outputs: "dict[str, np.ndarray] | None"
    digests: dict[str, int]
    latency_ns: float
    energy_nj: float
    queue_wait_s: float
    execute_s: float
    batch_size: int
    backend: str
    #: Worker-side span tree (when tracing was enabled at pool creation);
    #: the dispatcher grafts it into a pool-level trace on resolution.
    request_trace: "RequestTrace | None" = None


@dataclass
class PoolStats:
    """Dispatcher-side aggregates over the pool's lifetime."""

    workers: int
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    shed: int = 0
    per_worker_served: list[int] = field(default_factory=list)
    #: Modelled DRAM busy-time per worker (summed request latency_ns) —
    #: the device-level load-balance view of the affinity router.
    per_worker_busy_ns: list[float] = field(default_factory=list)
    latency: LatencyBreakdown = field(default_factory=LatencyBreakdown)

    def summary(self) -> dict:
        """Counters plus streaming p50/p95/p99 of the three latencies."""
        return {
            "workers": self.workers,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
            "per_worker_served": list(self.per_worker_served),
            "per_worker_busy_ns": list(self.per_worker_busy_ns),
            "latency": self.latency.summary(),
        }


def _portable_error(error: BaseException) -> BaseException:
    """``error`` if it survives pickling, else a plain-text stand-in."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return ServiceError(f"{type(error).__name__}: {error}")


def _digest(array: "np.ndarray") -> int:
    return zlib.crc32(array.tobytes())


# ---------------------------------------------------------------------- #
# The worker process
# ---------------------------------------------------------------------- #
def _zero_inputs(calls) -> dict:
    """Fabricated all-zero external inputs for a recorded program.

    A vector is external when some call reads it before any call wrote
    it; zero is valid for every bit width and LUT, so the result always
    executes.  Used to prime a warm-started worker's programs.
    """
    import numpy as np

    produced: set[str] = set()
    zeros: dict = {}
    for call in calls:
        for vector in call.inputs:
            if vector.name not in produced and vector.name not in zeros:
                zeros[vector.name] = np.zeros(vector.size, dtype=np.uint64)
        produced.add(call.output.name)
    return zeros


def _worker_main(
    worker_id: int,
    config: "PlutoConfig | None",
    plan: "ExecutionPlan | str | None",
    max_queue: int,
    max_batch: int,
    verify: bool,
    tracing: bool,
    store_path: str | None,
    inbox: "multiprocessing.Queue",
    results: "multiprocessing.Queue",
) -> None:
    """One worker: a persistent :class:`PlutoService` loop fed by a queue.

    The asyncio loop persists across chunks, so the service's worker
    task, warm controllers, and coalescing state survive between them;
    each ``run`` chunk resumes the loop, gathers its submissions (same-
    structure requests coalesce into fused batches inside the service),
    and ships the per-request results (or portable errors) back.
    """
    import asyncio

    from repro.api.service import PlutoService
    from repro.api.session import PlutoSession, cache_stats
    from repro.core.engine import PlutoEngine
    from repro.obs.trace import enable_tracing

    # Inherit the dispatcher's tracing state: spawn-started workers do not
    # share the parent's module globals, so the flag rides the arg list.
    enable_tracing(tracing)
    engine = PlutoEngine(config) if config is not None else None
    warm_report = None
    store = None
    if store_path is not None:
        from repro.serve.store import SharedArtifactStore

        store = SharedArtifactStore(store_path)
        warm_report = asdict(store.warm_start(engine))
    results.put(("ready", worker_id, warm_report))

    loop = asyncio.new_event_loop()
    service: "PlutoService | None" = None
    sessions: dict[int, PlutoSession] = {}
    exported: set[int] = set()

    async def _start(fresh: "PlutoService") -> None:
        fresh.start()

    async def _serve(
        session: PlutoSession, chunk: list, return_outputs: bool
    ) -> list:
        assert service is not None
        served = await asyncio.gather(
            *(service.submit(inputs, session=session) for inputs in chunk),
            return_exceptions=True,
        )
        entries: list = []
        for item in served:
            if isinstance(item, BaseException):
                entries.append(_portable_error(item))
                continue
            entries.append(
                WorkerResult(
                    outputs=dict(item.outputs) if return_outputs else None,
                    digests={
                        name: _digest(array)
                        for name, array in item.outputs.items()
                    },
                    latency_ns=item.latency_ns,
                    energy_nj=item.energy_nj,
                    queue_wait_s=item.queue_wait_s,
                    execute_s=item.execute_s,
                    batch_size=item.batch_size,
                    backend=item.backend,
                    request_trace=item.request_trace,
                )
            )
        return entries

    def _export(program_id: int) -> None:
        """Persist the artifact a just-served program ran from."""
        if store is None or program_id in exported:
            return
        exported.add(program_id)
        assert service is not None
        try:
            store.save(service._artifact(sessions[program_id], None))
        except Exception:
            pass  # the store is an accelerator, never a failure source

    try:
        while True:
            message = inbox.get()
            kind = message[0]
            if kind == "stop":
                break
            if kind == "program":
                _, program_id, calls, backend = message
                session = PlutoSession(calls=list(calls), backend=backend)
                sessions[program_id] = session
                if service is None:
                    service = PlutoService(
                        session,
                        engine=engine,
                        max_queue=max_queue,
                        max_batch=max_batch,
                        plan=plan,
                        verify=verify,
                    )
                    loop.run_until_complete(_start(service))
                if warm_report is not None and warm_report["installed"]:
                    # Run the program once outside the service's accounting,
                    # so the first real request of a warm-started worker
                    # finds its warm entry, closure and controller hot.
                    try:
                        service._prime(session, _zero_inputs(session.calls))
                    except Exception:
                        pass  # priming is best-effort
                continue
            if kind == "run":
                _, chunk_id, program_id, chunk, return_outputs = message
                session = sessions.get(program_id)
                if session is None or service is None:
                    error = _portable_error(
                        ServiceError(
                            f"worker {worker_id} has no program "
                            f"{program_id} registered"
                        )
                    )
                    results.put(
                        ("done", chunk_id, worker_id, [error] * len(chunk))
                    )
                    continue
                entries = loop.run_until_complete(
                    _serve(session, chunk, return_outputs)
                )
                results.put(("done", chunk_id, worker_id, entries))
                _export(program_id)
    finally:
        payload: dict = {"programs": len(sessions)}
        if service is not None:
            loop.run_until_complete(service.close())
            payload["service"] = service.stats.summary()
        try:
            payload["cache_stats"] = cache_stats()
        except Exception:
            pass
        loop.close()
        results.put(("stopped", worker_id, payload))


# ---------------------------------------------------------------------- #
# The dispatcher
# ---------------------------------------------------------------------- #
class PlutoWorkerPool:
    """A dispatcher routing pLUTo requests across N warm worker processes.

    Use as a context manager::

        with PlutoWorkerPool(workers=4, store_path="/tmp/pluto-store") as pool:
            futures = pool.submit_many(session, inputs_list)
            results = [future.result() for future in futures]

    ``engine`` / ``plan`` / ``max_queue`` / ``max_batch`` / ``verify``
    configure every worker's inner :class:`~repro.api.service.PlutoService`
    identically.  ``store_path`` enables the shared warm-artifact store:
    workers warm-start from it and export what they serve back to it.
    ``max_inflight`` bounds each worker's dispatcher-side in-flight
    depth; ``chunk_size`` caps how many requests ride one IPC message.
    ``start_method`` picks the multiprocessing start method (``None`` =
    platform default; ``"spawn"`` gives genuinely cold processes, the
    warm-start proof mode).
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        engine_config: "PlutoConfig | None" = None,
        plan: "ExecutionPlan | str | None" = None,
        max_queue: int = 256,
        max_batch: int = 16,
        verify: bool = True,
        store_path: str | None = None,
        max_inflight: int = 512,
        chunk_size: int = 64,
        start_method: str | None = None,
    ) -> None:
        if workers <= 0:
            raise ConfigurationError("a worker pool needs at least one worker")
        if max_inflight <= 0:
            raise ConfigurationError("max_inflight must be positive")
        if chunk_size <= 0:
            raise ConfigurationError("chunk_size must be positive")
        self.workers = workers
        self.max_inflight = max_inflight
        # A chunk larger than the in-flight window could never be
        # admitted — blocking submission would deadlock on itself.
        self.chunk_size = min(chunk_size, max_inflight)
        self.stats = PoolStats(
            workers=workers,
            per_worker_served=[0] * workers,
            per_worker_busy_ns=[0.0] * workers,
        )
        #: Per-worker warm-start reports (``None`` until ready / no store).
        self.warm_reports: list[dict | None] = [None] * workers
        #: Per-worker final payloads (service stats, cache stats) at close.
        self.worker_reports: dict[int, dict] = {}

        context = multiprocessing.get_context(start_method)
        self._results: "multiprocessing.Queue" = context.Queue()
        self._inboxes: "list[multiprocessing.Queue]" = []
        self._processes: list = []
        for worker_id in range(workers):
            inbox = context.Queue()
            process = context.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    engine_config,
                    plan,
                    max_queue,
                    max_batch,
                    verify,
                    tracing_enabled(),
                    store_path,
                    inbox,
                    self._results,
                ),
                daemon=True,
            )
            process.start()
            self._inboxes.append(inbox)
            self._processes.append(process)

        self._admission = threading.Condition()
        self._inflight = [0] * workers
        self._closed = False
        self._dead: set[int] = set()
        self._ready = threading.Event()
        self._ready_seen: set[int] = set()
        self._stopped_seen: set[int] = set()
        self._all_stopped = threading.Event()
        #: structure key -> (program id, worker index)
        self._programs: dict[tuple, tuple[int, int]] = {}
        self._programs_per_worker = [0] * workers
        self._next_program = 0
        self._next_chunk = 0
        #: chunk id -> (worker, futures, submit times)
        self._chunks: dict[int, tuple[int, list, list[float]]] = {}
        self._collector = threading.Thread(
            target=self._collect, name="pluto-pool-collector", daemon=True
        )
        self._collector.start()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "PlutoWorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def wait_ready(self, timeout: float | None = None) -> bool:
        """Block until every worker finished starting (and warm-starting)."""
        return self._ready.wait(timeout)

    def close(self, timeout: float = 30.0) -> None:
        """Drain every worker and stop the pool (idempotent).

        The stop sentinel rides each inbox *behind* every accepted chunk,
        so queued requests complete before their worker exits; workers
        report their final statistics (collected into
        :attr:`worker_reports`).  Anything still unresolved afterwards —
        a worker crashed, or the drain timed out — fails with
        :class:`~repro.errors.ServiceClosedError`.  Worker processes are
        joined, then terminated if the deadline passes: no orphans.
        """
        with self._admission:
            if self._closed:
                return
            self._closed = True
            self._admission.notify_all()
        for worker_id, inbox in enumerate(self._inboxes):
            if worker_id not in self._dead:
                inbox.put(("stop",))
        self._all_stopped.wait(timeout)
        deadline = time.monotonic() + timeout
        for process in self._processes:
            process.join(max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(5.0)
        self._collector.join(5.0)
        self._fail_unresolved(
            ServiceClosedError("pool closed before the request ran")
        )

    def _fail_unresolved(self, error: BaseException) -> None:
        with self._admission:
            chunks, self._chunks = self._chunks, {}
            self._inflight = [0] * self.workers
            self._admission.notify_all()
        for _, futures, _ in chunks.values():
            for future in futures:
                if not future.done():
                    self.stats.failed += 1
                    future.set_exception(error)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def _route(self, session: "PlutoSession") -> tuple[int, int]:
        """(program id, worker index) for a session's program structure.

        First sighting of a structure registers it on the live worker
        with the fewest programs (sticky thereafter), so distinct
        structures spread across workers while every request of one
        structure keeps hitting the same warm caches.
        """
        from repro.api.session import hashable_structure_key

        key = hashable_structure_key(session.calls)
        if key is None:
            raise ConfigurationError(
                "the worker pool routes on the program structure key, which "
                "this program does not have (list-valued call parameters); "
                "serve it through an in-process PlutoService instead"
            )
        if not isinstance(session.backend, str):
            raise ConfigurationError(
                "worker-pool sessions must select their backend by name; "
                "backend instances cannot cross process boundaries"
            )
        registered = self._programs.get(key)
        if registered is not None:
            program_id, worker_id = registered
            if worker_id in self._dead:
                raise WorkerCrashedError(
                    f"worker {worker_id} serving this program structure died"
                )
            return registered
        candidates = [
            worker_id
            for worker_id in range(self.workers)
            if worker_id not in self._dead
        ]
        if not candidates:
            raise WorkerCrashedError("every worker of the pool has died")
        worker_id = min(candidates, key=lambda w: self._programs_per_worker[w])
        program_id = self._next_program
        self._next_program += 1
        self._programs[key] = (program_id, worker_id)
        self._programs_per_worker[worker_id] += 1
        self._inboxes[worker_id].put(
            ("program", program_id, list(session.calls), session.backend)
        )
        return program_id, worker_id

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        session: "PlutoSession",
        inputs: "Mapping[str, np.ndarray]",
        *,
        shed: bool = False,
        return_outputs: bool = True,
    ) -> "concurrent.futures.Future[WorkerResult]":
        """Route one request to its affine worker; returns a future.

        Blocks while the worker's in-flight window is full
        (backpressure); with ``shed=True`` raises
        :class:`~repro.errors.ServiceOverloadError` immediately instead.
        """
        return self.submit_many(
            session, [inputs], shed=shed, return_outputs=return_outputs
        )[0]

    def submit_many(
        self,
        session: "PlutoSession",
        inputs_list: "Sequence[Mapping[str, np.ndarray]]",
        *,
        shed: bool = False,
        return_outputs: bool = True,
    ) -> "list[concurrent.futures.Future[WorkerResult]]":
        """Route a bulk of same-program requests; one future per request.

        Requests ride the IPC channel in chunks of ``chunk_size``; every
        chunk lands on the program's affine worker, where consecutive
        same-structure submissions coalesce into fused batches.
        """
        import concurrent.futures

        if not inputs_list:
            return []
        with self._admission:
            if self._closed:
                raise ServiceClosedError("the worker pool is closed")
            program_id, worker_id = self._route(session)
        futures: "list[concurrent.futures.Future[WorkerResult]]" = []
        for start in range(0, len(inputs_list), self.chunk_size):
            chunk = [
                dict(inputs) for inputs in inputs_list[start : start + self.chunk_size]
            ]
            chunk_futures = [
                concurrent.futures.Future() for _ in range(len(chunk))
            ]
            self._admit(worker_id, len(chunk), shed=shed)
            with self._admission:
                chunk_id = self._next_chunk
                self._next_chunk += 1
                self._chunks[chunk_id] = (
                    worker_id,
                    chunk_futures,
                    [time.monotonic()] * len(chunk),
                )
            self._inboxes[worker_id].put(
                ("run", chunk_id, program_id, chunk, return_outputs)
            )
            self.stats.submitted += len(chunk)
            futures.extend(chunk_futures)
        return futures

    def _admit(self, worker_id: int, count: int, *, shed: bool) -> None:
        """Take ``count`` in-flight slots on a worker, or block/shed."""
        with self._admission:
            while True:
                if self._closed:
                    raise ServiceClosedError("the worker pool is closed")
                if worker_id in self._dead:
                    raise WorkerCrashedError(
                        f"worker {worker_id} died; its requests cannot be "
                        "admitted"
                    )
                if self._inflight[worker_id] + count <= self.max_inflight:
                    self._inflight[worker_id] += count
                    return
                if shed:
                    self.stats.shed += 1
                    raise ServiceOverloadError(
                        f"worker {worker_id} is at its in-flight limit "
                        f"({self.max_inflight} requests)"
                    )
                self._admission.wait(0.05)

    # ------------------------------------------------------------------ #
    # The collector thread
    # ------------------------------------------------------------------ #
    def _collect(self) -> None:
        import queue as queue_module

        while True:
            try:
                message = self._results.get(timeout=0.1)
            except queue_module.Empty:
                self._check_workers()
                if self._all_stopped.is_set() and not self._chunks:
                    return
                continue
            kind = message[0]
            if kind == "ready":
                _, worker_id, warm_report = message
                self.warm_reports[worker_id] = warm_report
                self._ready_seen.add(worker_id)
                if len(self._ready_seen) == self.workers:
                    self._ready.set()
            elif kind == "done":
                self._resolve_chunk(message[1], message[3])
            elif kind == "stopped":
                _, worker_id, payload = message
                self.worker_reports[worker_id] = payload
                self._stopped_seen.add(worker_id)
                if len(self._stopped_seen | self._dead) >= self.workers:
                    self._all_stopped.set()
                    if not self._chunks:
                        return

    def _resolve_chunk(self, chunk_id: int, entries: list) -> None:
        with self._admission:
            registered = self._chunks.pop(chunk_id, None)
            if registered is None:
                return
            worker_id, futures, submitted_at = registered
            self._inflight[worker_id] = max(
                0, self._inflight[worker_id] - len(futures)
            )
            self._admission.notify_all()
        now = time.monotonic()
        for future, entry, started in zip(futures, entries, submitted_at):
            if isinstance(entry, BaseException):
                self.stats.failed += 1
                if not future.done():
                    future.set_exception(entry)
                continue
            self.stats.completed += 1
            self.stats.per_worker_served[worker_id] += 1
            self.stats.per_worker_busy_ns[worker_id] += entry.latency_ns
            end_to_end_s = now - started
            self.stats.latency.observe(
                queue_wait_s=entry.queue_wait_s,
                execute_s=entry.execute_s,
                end_to_end_s=end_to_end_s,
            )
            self._account_entry(entry, worker_id, end_to_end_s)
            if not future.done():
                future.set_result(entry)

    def _account_entry(
        self, entry: WorkerResult, worker_id: int, end_to_end_s: float
    ) -> None:
        """Graft the worker-side trace into a pool-level trace and record
        the request in the process-wide metrics registry.

        The pool trace gets two top-level spans that sum to the observed
        end-to-end latency: ``pool_rpc`` (dispatcher-side time the worker
        could not see — routing, IPC, queueing in the collector) and a
        ``worker`` wrapper holding the grafted worker-side span tree.
        """
        from repro.obs.metrics import record_served_request

        worker_trace = entry.request_trace
        pool_trace = new_trace("pool")
        if pool_trace is not None and worker_trace is not None:
            end_ns = time.perf_counter_ns()
            total_ns = max(int(end_to_end_s * 1e9), worker_trace.total_ns)
            pool_trace.add_span(
                "pool_rpc",
                total_ns - worker_trace.total_ns,
                start_ns=end_ns - total_ns,
                worker=worker_id,
            )
            pool_trace.graft(
                worker_trace,
                under="worker",
                start_ns=end_ns - worker_trace.total_ns,
                worker=worker_id,
            )
            pool_trace.annotate(**worker_trace.attributes)
            pool_trace.annotate(worker=worker_id)
            entry.request_trace = pool_trace
        commands = None
        if worker_trace is not None:
            by_type = worker_trace.attributes.get("dram_commands_by_type")
            if isinstance(by_type, Mapping):
                commands = by_type
        record_served_request(
            path="pool",
            end_to_end_s=end_to_end_s,
            queue_wait_s=entry.queue_wait_s,
            execute_s=entry.execute_s,
            energy_nj=entry.energy_nj,
            commands=commands,
        )

    def _check_workers(self) -> None:
        """Fail the in-flight work of any worker that died unexpectedly."""
        crashed: list[int] = []
        for worker_id, process in enumerate(self._processes):
            if worker_id in self._dead or process.is_alive():
                continue
            if worker_id in self._stopped_seen:
                continue  # clean exit, already reported
            crashed.append(worker_id)
        if not crashed:
            return
        for worker_id in crashed:
            self._dead.add(worker_id)
            error = WorkerCrashedError(
                f"worker {worker_id} exited with code "
                f"{self._processes[worker_id].exitcode}"
            )
            with self._admission:
                doomed = [
                    (chunk_id, futures)
                    for chunk_id, (owner, futures, _) in self._chunks.items()
                    if owner == worker_id
                ]
                for chunk_id, _ in doomed:
                    del self._chunks[chunk_id]
                self._inflight[worker_id] = 0
                self._admission.notify_all()
            for _, futures in doomed:
                for future in futures:
                    if not future.done():
                        self.stats.failed += 1
                        future.set_exception(error)
        if len(self._stopped_seen | self._dead) >= self.workers:
            self._all_stopped.set()
