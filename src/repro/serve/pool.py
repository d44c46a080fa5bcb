"""The multi-worker serving tier: a dispatcher over N worker processes.

:class:`PlutoWorkerPool` scales the single-process
:class:`~repro.api.service.PlutoService` across CPU cores: each worker
process holds one warm service (coalescing, fused batches, every
process-wide memo layer), and the dispatcher routes requests to workers
with **structure-key affinity** — every request of one program structure
lands on the same worker, so that worker's caches stay hot and
same-structure requests still coalesce into fused batches.  Requests and
results cross the process boundary in chunks to amortize pickling.

Transport: each worker has one duplex pipe.  The submitting thread writes
its chunk frame straight onto the worker's pipe under a per-worker send
lock, preceded — the first time a program goes down that pipe — by the
program's registration frame.  The worker serves each chunk synchronously
(:meth:`~repro.api.service.PlutoService.serve_chunk`, no event loop) and
writes the results straight back.  One collector thread blocks on every
worker's pipe and process sentinel at once, resolving futures as result
frames arrive.  No pipe write ever happens under the admission lock: a
write blocks while the worker's inbound buffer is full, and the collector
must stay free to take results meanwhile.

Admission control sits dispatcher-side: each worker has a bounded
in-flight depth, :meth:`PlutoWorkerPool.submit` blocks (backpressure)
while its worker is full, and ``shed=True`` raises
:class:`~repro.errors.ServiceOverloadError` immediately instead —
the pool-wide analogue of ``submit`` vs ``submit_nowait`` on the
single-process service.  :meth:`PlutoWorkerPool.close` drains
gracefully: a stop frame goes down each worker's pipe behind every
accepted chunk, so accepted requests complete, workers report their final
statistics, and anything left unresolved fails with
:class:`~repro.errors.ServiceClosedError` — no orphaned processes.

A worker that dies is noticed the moment its process exits: the collector
takes whatever the worker sent before dying, then fails the requests
still in flight there with :class:`~repro.errors.WorkerCrashedError`, and
refuses new ones for the program structures routed to it.

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
from repro.obs.metrics import ServedLatency
from repro.obs.trace import Span, new_trace, tracing_enabled

if TYPE_CHECKING:  # pragma: no cover - typing only
    import concurrent.futures
    from multiprocessing.connection import Connection

    import numpy as np

    from repro.api.service import ServedResult
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
    #: ``time.monotonic()`` in the worker when the request's chunk arrived
    #: and when its results were sent back: the system-wide clock of the
    #: dispatcher's submit stamp, so the hop splits into its legs.
    received_at: float = 0.0
    replied_at: float = 0.0


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
    latency: ServedLatency = field(default_factory=lambda: ServedLatency("pool"))

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


def _worker_entry(
    served: "ServedResult | Exception", return_outputs: bool, received_at: float
) -> "WorkerResult | BaseException":
    """The picklable form of one served request (or its portable error)."""
    if isinstance(served, Exception):
        return _portable_error(served)
    return WorkerResult(
        outputs=dict(served.outputs) if return_outputs else None,
        digests={name: _digest(array) for name, array in served.outputs.items()},
        latency_ns=served.latency_ns,
        energy_nj=served.energy_nj,
        queue_wait_s=served.queue_wait_s,
        execute_s=served.execute_s,
        batch_size=served.batch_size,
        backend=served.backend,
        request_trace=served.request_trace,
        received_at=received_at,
    )


def _worker_main(
    worker_id: int,
    config: "PlutoConfig | None",
    plan: "ExecutionPlan | str | None",
    max_batch: int,
    verify: bool,
    tracing: bool,
    store_path: str | None,
    connection: "Connection",
) -> None:
    """One worker: a warm :class:`PlutoService` serving frames off one pipe.

    Frames arrive in order.  ``program`` registers a program structure
    (priming it outside the service's accounting after a warm start);
    ``run`` serves one chunk synchronously through
    :meth:`~repro.api.service.PlutoService.serve_chunk` — the service's
    warm executors, artifacts and statistics persist across chunks — and
    sends back one :class:`WorkerResult` or portable error per request;
    ``stop`` ends the loop.  The final statistics report goes out last.
    """
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
    connection.send(("ready", worker_id, warm_report))

    service: "PlutoService | None" = None
    sessions: dict[int, PlutoSession] = {}
    exported: set[int] = set()

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
            message = connection.recv()
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
                        max_batch=max_batch,
                        plan=plan,
                        verify=verify,
                    )
                if warm_report is not None and warm_report["installed"]:
                    # Run the program once outside the service's accounting,
                    # so the first real request of a warm-started worker
                    # finds its warm entry, closure and controller hot.
                    try:
                        service._prime(session, _zero_inputs(session.calls))
                    except Exception:
                        pass  # priming is best-effort
                continue
            # A run frame: its program's registration always went first.
            _, chunk_id, program_id, chunk, return_outputs = message
            received_at = time.monotonic()
            assert service is not None
            try:
                entries = [
                    _worker_entry(served, return_outputs, received_at)
                    for served in service.serve_chunk(sessions[program_id], chunk)
                ]
            except Exception as error:  # the serving loop itself failed
                entries = [_portable_error(error)] * len(chunk)
            replied_at = time.monotonic()
            for entry in entries:
                if isinstance(entry, WorkerResult):
                    entry.replied_at = replied_at
            connection.send(("done", chunk_id, worker_id, entries))
            _export(program_id)
    finally:
        payload: dict = {"programs": len(sessions)}
        if service is not None:
            payload["service"] = service.stats.summary()
        try:
            payload["cache_stats"] = cache_stats()
        except Exception:
            pass
        try:
            connection.send(("stopped", worker_id, payload))
        except OSError:
            pass  # the dispatcher is gone; nobody is left to tell


# ---------------------------------------------------------------------- #
# The dispatcher
# ---------------------------------------------------------------------- #
class PlutoWorkerPool:
    """A dispatcher routing pLUTo requests across N warm worker processes.

    Use as a context manager::

        with PlutoWorkerPool(workers=4, store_path="/tmp/pluto-store") as pool:
            futures = pool.submit_many(session, inputs_list)
            results = [future.result() for future in futures]

    ``engine_config`` / ``plan`` / ``max_batch`` / ``verify`` configure
    every worker's inner :class:`~repro.api.service.PlutoService`
    identically.  ``store_path`` enables the shared warm-artifact store:
    workers warm-start from it and export what they serve back to it.
    ``max_inflight`` bounds each worker's dispatcher-side in-flight
    depth — the pool's only admission bound, since a worker serves each
    chunk as it arrives and queues nothing; ``chunk_size`` caps how many
    requests ride one pipe frame.  ``start_method`` picks the
    multiprocessing start method (``None`` = platform default;
    ``"spawn"`` gives genuinely cold processes, the warm-start proof
    mode).
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        engine_config: "PlutoConfig | None" = None,
        plan: "ExecutionPlan | str | None" = None,
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
        self._connections: "list[Connection]" = []
        self._processes: list = []
        for worker_id in range(workers):
            connection, child = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    engine_config,
                    plan,
                    max_batch,
                    verify,
                    tracing_enabled(),
                    store_path,
                    child,
                ),
                daemon=True,
            )
            process.start()
            # The worker now holds the only other end: its exit reads as EOF.
            child.close()
            self._connections.append(connection)
            self._processes.append(process)
        #: One writer per pipe at a time, so frames never interleave.
        self._send_locks = [threading.Lock() for _ in range(workers)]
        #: Program ids whose registration frame went down each pipe.
        self._registered: list[set[int]] = [set() for _ in range(workers)]

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

        The stop frame goes down each pipe *behind* every accepted chunk,
        so accepted requests complete before their worker exits; workers
        report their final statistics (collected into
        :attr:`worker_reports`).  Anything still unresolved afterwards —
        a worker crashed, or the drain timed out — fails with
        :class:`~repro.errors.ServiceClosedError`.  Worker processes are
        joined until ``timeout`` seconds after the call, then terminated:
        no orphans, even when a worker stopped reading its pipe.
        """
        deadline = time.monotonic() + timeout
        with self._admission:
            if self._closed:
                return
            self._closed = True
            self._admission.notify_all()
        for worker_id in range(self.workers):
            if worker_id not in self._dead:
                # Sent from its own thread: the stop frame queues behind the
                # sends in progress, and on a worker that stopped reading its
                # write blocks too, so only the deadline below bounds the
                # drain.  Terminating that worker ends the blocked write.
                threading.Thread(
                    target=self._send_stop,
                    args=(worker_id,),
                    name="pluto-pool-stop",
                    daemon=True,
                ).start()
        self._all_stopped.wait(max(0.0, deadline - time.monotonic()))
        for process in self._processes:
            process.join(max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(5.0)
        self._collector.join(5.0)
        self._fail_unresolved(
            ServiceClosedError("pool closed before the request ran")
        )

    def _send_stop(self, worker_id: int) -> None:
        with self._send_locks[worker_id]:
            try:
                self._connections[worker_id].send(("stop",))
            except OSError:
                pass  # the worker already exited; the collector saw it

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

        First sighting of a structure assigns it to the live worker with
        the fewest programs (sticky thereafter), so distinct structures
        spread across workers while every request of one structure keeps
        hitting the same warm caches.  The worker learns the program from
        the registration frame :meth:`_send` puts ahead of its first run.
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

        Requests ride the worker's pipe in chunks of ``chunk_size``; every
        chunk lands on the program's affine worker, where consecutive
        same-structure requests coalesce into fused batches.
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
            chunk_id = self._admit(worker_id, chunk_futures, shed=shed)
            self._send(
                worker_id,
                session,
                program_id,
                ("run", chunk_id, program_id, chunk, return_outputs),
            )
            self.stats.submitted += len(chunk)
            futures.extend(chunk_futures)
        return futures

    def _admit(self, worker_id: int, futures: list, *, shed: bool) -> int:
        """Take in-flight slots on a worker for one chunk's ``futures``
        (or block / shed) and register the chunk; returns its id.

        Registration shares the admission check's critical section, so a
        worker death the collector handles afterwards fails this chunk
        too.
        """
        count = len(futures)
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
                    chunk_id = self._next_chunk
                    self._next_chunk += 1
                    self._chunks[chunk_id] = (
                        worker_id,
                        futures,
                        [time.monotonic()] * count,
                    )
                    return chunk_id
                if shed:
                    self.stats.shed += 1
                    raise ServiceOverloadError(
                        f"worker {worker_id} is at its in-flight limit "
                        f"({self.max_inflight} requests)"
                    )
                self._admission.wait(0.05)

    def _send(
        self, worker_id: int, session: "PlutoSession", program_id: int, frame: tuple
    ) -> None:
        """Write ``frame`` onto a worker's pipe, after the program's
        registration frame the first time the program goes down it.

        Never called under ``_admission``: the write blocks while the
        worker's inbound buffer is full, and the collector needs that lock
        to take the results that let the worker read on.
        """
        with self._send_locks[worker_id]:
            connection = self._connections[worker_id]
            try:
                if program_id not in self._registered[worker_id]:
                    connection.send(
                        ("program", program_id, list(session.calls), session.backend)
                    )
                    self._registered[worker_id].add(program_id)
                connection.send(frame)
            except OSError:
                pass  # the worker exited: the collector fails its chunks

    # ------------------------------------------------------------------ #
    # The collector thread
    # ------------------------------------------------------------------ #
    def _collect(self) -> None:
        """Take frames as they arrive and notice workers as they exit.

        Blocks on every worker's pipe and process sentinel at once and
        returns when every worker has exited.  An exited worker's pipe is
        drained before judging the exit: one that sent its final report
        stopped cleanly, any other died with requests in flight.
        """
        from multiprocessing.connection import wait

        # What the collector still waits on -> worker index.
        waiting: dict = {}
        for worker_id, process in enumerate(self._processes):
            waiting[self._connections[worker_id]] = worker_id
            waiting[process.sentinel] = worker_id
        while waiting:
            for ready in wait(list(waiting)):
                worker_id = waiting.get(ready)
                if worker_id is None:
                    continue  # the pipe of a worker whose exit came first
                connection = self._connections[worker_id]
                if ready is connection:
                    if not self._receive(worker_id):
                        del waiting[connection]
                    continue
                # The process exited: take what it sent first, then judge.
                del waiting[ready]
                if connection in waiting:
                    del waiting[connection]
                    while self._receive(worker_id):
                        pass
                with self._send_locks[worker_id]:
                    connection.close()
                if worker_id not in self._stopped_seen:
                    self._fail_worker(worker_id)

    def _receive(self, worker_id: int) -> bool:
        """Take one frame from a worker's pipe; ``False`` at its end."""
        try:
            message = self._connections[worker_id].recv()
        except (EOFError, OSError):
            return False
        kind = message[0]
        if kind == "done":
            self._resolve_chunk(message[1], message[3])
        elif kind == "ready":
            self.warm_reports[worker_id] = message[2]
            self._ready_seen.add(worker_id)
            if len(self._ready_seen) == self.workers:
                self._ready.set()
        elif kind == "stopped":
            self.worker_reports[worker_id] = message[2]
            self._stopped_seen.add(worker_id)
            if len(self._stopped_seen | self._dead) >= self.workers:
                self._all_stopped.set()
        return True

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
            self._account_entry(entry, worker_id, started, now)
            if not future.done():
                future.set_result(entry)

    def _account_entry(
        self,
        entry: WorkerResult,
        worker_id: int,
        submitted_at: float,
        resolved_at: float,
    ) -> None:
        """Graft the worker-side trace into a pool-level trace and record
        the request in the pool's latency distributions and the
        process-wide metrics registry (one call).

        The pool trace gets two top-level spans that sum to the observed
        end-to-end latency: ``pool_rpc`` (time outside the worker's
        service spans) and a ``worker`` wrapper holding the grafted
        worker-side span tree.  ``pool_rpc`` splits into three children
        that sum to it, cut at the worker's monotonic stamps:
        ``to_worker`` (submit until the worker holds the unpickled chunk:
        admission, pickling, the pipe), ``in_worker`` (worker time outside
        the service's spans: digests, building results) and
        ``to_dispatcher`` (reply until the future resolves: pickling, the
        pipe back, unpickling).
        """
        end_to_end_s = resolved_at - submitted_at
        worker_trace = entry.request_trace
        pool_trace = new_trace("pool")
        if pool_trace is not None and worker_trace is not None:
            end_ns = time.perf_counter_ns()
            total_ns = max(int(end_to_end_s * 1e9), worker_trace.total_ns)
            rpc_ns = total_ns - worker_trace.total_ns
            rpc = pool_trace.add_span(
                "pool_rpc", rpc_ns, start_ns=end_ns - total_ns, worker=worker_id
            )
            to_worker = min(rpc_ns, max(0, int((entry.received_at - submitted_at) * 1e9)))
            to_dispatcher = min(
                rpc_ns - to_worker, max(0, int((resolved_at - entry.replied_at) * 1e9))
            )
            start_ns = rpc.start_ns
            for name, duration_ns in (
                ("to_worker", to_worker),
                ("in_worker", rpc_ns - to_worker - to_dispatcher),
                ("to_dispatcher", to_dispatcher),
            ):
                rpc.children.append(Span(name, start_ns, duration_ns))
                start_ns += duration_ns
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
        self.stats.latency.observe(
            queue_wait_s=entry.queue_wait_s,
            execute_s=entry.execute_s,
            end_to_end_s=end_to_end_s,
            energy_nj=entry.energy_nj,
            commands=commands,
        )

    def _fail_worker(self, worker_id: int) -> None:
        """Fail the in-flight work of a worker that died unexpectedly."""
        process = self._processes[worker_id]
        process.join(1.0)  # it has exited; reap it for its exit code
        error = WorkerCrashedError(
            f"worker {worker_id} exited with code {process.exitcode}"
        )
        with self._admission:
            self._dead.add(worker_id)
            doomed = [
                chunk_id
                for chunk_id, (owner, _, _) in self._chunks.items()
                if owner == worker_id
            ]
            futures = [
                future for chunk_id in doomed for future in self._chunks.pop(chunk_id)[1]
            ]
            self._inflight[worker_id] = 0
            self._admission.notify_all()
        for future in futures:
            if not future.done():
                self.stats.failed += 1
                future.set_exception(error)
        if len(self._stopped_seen | self._dead) >= self.workers:
            self._all_stopped.set()
