"""The four workloads: seeded requests, set-up, and the timed loops.

Every input comes from the workload seed: the family inputs, the random
cold programs, and the Poisson arrival schedule.  The program under test
receives only the generated inputs.  Each workload runs in a fresh
process with one generating thread (see ``run.py``); this module holds
what that process does.
"""

from __future__ import annotations

import concurrent.futures
import functools
import gc
import itertools
import resource
import shutil
import tempfile
import time
import zlib
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from perfbench import hostspeed
from perfbench.spans import SELF_TIME_METRICS, WRAPPED, Tracer
from perfbench.stats import percentile, scaled_rate, scaled_time, window_size

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import PlutoSession

__all__ = [
    "WORKLOADS",
    "SAMPLE_FLOOR",
    "RequestClass",
    "ProgramShape",
    "digest",
    "family_classes",
    "cold_shapes",
    "instantiate",
    "poisson_schedule",
    "reference_classes",
    "run_child",
]

WORKLOADS = ("run-small", "auto-large", "serve-pool", "cold-programs")

#: Every run holds at least this many timed requests, so a p99 has ten
#: samples beyond it; the first this-many requests, rounded up to whole
#: rounds, are the fixed request list the modelled (device-time)
#: metrics average over.
SAMPLE_FLOOR = 1000
#: Elements per vector of the six registry families, per workload.
FAMILY_ELEMENTS = {"run-small": 256, "auto-large": 65536, "serve-pool": 4096}
#: Elements per LUT query of the host-speed kernel that scales each
#: workload: the families' own vector size, and the smallest for the cold
#: programs, whose host time is mostly interpreter work (planning,
#: optimizing, verifying, code generation).  Over five runs whose
#: unscaled p50 read 6.1-11.0 ms, cold-programs scaled by the 256, 1024
#: and 4096-element kernels spread 10%, 15% and 22%.
KERNEL_ELEMENTS = dict(FAMILY_ELEMENTS, **{"cold-programs": 256})
#: A timed loop closes a segment, and measures the host's speed, at the
#: first whole round after this long (see :mod:`perfbench.hostspeed`).
SEGMENT_S = 0.25
#: Open-loop arrival rate of serve-pool (about a fifth of the rate at
#: which single submits saturate one worker on a 2-core host).
POOL_RATE_RPS = 200.0
#: Share of the window serve-pool spends in its open-loop phase.
POOL_OPEN_SHARE = 0.6
#: Open-loop requests per segment of serve-pool (40 rounds, 1.2 s).  The
#: generator lets the segment's requests finish before it measures the
#: host and starts the next segment.
POOL_SEGMENT = 240
#: Requests per closed-loop bulk of serve-pool.
POOL_BULK = 256
#: Cold program shapes: one per (elements, call count) pair.
COLD_SIZES = (256, 1024, 4096)
COLD_CALLS = (2, 3, 4, 5, 6)
#: Operation kinds of a shape with n calls: the first n of this cycle,
#: in seeded order, so every seed draws the same mix of kinds.
COLD_KINDS = ("map", "bitwise", "map", "shift", "move", "map")
#: Seed of the cold shapes' operations and operands (not of their data).
COLD_STRUCTURE_SEED = 20220601
#: Cold programs per second of ``--seconds``.  The count never depends
#: on host speed: the program caches grow with every cold program, and
#: the collector's pauses grow with them.
COLD_PER_SECOND = 100
#: Hard stop for a timed window that cannot reach its sample floor.
MAX_WINDOW_S = 120.0
#: Memo layers whose hit ratio the traced run reports.
CACHE_LAYERS = (
    "verifier",
    "optimizer",
    "planner",
    "trace_templates",
    "compiled_exec",
    "scheduler_merges",
)

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench" / "tmp"


def digest(array: np.ndarray) -> int:
    """CRC32 of an output vector's ``uint64`` bytes (the pool's digest)."""
    return zlib.crc32(np.ascontiguousarray(array, dtype=np.uint64))


# ---------------------------------------------------------------------- #
# Seeded requests
# ---------------------------------------------------------------------- #
@dataclass
class RequestClass:
    """A recorded program with its seeded inputs.

    ``suffix`` is the instance tag appended to every vector name of a
    cold program; stripping it gives the output's role, which is what
    the reference digests are keyed on.
    """

    name: str
    session: "PlutoSession"
    inputs: dict[str, np.ndarray]
    suffix: str = ""

    def role(self, vector: str) -> str:
        """The output's name with this instance's tag removed."""
        return vector[: len(vector) - len(self.suffix)] if self.suffix else vector

    def digests(self, named: dict) -> dict[str, int]:
        """Output digests (or pool-side digests) keyed by role."""
        return {
            self.role(name): value if isinstance(value, int) else digest(value)
            for name, value in named.items()
        }


def family_classes(
    elements: int, seed: int, backend: str = "vectorized"
) -> list[RequestClass]:
    """The six registry families at ``elements``, inputs drawn from ``seed``."""
    from repro.workloads.programs import optimizer_workload_programs

    classes = []
    for program in optimizer_workload_programs(elements, seed):
        program.session.backend = backend
        classes.append(RequestClass(program.name, program.session, program.inputs))
    return classes


@dataclass(frozen=True)
class ProgramShape:
    """A random program: operations, operands, and table contents.

    Each timed request instantiates a shape under fresh vector and table
    names (:func:`instantiate`), so every request has a never-seen
    program structure while its outputs stay those of the shape.
    """

    name: str
    elements: int
    #: ``("add",)``, ``("map", operand, table)``, ``(bitwise, a, b)``,
    #: ``("shift", operand, bits, direction)`` or ``("move", operand)``;
    #: operands index the 8-bit vectors defined so far (``x0``, ``x1``,
    #: then each call's output in order).
    ops: tuple[tuple, ...]
    inputs: dict[str, np.ndarray] = field(compare=False)


def _random_shape(
    structure: np.random.Generator,
    data: np.random.Generator,
    name: str,
    elements: int,
    calls: int,
    add: bool,
) -> ProgramShape:
    ops: list[tuple] = []
    defined = 2
    if add:
        # The families' nibble add: two 4-bit inputs, an 8-bit sum.
        ops.append(("add",))
        defined += 1
    for kind in structure.permutation(COLD_KINDS[: calls - len(ops)]):
        a, b = int(structure.integers(defined)), int(structure.integers(defined))
        if kind == "map":
            table = tuple(int(value) for value in data.integers(0, 256, 256))
            ops.append(("map", a, table))
        elif kind == "bitwise":
            ops.append((("and", "or", "xor")[int(structure.integers(3))], a, b))
        elif kind == "shift":
            bits = int(structure.integers(0, 4))
            ops.append(("shift", a, bits, "l" if structure.random() < 0.5 else "r"))
        else:
            ops.append(("move", a))
        defined += 1
    inputs = {
        "x0": data.integers(0, 256, elements, dtype=np.uint64),
        "x1": data.integers(0, 256, elements, dtype=np.uint64),
        "n0": data.integers(0, 16, elements, dtype=np.uint64),
        "n1": data.integers(0, 16, elements, dtype=np.uint64),
    }
    return ProgramShape(name, elements, tuple(ops), inputs)


def cold_shapes(seed: int) -> list[ProgramShape]:
    """One random shape per (elements, call count); tables and inputs from ``seed``.

    The operations and operands come from a fixed generator, so every
    seed times the same program structures and the modelled cost of the
    fixed request list does not depend on the seed; the seed draws the
    table contents and the inputs.  Every other shape starts with the
    nibble add.
    """
    structure = np.random.default_rng(COLD_STRUCTURE_SEED)
    data = np.random.default_rng([seed, 1])
    return [
        _random_shape(
            structure, data, f"shape{index}", elements, calls, add=index % 2 == 1
        )
        for index, (elements, calls) in enumerate(
            itertools.product(COLD_SIZES, COLD_CALLS)
        )
    ]


def instantiate(
    shape: ProgramShape, tag: str, backend: str = "vectorized"
) -> RequestClass:
    """The shape recorded under names no other instance uses."""
    from repro.api.session import PlutoSession
    from repro.core.lut import LookupTable

    suffix = f"_{tag}"
    session = PlutoSession(backend=backend)

    def vector(role: str, bits: int):
        return session.pluto_malloc(shape.elements, bits, role + suffix)

    defined = [vector("x0", 8), vector("x1", 8)]
    for index, op in enumerate(shape.ops):
        out = vector(f"t{index}", 8)
        kind = op[0]
        if kind == "add":
            session.api_pluto_add(
                vector("n0", 4), vector("n1", 4), out, bit_width=4
            )
        elif kind == "map":
            table = LookupTable(
                values=op[2], index_bits=8, element_bits=8, name=f"lut{index}{suffix}"
            )
            session.api_pluto_map(table, defined[op[1]], out)
        elif kind == "shift":
            session.api_pluto_shift(defined[op[1]], out, op[2], op[3])
        elif kind == "move":
            session.api_pluto_move(defined[op[1]], out)
        else:
            session.api_pluto_bitwise(kind, defined[op[1]], defined[op[2]], out)
        defined.append(out)
    read = {vector.name for call in session.calls for vector in call.inputs}
    written = {call.output.name for call in session.calls}
    external = read - written
    inputs = {
        role + suffix: data
        for role, data in shape.inputs.items()
        if role + suffix in external
    }
    return RequestClass(shape.name, session, inputs, suffix)


def poisson_schedule(
    seed: int, count: int, rate: float, classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Send offsets (s) of ``count`` Poisson arrivals and their classes.

    Each run of ``classes`` consecutive arrivals is a shuffle of every
    class, so any whole number of runs holds the same class mix.
    """
    rng = np.random.default_rng([seed, 2])
    offsets = np.cumsum(rng.exponential(1.0 / rate, count))
    rounds = -(-count // classes)
    order = np.concatenate([rng.permutation(classes) for _ in range(rounds)])
    return offsets, order[:count]


def reference_classes(workload: str, seed: int) -> list[RequestClass]:
    """The workload's request classes on the functional backend (the oracle)."""
    if workload == "cold-programs":
        return [
            instantiate(shape, "ref", backend="functional")
            for shape in cold_shapes(seed)
        ]
    return family_classes(FAMILY_ELEMENTS[workload], seed, backend="functional")


# ---------------------------------------------------------------------- #
# What a timed window records
# ---------------------------------------------------------------------- #
@dataclass
class Measurement:
    """Raw samples of one timed window, turned into metrics at the end."""

    reference: dict[str, dict[str, int]]
    #: Requests per round over every request class.
    period: int = 1
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Host ns per request, untraced (all requests when tracing is off).
    latency_ns: list[int] = field(default_factory=list)
    #: Host ns per request in the traced blocks of a traced run.
    traced_ns: list[int] = field(default_factory=list)
    #: Per segment of an untraced run: (median host µs, host slowdown)
    #: and (requests per host second, host slowdown).
    p50_segments: list[tuple[float, float]] = field(default_factory=list)
    rate_segments: list[tuple[float, float]] = field(default_factory=list)
    #: (modelled ns, modelled nJ, DRAM commands, LUT queries, sharded)
    #: of the fixed request list.
    fixed: list[tuple] = field(default_factory=list)
    #: class -> (plan label, modelled ns, modelled pJ) -> requests.
    plans: dict[str, Counter] = field(default_factory=lambda: defaultdict(Counter))
    #: Candidates priced per planner miss.
    candidates: list[int] = field(default_factory=list)
    cache_before: dict = field(default_factory=dict)
    cache_after: dict = field(default_factory=dict)
    #: Wrapped callable -> (self ns, calls); empty where nothing is wrapped.
    span_totals: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    # serve-pool only.
    queue_wait_s: list[float] = field(default_factory=list)
    execute_s: list[float] = field(default_factory=list)
    rpc_s: list[float] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    batch_sizes: list[int] = field(default_factory=list)
    warm_start_s: float = 0.0

    @property
    def window(self) -> int:
        """Whole rounds holding at least :data:`SAMPLE_FLOOR` requests.

        The first ``window`` requests are the fixed request list, and every
        run holds at least this many.
        """
        return -(-SAMPLE_FLOOR // self.period) * self.period

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 5:
            self.failures.append(message)

    def close_segment(self, first: int, end: int, slowdown: float) -> None:
        """Make ``latency_ns[first:end]`` one segment, measured at ``slowdown``."""
        samples = self.latency_ns[first:end]
        self.p50_segments.append((percentile(samples, 50) / 1e3, slowdown))
        self.rate_segments.append((len(samples) * 1e9 / sum(samples), slowdown))

    def check(self, request: RequestClass, named: dict) -> None:
        """Compare outputs (or their digests) with the oracle's."""
        expected = self.reference[request.name]
        got = request.digests(named)
        if got != expected:
            self.fail(f"{request.name}: outputs differ from the functional oracle")

    def observe(self, request: RequestClass, result, fixed: bool) -> None:
        """Record the modelled cost and plan of an in-process result."""
        plan = result.execution_plan
        self.plans[request.name][
            (plan.label(), result.latency_ns, result.energy_nj * 1e3)
        ] += 1
        if result.planner is not None and not result.planner.cached:
            self.candidates.append(len(result.planner.candidates))
        if fixed:
            self.fixed.append(
                (
                    result.latency_ns,
                    result.energy_nj,
                    len(result.trace.commands),
                    result.lut_queries,
                    plan.hierarchical or plan.effective_shards > 1,
                )
            )

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def end_to_end(self) -> dict[str, float]:
        """Every end-to-end metric but ``setup_s`` (the parent measures it)."""
        fixed = np.asarray(self.fixed, dtype=np.float64)
        return {
            "latency_p50_us": scaled_time(self.p50_segments),
            "throughput_rps": scaled_rate(self.rate_segments),
            "modelled_ns_per_request": float(fixed[:, 0].mean()),
            "energy_pj_per_request": float(fixed[:, 1].mean() * 1e3),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def per_layer(self) -> dict[str, float]:
        """Every per-layer metric of a traced run."""
        fixed = np.asarray(self.fixed, dtype=np.float64)
        traced = max(len(self.traced_ns), 1)
        totals = {target.name: self.span_totals.get(target.name, (0, 0)) for target in WRAPPED}
        values: dict[str, float] = {
            "latency_p99_us": percentile(self.latency_ns, 99) / 1e3,
        }
        for metric, names in SELF_TIME_METRICS.items():
            self_ns = sum(totals[name][0] for name in names)
            values[metric] = self_ns / traced / 1e3
        for target in WRAPPED:
            values[f"{target.name}.calls_per_request"] = totals[target.name][1] / traced
        values["plan.candidates_per_miss"] = (
            float(np.mean(self.candidates)) if self.candidates else 0.0
        )
        for layer in CACHE_LAYERS:
            values[f"cache.{layer}.hit_ratio"] = _hit_ratio(
                self.cache_before.get(layer, {}), self.cache_after.get(layer, {})
            )
        pool = bool(self.queue_wait_s)
        values["service.queue_wait_p50_us"] = _us(self.queue_wait_s, 50)
        values["service.queue_wait_p99_us"] = _us(self.queue_wait_s, 99)
        values["service.execute_p50_us"] = _us(self.execute_s, 50)
        values["service.batch_size_mean"] = (
            float(np.mean(self.batch_sizes)) if pool else 0.0
        )
        values["pool.rpc_p50_us"] = _us(self.rpc_s, 50)
        values["pool.rpc_p99_us"] = _us(self.rpc_s, 99)
        values["pool.generator_late_p99_us"] = _us(self.late_s, 99)
        values["store.warm_start_s"] = self.warm_start_s
        commands = float(fixed[:, 2].mean())
        values["dram.commands_per_request"] = commands
        values["dram.lut_queries_per_request"] = float(fixed[:, 3].mean())
        values["plan.sharded_share"] = float(fixed[:, 4].mean())
        values["sim.host_ns_per_command"] = float(np.mean(self.latency_ns)) / commands
        values["bench.trace_overhead"] = (
            percentile(self.traced_ns, 50) / percentile(self.latency_ns, 50) - 1.0
            if self.traced_ns
            else 0.0
        )
        values["failed_ratio"] = self.failed / max(self.attempted, 1)
        return values

    def payload(self, trace: bool) -> dict:
        """What the measuring process hands back to ``run.py``."""
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "metrics": self.per_layer() if trace else self.end_to_end(),
            "samples": len(self.latency_ns),
            "traced_samples": len(self.traced_ns),
            # Unscaled medians and the host's slowdown, for the record.
            "host": {
                "segments": [len(self.p50_segments), len(self.rate_segments)],
                "slowdown": _median([slow for _, slow in self.p50_segments]),
                "raw_latency_p50_us": _median([v for v, _ in self.p50_segments]),
                "raw_throughput_rps": _median([v for v, _ in self.rate_segments]),
            },
            "plans": [
                [name, label, ns, pj, count]
                for name, labels in sorted(self.plans.items())
                for (label, ns, pj), count in sorted(labels.items())
            ],
        }


def _hit_ratio(before: dict, after: dict) -> float:
    """Hits over lookups in the window; 1 when the layer saw no lookup."""
    hits = after.get("hits", 0) - before.get("hits", 0)
    misses = after.get("misses", 0) - before.get("misses", 0)
    return hits / (hits + misses) if hits + misses else 1.0


def _median(values: list[float]) -> float:
    """Median, or 0 when nothing was measured (as in a traced run)."""
    return float(np.median(values)) if values else 0.0


def _us(seconds: list[float], q: float) -> float:
    """A percentile of second-valued samples in µs (0 when not measured)."""
    return percentile(seconds, q) * 1e6 if seconds else 0.0


def _peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# ---------------------------------------------------------------------- #
# The workloads
# ---------------------------------------------------------------------- #
class InProcess:
    """run-small, auto-large, cold-programs: a closed loop of one client.

    Each request is one ``PlutoSession.run`` call, timed on its own.  An
    untraced run is cut into segments of whole rounds, about
    :data:`SEGMENT_S` each, and the host's slowdown is measured between
    them.  In a traced run the tracer is installed for every other block
    of requests, so traced and untraced requests share the window and
    the untraced blocks measure the tracing overhead.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.classes: list[RequestClass] = []
        self.shapes: list[ProgramShape] = []
        self.run_kwargs: dict = {}

    def setup(self) -> None:
        if self.workload == "cold-programs":
            from repro.core.engine import PlutoConfig, PlutoEngine

            # The default engine skips the static verifier; verifying
            # untrusted programs is what a cold front door would do.
            engine = PlutoEngine(PlutoConfig(verify="always"))
            self.run_kwargs = {"plan": "auto", "engine": engine}
            self.shapes = cold_shapes(self.seed)
            first = [
                instantiate(shape, f"setup{index}")
                for index, shape in enumerate(self.shapes)
            ]
        else:
            if self.workload == "auto-large":
                self.run_kwargs = {"plan": "auto"}
            self.classes = family_classes(FAMILY_ELEMENTS[self.workload], self.seed)
            first = self.classes
        for request in first:
            request.session.run(request.inputs, **self.run_kwargs)

    @property
    def period(self) -> int:
        """Requests per round over every request class."""
        return len(self.shapes) or len(self.classes)

    def request(self, index: int) -> RequestClass:
        if self.shapes:
            return instantiate(self.shapes[index % len(self.shapes)], f"r{index}")
        return self.classes[index % len(self.classes)]

    def measure(self, m: Measurement, seconds: float, trace: bool) -> None:
        from repro.api.session import cache_stats

        tracer = Tracer() if trace else None
        m.period = self.period
        block = 4 * self.period
        clock = time.perf_counter_ns
        run_kwargs = self.run_kwargs
        # Warm workloads run for the window; cold-programs runs a count.
        # A traced run doubles the floor, so its untraced half gives a p99.
        timed = not self.shapes
        quota = m.window if timed else max(m.window, int(COLD_PER_SECOND * seconds))
        if trace:
            quota *= 2
        segment_ns = int(SEGMENT_S * 1e9)
        shortest = window_size(50, self.period)
        elements = KERNEL_ELEMENTS[self.workload]
        # Start the window without garbage left over from set-up.
        gc.collect()
        m.cache_before = cache_stats()
        slowdown = hostspeed.slowdown(elements)
        started = clock()
        deadline = started + int(seconds * 1e9)
        cap = started + int(MAX_WINDOW_S * 1e9)
        segment_began, first = clock(), 0
        index = 0
        try:
            while (index < quota or timed and clock() < deadline) and clock() < cap:
                request = self.request(index)
                traced = tracer is not None and (index // block) % 2 == 1
                if tracer is not None:
                    tracer.install() if traced else tracer.remove()
                m.attempted += 1
                index += 1
                try:
                    began = clock()
                    result = request.session.run(request.inputs, **run_kwargs)
                    ended = clock()
                except Exception as error:
                    m.fail(f"{request.name}: {type(error).__name__}: {error}")
                    continue
                (m.traced_ns if traced else m.latency_ns).append(ended - began)
                m.check(request, result.outputs)
                m.observe(request, result, fixed=index <= m.window)
                if (
                    tracer is None
                    and index % self.period == 0
                    and ended - segment_began >= segment_ns
                    and len(m.latency_ns) - first >= shortest
                ):
                    after = hostspeed.slowdown(elements)
                    m.close_segment(first, len(m.latency_ns), (slowdown + after) / 2)
                    slowdown, first = after, len(m.latency_ns)
                    segment_began = clock()
        finally:
            if tracer is not None:
                tracer.remove()
        # The trailing segment, cut to whole rounds, if it supports a median.
        tail = (len(m.latency_ns) - first) // self.period * self.period
        if tracer is None and tail >= shortest:
            after = hostspeed.slowdown(elements)
            m.close_segment(first, first + tail, (slowdown + after) / 2)
        m.cache_after = cache_stats()
        m.peak_rss_mb = _peak_rss_mb()
        if tracer is not None:
            m.span_totals = tracer.totals()

    def teardown(self) -> None:
        pass


def _stamp(done: list, index: int, _future: object) -> None:
    done[index] = time.perf_counter()


class ServePool:
    """serve-pool: one spawned, warm-started worker behind the dispatcher.

    Phase A sends seeded Poisson arrivals open loop, one ``submit`` per
    request, and times each from its scheduled send time to its result;
    it runs in segments of :data:`POOL_SEGMENT` requests.  Phase B sends
    closed-loop ``map_parallel`` bulks, one family at a time; its rate
    is the workload's throughput.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.seed = seed
        self.classes: list[RequestClass] = []
        #: class -> (DRAM commands, LUT queries, plan label) of an
        #: in-process run under the worker's (default) plan.
        self.accounting: dict[str, tuple[int, int, str]] = {}
        self.pool = None
        self.store_dir: str | None = None

    def setup(self) -> None:
        from repro.serve.pool import PlutoWorkerPool
        from repro.serve.store import SharedArtifactStore

        self.classes = family_classes(FAMILY_ELEMENTS["serve-pool"], self.seed)
        SCRATCH.mkdir(parents=True, exist_ok=True)
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=SCRATCH)
        store = SharedArtifactStore(self.store_dir)
        for request in self.classes:
            result = request.session.run(request.inputs)
            self.accounting[request.name] = (
                len(result.trace.commands),
                result.lut_queries,
                result.execution_plan.label(),
            )
            store.export(request.session.calls, plan=None)
        # spawn: the worker inherits no warm caches through fork.
        self.pool = PlutoWorkerPool(
            workers=1, store_path=self.store_dir, start_method="spawn"
        )
        if not self.pool.wait_ready(60):
            raise RuntimeError("the pool worker did not start within 60 s")
        for request in self.classes:
            self.pool.submit(
                request.session, request.inputs, return_outputs=False
            ).result(timeout=60)

    def measure(self, m: Measurement, seconds: float, trace: bool) -> None:
        m.period = len(self.classes)
        count = max(m.window, int(POOL_OPEN_SHARE * seconds * POOL_RATE_RPS))
        count = -(-count // POOL_SEGMENT) * POOL_SEGMENT
        offsets, order = poisson_schedule(
            self.seed, count, POOL_RATE_RPS, len(self.classes)
        )
        # Nothing wrapped runs in this process, so nothing is traced: the
        # traced run's layer numbers come from WorkerResult fields.
        gc.collect()
        started = time.perf_counter()
        for first in range(0, count, POOL_SEGMENT):
            self._open_segment(m, offsets, order, first)
        self._bulks(m, started + seconds)
        self.pool.close()
        report = self.pool.worker_reports.get(0, {})
        # The worker's own memo counters: its lifetime is the warm start,
        # the set-up requests and this window.
        m.cache_after = report.get("cache_stats", {})
        m.warm_start_s = self.pool.warm_reports[0]["load_time_s"]
        m.peak_rss_mb = _peak_rss_mb() + _peak_rss_mb(children=True)

    def _open_segment(
        self, m: Measurement, offsets: np.ndarray, order: np.ndarray, first: int
    ) -> None:
        """Send arrivals ``first`` to ``first + POOL_SEGMENT`` on their schedule.

        The segment's schedule starts when the previous segment's requests
        have all finished and the host's speed has been measured.
        """
        pool, classes = self.pool, self.classes
        last = first + POOL_SEGMENT
        sent = [0.0] * POOL_SEGMENT
        done = [0.0] * POOL_SEGMENT
        futures = []
        clock = time.perf_counter
        slowdown = hostspeed.slowdown(KERNEL_ELEMENTS["serve-pool"])
        origin = clock() + 0.01 - (offsets[first - 1] if first else 0.0)
        for index in range(first, last):
            delay = origin + offsets[index] - clock()
            if delay > 0:
                time.sleep(delay)
            request = classes[order[index]]
            sent[index - first] = clock()
            future = pool.submit(request.session, request.inputs, return_outputs=False)
            future.add_done_callback(functools.partial(_stamp, done, index - first))
            futures.append(future)
        concurrent.futures.wait(futures, timeout=60)
        begin = len(m.latency_ns)
        for index, future in zip(range(first, last), futures):
            request = classes[order[index]]
            m.attempted += 1
            try:
                entry = future.result(timeout=0)
            except Exception as error:
                m.fail(f"{request.name}: {type(error).__name__}: {error}")
                continue
            m.check(request, entry.digests)
            due = origin + offsets[index]
            sent_at, done_at = sent[index - first], done[index - first]
            m.latency_ns.append(int((done_at - due) * 1e9))
            m.queue_wait_s.append(entry.queue_wait_s)
            m.execute_s.append(entry.execute_s)
            m.rpc_s.append(done_at - sent_at - entry.queue_wait_s - entry.execute_s)
            m.late_s.append(sent_at - due)
            commands, lut_queries, label = self.accounting[request.name]
            m.plans[request.name][(label, entry.latency_ns, entry.energy_nj * 1e3)] += 1
            if index < m.window:
                m.fixed.append(
                    (entry.latency_ns, entry.energy_nj, commands, lut_queries, False)
                )
        samples = m.latency_ns[begin:]
        if len(samples) >= window_size(50, m.period):
            after = hostspeed.slowdown(KERNEL_ELEMENTS["serve-pool"])
            m.p50_segments.append(
                (percentile(samples, 50) / 1e3, (slowdown + after) / 2)
            )

    def _bulks(self, m: Measurement, deadline: float) -> None:
        """Closed-loop rounds of one bulk per family until ``deadline``.

        Each round is a segment: its rate is its requests over the host
        time spent in ``map_parallel``, and the host's speed is measured
        between rounds, when nothing is in flight.
        """
        from repro.serve.client import map_parallel

        clock = time.perf_counter
        elements = KERNEL_ELEMENTS["serve-pool"]
        slowdown = hostspeed.slowdown(elements)
        while not m.rate_segments or clock() < deadline:
            served, busy = 0, 0.0
            for request in self.classes:
                m.attempted += POOL_BULK
                began = clock()
                try:
                    entries = map_parallel(
                        self.pool,
                        request.session,
                        [request.inputs] * POOL_BULK,
                        return_outputs=False,
                    )
                except Exception as error:
                    m.fail(f"{request.name}: {type(error).__name__}: {error}", POOL_BULK)
                    continue
                busy += clock() - began
                served += POOL_BULK
                for entry in entries:
                    m.check(request, entry.digests)
                    m.batch_sizes.append(entry.batch_size)
            after = hostspeed.slowdown(elements)
            if served:
                m.rate_segments.append((served / busy, (slowdown + after) / 2))
            slowdown = after

    def teardown(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        # Wait for multiprocessing's resource tracker too, so no process
        # this one started outlives it.
        from multiprocessing import resource_tracker

        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None


def run_child(
    role: str,
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    reference: dict[str, dict[str, int]],
) -> dict | None:
    """Set up ``workload``, announce readiness, and (role ``measure``) run it.

    ``@ready`` on standard output marks the end of set-up; ``run.py``
    times it from process start.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    runner = ServePool(workload, seed) if workload == "serve-pool" else InProcess(
        workload, seed
    )
    try:
        runner.setup()
        print("@ready", flush=True)
        if role != "measure":
            return None
        measurement = Measurement(reference)
        runner.measure(measurement, seconds, trace)
        return measurement.payload(trace)
    finally:
        runner.teardown()
