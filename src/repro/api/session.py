"""The pLUTo Library session: ``pluto_malloc`` and the ``api_pluto_*`` routines.

A :class:`PlutoSession` records the program a user expresses with library
calls (Figure 5 b).  The session builds the symbolic call list; the pLUTo
Compiler turns it into ISA instructions and the pLUTo Controller executes
those on the functional engine.

The session is also the one execution front door: :meth:`PlutoSession.run`
compiles (through a process-wide compiled-program cache keyed on program
*structure*, so equal-shaped sessions compile once) and executes on the
session's selected backend — the vectorized NumPy fast path by default,
or the bit-exact subarray row-sweep path with ``backend="functional"``.
A batch of input sets is one :meth:`~PlutoSession.run` per set, each
served from the same warm entry.  Every execution exposes the same
:class:`~repro.controller.executor.ExecutionResult` with its full command
trace, whichever backend produced it.

The async service that serves a session, and the shared artifact store,
prepare a program as :meth:`~PlutoSession.run` does: through
:func:`prepare_execution` (plan, optimize, compile, verify) into one
:class:`ProgramArtifact` per program and plan request, kept in a bounded
process-wide table.  An artifact carries where it runs (a sharded one
its verified layout), so :meth:`ProgramArtifact.run` executes any of them
on one :class:`~repro.controller.dispatch.ParallelDispatcher` per engine
and backend: the unsharded program on its controller, a layout on the
dispatcher.  A session keeps one such dispatcher and the artifacts of
its recent runs as warm entries, and the async service reuses the
submitting session's entries.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple, Sequence

import numpy as np

from repro.api.handles import ApiCall, PlutoVector
from repro.api.luts import BITWISE_OPERATIONS, add_lut, bitwise_lut, multiply_lut
from repro.core.engine import PlutoConfig
from repro.core.lut import LookupTable
from repro.errors import ConfigurationError, ReproError, VerificationError
from repro.obs.trace import NOOP_SPAN, activate, deactivate, new_trace, span_of, stage
from repro.utils.memo import BoundedMemo, clear_layers, layer_stats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.analyze.diagnostics import VerificationReport
    from repro.api.service import PlutoService
    from repro.backend.base import ExecutionBackend
    from repro.compiler.lowering import CompiledProgram
    from repro.controller.dispatch import (
        ParallelDispatcher,
        ShardedExecutionResult,
        ShardLayout,
    )
    from repro.controller.executor import ExecutionResult
    from repro.core.engine import PlutoEngine
    from repro.obs.trace import RequestTrace
    from repro.opt.pipeline import OptimizedProgram
    from repro.opt.report import OptimizationReport
    from repro.plan.execution_plan import ExecutionPlan
    from repro.plan.planner import PlannedProgram, PlannerReport

__all__ = [
    "PlutoSession",
    "ArtifactIdentity",
    "ProgramArtifact",
    "prepare_execution",
    "insert_artifact",
    "program_structure_key",
    "compile_cached",
    "compile_cached_with_key",
    "clear_all_caches",
    "cache_stats",
]


#: Process-wide compiled-program cache: structure key -> CompiledProgram,
#: bounded like the trace templates so a stream of never-seen programs
#: cannot grow it without limit.
_PROGRAM_CACHE: "BoundedMemo[CompiledProgram]" = BoundedMemo("programs", 1024)

#: Process-wide artifact table: request identity -> ProgramArtifact.
_ARTIFACTS: "BoundedMemo[ProgramArtifact]" = BoundedMemo("artifacts", 512)

#: Bumped by :func:`clear_all_caches`; a session's warm entries made
#: before the bump no longer serve runs.
_generation = 0


def program_structure_key(calls: Sequence[ApiCall]) -> tuple:
    """Hashable program-structure key (see :mod:`repro.compiler.lowering`)."""
    from repro.compiler.lowering import program_structure_key as _key

    return _key(list(calls))


#: Sentinel distinguishing "compute the key" from "known unhashable".
_KEY_UNSET: object = object()


def hashable_structure_key(calls: Sequence[ApiCall]) -> "tuple | None":
    """The program structure key, or ``None`` when it is not hashable.

    The key of the compile, verify and optimize memos (``None`` counts
    as ``uncached`` there).  The execution front doors compute it once
    per run and thread it through both the verifier memo and the compile
    cache, so neither layer rebuilds the key on the hot path.
    """
    try:
        key = program_structure_key(calls)
        # The key tuple builds fine around unhashable parameter values
        # and only fails at hash time — probe before handing it out.
        hash(key)
        return key
    except TypeError:
        return None


def compile_cached_with_key(
    calls: Sequence[ApiCall],
    key: "tuple | None | object" = _KEY_UNSET,
) -> "tuple[CompiledProgram, tuple | None]":
    """Compile a call list and return it with its structure key.

    The key is the controller's signal that the program may take the
    compiled tier, so the execution front doors thread it through to the
    controller.  Falls back to an
    uncached compile — and a ``None`` key — when the structure key is
    not hashable (e.g. a call carries list-valued parameters).  Callers
    that already hold the key (``None`` meaning "known unhashable") pass
    it to skip the recomputation.
    """
    from repro.compiler.lowering import PlutoCompiler

    if key is _KEY_UNSET:
        key = hashable_structure_key(calls)
    compiled = _PROGRAM_CACHE.get_or_compute(key, lambda: PlutoCompiler().compile(list(calls)))
    return compiled, key


def compile_cached(calls: Sequence[ApiCall]) -> "CompiledProgram":
    """Compile a call list, reusing structurally identical past compiles."""
    return compile_cached_with_key(calls)[0]


def cache_stats() -> dict[str, dict]:
    """Hit/miss statistics of every memo layer in the execution stack.

    One snapshot of the process-wide memo table
    (:mod:`repro.utils.memo`), one entry per layer: program artifacts
    (request-keyed), compiled programs (structure-keyed) with the trace
    templates and closures each keeps, the shared artifact store, the
    verifier and optimizer memos, composed LUTs, the scheduler makespan
    memo with its exact-fast-merge/reference split, the
    hierarchical-schedule memo, the cached per-engine helpers, and the
    LUT gather arrays.  Every layer is reported, whichever modules the
    process has imported so far.  This function is the one spelling (also
    exported as ``repro.api.cache_stats``); the process-wide metrics
    registry reads the same table as its ``pluto_cache_*`` gauges.

    The layers keyed on program structure or table contents are bounded:
    ``artifacts``, ``verifier`` and ``optimizer`` hold at most 512
    entries each, ``programs``, ``hierarchy_schedules`` and
    ``lut_gather_arrays`` at most 1024, and ``scheduler_merges`` at most
    4096; they report ``hits``, ``misses``, ``uncached`` and ``size``.
    ``trace_templates`` and ``compiled_exec`` count builds as misses and
    reuses as hits; their ``size`` is what the cached programs hold.  A
    session's warm entries (see :meth:`PlutoSession.run`) belong to the
    session and are not process-wide, so they do not appear here.
    """
    return layer_stats()


def clear_all_caches() -> None:
    """Drop every process-wide memo layer of the execution stack.

    Clears every layer of the memo table :func:`cache_stats` reports,
    entries and counters, so tests and long-running services never clear
    layers one by one.  It also retires every session's warm entries, so
    the next run of any session prepares its program again and counts
    the same cache misses as a fresh session.
    """
    global _generation
    _generation += 1
    clear_layers()


class ArtifactIdentity(NamedTuple):
    """What one :class:`ProgramArtifact` answers: the recorded calls'
    structure key on an engine configuration under the requested plan,
    its ``None`` placement levels read as the device's counts.  No front
    door and no backend is part of it: an auto plan's search is a
    function of the plan alone, and every backend runs an artifact
    alike."""

    structure_key: tuple
    config: "PlutoConfig"
    plan: "ExecutionPlan"


@dataclass(frozen=True)
class ProgramArtifact:
    """A program made ready to execute under one concrete plan.

    The product of :func:`prepare_execution`: the concrete plan (auto
    plans resolved through the cost-based planner) with the planner's
    report, the optimizer's result, the call list that executes
    (post-optimization) with its structure key, and either its compiled
    program (unsharded plans) or its verified shard layout (sharded
    plans, whatever their placement: geometry, shard plans and one
    compiled program per distinct slice size).  Each compiled program
    keeps its own trace templates and closure, so an artifact holds
    everything a warm run needs, and the shared artifact store
    (:mod:`repro.serve.store`) pickles it as it is.
    """

    #: The request this artifact answers; ``None`` when the recorded
    #: calls have no hashable structure key (such artifacts are not kept).
    identity: "ArtifactIdentity | None"
    plan: "ExecutionPlan"
    calls: "tuple[ApiCall, ...]"
    #: Structure key of ``calls``; ``None`` when it is not hashable.
    structure_key: "tuple | None"
    #: The verified compiled program of an unsharded plan (``None`` when
    #: sharded).
    compiled: "CompiledProgram | None"
    #: The verified layout of a sharded plan (``None`` when unsharded);
    #: the dispatcher runs it as it is.
    layout: "ShardLayout | None"
    optimized: "OptimizedProgram | None"
    planner: "PlannerReport | None"
    #: Whether the static verifier passed the program.  An unverified
    #: artifact never serves a request that asks for verification.
    verified: bool

    @property
    def optimization(self) -> "OptimizationReport | None":
        """The optimizer's report, when the plan optimized."""
        return None if self.optimized is None else self.optimized.report

    def programs(self) -> "list[tuple[tuple, CompiledProgram]]":
        """``(structure key, compiled program)`` of every program it runs
        (none when the executed calls have no hashable structure key)."""
        if self.layout is not None:
            return [program for program in self.layout.programs.values() if program[0] is not None]
        return [] if self.structure_key is None else [(self.structure_key, self.compiled)]

    def reused(self) -> "ProgramArtifact":
        """This artifact as a later request gets it: the planner report
        marked ``cached``, since it comes from a reused artifact."""
        if self.planner is None or self.planner.cached:
            return self
        return replace(self, planner=replace(self.planner, cached=True))

    def attach(self, result: "ExecutionResult") -> "ExecutionResult":
        """Record the plan and reports on ``result``, and return it."""
        result.execution_plan = self.plan
        result.planner = self.planner
        result.optimization = self.optimization
        return result

    def run(
        self, dispatcher: "ParallelDispatcher", inputs: Mapping[str, np.ndarray]
    ) -> "ExecutionResult":
        """Execute on ``dispatcher``: the unsharded program on its
        controller, a sharded one's layout on the dispatcher itself.
        Whether a run takes the compiled closure is the controller's
        decision, not the plan's."""
        if self.layout is None:
            return dispatcher.controller.execute(
                self.compiled, dict(inputs), structure_key=self.structure_key
            )
        return dispatcher.execute(self.layout, inputs)


def prepare_execution(
    calls: Sequence[ApiCall],
    engine: "PlutoEngine | None",
    plan: "ExecutionPlan",
    *,
    verify: bool,
    subject: str = "program",
) -> ProgramArtifact:
    """The execution prologue every front door shares.

    Returns the :class:`ProgramArtifact` of ``calls`` under ``plan``.
    A placement level ``plan`` spells ``None`` is first read as the
    device's count, so every spelling of one placement names one
    artifact, and the artifact carries that resolved plan.  Artifacts
    are kept in one bounded process-wide table keyed on their
    :class:`ArtifactIdentity`, so a structurally repeated request is a
    table hit.  A request with ``verify`` that finds an artifact prepared
    without verification verifies its executed calls once and keeps it
    as verified, still a hit.

    Otherwise the program is prepared.  An auto ``plan`` resolves
    through the cost-based planner
    (:func:`repro.plan.planner.plan_program`), whose search the plan
    alone decides, and which hands over the whole program it optimized,
    keyed and compiled for the chosen plan, so nothing below builds them
    again.  The artifact depends on no backend: whichever runs
    it, the controller decides how the host simulates it.  An explicit
    plan's program is optimized
    when the plan asks for it (a plan that leaves ``optimize`` unset
    defers to the engine configuration).
    Unsharded plans compile through the structure-keyed program cache.
    With ``verify`` the static verifier checks the program that executes
    and raises :class:`~repro.errors.VerificationError` on any error;
    when the compiler rejects the program, the verifier's diagnostics
    replace the compiler's error.  Sharded plans are then laid out over
    their placement (:meth:`~repro.controller.dispatch.ShardPlanner.plan`,
    one program per distinct slice size, verified whatever ``verify``
    says); a plan that cannot be laid out raises here.  ``subject``
    names the program in planner reports and diagnostics.  Compile and
    verify spans open only when that work runs.
    """
    if None in (plan.channels, plan.ranks):
        from repro.dram.geometry import DRAMGeometry

        device = engine.geometry if engine is not None else DRAMGeometry()
        plan = replace(
            plan, channels=plan.channels or device.channels, ranks=plan.ranks or device.ranks
        )
    raw_key = hashable_structure_key(calls)
    identity: "ArtifactIdentity | None" = None
    if raw_key is None:
        _ARTIFACTS.note_uncached()
    else:
        config = engine.config if engine is not None else PlutoConfig()
        identity = ArtifactIdentity(raw_key, config, plan)
        artifact = _ARTIFACTS.peek(identity)
        if artifact is not None:
            if verify and not artifact.verified:
                _verify(artifact.calls, artifact.structure_key, subject)
                artifact = replace(artifact, verified=True)
                _ARTIFACTS.put(identity, artifact)
            _ARTIFACTS.hits += 1
            return artifact
        _ARTIFACTS.misses += 1
    planner: "PlannerReport | None" = None
    program: "PlannedProgram | None" = None
    if plan.is_auto:
        from repro.plan.planner import plan_program

        with stage("plan") as plan_span:
            planned = plan_program(calls, engine, request=plan, subject=subject, key=raw_key)
            plan_span.set(cached=planned.report.cached)
        plan, planner, program = planned.plan, planned.report, planned.program
    # The whole program that executes (for a sharded plan, the one the
    # verifier reads), when the planner already compiled it.
    whole: "CompiledProgram | None" = None
    if program is None:
        optimize = plan.optimize
        if optimize is None:
            optimize = engine is not None and engine.config.optimize
        optimized: "OptimizedProgram | None" = None
        if optimize:
            from repro.opt.pipeline import optimize_cached

            with stage("optimize"):
                optimized = optimize_cached(calls, key=raw_key)
            calls = optimized.calls
        calls = tuple(calls)
        structure_key = raw_key if optimized is None else hashable_structure_key(calls)
    else:
        optimized, calls, structure_key, whole = program
    compiled: "CompiledProgram | None" = None
    if plan.effective_shards == 1:
        compiled = whole
        if compiled is None:
            span = stage("compile") if _PROGRAM_CACHE.peek(structure_key) is None else NOOP_SPAN
            try:
                with span:
                    compiled, _ = compile_cached_with_key(calls, structure_key)
            except ReproError:
                if verify:
                    _verify(calls, structure_key, subject)
                raise
        whole = compiled
    if verify:
        _verify(calls, structure_key, subject, whole)
    layout: "ShardLayout | None" = None
    if compiled is None:
        from repro.controller.dispatch import ShardPlanner

        geometry = None if engine is None else engine.geometry
        shard_planner = ShardPlanner(geometry, channels=plan.channels, ranks=plan.ranks)
        layout = shard_planner.plan(calls, plan.shards)
    artifact = ProgramArtifact(
        identity=identity,
        plan=plan,
        calls=calls,
        structure_key=structure_key,
        compiled=compiled,
        layout=layout,
        optimized=optimized,
        planner=planner,
        verified=verify,
    )
    if identity is not None:
        _ARTIFACTS.put(identity, artifact.reused())
    return artifact


def _verify(
    calls: Sequence[ApiCall],
    key: "tuple | None",
    subject: str,
    compiled: "CompiledProgram | None" = None,
) -> None:
    """Verify ``calls`` (memoized on ``key``; ``compiled`` is their
    program when the caller holds it); raise on any error."""
    from repro.analyze.verifier import verify_cached

    with stage("verify"):
        verify_cached(list(calls), subject=subject, key=key, compiled=compiled).raise_if_errors()


def insert_artifact(artifact: ProgramArtifact) -> None:
    """Make ``artifact`` (say, one loaded from a shared store) warm state.

    It joins the artifact table under its identity and its compiled
    programs join the program cache.  Their closures, and with them the
    LUT gather arrays, are generated now, so the first request for the
    program runs the fully warm path.  None of this counts as a miss.
    """
    from repro.backend.compiled import pin_executable

    _ARTIFACTS.put(artifact.identity, artifact.reused())
    for key, compiled in artifact.programs():
        _PROGRAM_CACHE.put(key, compiled)
        pin_executable(compiled)


#: Warm entries one session keeps; making one more drops them all.
_WARM_ENTRIES = 8


@dataclass
class _WarmEntry:
    """A session's program artifact with the snapshot it was made from.

    It serves a run while the engine and the session's backend are the
    same objects, the session holds the same call objects in the same
    order with parameters equal to the snapshot taken here, and no
    :func:`clear_all_caches` ran since it was made.
    """

    artifact: ProgramArtifact
    engine: "PlutoEngine | None"
    backend: "str | ExecutionBackend"
    calls: "list[ApiCall]"
    parameters: "list[dict[str, Any]]"
    generation: int

    def serves(self, session: "PlutoSession", engine: "PlutoEngine | None") -> bool:
        """Whether a run of ``session`` on ``engine`` may reuse this entry."""
        calls = session.calls
        return (
            self.generation == _generation
            and engine is self.engine
            and session.backend is self.backend
            and len(calls) == len(self.calls)
            and all(map(operator.is_, calls, self.calls))
            and [call.parameters for call in calls] == self.parameters
        )


def _verifies(engine: "PlutoEngine | None") -> bool:
    """Whether the session's front doors verify programs run on ``engine``."""
    if engine is None:
        return False
    from repro.analyze.verifier import verification_enabled

    return verification_enabled(engine.config.verify)


def _requested_plan(
    plan: "ExecutionPlan | str | None", engine: "PlutoEngine | None"
) -> "ExecutionPlan":
    """A ``plan=`` argument resolved; ``None`` defers to the engine's default."""
    from repro.plan.execution_plan import resolve_plan

    if plan is None and engine is not None:
        plan = engine.config.plan
    return resolve_plan(plan)


@dataclass
class PlutoSession:
    """Builds a pLUTo API program: allocations plus recorded library calls.

    ``backend`` selects how :meth:`run` executes the program:
    ``"vectorized"`` (default, NumPy fast path) or ``"functional"``
    (bit-exact subarray row sweeps).
    """

    vectors: list[PlutoVector] = field(default_factory=list)
    calls: list[ApiCall] = field(default_factory=list)
    _counter: int = 0
    backend: "str | ExecutionBackend" = "vectorized"
    #: (plan argument, verify) -> warm entry (see :meth:`run`).
    _warm: "dict[tuple, _WarmEntry]" = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: (engine argument, backend, their dispatcher); see :meth:`_dispatcher`.
    _held: "tuple | None" = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict[str, Any]:
        # Warm entries and the dispatcher hold generated closures, which do
        # not pickle; a copy prepares its program again on its first run.
        return dict(self.__dict__, _warm={}, _held=None)

    # ------------------------------------------------------------------ #
    # Memory allocation (Section 6.2, "Memory Allocation")
    # ------------------------------------------------------------------ #
    def pluto_malloc(self, size: int, bit_width: int, name: str | None = None) -> PlutoVector:
        """Allocate a pLUTo-resident vector of ``size`` ``bit_width``-bit elements."""
        if size <= 0:
            raise ConfigurationError(
                f"pluto_malloc needs a positive element count, got {size}"
            )
        if bit_width <= 0:
            raise ConfigurationError(
                f"pluto_malloc needs a positive bit width, got {bit_width}"
            )
        taken = {vector.name for vector in self.vectors}
        if name is None:
            # Skip over auto-names the user has already claimed explicitly.
            while f"v{self._counter}" in taken:
                self._counter += 1
            name = f"v{self._counter}"
            self._counter += 1
        elif name in taken:
            raise ConfigurationError(f"a vector named {name!r} already exists")
        vector = PlutoVector(name=name, size=size, bit_width=bit_width)
        self.vectors.append(vector)
        return vector

    # ------------------------------------------------------------------ #
    # Computation routines (Section 6.2, "Computation")
    # ------------------------------------------------------------------ #
    def _record(self, call: ApiCall) -> ApiCall:
        self.calls.append(call)
        return call

    def api_pluto_add(
        self, in1: PlutoVector, in2: PlutoVector, out: PlutoVector, bit_width: int
    ) -> ApiCall:
        """Element-wise addition via a concatenated-operand LUT query."""
        self._check_operand_width(in1, in2, bit_width)
        lut = add_lut(bit_width)
        self._check_output_width(out, lut)
        return self._record(
            ApiCall(
                operation="add",
                inputs=(in1, in2),
                output=out,
                lut=lut,
                parameters={"bit_width": bit_width},
            )
        )

    def api_pluto_mul(
        self, in1: PlutoVector, in2: PlutoVector, out: PlutoVector, bit_width: int
    ) -> ApiCall:
        """Element-wise multiplication via a concatenated-operand LUT query."""
        self._check_operand_width(in1, in2, bit_width)
        lut = multiply_lut(bit_width)
        self._check_output_width(out, lut)
        return self._record(
            ApiCall(
                operation="mul",
                inputs=(in1, in2),
                output=out,
                lut=lut,
                parameters={"bit_width": bit_width},
            )
        )

    def api_pluto_map(
        self, lut: LookupTable, source: PlutoVector, out: PlutoVector
    ) -> ApiCall:
        """Apply an arbitrary unary LUT to every element (the generic query)."""
        if source.bit_width < lut.index_bits:
            raise ConfigurationError(
                f"vector {source.name!r} ({source.bit_width}-bit) cannot index a "
                f"{lut.num_entries}-entry LUT"
            )
        self._check_output_width(out, lut)
        return self._record(
            ApiCall(operation="map", inputs=(source,), output=out, lut=lut)
        )

    def api_pluto_bitwise(
        self,
        operation: str,
        in1: PlutoVector,
        in2: PlutoVector | None,
        out: PlutoVector,
    ) -> ApiCall:
        """Row-level bitwise logic (lowered to Ambit-style in-DRAM operations)."""
        operation = operation.lower()
        if operation == "not":
            inputs: tuple[PlutoVector, ...] = (in1,)
        else:
            self._check_bitwise_operation(operation, unary_allowed=True)
            if in2 is None:
                raise ConfigurationError(f"bitwise {operation!r} needs two inputs")
            inputs = (in1, in2)
        return self._record(
            ApiCall(operation=operation, inputs=inputs, output=out)
        )

    def api_pluto_bitwise_lut(
        self, operation: str, in1: PlutoVector, in2: PlutoVector, out: PlutoVector
    ) -> ApiCall:
        """Bitwise logic expressed as a LUT query (the paper's 4-entry LUTs)."""
        operation = operation.lower()
        self._check_bitwise_operation(operation)
        lut = bitwise_lut(operation, 1)
        self._check_output_width(out, lut)
        return self._record(
            ApiCall(
                operation=f"{operation}_lut",
                inputs=(in1, in2),
                output=out,
                lut=lut,
                parameters={"bit_width": 1},
            )
        )

    def api_pluto_shift(
        self, target: PlutoVector, out: PlutoVector, bits: int, direction: str = "l"
    ) -> ApiCall:
        """Element-wise shift (lowered to DRISA shift commands)."""
        if direction not in ("l", "r"):
            raise ConfigurationError("shift direction must be 'l' or 'r'")
        if bits < 0:
            raise ConfigurationError("shift amount must be non-negative")
        return self._record(
            ApiCall(
                operation="shift",
                inputs=(target,),
                output=out,
                parameters={"bits": bits, "direction": direction},
            )
        )

    def api_pluto_move(self, source: PlutoVector, out: PlutoVector) -> ApiCall:
        """In-DRAM copy of a vector (RowClone / LISA)."""
        return self._record(ApiCall(operation="move", inputs=(source,), output=out))

    # ------------------------------------------------------------------ #
    # Compilation and execution (Section 6.3/6.4 through the backend layer)
    # ------------------------------------------------------------------ #
    def compile(self) -> "CompiledProgram":
        """Compile the recorded calls (cached by program structure)."""
        return compile_cached(self.calls)

    def verify(self) -> "VerificationReport":
        """Statically verify the recorded program (API + lowered ISA).

        Returns the :class:`~repro.analyze.diagnostics.VerificationReport`
        with every finding — it does **not** raise; callers that want the
        rejecting behaviour chain ``.raise_if_errors()``.  Reports are
        memoized on the program structure key, so verifying a served
        shape repeatedly costs a dict hit.
        """
        from repro.analyze.verifier import verify_cached

        return verify_cached(self.calls)

    def optimize(self) -> "OptimizedProgram":
        """Run the program optimizer over the recorded calls.

        Returns an :class:`~repro.opt.pipeline.OptimizedProgram` — the
        rewritten call list (LUT chains fused, duplicates reused, dead
        ops dropped, tables deduplicated) plus the
        :class:`~repro.opt.report.OptimizationReport` accounting for the
        saved sweeps.  Results are memoized on the program structure
        key, so the hot serving path optimizes each shape once.  The
        optimized program's outputs are bit-identical to this session's.
        """
        from repro.opt.pipeline import optimize_cached

        return optimize_cached(self.calls)

    def _prepare(
        self,
        plan: "ExecutionPlan | str | None",
        engine: "PlutoEngine | None",
        *,
        verify: bool,
        subject: str = "program",
    ) -> ProgramArtifact:
        """The program artifact of a run of this program.

        A warm entry per (``plan`` argument, ``verify``) serves repeated
        runs (see :meth:`run` for when it is valid); the async service
        takes its requests' artifacts from here too.
        Otherwise the program goes through :func:`prepare_execution`, and
        the artifact becomes the new entry.  The stored planner report is
        marked ``cached``, as a reused artifact's is.

        Two kinds of run get no entry.  Programs without a hashable
        structure key: their parameters may hold containers that a
        shallow snapshot cannot guard.  Runs on a backend without the
        compiled tier (the functional oracle), which keep nothing warm
        in the session (see :meth:`_dispatcher`): its runs take
        milliseconds, so the preparation an entry saves is noise there.
        """
        key = (plan, verify)
        try:
            entry = self._warm.get(key)
        except TypeError:  # not a plan: _requested_plan below rejects it
            entry = None
        if entry is not None and entry.serves(self, engine):
            return entry.artifact
        from repro.backend.base import resolve_backend

        requested = _requested_plan(plan, engine)
        batched = resolve_backend(self.backend).supports_batched
        artifact = prepare_execution(
            self.calls, engine, requested, verify=verify, subject=subject
        )
        if artifact.identity is not None and batched:
            if len(self._warm) >= _WARM_ENTRIES:
                self._warm.clear()
            self._warm[key] = _WarmEntry(
                artifact=artifact.reused(),
                engine=engine,
                backend=self.backend,
                calls=list(self.calls),
                parameters=[dict(call.parameters) for call in self.calls],
                generation=_generation,
            )
        return artifact

    def _dispatcher(self, engine: "PlutoEngine | None") -> "ParallelDispatcher":
        """The session's one dispatcher for ``engine`` and its backend,
        rebuilt when either changes.  The functional oracle gets a fresh
        one per run: it keeps every table's subarray image until its next
        program, which the session would pin for its life."""
        held = self._held
        if held is not None and held[0] is engine and held[1] is self.backend:
            return held[2]
        from repro.controller.dispatch import ParallelDispatcher

        dispatcher = ParallelDispatcher(engine, self.backend)
        if dispatcher.controller.backend.supports_batched:
            self._held = (engine, self.backend, dispatcher)
        return dispatcher

    @staticmethod
    def _finish_trace(trace: "RequestTrace | None", result: "ExecutionResult") -> None:
        """Annotate a run's trace with its hardware attribution and attach it."""
        if trace is None:
            return
        from repro.obs.metrics import request_accounting

        command_trace = getattr(result, "trace", None)
        if command_trace is not None:
            trace.annotate(
                latency_ns=result.latency_ns,
                backend=result.backend,
                **request_accounting(command_trace),
            )
        result.request_trace = trace

    def run(
        self,
        inputs: Mapping[str, np.ndarray],
        *,
        engine: "PlutoEngine | None" = None,
        plan: "ExecutionPlan | str | None" = None,
    ) -> "ExecutionResult | ShardedExecutionResult":
        """Compile (cached) and execute this program on the session backend.

        The one front door of the pLUTo Library: every execution of a
        recorded program, a batch of input sets included (one run per
        set, each from the same warm entry), goes through here or
        through a :class:`~repro.api.service.PlutoService` serving this
        session.  ``engine`` selects the pLUTo configuration
        (design/memory); the default is pLUTo-BSA on DDR4.  The returned
        :class:`ExecutionResult` carries the outputs and the full command
        trace, identically for every backend.

        ``plan`` is an :class:`~repro.plan.ExecutionPlan` describing the
        shard count, the placement the shards spread over and the
        optimizer — or the string ``"auto"``, which hands the choice to
        the cost-based planner, searching every placement of the
        engine's device (candidates priced with the analytic makespan
        model; a repeated request reuses its artifact, plan included;
        the result then carries a :class:`~repro.plan.PlannerReport` as
        ``result.planner``).  ``None`` defers to the engine's
        ``PlutoConfig(plan=...)`` default.  Outputs are bit-identical
        whichever plan executes.

        Sharded plans partition the element space across DRAM banks and
        execute bank-parallel — in one fused batched pass on
        batched-capable backends (the vectorized default) — and
        ``latency_ns`` becomes the scheduler-derived makespan under
        cross-bank tRRD/tFAW contention.  Their shards stay on one rank
        of one channel unless the plan's ``channels`` / ``ranks`` widen
        the placement (``None`` takes all of the engine's, and means the
        same plan as spelling the engine's count; pass an engine built
        from ``PlutoConfig(channels=..., ranks=...)`` to model more than
        the Table 3 module), and the
        :class:`~repro.controller.dispatch.ShardedExecutionResult` then
        decomposes the speedup per level.  A plan with
        ``optimize=True`` runs the program optimizer (:mod:`repro.opt`)
        before compilation, with the
        :class:`~repro.opt.report.OptimizationReport` on
        ``result.optimization``.

        **Warm runs.**  The session keeps the program's
        :class:`ProgramArtifact` (plan, optimized calls, structure key,
        compiled programs, planner report), one entry per ``plan``
        argument and verification setting (up to eight; making a ninth
        drops them all), and one dispatcher
        for its latest ``engine`` and backend, which runs every plan.  A
        :class:`~repro.api.service.PlutoService` serving this session
        takes its requests' artifacts from the same entries.  A later run
        reuses an entry, skipping planning, optimization, keying,
        compilation and verification, while all
        of these hold: ``engine`` is the same object, ``session.backend``
        is the same object, ``session.calls`` holds the same call objects
        in the same order, each call's ``parameters`` equals what it was
        when the entry was made, and no :func:`clear_all_caches` ran
        since.  Anything else prepares the program again, as do runs on
        a backend without the compiled tier (the functional oracle) and
        programs whose structure key is not hashable.  Inputs are
        validated on every run.  Warm results are those of a fresh
        session, except that consecutive unsharded results share one
        bank-0 :class:`~repro.dram.commands.CommandTrace`, as
        :class:`~repro.api.service.PlutoService` results do; the stack
        never mutates a returned trace, and callers should not either.
        Concurrent runs on one session share its dispatcher.
        """
        trace = new_trace("session.run")
        token = activate(trace)
        try:
            artifact = self._prepare(plan, engine, verify=_verifies(engine))
            with span_of(trace, "execute"):
                result = artifact.run(self._dispatcher(engine), inputs)
        finally:
            deactivate(token)
        self._finish_trace(trace, result)
        return artifact.attach(result)

    def serve(
        self,
        *,
        engine: "PlutoEngine | None" = None,
        max_queue: int = 64,
        max_batch: int = 16,
        plan: "ExecutionPlan | str | None" = None,
        verify: bool = True,
    ) -> "PlutoService":
        """An async serving frontend bound to this session's program.

        Returns a :class:`~repro.api.service.PlutoService` (use it as an
        async context manager) with a bounded request queue, structure-key
        batch coalescing, and per-request latency accounting.

        ``plan`` is the service-wide execution plan (see :meth:`run`);
        ``"auto"`` plans each distinct request structure once through the
        cost-based planner.  ``verify=True`` (the default) rejects
        malformed request programs at submission with
        :class:`~repro.errors.VerificationError` carrying the verifier's
        diagnostics.  See :mod:`repro.api.service`.
        """
        from repro.api.service import PlutoService

        return PlutoService(
            self,
            engine=engine,
            max_queue=max_queue,
            max_batch=max_batch,
            plan=plan,
            verify=verify,
        )

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_operand_width(in1: PlutoVector, in2: PlutoVector, bit_width: int) -> None:
        """Reject narrow operands with the verifier's own diagnostic.

        The condition is the one :func:`repro.analyze.verify_calls`
        reports as ``operand-width``; building the record through the
        shared helper keeps the record-time rejection and the verifier
        report word-for-word identical.
        """
        from repro.analyze.verifier import operand_width_diagnostic

        if bit_width <= 0:
            raise ConfigurationError("operand bit width must be positive")
        diagnostics = [
            diagnostic
            for vector in (in1, in2)
            for diagnostic in (operand_width_diagnostic(vector, bit_width),)
            if diagnostic is not None
        ]
        if diagnostics:
            raise VerificationError(diagnostics, subject="API call")

    @staticmethod
    def _check_output_width(out: PlutoVector, lut: LookupTable) -> None:
        """Reject narrow outputs with the verifier's ``narrow-output`` record."""
        from repro.analyze.verifier import narrow_output_diagnostic

        diagnostic = narrow_output_diagnostic(out, lut)
        if diagnostic is not None:
            raise VerificationError((diagnostic,), subject="API call")

    @staticmethod
    def _check_bitwise_operation(operation: str, *, unary_allowed: bool = False) -> None:
        if operation not in BITWISE_OPERATIONS:
            expected = f"one of {sorted(BITWISE_OPERATIONS)}"
            if unary_allowed:
                expected = f"'not' or {expected}"
            raise ConfigurationError(
                f"unsupported bitwise operation {operation!r}; expected {expected}"
            )
