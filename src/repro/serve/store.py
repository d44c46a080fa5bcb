"""A persistent shared store for warm serving artifacts.

Every memo layer that makes warm serving cheap — optimized call lists,
compiled programs, trace templates, verification verdicts, planner
decisions — is process-private and dies with the process, so a freshly
spawned worker repays the full optimize/verify/compile/plan cost on its
first request of every program shape.  :class:`SharedArtifactStore`
closes that gap: it serializes the **compile products** of a program
structure to disk, keyed on the same program-structure key the in-memory
memos use, and :meth:`SharedArtifactStore.warm_start` installs them back
into the process-wide caches — so a cold worker's first request runs the
exact warm path (every memo hits, the whole-program closure is already
generated) instead of the cold one.

What is stored is deliberately the *cacheable products*, not the
generated closures: a :class:`~repro.backend.compiled.CompiledExecutable`
holds generated code and captured arrays and does not pickle, but it
regenerates from the stored :class:`~repro.compiler.lowering.CompiledProgram`
in well under a millisecond — :func:`install_artifacts` does exactly
that at load time, so the regeneration happens at warm-start, never on
the first request.

Entries are versioned (:data:`ARTIFACT_SCHEMA_VERSION`) and carry the
engine configuration they were produced under; a schema or configuration
mismatch invalidates the entry (counted as ``stale``, file removed on
schema mismatch) instead of poisoning a worker with artifacts from a
different code or hardware generation.  Store effectiveness is surfaced
as the ``shared_store`` layer of
:func:`repro.api.session.cache_stats`.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.handles import ApiCall
    from repro.analyze.diagnostics import VerificationReport
    from repro.compiler.lowering import CompiledProgram
    from repro.controller.executor import TraceTemplate
    from repro.core.engine import PlutoConfig, PlutoEngine
    from repro.opt.pipeline import OptimizedProgram
    from repro.plan.execution_plan import ExecutionPlan
    from repro.plan.planner import PlannedExecution

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "WarmArtifacts",
    "ShardArtifacts",
    "WarmStartReport",
    "SharedArtifactStore",
    "collect_artifacts",
    "install_artifacts",
    "shared_store_stats",
    "reset_shared_store_stats",
]


#: Bump when the artifact layout (or the meaning of any stored product)
#: changes; entries written under another schema are discarded as stale.
ARTIFACT_SCHEMA_VERSION = 2


#: Process-wide counters surfaced as ``cache_stats()["shared_store"]``.
_STATS = {
    "hits": 0,
    "misses": 0,
    "stale": 0,
    "saved": 0,
    "installed": 0,
    "load_time_s": 0.0,
}


def shared_store_stats() -> dict[str, float]:
    """Hit/miss/stale/saved counters and cumulative load wall-clock."""
    return dict(_STATS)


def reset_shared_store_stats() -> None:
    """Reset the process-wide shared-store counters."""
    for key in _STATS:
        _STATS[key] = 0.0 if key == "load_time_s" else 0


@dataclass(frozen=True)
class ShardArtifacts:
    """Compile products of one shard slice of a sharded chosen plan.

    Sharded execution compiles the *rewritten slice program* (one per
    distinct slice length), so warm-starting a sharded plan needs these
    alongside the whole-program products.
    """

    executed_key: tuple
    compiled: "CompiledProgram"
    template: "TraceTemplate"


@dataclass(frozen=True)
class WarmArtifacts:
    """Every warm-path product of one program structure on one engine.

    ``structure_key`` is the *raw* (pre-optimization) program structure
    key — the identity requests arrive with; ``executed_key`` is the
    post-optimization key all downstream memos (compile, template,
    verifier, compiled closures) use.  They coincide for unoptimized
    plans.
    """

    schema: int
    config: "PlutoConfig"
    structure_key: tuple
    #: The request-level plan these artifacts serve (the auto request
    #: when planned, else the explicit plan).
    request_plan: "ExecutionPlan"
    #: Planner search constraints (part of the plan-memo identity).
    plan_modes: tuple[str, ...]
    supports_batched: bool
    #: The memoized planner decision (``None`` for explicit plans).
    planned: "PlannedExecution | None"
    #: The memoized optimization (``None`` for unoptimized plans).
    optimized: "OptimizedProgram | None"
    executed_key: tuple
    verification: "VerificationReport | None"
    compiled: "CompiledProgram"
    template: "TraceTemplate"
    #: Per-slice products when the chosen plan shards the element space
    #: (one entry per distinct slice length; empty for unsharded plans).
    shards: tuple[ShardArtifacts, ...] = ()

    @property
    def identity(self) -> tuple:
        """What one store entry is keyed on."""
        return (
            self.schema,
            self.config,
            self.structure_key,
            self.plan_modes,
            self.supports_batched,
            self.request_plan,
        )


@dataclass(frozen=True)
class WarmStartReport:
    """What one warm start loaded and what it cost."""

    entries: int
    installed: int
    stale: int
    load_time_s: float


def _resolve_engine(engine: "PlutoEngine | None") -> "PlutoEngine":
    """The given engine, or the default pLUTo-BSA/DDR4 configuration."""
    if engine is not None:
        return engine
    from repro.core.engine import PlutoConfig, PlutoEngine

    return PlutoEngine(PlutoConfig())


def _unpin_closures(
    artifacts: WarmArtifacts,
) -> list[tuple["CompiledProgram", object]]:
    """Detach the JIT executables the controller pins on compiled programs.

    Once a program has been executed, its memoized
    :class:`~repro.compiler.lowering.CompiledProgram` carries the
    generated ``_jit_executable`` closure in its ``__dict__`` — generated
    code that cannot pickle (and would be wrong to persist anyway; it
    regenerates from the program at install).  Returns the detached
    pairs so the caller can re-pin them after serialization.
    """
    pinned: list[tuple["CompiledProgram", object]] = []
    for compiled in (
        artifacts.compiled,
        *(shard.compiled for shard in artifacts.shards),
    ):
        if compiled is None:
            continue
        executable = compiled.__dict__.pop("_jit_executable", None)
        if executable is not None:
            pinned.append((compiled, executable))
    return pinned


def collect_artifacts(
    calls: Sequence["ApiCall"],
    engine: "PlutoEngine | None" = None,
    *,
    plan: "ExecutionPlan | str | None" = None,
    modes: tuple[str, ...] = ("single", "banks", "hierarchy"),
    supports_batched: bool = True,
) -> WarmArtifacts:
    """Run the warm-path pipeline for ``calls`` and bundle its products.

    The program is prepared exactly as the execution front doors prepare
    it (:func:`repro.api.session.prepare_execution`: plan, optimize,
    compile, verify — a program with verification errors is rejected),
    so collecting from a process that already served the shape is pure
    cache hits — a worker can export what it just served at negligible
    cost.  Sharded plans additionally compile the whole program for its
    trace template, and every distinct shard slice.
    """
    from repro.analyze.verifier import verify_cached
    from repro.api.session import (
        compile_cached_with_key,
        hashable_structure_key,
        prepare_execution,
    )
    from repro.controller.executor import PlutoController
    from repro.plan.execution_plan import resolve_plan
    from repro.plan.planner import PlannedExecution

    engine = _resolve_engine(engine)
    structure_key = hashable_structure_key(calls)
    if structure_key is None:
        raise ConfigurationError(
            "cannot store warm artifacts for a program whose structure key "
            "is unhashable (list-valued call parameters)"
        )
    request = resolve_plan(plan if plan is not None else engine.config.plan)
    prepared = prepare_execution(
        calls,
        engine,
        request,
        # Any backend with the requested batching capability plans alike.
        backend="vectorized" if supports_batched else "functional",
        modes=modes,
        verify=True,
        subject="warm-start",
    )
    concrete = prepared.plan
    executed_calls = prepared.calls
    executed_key = prepared.structure_key
    assert executed_key is not None  # hashable raw key => hashable rewrite
    compiled = prepared.compiled
    if compiled is None:
        compiled, _ = compile_cached_with_key(executed_calls, executed_key)
    verification = verify_cached(executed_calls, key=executed_key, subject="warm-start")
    controller = PlutoController(engine, backend="vectorized", jit=False)
    template = controller.trace_template(compiled, structure_key=executed_key)

    shard_products: list[ShardArtifacts] = []
    if concrete.hierarchical or concrete.effective_shards > 1:
        from repro.controller.dispatch import ShardPlanner

        geometry = engine.geometry
        count = concrete.shards
        if count is None:
            # Hierarchical plans default to one shard per device bank.
            count = geometry.channels * geometry.ranks * geometry.banks
        seen_lengths: set[int] = set()
        for start, stop, shard_calls in ShardPlanner.plan_slices(
            executed_calls, count
        ):
            length = stop - start
            if length in seen_lengths:
                continue
            seen_lengths.add(length)
            shard_key = hashable_structure_key(list(shard_calls))
            shard_compiled, shard_key = compile_cached_with_key(
                list(shard_calls), shard_key
            )
            assert shard_key is not None
            shard_products.append(
                ShardArtifacts(
                    executed_key=shard_key,
                    compiled=shard_compiled,
                    template=controller.trace_template(
                        shard_compiled, structure_key=shard_key
                    ),
                )
            )
    return WarmArtifacts(
        schema=ARTIFACT_SCHEMA_VERSION,
        config=engine.config,
        structure_key=structure_key,
        request_plan=request,
        plan_modes=tuple(modes),
        supports_batched=supports_batched,
        planned=(
            PlannedExecution(plan=concrete, report=prepared.planner)
            if prepared.planner is not None
            else None
        ),
        optimized=prepared.optimized,
        executed_key=executed_key,
        verification=verification,
        compiled=compiled,
        template=template,
        shards=tuple(shard_products),
    )


def install_artifacts(
    artifacts: WarmArtifacts, engine: "PlutoEngine | None" = None
) -> bool:
    """Seed every process-wide memo layer from one stored entry.

    Returns ``False`` (installing nothing) when the entry was produced
    under a different engine configuration or artifact schema — its
    templates and planner decisions would be wrong for this process.
    Also pre-generates the whole-program compiled closure and the LUT
    gather arrays, so the first served request runs the fully warm path.
    """
    engine = _resolve_engine(engine)
    if (
        artifacts.schema != ARTIFACT_SCHEMA_VERSION
        or artifacts.config != engine.config
    ):
        return False
    from repro.analyze.verifier import seed_verifier_cache
    from repro.api.session import seed_program_cache
    from repro.backend.compiled import seed_compiled_exec
    from repro.controller.executor import seed_trace_template
    from repro.core.lut import gather_array
    from repro.opt.pipeline import seed_optimizer_cache
    from repro.plan.planner import plan_memo_key, seed_planner_cache

    seed_program_cache(artifacts.executed_key, artifacts.compiled)
    seed_trace_template(
        artifacts.executed_key, engine.config, artifacts.template
    )
    if artifacts.verification is not None:
        seed_verifier_cache(artifacts.executed_key, artifacts.verification)
        if not artifacts.verification.errors:
            artifacts.compiled.verification_ok = True
    if artifacts.optimized is not None:
        seed_optimizer_cache(artifacts.structure_key, artifacts.optimized)
    if artifacts.planned is not None:
        seed_planner_cache(
            plan_memo_key(
                artifacts.structure_key,
                engine.config,
                artifacts.plan_modes,
                artifacts.supports_batched,
                artifacts.request_plan,
            ),
            artifacts.planned,
        )
    for shard in artifacts.shards:
        seed_program_cache(shard.executed_key, shard.compiled)
        seed_trace_template(shard.executed_key, engine.config, shard.template)
        seed_compiled_exec(shard.compiled, structure_key=shard.executed_key)
    # Regenerate the fast-tier products that cannot be pickled: the
    # whole-program closure (cheap codegen from the stored program) and
    # the read-only LUT gather arrays.
    seed_compiled_exec(
        artifacts.compiled, structure_key=artifacts.executed_key
    )
    for lut in artifacts.compiled.lut_bindings.values():
        gather_array(lut)
    # Exercise the warm path once with fabricated zero inputs.  The memo
    # layers above remove recomputation, but the *first* call through a
    # freshly built controller and generated closure still pays one-time
    # Python costs (function setup, attribute caches) worth a few hundred
    # microseconds — several times a hot request.  Paying them here, at
    # install time, makes the first real request genuinely hot.
    _exercise(artifacts, engine)
    _STATS["installed"] += 1
    return True


def _exercise(artifacts: WarmArtifacts, engine: "PlutoEngine") -> None:
    """Dry-run every installed program once through the execution tier."""
    from repro.controller.executor import PlutoController

    controller = PlutoController(engine, backend="vectorized")
    for compiled, key in (
        (artifacts.compiled, artifacts.executed_key),
        *((shard.compiled, shard.executed_key) for shard in artifacts.shards),
    ):
        import numpy as np

        zeros = {
            vector.name: np.zeros(vector.size, dtype=np.uint64)
            for vector in compiled.external_inputs
        }
        try:
            controller.execute(compiled, zeros, structure_key=key)
        except Exception:
            pass  # warm-up is best-effort; real requests surface errors


class SharedArtifactStore:
    """A directory of pickled :class:`WarmArtifacts`, one file per entry.

    Writes are atomic (temp file + rename), so concurrent workers
    exporting the same shape race benignly — last writer wins with a
    complete file either way.  Reads validate the schema version and the
    full entry identity (not just the digest), so a hash collision or a
    stale-schema file can never install wrong artifacts.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    # Keying
    # ------------------------------------------------------------------ #
    @staticmethod
    def _digest(identity: tuple) -> str:
        blob = pickle.dumps(identity, protocol=pickle.HIGHEST_PROTOCOL)
        return hashlib.sha256(blob).hexdigest()[:32]

    def _entry_path(self, identity: tuple) -> Path:
        return self.path / f"{self._digest(identity)}.artifact"

    @staticmethod
    def entry_identity(
        structure_key: tuple,
        config: "PlutoConfig",
        request_plan: "ExecutionPlan",
        *,
        modes: tuple[str, ...] = ("single", "banks", "hierarchy"),
        supports_batched: bool = True,
    ) -> tuple:
        """The identity a lookup must present to hit a stored entry."""
        return (
            ARTIFACT_SCHEMA_VERSION,
            config,
            structure_key,
            tuple(modes),
            supports_batched,
            request_plan,
        )

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, artifacts: WarmArtifacts) -> Path:
        """Write one entry (atomic; overwrites an existing same-key entry)."""
        target = self._entry_path(artifacts.identity)
        scratch = target.with_suffix(".tmp")
        pinned = _unpin_closures(artifacts)
        try:
            scratch.write_bytes(
                pickle.dumps(artifacts, protocol=pickle.HIGHEST_PROTOCOL)
            )
        finally:
            for compiled, executable in pinned:
                compiled.__dict__["_jit_executable"] = executable
        scratch.replace(target)
        _STATS["saved"] += 1
        return target

    def _read(self, path: Path) -> WarmArtifacts | None:
        """One entry from disk, or ``None`` (counted stale) when invalid."""
        try:
            artifacts = pickle.loads(path.read_bytes())
        except Exception:
            _STATS["stale"] += 1
            path.unlink(missing_ok=True)
            return None
        if (
            not isinstance(artifacts, WarmArtifacts)
            or artifacts.schema != ARTIFACT_SCHEMA_VERSION
        ):
            _STATS["stale"] += 1
            path.unlink(missing_ok=True)
            return None
        return artifacts

    def load(self, identity: tuple) -> WarmArtifacts | None:
        """The entry stored under ``identity``, or ``None`` on a miss."""
        path = self._entry_path(identity)
        if not path.exists():
            _STATS["misses"] += 1
            return None
        started = time.perf_counter()
        artifacts = self._read(path)
        _STATS["load_time_s"] += time.perf_counter() - started
        if artifacts is None or artifacts.identity != identity:
            _STATS["misses"] += 1
            return None
        _STATS["hits"] += 1
        return artifacts

    def entries(self) -> list[WarmArtifacts]:
        """Every valid entry currently on disk (stale files are dropped)."""
        found = []
        for path in sorted(self.path.glob("*.artifact")):
            artifacts = self._read(path)
            if artifacts is not None:
                found.append(artifacts)
        return found

    def __len__(self) -> int:
        return len(list(self.path.glob("*.artifact")))

    def clear(self) -> None:
        """Delete every entry (the directory itself stays)."""
        for path in self.path.glob("*.artifact"):
            path.unlink(missing_ok=True)

    # ------------------------------------------------------------------ #
    # The two serving-tier operations
    # ------------------------------------------------------------------ #
    def export(
        self,
        calls: Sequence["ApiCall"],
        engine: "PlutoEngine | None" = None,
        *,
        plan: "ExecutionPlan | str | None" = None,
        modes: tuple[str, ...] = ("single", "banks", "hierarchy"),
        supports_batched: bool = True,
    ) -> WarmArtifacts:
        """Collect and persist the warm artifacts of one program."""
        artifacts = collect_artifacts(
            calls,
            engine,
            plan=plan,
            modes=modes,
            supports_batched=supports_batched,
        )
        self.save(artifacts)
        return artifacts

    def warm_start(self, engine: "PlutoEngine | None" = None) -> WarmStartReport:
        """Install every compatible stored entry into this process.

        The returned report distinguishes *installed* entries from
        *stale* ones (wrong schema or engine configuration); load time
        covers disk reads, unpickling, and closure regeneration.
        """
        engine = _resolve_engine(engine)
        started = time.perf_counter()
        entries = self.entries()
        installed = 0
        for artifacts in entries:
            if install_artifacts(artifacts, engine):
                installed += 1
            else:
                _STATS["stale"] += 1
        load_time_s = time.perf_counter() - started
        _STATS["load_time_s"] += load_time_s
        return WarmStartReport(
            entries=len(entries),
            installed=installed,
            stale=len(entries) - installed,
            load_time_s=load_time_s,
        )
