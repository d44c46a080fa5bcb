"""A persistent shared store of program artifacts.

Everything that makes a warm run cheap — the planner's decision, the
optimized calls, the verifier's verdict, the compiled programs with their
trace templates — is one :class:`~repro.api.session.ProgramArtifact` per
program and plan request, held in a process-private table, so a freshly
spawned worker would repay the full plan/optimize/compile/verify cost on
its first request of every program.  :class:`SharedArtifactStore` closes
that gap: it pickles the artifacts themselves to disk, one file per
request identity, and :meth:`SharedArtifactStore.warm_start` loads each
one back and inserts it (:func:`~repro.api.session.insert_artifact`), so
a cold worker's first request runs the exact warm path.

A compiled program's closure is generated code and does not pickle; it
regenerates from the program in well under a millisecond when the
artifact is inserted, so the regeneration happens at warm start, never
on the first request.

Entries are versioned (:data:`ARTIFACT_SCHEMA_VERSION`) and carry the
engine configuration they were prepared under; a schema or configuration
mismatch invalidates the entry (counted as ``stale``, file removed on
schema mismatch) instead of poisoning a worker with artifacts from a
different code or hardware generation.  Store effectiveness is surfaced
as the ``shared_store`` layer of
:func:`repro.api.session.cache_stats`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.api.session import ProgramArtifact
from repro.errors import ConfigurationError
from repro.utils.memo import tally

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.handles import ApiCall
    from repro.core.engine import PlutoEngine
    from repro.plan.execution_plan import ExecutionPlan

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "WarmStartReport",
    "SharedArtifactStore",
]


#: Bump when the artifact layout (or the meaning of any stored product)
#: changes; entries written under another schema are discarded as stale.
#: Version 7: an identity's plan spells its placement with the device's
#: counts (no ``None`` level), so a version 6 entry under a ``None``
#: placement would never be asked for again.
ARTIFACT_SCHEMA_VERSION = 7


#: Process-wide hit/miss/stale/saved/installed counters and cumulative
#: load wall-clock, surfaced as ``cache_stats()["shared_store"]``.
_STATS = tally(
    "shared_store", hits=0, misses=0, stale=0, saved=0, installed=0, load_time_s=0.0
)


@dataclass(frozen=True)
class WarmStartReport:
    """What one warm start loaded and what it cost."""

    entries: int
    installed: int
    stale: int
    load_time_s: float


class SharedArtifactStore:
    """A directory of pickled program artifacts, one file per entry.

    Writes are atomic: each goes to a temporary file of its own in the
    store directory and is renamed into place, so concurrent workers
    exporting the same program race benignly — the last writer wins with
    a complete file either way.  Reads validate the schema version and
    the full request identity (not just the digest), so a hash collision
    or a stale-schema file can never install wrong artifacts.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)

    def _entry_path(self, identity: tuple) -> Path:
        blob = pickle.dumps(identity, protocol=pickle.HIGHEST_PROTOCOL)
        return self.path / f"{hashlib.sha256(blob).hexdigest()[:32]}.artifact"

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, artifact: ProgramArtifact) -> Path:
        """Write one entry (atomic; overwrites an existing same-key entry)."""
        if artifact.identity is None:
            raise ConfigurationError(
                "cannot store the artifact of a program whose structure key "
                "is unhashable (list-valued call parameters)"
            )
        target = self._entry_path(artifact.identity)
        handle, scratch = tempfile.mkstemp(dir=self.path, suffix=".tmp")
        try:
            with os.fdopen(handle, "wb") as file:
                pickle.dump(
                    (ARTIFACT_SCHEMA_VERSION, artifact),
                    file,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            os.replace(scratch, target)
        except BaseException:
            Path(scratch).unlink(missing_ok=True)
            raise
        _STATS["saved"] += 1
        return target

    def _read(self, path: Path) -> ProgramArtifact | None:
        """One entry from disk, or ``None`` (counted stale) when invalid."""
        try:
            schema, artifact = pickle.loads(path.read_bytes())
        except Exception:
            schema, artifact = None, None
        if schema != ARTIFACT_SCHEMA_VERSION or not isinstance(artifact, ProgramArtifact):
            _STATS["stale"] += 1
            path.unlink(missing_ok=True)
            return None
        return artifact

    def load(self, identity: tuple) -> ProgramArtifact | None:
        """The entry stored under ``identity``, or ``None`` on a miss."""
        path = self._entry_path(identity)
        if not path.exists():
            _STATS["misses"] += 1
            return None
        started = time.perf_counter()
        artifact = self._read(path)
        _STATS["load_time_s"] += time.perf_counter() - started
        if artifact is None or artifact.identity != identity:
            _STATS["misses"] += 1
            return None
        _STATS["hits"] += 1
        return artifact

    def entries(self) -> list[ProgramArtifact]:
        """Every valid entry currently on disk (stale files are dropped)."""
        found = []
        for path in sorted(self.path.glob("*.artifact")):
            artifact = self._read(path)
            if artifact is not None:
                found.append(artifact)
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
    ) -> ProgramArtifact:
        """Prepare ``calls`` and persist the artifact.

        The program is prepared exactly as the execution front doors
        prepare it (:func:`repro.api.session.prepare_execution`), and
        verified: a program with verification errors, or a sharded plan
        that cannot be laid out, is rejected and nothing is saved.  A
        process that already served the program holds its artifact, so
        exporting it costs one table lookup and one write.  ``plan``
        ``None`` defers to the engine's default plan.  The artifact
        serves every front door and backend that runs ``plan``.
        """
        from repro.api.session import prepare_execution
        from repro.controller.executor import PlutoController
        from repro.plan.execution_plan import resolve_plan

        if plan is None and engine is not None:
            plan = engine.config.plan
        artifact = prepare_execution(
            calls, engine, resolve_plan(plan), verify=True, subject="warm-start"
        )
        # A program's first run builds its trace template; one exported
        # before any run gets it here, so no warm start misses it.
        controller = PlutoController(engine, backend="vectorized")
        for _, compiled in artifact.programs():
            controller.trace_template(compiled)
        self.save(artifact)
        return artifact

    def warm_start(self, engine: "PlutoEngine | None" = None) -> WarmStartReport:
        """Insert every stored artifact of ``engine``'s configuration.

        The returned report distinguishes *installed* entries from
        *stale* ones (wrong schema or engine configuration); load time
        covers disk reads, unpickling, and closure regeneration.
        """
        from repro.api.session import insert_artifact
        from repro.core.engine import PlutoConfig

        config = engine.config if engine is not None else PlutoConfig()
        started = time.perf_counter()
        entries = self.entries()
        installed = 0
        for artifact in entries:
            if artifact.identity is not None and artifact.identity.config == config:
                insert_artifact(artifact)
                installed += 1
        load_time_s = time.perf_counter() - started
        _STATS["installed"] += installed
        _STATS["stale"] += len(entries) - installed
        _STATS["load_time_s"] += load_time_s
        return WarmStartReport(
            entries=len(entries),
            installed=installed,
            stale=len(entries) - installed,
            load_time_s=load_time_s,
        )
