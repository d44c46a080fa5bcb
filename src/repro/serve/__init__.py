"""The multi-worker serving tier.

Layered above :class:`~repro.api.service.PlutoService`:

* :mod:`repro.serve.store` — the persistent shared artifact store (one
  pickled program artifact per request identity, versioned invalidation,
  instant worker warm start);
* :mod:`repro.serve.pool` — the dispatcher + N worker processes with
  structure-key-affinity routing, admission control, and graceful drain;
* :mod:`repro.serve.client` — synchronous bulk fan-out helpers.
"""

from repro.serve.client import fan_out, map_parallel
from repro.serve.pool import PlutoWorkerPool, PoolStats, WorkerResult
from repro.serve.store import (
    ARTIFACT_SCHEMA_VERSION,
    SharedArtifactStore,
    WarmStartReport,
)

__all__ = [
    "SharedArtifactStore",
    "WarmStartReport",
    "ARTIFACT_SCHEMA_VERSION",
    "PlutoWorkerPool",
    "PoolStats",
    "WorkerResult",
    "map_parallel",
    "fan_out",
]
