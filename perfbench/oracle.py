"""Reference output digests from the functional backend (the oracle).

The functional backend executes every LUT query as a real subarray row
sweep; every other path must produce its outputs bit for bit.  Computing
the references takes seconds (about 9 s for the six families at 65536
elements on a 2-core host), so it runs before any set-up or timed window
and is cached per workload, seed, and program and benchmark source.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from perfbench.workloads import reference_classes

__all__ = ["source_digest", "compute", "reference_file"]

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench" / "cache"


def source_digest() -> str:
    """Digest of the program's and the benchmark's source.

    A changed program, or a changed request generator, re-derives the
    reference instead of reading one made for other requests.
    """
    digest = hashlib.sha256()
    paths = [*(ROOT / "src").rglob("*.py"), *Path(__file__).parent.glob("*.py")]
    for path in sorted(paths):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def compute(workload: str, seed: int) -> dict[str, dict[str, int]]:
    """Request class -> output role -> CRC32, from the functional backend."""
    return {
        request.name: request.digests(request.session.run(request.inputs).outputs)
        for request in reference_classes(workload, seed)
    }


def reference_file(workload: str, seed: int) -> Path:
    """The cached reference of ``workload`` at ``seed``, computed if absent."""
    path = CACHE / f"oracle-{workload}-seed{seed}-{source_digest()}.json"
    if not path.exists():
        CACHE.mkdir(parents=True, exist_ok=True)
        partial = path.with_suffix(".tmp")
        partial.write_text(json.dumps(compute(workload, seed), sort_keys=True))
        partial.replace(path)
    return path
