"""Tests for the persistent artifact store (serve/store.py)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.api import PlutoSession
from repro.api.session import cache_stats, clear_all_caches
from repro.core.engine import PlutoConfig, PlutoEngine
from repro.plan import ExecutionPlan
from repro.serve.store import ARTIFACT_SCHEMA_VERSION, SharedArtifactStore
from repro.workloads.programs import workload_program

ELEMENTS = 256

#: The pipeline stages warm start must fully pre-pay: a warm-started
#: process serving a stored structure takes zero cold misses on any of
#: them (``scheduler_merges`` is exempt — the analytic merge is
#: recomputed per realized stream and costs microseconds).
WARM_LAYERS = (
    "optimizer",
    "verifier",
    "trace_templates",
    "compiled_exec",
)


def _program() -> PlutoSession:
    session = PlutoSession()
    a = session.pluto_malloc(ELEMENTS, 4, "a")
    b = session.pluto_malloc(ELEMENTS, 4, "b")
    out = session.pluto_malloc(ELEMENTS, 8, "out")
    session.api_pluto_add(a, b, out, bit_width=4)
    return session


class TestStoreRoundtrip:
    def test_export_load_roundtrip(self, tmp_path):
        session = _program()
        store = SharedArtifactStore(tmp_path / "store")
        artifact = store.export(session.calls)
        assert len(store) == 1
        loaded = SharedArtifactStore(tmp_path / "store").load(artifact.identity)
        assert loaded is not None
        assert loaded.identity == artifact.identity
        assert loaded.structure_key == artifact.structure_key
        assert loaded.verified
        assert loaded.compiled is not None
        # The program travels with its trace template, not its closure.
        assert list(loaded.compiled.templates) == [PlutoConfig()]
        assert "_jit_executable" not in loaded.compiled.__dict__

    def test_missing_entry_counts_a_miss(self, tmp_path):
        session = _program()
        store = SharedArtifactStore(tmp_path / "store")
        artifact = SharedArtifactStore(tmp_path / "other").export(session.calls)
        before = cache_stats()["shared_store"]["misses"]
        assert store.load(artifact.identity) is None
        assert cache_stats()["shared_store"]["misses"] == before + 1

    def test_export_overwrites_same_key(self, tmp_path):
        session = _program()
        store = SharedArtifactStore(tmp_path / "store")
        store.export(session.calls)
        store.export(session.calls)
        assert len(store) == 1
        assert not list(store.path.glob("*.tmp"))

    def test_a_concurrent_writer_cannot_corrupt_the_published_entry(self, tmp_path):
        """Each save writes through a temporary file of its own: a second
        writer still writing the same entry never lands in the file the
        first one published."""
        session = _program()
        store = SharedArtifactStore(tmp_path / "store")
        artifact = store.export(session.calls)
        target = store._entry_path(artifact.identity)
        stale = cache_stats()["shared_store"]["stale"]
        with open(target.with_suffix(".tmp"), "wb") as other_writer:
            store.save(artifact)
            other_writer.write(b"a second writer's unfinished bytes")
        loaded = store.load(artifact.identity)
        assert loaded is not None and loaded.identity == artifact.identity
        assert cache_stats()["shared_store"]["stale"] == stale
        assert target.exists()


class TestVersionedInvalidation:
    def test_schema_mismatch_is_stale_and_removed(self, tmp_path):
        session = _program()
        store = SharedArtifactStore(tmp_path / "store")
        artifact = store.export(session.calls)
        path = store._entry_path(artifact.identity)
        path.write_bytes(pickle.dumps((ARTIFACT_SCHEMA_VERSION + 1, artifact)))
        before = cache_stats()["shared_store"]["stale"]
        report = store.warm_start()
        assert report.installed == 0
        assert cache_stats()["shared_store"]["stale"] == before + 1
        assert not path.exists()  # invalid entries are evicted on read

    def test_corrupt_entry_is_stale_and_removed(self, tmp_path):
        session = _program()
        store = SharedArtifactStore(tmp_path / "store")
        artifact = store.export(session.calls)
        path = store._entry_path(artifact.identity)
        path.write_bytes(b"not a pickle")
        report = store.warm_start()
        assert report.installed == 0
        assert not path.exists()

    def test_config_mismatch_never_installs(self, tmp_path):
        session = _program()
        store = SharedArtifactStore(tmp_path / "store")
        store.export(session.calls)  # under the default configuration
        other = PlutoEngine(PlutoConfig(channels=2, ranks=2))
        report = store.warm_start(other)
        assert report.entries == 1
        assert report.installed == 0
        assert report.stale == 1

    def test_foreign_config_inserts_nothing(self, tmp_path):
        session = _program()
        store = SharedArtifactStore(tmp_path / "store")
        store.export(session.calls)
        clear_all_caches()
        store.warm_start(PlutoEngine(PlutoConfig(channels=2, ranks=2)))
        stats = cache_stats()
        assert stats["artifacts"]["size"] == 0
        assert stats["programs"]["size"] == 0


#: Plans a warm start must serve without a cold miss, with the element
#: count each runs at.
WARM_PLANS = {
    "default": (None, ELEMENTS),
    "shards": (ExecutionPlan(shards=4), 4096),
    "auto": ("auto", 4096),
    "hierarchical": (ExecutionPlan(shards=16, channels=None, ranks=None), 4096),
}


class TestWarmStart:
    @pytest.mark.parametrize("plan, elements", list(WARM_PLANS.values()), ids=list(WARM_PLANS))
    def test_cleared_caches_serve_with_zero_cold_misses(self, tmp_path, plan, elements):
        """The headline property: a warm-started process runs the fully
        warm path on its first request — zero optimizer / planner /
        verifier / template / compile misses, bit-identical outputs,
        modelled latency and energy."""
        program = workload_program("crc", elements=elements, seed=1)
        store = SharedArtifactStore(tmp_path / "store")
        store.export(
            program.session.calls,
            plan=plan,
        )
        cold = program.session.run(program.inputs, plan=plan)

        clear_all_caches()
        report = store.warm_start()
        assert report.installed == 1
        before = cache_stats()

        warm = program.session.run(program.inputs, plan=plan)
        after = cache_stats()

        for layer in WARM_LAYERS:
            misses = after[layer]["misses"] - before[layer]["misses"]
            assert misses == 0, f"{layer} took {misses} cold miss(es)"
        # No program was compiled after warm start either, nor even looked
        # up: the artifact carries every program it runs.
        for counter in ("size", "hits", "misses"):
            assert after["programs"][counter] == before["programs"][counter], counter
        assert warm.execution_plan == cold.execution_plan
        assert warm.latency_ns == cold.latency_ns
        assert warm.energy_nj == cold.energy_nj
        for name, array in cold.outputs.items():
            assert np.array_equal(array, warm.outputs[name])

    def test_warm_start_installs_every_family(self, tmp_path):
        store = SharedArtifactStore(tmp_path / "store")
        for name in ("crc", "image", "bitcount"):
            program = workload_program(name, elements=ELEMENTS, seed=2)
            store.export(program.session.calls)
        clear_all_caches()
        report = store.warm_start()
        assert report.entries == 3
        assert report.installed == 3
        assert report.load_time_s > 0.0
        stats = cache_stats()
        assert stats["shared_store"]["installed"] >= 3
        assert stats["artifacts"]["size"] == 3

    def test_clear_empties_the_store(self, tmp_path):
        session = _program()
        store = SharedArtifactStore(tmp_path / "store")
        store.export(session.calls)
        store.clear()
        assert len(store) == 0
        assert store.warm_start().entries == 0

    def test_cache_stats_exposes_the_shared_store_layer(self):
        stats = cache_stats()["shared_store"]
        for key in (
            "hits", "misses", "stale", "saved", "installed", "load_time_s"
        ):
            assert key in stats


class TestFreshProcessWarmStart:
    def test_spawned_pool_serves_store_programs_without_compiling(
        self, tmp_path
    ):
        """A genuinely cold process (spawn start method) warm-starts from
        the store and serves bit-identical outputs, with every warm layer
        hitting instead of missing."""
        from repro.serve import PlutoWorkerPool

        program = workload_program("crc", elements=ELEMENTS, seed=3)
        store = SharedArtifactStore(tmp_path / "store")
        store.export(program.session.calls)
        reference = program.session.run(program.inputs)

        import zlib

        expected = {
            name: zlib.crc32(np.asarray(array).tobytes())
            for name, array in reference.outputs.items()
        }
        with PlutoWorkerPool(
            workers=1,
            store_path=str(tmp_path / "store"),
            start_method="spawn",
        ) as pool:
            assert pool.wait_ready(120.0)
            assert pool.warm_reports[0]["installed"] == 1
            result = pool.submit(
                program.session, program.inputs, return_outputs=False
            ).result(120.0)
        assert result.digests == expected
        caches = pool.worker_reports[0]["cache_stats"]
        for layer in WARM_LAYERS:
            stats = caches[layer]
            assert stats["misses"] == 0, (
                f"fresh process took {stats['misses']} cold "
                f"{layer} miss(es)"
            )
