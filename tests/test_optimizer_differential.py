"""Randomized differential testing of the program optimizer.

A small program generator builds API programs exercising every shape the
passes rewrite — unary LUT chains, diamonds joined by bitwise logic, a
binary-LUT head feeding map chains, content-duplicated tables, and dead
branches (outputs declared as a subset) — and every generated program is
executed optimized and unoptimized, asserting **bit-identical** declared
outputs across the functional/vectorized backends, the three pLUTo
designs, and sharded execution (``shards=N`` composing with
``optimize=True`` through the ``ShardPlanner``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.handles import ApiCall
from repro.api.session import PlutoSession
from repro.core.designs import PlutoDesign
from repro.core.engine import PlutoConfig, PlutoEngine
from repro.core.lut import LookupTable, lut_from_function
from repro.opt import optimize_program
from repro.opt.analysis import natural_output_names
from repro.plan import ExecutionPlan

ELEMENTS = 24

#: A small pool of 256-entry tables; ``dup`` entries are content-equal
#: twins under different names, so programs exercise LUT deduplication.
_LUT_POOL: list[LookupTable] = []


def _lut_pool() -> list[LookupTable]:
    if not _LUT_POOL:
        base = [
            lut_from_function(lambda x: (x * x) & 0xFF, 8, 8, name="square8"),
            lut_from_function(lambda x: (x + 7) & 0xFF, 8, 8, name="add7"),
            lut_from_function(lambda x: x ^ 0x5A, 8, 8, name="xor5a"),
            lut_from_function(lambda x: (x >> 1) | ((x & 1) << 7), 8, 8, name="ror1"),
        ]
        twins = [
            LookupTable(
                values=lut.values,
                index_bits=8,
                element_bits=8,
                name=f"{lut.name}-twin",
            )
            for lut in base[:2]
        ]
        _LUT_POOL.extend(base + twins)
    return _LUT_POOL


def random_program(
    rng: np.random.Generator, operations: int = 10
) -> tuple[PlutoSession, dict[str, np.ndarray], list[str]]:
    """Generate one program plus inputs and a declared-output subset.

    The 8-bit value pool only ever holds results of 256-entry table
    queries, bitwise logic, shifts, and moves of 8-bit data, so every
    LUT index stays in range on both backends.  A 4-bit "island" of two
    extra inputs feeds an ``api_pluto_add`` whose (<= 30) sums seed the
    pool through the binary-LUT head pattern the fusion pass folds.
    """
    session = PlutoSession()
    pool = [session.pluto_malloc(ELEMENTS, 8, f"in{i}") for i in range(2)]
    inputs = {
        vector.name: rng.integers(0, 256, ELEMENTS, dtype=np.uint64)
        for vector in pool
    }
    if rng.random() < 0.7:  # the binary-LUT island
        left = session.pluto_malloc(ELEMENTS, 4, "nib_a")
        right = session.pluto_malloc(ELEMENTS, 4, "nib_b")
        inputs[left.name] = rng.integers(0, 16, ELEMENTS, dtype=np.uint64)
        inputs[right.name] = rng.integers(0, 16, ELEMENTS, dtype=np.uint64)
        total = session.pluto_malloc(ELEMENTS, 8, "nib_sum")
        session.api_pluto_add(left, right, total, bit_width=4)
        pool.append(total)
    luts = _lut_pool()
    for index in range(operations):
        choice = rng.random()
        out = session.pluto_malloc(ELEMENTS, 8, f"t{index}")
        if choice < 0.6:  # unary LUT query (chains when sources repeat)
            lut = luts[int(rng.integers(len(luts)))]
            source = pool[int(rng.integers(len(pool)))]
            session.api_pluto_map(lut, source, out)
        elif choice < 0.8:  # bitwise join (diamonds)
            operation = ("and", "or", "xor")[int(rng.integers(3))]
            a = pool[int(rng.integers(len(pool)))]
            b = pool[int(rng.integers(len(pool)))]
            session.api_pluto_bitwise(operation, a, b, out)
        elif choice < 0.9:  # move
            session.api_pluto_move(pool[int(rng.integers(len(pool)))], out)
        else:  # shift
            session.api_pluto_shift(
                pool[int(rng.integers(len(pool)))],
                out,
                int(rng.integers(0, 4)),
                "l" if rng.random() < 0.5 else "r",
            )
        pool.append(out)
        if rng.random() < 0.35 and len(pool) > 3:
            # Re-offer an old vector so chains and diamonds form.
            pool.append(pool[int(rng.integers(len(pool)))])
    outputs = sorted(natural_output_names(session.calls))
    keep = max(1, int(rng.integers(1, len(outputs) + 1)))
    declared = sorted(rng.choice(outputs, size=keep, replace=False).tolist())
    return session, inputs, declared


def _external_inputs(calls: list[ApiCall], inputs: dict) -> dict:
    produced = {call.output.name for call in calls}
    needed = {
        operand.name
        for call in calls
        for operand in call.inputs
        if operand.name not in produced
    }
    return {name: inputs[name] for name in needed}


def _run(
    calls: list[ApiCall],
    inputs: dict,
    *,
    backend: str,
    engine: PlutoEngine,
    shards: int,
) -> dict[str, np.ndarray]:
    session = PlutoSession(calls=list(calls), backend=backend)
    result = session.run(
        _external_inputs(list(calls), inputs),
        engine=engine,
        plan=ExecutionPlan(shards=shards),
    )
    return result.registers


@pytest.mark.parametrize("seed", range(8))
def test_differential_vectorized_all_designs(seed, any_design):
    rng = np.random.default_rng(1000 + seed)
    session, inputs, declared = random_program(rng)
    optimized = optimize_program(session.calls, outputs=declared)
    engine = PlutoEngine(PlutoConfig(design=any_design))
    for shards in (1, 3):
        reference = _run(
            session.calls, inputs, backend="vectorized", engine=engine, shards=shards
        )
        rewritten = _run(
            list(optimized.calls),
            inputs,
            backend="vectorized",
            engine=engine,
            shards=shards,
        )
        for name in declared:
            assert np.array_equal(reference[name], rewritten[name]), (
                f"seed {seed}, design {any_design}, shards {shards}: "
                f"output {name!r} diverged"
            )


@pytest.mark.parametrize("seed", range(2))
def test_differential_functional_backend(seed, any_design):
    rng = np.random.default_rng(2000 + seed)
    session, inputs, declared = random_program(rng, operations=6)
    optimized = optimize_program(session.calls, outputs=declared)
    engine = PlutoEngine(PlutoConfig(design=any_design))
    reference = _run(
        session.calls, inputs, backend="functional", engine=engine, shards=1
    )
    rewritten = _run(
        list(optimized.calls), inputs, backend="functional", engine=engine, shards=1
    )
    for name in declared:
        assert np.array_equal(reference[name], rewritten[name])


def test_functional_sharded_optimized_composes():
    rng = np.random.default_rng(31)
    session, inputs, declared = random_program(rng, operations=5)
    optimized = optimize_program(session.calls, outputs=declared)
    engine = PlutoEngine(PlutoConfig(design=PlutoDesign.BSA))
    reference = _run(
        session.calls, inputs, backend="vectorized", engine=engine, shards=1
    )
    sharded = _run(
        list(optimized.calls), inputs, backend="functional", engine=engine, shards=2
    )
    for name in declared:
        assert np.array_equal(reference[name], sharded[name])


@pytest.mark.parametrize("seed", range(4))
def test_differential_compiled_tier(seed, any_design):
    """The whole-program compiled tier is bit-identical — outputs,
    registers, AND command traces — to the interpreted vectorized walk
    and the functional oracle, on both the raw and the optimized program
    of every fuzzed shape, with fused sharded execution matching too."""
    from repro.api.session import compile_cached_with_key
    from repro.controller.dispatch import ParallelDispatcher
    from repro.controller.executor import PlutoController

    rng = np.random.default_rng(3000 + seed)
    session, inputs, declared = random_program(rng)
    optimized = optimize_program(session.calls, outputs=declared)
    engine = PlutoEngine(PlutoConfig(design=any_design))
    jit = PlutoController(engine, backend="vectorized")
    interp = PlutoController(engine, backend="vectorized", jit=False)
    oracle = PlutoController(engine, backend="functional")
    for calls in (list(session.calls), list(optimized.calls)):
        compiled, key = compile_cached_with_key(calls)
        external = _external_inputs(calls, inputs)
        result = jit.execute(compiled, dict(external), structure_key=key)
        for reference in (
            interp.execute(compiled, dict(external), structure_key=key),
            oracle.execute(compiled, dict(external), structure_key=key),
        ):
            for name, data in reference.registers.items():
                assert np.array_equal(result.registers[name], data), name
            assert (
                result.trace.total_latency_ns
                == reference.trace.total_latency_ns
            )
            assert (
                result.trace.total_energy_nj == reference.trace.total_energy_nj
            )
            assert [
                (cmd.kind, cmd.bank, cmd.rows)
                for cmd in result.trace.commands
            ] == [
                (cmd.kind, cmd.bank, cmd.rows)
                for cmd in reference.trace.commands
            ]
        # Fused sharded execution routes through the compiled closure
        # when the program supports it and must match the per-shard
        # functional oracle exactly.
        fused_dispatcher = ParallelDispatcher(engine, fused=True)
        fused = fused_dispatcher.execute(fused_dispatcher.planner.plan(calls, 3), external)
        oracle_dispatcher = ParallelDispatcher(engine, backend="functional")
        sharded_oracle = oracle_dispatcher.execute(
            oracle_dispatcher.planner.plan(calls, 3), external
        )
        for name, data in sharded_oracle.outputs.items():
            assert np.array_equal(fused.outputs[name], data), name
        assert fused.makespan_ns == sharded_oracle.makespan_ns


def test_corpus_actually_optimizes_something():
    """The generator must produce rewrite opportunities, or the suite is vacuous."""
    saved = 0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        session, _, declared = random_program(rng)
        report = optimize_program(session.calls, outputs=declared).report
        saved += report.lut_queries_saved + report.ops_saved
    assert saved > 0


def test_vectorized_matches_functional_after_optimization():
    """Optimized programs stay backend-agnostic (same outputs both paths)."""
    rng = np.random.default_rng(77)
    session, inputs, declared = random_program(rng, operations=6)
    optimized = optimize_program(session.calls, outputs=declared)
    engine = PlutoEngine(PlutoConfig(design=PlutoDesign.GMC))
    vectorized = _run(
        list(optimized.calls), inputs, backend="vectorized", engine=engine, shards=1
    )
    functional = _run(
        list(optimized.calls), inputs, backend="functional", engine=engine, shards=1
    )
    for name in declared:
        assert np.array_equal(vectorized[name], functional[name])
