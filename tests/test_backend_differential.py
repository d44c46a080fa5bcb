"""Differential testing of the execution backends.

Random compiled programs must produce identical outputs *and identical
command traces* on the functional (subarray row-sweep) and vectorized
(NumPy gather) backends, across all three pLUTo designs and both memory
kinds.  The trace comparison is structural (kind/bank/subarray/rows/meta
per command) plus exact latency/energy totals — accounting is computed by
the controller independently of the backend, and this test pins that
invariant down.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.handles import ApiCall
from repro.api.luts import bitcount_lut, bitwise_lut
from repro.api.session import PlutoSession, cache_stats, clear_all_caches
from repro.backend import FunctionalBackend, VectorizedBackend, resolve_backend
from repro.controller.executor import PlutoController
from repro.core.designs import PlutoDesign
from repro.core.engine import DDR4, THREE_DS, PlutoConfig, PlutoEngine
from repro.core.lut import LookupTable
from repro.errors import ConfigurationError

DESIGNS = list(PlutoDesign)
MEMORIES = (DDR4, THREE_DS)


def _random_program(rng: np.random.Generator, tag: int) -> PlutoSession:
    """Build a random API program whose external inputs are 4-bit vectors.

    Vector names embed ``tag`` so structurally different programs never
    collide in the compiled-program cache.
    """
    session = PlutoSession()
    size = int(rng.integers(8, 65))
    counter = 0

    def malloc(bits: int):
        nonlocal counter
        counter += 1
        return session.pluto_malloc(size, bits, f"p{tag}_v{counter}_{bits}b")

    # 4-bit vectors usable as LUT-routine operands; ``pool`` additionally
    # holds wider intermediates usable by bitwise/shift/move/map.
    narrow = [malloc(4) for _ in range(int(rng.integers(2, 4)))]
    pool = list(narrow)

    for _ in range(int(rng.integers(2, 6))):
        op = str(rng.choice(["add", "mul", "map", "bitwise", "bitwise_lut", "shift", "move"]))
        if op in ("add", "mul"):
            in1, in2 = (narrow[int(i)] for i in rng.integers(0, len(narrow), 2))
            out = malloc(8)
            if op == "add":
                session.api_pluto_add(in1, in2, out, bit_width=4)
            else:
                session.api_pluto_mul(in1, in2, out, bit_width=4)
            pool.append(out)
        elif op == "map":
            source = pool[int(rng.integers(len(pool)))]
            out = malloc(source.bit_width)
            session.api_pluto_map(bitcount_lut(source.bit_width), source, out)
            pool.append(out)
        elif op == "bitwise":
            in1, in2 = (pool[int(i)] for i in rng.integers(0, len(pool), 2))
            out = malloc(min(in1.bit_width, in2.bit_width))
            kind = str(rng.choice(["and", "or", "xor", "xnor", "not"]))
            session.api_pluto_bitwise(kind, in1, in2 if kind != "not" else None, out)
            pool.append(out)
        elif op == "bitwise_lut":
            # 4-bit-operand bitwise LUT (256 entries), exercising the
            # shift + OR + pluto_op lowering with a non-arithmetic table.
            in1, in2 = (narrow[int(i)] for i in rng.integers(0, len(narrow), 2))
            out = malloc(8)
            session.calls.append(
                ApiCall(
                    operation="xor_lut",
                    inputs=(in1, in2),
                    output=out,
                    lut=bitwise_lut("xor", 4),
                    parameters={"bit_width": 4},
                )
            )
            pool.append(out)
        elif op == "shift":
            source = pool[int(rng.integers(len(pool)))]
            out = malloc(source.bit_width)
            session.api_pluto_shift(
                source, out, int(rng.integers(0, 4)), str(rng.choice(["l", "r"]))
            )
            pool.append(out)
        else:
            source = pool[int(rng.integers(len(pool)))]
            out = malloc(source.bit_width)
            session.api_pluto_move(source, out)
            pool.append(out)
    return session


def _inputs_for(compiled, rng: np.random.Generator):
    return {
        vector.name: rng.integers(0, 1 << min(vector.bit_width, 4), vector.size)
        for vector in compiled.external_inputs
    }


def _trace_signature(trace):
    return [
        (command.kind, command.bank, command.subarray, command.rows, command.meta)
        for command in trace
    ]


@pytest.mark.parametrize("memory", MEMORIES)
@pytest.mark.parametrize("design", DESIGNS)
def test_backends_agree_on_random_programs(design, memory):
    rng = np.random.default_rng(abs(hash((design.value, memory))) % (2**32))
    engine = PlutoEngine(PlutoConfig(design=design, memory=memory))
    for round_index in range(2):
        tag = abs(hash((design.value, memory, round_index))) % 10**6
        session = _random_program(rng, tag)
        compiled = session.compile()
        inputs = _inputs_for(compiled, rng)

        functional = PlutoController(engine, backend="functional").execute(
            compiled, dict(inputs)
        )
        vectorized = PlutoController(engine, backend="vectorized").execute(
            compiled, dict(inputs)
        )

        assert functional.backend == "functional"
        assert vectorized.backend == "vectorized"
        assert functional.outputs.keys() == vectorized.outputs.keys()
        for name in functional.outputs:
            assert np.array_equal(functional.outputs[name], vectorized.outputs[name]), (
                f"output {name!r} diverged for {design} on {memory}"
            )
        for name in functional.registers:
            assert np.array_equal(
                functional.registers[name], vectorized.registers[name]
            )
        assert _trace_signature(functional.trace) == _trace_signature(vectorized.trace)
        assert functional.latency_ns == vectorized.latency_ns
        assert functional.energy_nj == vectorized.energy_nj
        assert functional.lut_queries == vectorized.lut_queries
        assert functional.instructions_executed == vectorized.instructions_executed


def test_session_batch_uses_compile_cache():
    # The cache is bounded: start below the bound so one insert shows.
    clear_all_caches()
    before = cache_stats()["programs"]["size"]
    rng = np.random.default_rng(7)
    session = _random_program(rng, 999_001)
    compiled = session.compile()
    batch = session.run_batch(_inputs_for(compiled, rng) for _ in range(3))
    assert len(batch) == 3
    assert batch.total_latency_ns == sum(r.latency_ns for r in batch)
    # One new structure: the three executions share a single compile.
    assert cache_stats()["programs"]["size"] == before + 1


def test_program_and_gather_caches_stay_bounded():
    """More structures and tables than the bound evict the oldest entries."""
    rng = np.random.default_rng(11)
    sessions = []
    for index in range(1100):
        session = PlutoSession()
        a = session.pluto_malloc(16, 4, f"bound{index}_a")
        out = session.pluto_malloc(16, 8, f"bound{index}_out")
        values = tuple(int(v) for v in rng.integers(0, 256, 16))
        session.api_pluto_map(LookupTable(values, 4, 8, f"bound{index}"), a, out)
        session.run({a.name: rng.integers(0, 16, 16)})
        sessions.append(session)
    stats = cache_stats()
    assert stats["programs"]["size"] <= 1024
    assert stats["lut_gather_arrays"]["size"] <= 1024
    # The oldest programs were evicted: fresh sessions compile them again,
    # and every output still matches the functional oracle.
    for session in sessions[:3] + sessions[-3:]:
        call = session.calls[0]
        inputs = {call.inputs[0].name: rng.integers(0, 16, 16)}
        fast = PlutoSession(calls=session.calls).run(inputs)
        oracle = PlutoSession(calls=session.calls, backend="functional").run(inputs)
        expected = call.lut.query(inputs[call.inputs[0].name])
        assert np.array_equal(fast.outputs[call.output.name], expected)
        assert np.array_equal(oracle.outputs[call.output.name], expected)
        assert fast.latency_ns == oracle.latency_ns
    assert cache_stats()["programs"]["size"] <= 1024


def test_resolve_backend_rejects_unknown_name():
    with pytest.raises(ConfigurationError):
        resolve_backend("simd")
    assert isinstance(resolve_backend("functional"), FunctionalBackend)
    assert isinstance(resolve_backend("vectorized"), VectorizedBackend)
    instance = VectorizedBackend()
    assert resolve_backend(instance) is instance
