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

from repro.api import identity_lut
from repro.api.handles import ApiCall
from repro.api.luts import bitcount_lut, bitwise_lut
from repro.api.session import PlutoSession, cache_stats, clear_all_caches, compile_cached
from repro.backend import FunctionalBackend, VectorizedBackend, resolve_backend
from repro.controller.dispatch import ShardPlanner, execute_shard_plans
from repro.controller.executor import PlutoController
from repro.core.designs import PlutoDesign
from repro.core.engine import DDR4, THREE_DS, PlutoConfig, PlutoEngine
from repro.core.lut import LookupTable
from repro.errors import AllocationError, ConfigurationError, LUTError
from repro.workloads.programs import workload_program

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


def test_repeated_runs_use_compile_cache():
    # The cache is bounded: start below the bound so one insert shows.
    clear_all_caches()
    before = cache_stats()["programs"]["size"]
    rng = np.random.default_rng(7)
    session = _random_program(rng, 999_001)
    compiled = session.compile()
    first = session.run(_inputs_for(compiled, rng))
    second = session.run(_inputs_for(compiled, rng))
    assert second.latency_ns == first.latency_ns
    # One new structure: the executions share a single compile.
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


# --------------------------------------------------------------------------- #
# A run's trace is its program's template placed in its bank
# --------------------------------------------------------------------------- #

FAMILIES = ("image", "crc", "salsa20", "vmpc", "bitcount", "vector_ops")
TEMPLATE_CASES = [f"{family}@{elements}" for family in FAMILIES for elements in (256, 4096)]
TEMPLATE_CASES.append("cold")


def _template_case(case: str) -> tuple[PlutoSession, dict]:
    """A registry family at an element count, or the last cold shape
    (4096 elements, six calls) of the benchmark's seed-1 set."""
    if case == "cold":
        from perfbench.workloads import cold_shapes, instantiate

        request = instantiate(cold_shapes(1)[-1], "template")
        return request.session, request.inputs
    family, elements = case.split("@")
    program = workload_program(family, elements=int(elements), seed=3)
    return program.session, program.inputs


class TestTemplateSourcedTraces:
    """The interpreted walk performs only functional effects: its trace,
    LUT-query count and instruction count are the program's template
    placed in the run's bank, one trace object per program and bank
    whichever route runs it."""

    @pytest.mark.parametrize("backend", ["functional", "vectorized"])
    @pytest.mark.parametrize("case", TEMPLATE_CASES)
    def test_a_run_is_its_template_in_its_bank(self, case, backend):
        session, inputs = _template_case(case)
        compiled = compile_cached(session.calls)
        engine = PlutoEngine(PlutoConfig())
        controller = PlutoController(engine, backend=backend, jit=False)
        template = controller.trace_template(compiled)
        for bank in (0, 5):
            result = controller.execute(compiled, dict(inputs), bank=bank)
            reference = template.realize(engine.timing, engine.energy, bank=bank)
            assert result.trace.commands == reference.commands
            assert {command.bank for command in result.trace.commands} == {bank}
            assert result.trace.total_latency_ns.hex() == reference.total_latency_ns.hex()
            assert result.trace.total_energy_nj.hex() == reference.total_energy_nj.hex()
            assert result.lut_queries == template.lut_queries == compiled.lut_queries
            assert (
                result.instructions_executed
                == template.instructions_executed
                == len(compiled.program)
            )

    @pytest.mark.parametrize("case", TEMPLATE_CASES)
    def test_the_fused_pass_and_the_loop_share_each_banks_trace(self, case):
        session, inputs = _template_case(case)
        engine = PlutoEngine(PlutoConfig())
        layout = ShardPlanner(engine.geometry).plan(session.calls, 4)
        arrays = {name: np.asarray(data) for name, data in inputs.items()}
        controller = PlutoController(engine, backend="vectorized")
        fused, fused_outputs, _ = execute_shard_plans(controller, layout, arrays, fused=True)
        loop, loop_outputs, _ = execute_shard_plans(controller, layout, arrays, fused=False)
        assert [result.trace.commands[0].bank for result in fused] == [
            plan.bank for plan in layout.plans
        ]
        for shard, (one, other) in enumerate(zip(fused, loop)):
            assert one.trace is other.trace, shard
        for name, data in loop_outputs.items():
            assert np.array_equal(fused_outputs[name], data), name

    @pytest.mark.parametrize("backend", ["functional", "vectorized"])
    def test_an_unallocatable_program_raises_its_allocation_error(self, backend):
        """The accounting walk raises it, with the walk's message, in any bank."""
        too_wide = PlutoSession()
        source = too_wide.pluto_malloc(256, 10, "x")
        out = too_wide.pluto_malloc(256, 10, "out")
        too_wide.api_pluto_map(identity_lut(10), source, out)
        too_long = PlutoSession()
        source = too_long.pluto_malloc(300_000, 64, "x")
        out = too_long.pluto_malloc(300_000, 64, "out")
        too_long.api_pluto_move(source, out)
        controller = PlutoController(backend=backend, jit=False)
        for session, inputs, message in (
            (
                too_wide,
                {"x": np.arange(256)},
                "LUT 'identity10' needs 1024 rows but a subarray has only 512",
            ),
            (
                too_long,
                {"x": np.zeros(300_000, dtype=np.uint64)},
                "data subarray exhausted: cannot place 293 more rows for $prg1",
            ),
        ):
            compiled = compile_cached(session.calls)
            for bank in (0, 5):
                with pytest.raises(AllocationError) as raised:
                    controller.execute(compiled, dict(inputs), bank=bank)
                assert str(raised.value) == message

    @pytest.mark.parametrize("backend", ["functional", "vectorized"])
    def test_a_signed_input_raises_the_lut_error(self, backend):
        """-1 wraps to 2**64 - 1, which no 256-entry LUT holds."""
        session, inputs = _template_case("image@256")
        compiled = compile_cached(session.calls)
        controller = PlutoController(backend=backend, jit=False)
        signed = {name: np.full(len(data), -1, dtype=np.int64) for name, data in inputs.items()}
        with pytest.raises(LUTError) as raised:
            controller.execute(compiled, signed, bank=5)
        assert str(raised.value) == (
            "query index 18446744073709551615 outside the 256-entry LUT 'colorgrade8'"
        )
