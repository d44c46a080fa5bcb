"""Tests for the static verifier (analyze/): corpus + front doors + fuzz.

The malformed-program corpus constructs ApiCall / CompiledProgram values
directly — bypassing the session's record-time checks on purpose — and
asserts the exact diagnostic codes the verifier reports for each defect
class.  The fuzz test mutates valid optimizer-output programs from the
workload registry and checks every mutation is caught.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import replace

import numpy as np
import pytest

from repro.analyze import (
    Diagnostic,
    Severity,
    analyze_dataflow,
    check_pass_invariants,
    narrow_output_diagnostic,
    operand_width_diagnostic,
    shards_overcommit_diagnostic,
    verification_enabled,
    verify_calls,
    verify_cached,
    verify_compiled,
    verify_program,
    verify_shard_plans,
)
from repro.analyze.cli import main as analyze_main
from repro.api.handles import ApiCall, PlutoVector
from repro.api.session import PlutoSession, cache_stats, clear_all_caches
from repro.compiler.lowering import CompiledProgram, program_structure_key
from repro.controller.dispatch import ShardPlan, ShardPlanner
from repro.core.engine import PlutoConfig, PlutoEngine
from repro.core.lut import LookupTable
from repro.dram.geometry import DRAMGeometry
from repro.errors import ConfigurationError, VerificationError
from repro.isa.instructions import (
    PlutoMove,
    PlutoOp,
    PlutoRowAlloc,
    PlutoSubarrayAlloc,
)
from repro.isa.program import PlutoProgram
from repro.isa.registers import RegisterFile, RowRegister, SubarrayRegister
from repro.opt.pipeline import PassManager, optimize_program
from repro.workloads.programs import workload_program

ELEMENTS = 64


def _lut(index_bits: int = 8, element_bits: int = 8, name: str = "t") -> LookupTable:
    entries = 1 << index_bits
    return LookupTable(
        values=tuple(x % (1 << element_bits) for x in range(entries)),
        index_bits=index_bits,
        element_bits=element_bits,
        name=name,
    )


def _vec(name: str, bit_width: int = 8, size: int = ELEMENTS) -> PlutoVector:
    return PlutoVector(name=name, size=size, bit_width=bit_width)


def _map_call(
    source: PlutoVector, out: PlutoVector, lut: LookupTable
) -> ApiCall:
    return ApiCall(operation="map", inputs=(source,), output=out, lut=lut)


def _valid_calls() -> list[ApiCall]:
    a = _vec("a")
    mid = _vec("mid")
    out = _vec("out")
    lut = _lut()
    return [_map_call(a, mid, lut), _map_call(mid, out, lut)]


class _Compiled:
    """A small, valid hand-built compiled program, easy to perturb."""

    def __init__(self) -> None:
        self.r0 = RowRegister(0, ELEMENTS, 8)
        self.r1 = RowRegister(1, ELEMENTS, 8)
        self.s0 = SubarrayRegister(0, 256, "t")
        self.table = _lut()
        self.instructions = [
            PlutoRowAlloc(self.r0, ELEMENTS, 8),
            PlutoRowAlloc(self.r1, ELEMENTS, 8),
            PlutoSubarrayAlloc(self.s0, 256, "t"),
            PlutoOp(self.r1, self.r0, self.s0, 256, 8),
        ]
        self.vector_bindings = {"a": self.r0, "out": self.r1}
        self.lut_bindings = {0: self.table}
        self.external_inputs = [_vec("a")]
        self.outputs = [_vec("out")]

    def build(self) -> CompiledProgram:
        return CompiledProgram(
            program=PlutoProgram(list(self.instructions)),
            register_file=RegisterFile(),
            vector_bindings=dict(self.vector_bindings),
            lut_bindings=dict(self.lut_bindings),
            external_inputs=list(self.external_inputs),
            outputs=list(self.outputs),
        )


class TestCallVerification:
    """API-level corpus: verify_calls catches each defect class."""

    def test_valid_program_is_clean(self):
        report = verify_calls(_valid_calls())
        assert report.clean
        assert report.ok

    def test_empty_program(self):
        report = verify_calls([])
        assert report.codes() == {"empty-program"}
        assert not report.ok

    def test_unknown_operation(self):
        call = ApiCall(
            operation="frobnicate", inputs=(_vec("a"),), output=_vec("out")
        )
        report = verify_calls([call])
        assert "unknown-operation" in report.codes()
        (finding,) = [d for d in report if d.code == "unknown-operation"]
        assert finding.instruction == 0
        assert "frobnicate" in finding.message

    def test_multiple_assignment(self):
        calls = _valid_calls()
        calls.append(calls[0])  # 'mid' produced twice
        report = verify_calls(calls)
        assert "multiple-assignment" in report.codes()
        (finding,) = [d for d in report if d.code == "multiple-assignment"]
        assert finding.instruction == 2
        assert "'mid'" in finding.message

    def test_missing_lut(self):
        call = ApiCall(operation="map", inputs=(_vec("a"),), output=_vec("out"))
        report = verify_calls([call])
        assert "missing-lut" in report.codes()

    def test_arity(self):
        call = ApiCall(
            operation="map",
            inputs=(_vec("a"), _vec("b")),
            output=_vec("out"),
            lut=_lut(),
        )
        report = verify_calls([call])
        assert "arity" in report.codes()

    def test_out_of_range_lut_index(self):
        # 4-bit source cannot address a 256-entry table.
        call = _map_call(_vec("a", bit_width=4), _vec("out"), _lut(index_bits=8))
        report = verify_calls([call])
        assert "lut-index-width" in report.codes()
        (finding,) = [d for d in report if d.code == "lut-index-width"]
        assert "256-entry" in finding.message

    def test_width_overflow_narrow_output(self):
        # The LUT produces 8-bit values; a 4-bit output would truncate.
        call = _map_call(_vec("a"), _vec("out", bit_width=4), _lut())
        report = verify_calls([call])
        assert "narrow-output" in report.codes()
        (finding,) = [d for d in report if d.code == "narrow-output"]
        assert "8-bit elements" in finding.message
        assert "widen" in finding.hint

    def test_operand_width(self):
        call = ApiCall(
            operation="add",
            inputs=(_vec("a", bit_width=2), _vec("b", bit_width=4)),
            output=_vec("out"),
            lut=_lut(),
            parameters={"bit_width": 4},
        )
        report = verify_calls([call])
        assert "operand-width" in report.codes()

    def test_shift_direction_and_amount(self):
        bad_direction = ApiCall(
            operation="shift",
            inputs=(_vec("a"),),
            output=_vec("out"),
            parameters={"direction": "up", "bits": 1},
        )
        bad_amount = ApiCall(
            operation="shift",
            inputs=(_vec("a2"),),
            output=_vec("out2"),
            parameters={"direction": "l", "bits": -3},
        )
        report = verify_calls([bad_direction, bad_amount])
        assert {"shift-direction", "shift-amount"} <= report.codes()

    def test_dependency_cycle(self):
        a, b = _vec("a"), _vec("b")
        lut = _lut()
        calls = [_map_call(a, b, lut), _map_call(b, a, lut)]
        report = verify_calls(calls)
        assert "dependency-cycle" in report.codes()


class TestCompiledVerification:
    """ISA-level corpus: verify_compiled catches each defect class."""

    def test_valid_compiled_is_clean(self):
        assert verify_compiled(_Compiled().build()).clean

    def test_use_before_def(self):
        broken = _Compiled()
        del broken.instructions[0]  # r0 never allocated
        report = verify_compiled(broken.build())
        assert "use-before-def" in report.codes()
        (finding,) = [d for d in report if d.code == "use-before-def"]
        assert "used before allocation" in finding.message
        assert finding.severity is Severity.ERROR

    def test_register_overcommit(self):
        broken = _Compiled()
        spill = RowRegister(64, ELEMENTS, 8)  # register file holds 64 (0..63)
        broken.instructions.insert(0, PlutoRowAlloc(spill, ELEMENTS, 8))
        report = verify_compiled(broken.build())
        assert "register-overcommit" in report.codes()
        (finding,) = [d for d in report if d.code == "register-overcommit"]
        assert "64 row registers" in finding.message

    def test_duplicate_alloc(self):
        broken = _Compiled()
        broken.instructions.insert(1, broken.instructions[0])
        report = verify_compiled(broken.build())
        assert "duplicate-alloc" in report.codes()

    def test_unbound_lut(self):
        broken = _Compiled()
        broken.lut_bindings = {}
        report = verify_compiled(broken.build())
        assert "unbound-lut" in report.codes()

    def test_lut_size_mismatch(self):
        broken = _Compiled()
        broken.lut_bindings = {0: _lut(index_bits=7)}  # 128 entries vs 256 rows
        report = verify_compiled(broken.build())
        assert "lut-size-mismatch" in report.codes()

    def test_narrow_output_at_isa_level(self):
        broken = _Compiled()
        narrow = RowRegister(1, ELEMENTS, 4)
        broken.r1 = narrow
        broken.instructions[1] = PlutoRowAlloc(narrow, ELEMENTS, 4)
        broken.instructions[3] = PlutoOp(narrow, broken.r0, broken.s0, 256, 8)
        broken.vector_bindings["out"] = narrow
        broken.outputs = [_vec("out", bit_width=4)]
        report = verify_compiled(broken.build())
        assert "narrow-output" in report.codes()

    def test_lut_index_range_warning(self):
        # 8-bit source (provable bound 255) into a 128-entry table: legal,
        # but the backends must guard — the verifier flags it as a warning.
        broken = _Compiled()
        small = _lut(index_bits=7)
        broken.s0 = SubarrayRegister(0, 128, small.name)
        broken.instructions[2] = PlutoSubarrayAlloc(broken.s0, 128, small.name)
        broken.instructions[3] = PlutoOp(broken.r1, broken.r0, broken.s0, 128, 8)
        broken.lut_bindings = {0: small}
        report = verify_compiled(broken.build())
        assert report.ok  # warning, not error
        assert "lut-index-range" in report.codes()
        (finding,) = report.warnings
        assert finding.severity is Severity.WARNING

    def test_move_self_copy(self):
        broken = _Compiled()
        broken.instructions.append(PlutoMove(broken.r0, broken.r0))
        report = verify_compiled(broken.build())
        assert "move-self-copy" in report.codes()

    def test_move_shrink(self):
        broken = _Compiled()
        small = RowRegister(2, ELEMENTS // 2, 8)
        broken.instructions.append(PlutoRowAlloc(small, ELEMENTS // 2, 8))
        broken.instructions.append(PlutoMove(small, broken.r0))
        report = verify_compiled(broken.build())
        assert "move-shrink" in report.codes()

    def test_unbound_vector(self):
        broken = _Compiled()
        broken.outputs.append(_vec("ghost"))
        report = verify_compiled(broken.build())
        assert "unbound-vector" in report.codes()

    def test_binding_mismatch(self):
        broken = _Compiled()
        broken.outputs = [_vec("out", size=ELEMENTS // 2)]
        report = verify_compiled(broken.build())
        assert "binding-mismatch" in report.codes()

    def test_diagnostics_sorted_by_instruction(self):
        broken = _Compiled()
        del broken.instructions[0]
        broken.instructions.append(PlutoMove(broken.r1, broken.r1))
        report = verify_compiled(broken.build())
        indices = [d.instruction for d in report if d.instruction is not None]
        assert indices == sorted(indices)


#: The default one-rank module (16 banks) and a 2-channel x 2-rank device.
ONE_RANK = DRAMGeometry()
TWO_BY_TWO = DRAMGeometry(channels=2, ranks=2)


class TestShardPlanVerification:
    @staticmethod
    def _plan(index, bank, start, stop) -> ShardPlan:
        return ShardPlan(index=index, bank=bank, start=start, stop=stop, calls=())

    def test_disjoint_plans_are_clean(self):
        plans = [self._plan(0, 0, 0, 32), self._plan(1, 1, 32, 64)]
        assert verify_shard_plans(plans, geometry=ONE_RANK).clean

    def test_aliased_slices(self):
        plans = [self._plan(0, 0, 0, 40), self._plan(1, 1, 32, 64)]
        report = verify_shard_plans(plans, geometry=ONE_RANK)
        assert "aliased-slices" in report.codes()
        (finding,) = report.errors
        assert "[0, 40)" in finding.message and "[32, 64)" in finding.message
        with pytest.raises(VerificationError, match="aliased-slices"):
            report.raise_if_errors()

    def test_slice_gap_is_warning(self):
        plans = [self._plan(0, 0, 0, 16), self._plan(1, 1, 32, 64)]
        report = verify_shard_plans(plans, geometry=ONE_RANK)
        assert report.ok
        assert "slice-gap" in report.codes()

    def test_empty_shard_and_bank_range(self):
        plans = [self._plan(0, 99, 16, 16)]
        report = verify_shard_plans(plans, geometry=ONE_RANK)
        assert {"empty-shard", "bank-out-of-range"} <= report.codes()

    def test_duplicate_bank_is_warning(self):
        plans = [self._plan(0, 3, 0, 32), self._plan(1, 3, 32, 64)]
        report = verify_shard_plans(plans, geometry=ONE_RANK)
        assert report.ok
        assert "duplicate-bank" in report.codes()

    def test_shards_overcommit(self):
        plans = [self._plan(i, i, 4 * i, 4 * (i + 1)) for i in range(20)]
        report = verify_shard_plans(plans, geometry=ONE_RANK)
        assert "shards-overcommit" in report.codes()

    def test_duplicates_are_keyed_on_the_full_position(self):
        plans = [
            ShardPlan(index=0, channel=0, rank=0, bank=3, start=0, stop=32, calls=()),
            ShardPlan(index=1, channel=1, rank=0, bank=3, start=32, stop=64, calls=()),
            ShardPlan(index=2, channel=1, rank=1, bank=3, start=64, stop=96, calls=()),
        ]
        assert verify_shard_plans(plans, geometry=TWO_BY_TWO).clean
        twin = replace(plans[2], index=3, rank=0, start=96, stop=128)
        report = verify_shard_plans([*plans, twin], geometry=TWO_BY_TWO)
        assert report.codes() == {"duplicate-bank"}

    def test_full_device_plan_on_a_multi_rank_device_is_clean(self):
        session = PlutoSession()
        a = session.pluto_malloc(256, 4, "a")
        b = session.pluto_malloc(256, 4, "b")
        out = session.pluto_malloc(256, 8, "out")
        session.api_pluto_add(a, b, out, bit_width=4)
        planner = ShardPlanner(TWO_BY_TWO)
        plans = planner.plan(session.calls).plans
        assert len(plans) == 64
        report = verify_shard_plans(plans, geometry=planner.geometry)
        assert report.diagnostics == ()

    @pytest.mark.parametrize(
        "channel,rank,bank",
        [(1, 1, 20), (5, 7, 0), (0, 2, 0), (2, 0, 0), (1, 1, 16), (0, 0, -1)],
    )
    def test_positions_are_checked_against_the_placement(self, channel, rank, bank):
        """The bank is rank-local: a 2x2 placement of 16-bank ranks has 64
        banks, but no bank 20 and no channel 5 or rank 7."""
        plan = ShardPlan(
            index=0, channel=channel, rank=rank, bank=bank, start=0, stop=32, calls=()
        )
        report = verify_shard_plans([plan], geometry=TWO_BY_TWO)
        assert report.codes() == {"bank-out-of-range"}
        (finding,) = report.errors
        assert f"channel {channel}, rank {rank}, bank {bank}" in finding.message

    def test_overcommit_counts_every_bank_of_the_placement(self):
        plans = [
            ShardPlan(
                index=i, channel=i % 2, rank=i // 2 % 2, bank=i // 4, start=i, stop=i + 1, calls=()
            )
            for i in range(64)
        ]
        assert verify_shard_plans(plans, geometry=TWO_BY_TWO).clean
        assert "shards-overcommit" in verify_shard_plans(plans, geometry=ONE_RANK).codes()


class TestDiagnosticMachinery:
    def test_render_format(self):
        diagnostic = Diagnostic(
            severity=Severity.ERROR,
            code="use-before-def",
            message="r3 used before allocation",
            instruction=3,
            hint="allocate it first",
        )
        assert diagnostic.render() == (
            "error[use-before-def] @3: r3 used before allocation "
            "(allocate it first)"
        )

    def test_verification_error_carries_diagnostics(self):
        report = verify_calls([])
        with pytest.raises(VerificationError) as excinfo:
            report.raise_if_errors()
        error = excinfo.value
        assert isinstance(error, ConfigurationError)  # backward compat
        assert error.diagnostics
        assert error.diagnostics[0].code == "empty-program"
        assert "empty-program" in str(error)

    def test_shared_builders_match_api_layer_messages(self):
        narrow = narrow_output_diagnostic(_vec("out", bit_width=4), _lut())
        assert narrow is not None and narrow.code == "narrow-output"
        wide_enough = narrow_output_diagnostic(_vec("out"), _lut())
        assert wide_enough is None
        operand = operand_width_diagnostic(_vec("a", bit_width=2), 4)
        assert operand is not None and operand.code == "operand-width"
        overcommit = shards_overcommit_diagnostic(20, 16)
        assert overcommit is not None and "16 banks" in overcommit.message
        assert shards_overcommit_diagnostic(16, 16) is None


class TestFrontDoors:
    def test_config_rejects_unknown_verify_mode(self):
        with pytest.raises(ConfigurationError, match="unknown verify mode"):
            PlutoConfig(verify="sometimes")

    def test_verification_enabled_modes(self):
        assert verification_enabled("always") is True
        assert verification_enabled("off") is False
        assert verification_enabled("debug") is __debug__
        with pytest.raises(ConfigurationError):
            verification_enabled("bogus")

    def test_session_verify_returns_report(self):
        session = PlutoSession()
        a = session.pluto_malloc(ELEMENTS, 8, "a")
        out = session.pluto_malloc(ELEMENTS, 8, "out")
        session.api_pluto_map(_lut(), a, out)
        report = session.verify()
        assert report.clean

    def test_session_verify_reports_without_raising(self):
        session = PlutoSession()
        a = session.pluto_malloc(ELEMENTS, 8, "a")
        out = session.pluto_malloc(ELEMENTS, 8, "out")
        session.api_pluto_map(_lut(), a, out)
        session.calls.append(session.calls[0])  # inject multiple-assignment
        report = session.verify()
        assert not report.ok
        assert "multiple-assignment" in report.codes()

    def test_run_rejects_under_verify_always(self):
        session = PlutoSession()
        a = session.pluto_malloc(ELEMENTS, 8, "a")
        out = session.pluto_malloc(ELEMENTS, 8, "out")
        session.api_pluto_map(_lut(), a, out)
        session.calls.append(session.calls[0])
        engine = PlutoEngine(PlutoConfig(verify="always"))
        inputs = {"a": np.arange(ELEMENTS, dtype=np.uint8)}
        with pytest.raises(VerificationError, match="multiple-assignment"):
            session.run(inputs, engine=engine)

    def test_run_executes_clean_program_under_verify_always(self):
        session = PlutoSession()
        a = session.pluto_malloc(ELEMENTS, 8, "a")
        out = session.pluto_malloc(ELEMENTS, 8, "out")
        table = _lut()
        session.api_pluto_map(table, a, out)
        engine = PlutoEngine(PlutoConfig(verify="always"))
        data = np.arange(ELEMENTS, dtype=np.uint8)
        result = session.run({"a": data}, engine=engine)
        expected = np.array([table.values[x] for x in data])
        assert np.array_equal(result.outputs["out"], expected)

    def test_api_layer_raises_verification_error_with_diagnostics(self):
        session = PlutoSession()
        a = session.pluto_malloc(ELEMENTS, 8, "a")
        narrow = session.pluto_malloc(ELEMENTS, 4, "narrow")
        with pytest.raises(VerificationError) as excinfo:
            session.api_pluto_map(_lut(), a, narrow)
        assert excinfo.value.diagnostics[0].code == "narrow-output"

    def test_service_rejects_malformed_request_at_submit(self):
        async def main():
            session = PlutoSession()
            a = session.pluto_malloc(ELEMENTS, 8, "a")
            out = session.pluto_malloc(ELEMENTS, 8, "out")
            session.api_pluto_map(_lut(), a, out)
            session.calls.append(session.calls[0])
            inputs = {"a": np.arange(ELEMENTS, dtype=np.uint8)}
            async with session.serve() as service:
                with pytest.raises(VerificationError, match="request"):
                    await service.submit(inputs)

        asyncio.run(main())

    def test_verify_cached_memoizes_on_structure(self):
        clear_all_caches()
        calls = _valid_calls()
        first = verify_cached(calls)
        second = verify_cached(list(calls))
        assert first.clean and second.clean
        stats = cache_stats()["verifier"]
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_cli_lints_registry_workloads(self, capsys):
        assert analyze_main(["bitcount", "--elements", "64"]) == 0
        printed = capsys.readouterr().out
        assert "bitcount" in printed and "clean" in printed

    def test_cli_all_workloads_clean(self, capsys):
        assert analyze_main(["--all-workloads", "--elements", "64"]) == 0
        printed = capsys.readouterr().out
        assert "verify clean" in printed

    def test_cli_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            analyze_main(["no-such-workload"])


class TestOptimizerInvariants:
    def test_check_pass_invariants_accepts_valid_program(self):
        report = check_pass_invariants(
            _valid_calls(), preserved={"out"}, pass_name="noop"
        )
        assert report.ok

    def test_check_pass_invariants_rejects_dropped_output(self):
        calls = _valid_calls()[:1]  # 'out' no longer produced
        with pytest.raises(VerificationError, match="output-dropped"):
            check_pass_invariants(calls, preserved={"out"}, pass_name="broken")

    def test_pass_manager_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError, match="unknown verify mode"):
            PassManager(verify="bogus")

    @pytest.mark.parametrize(
        "workload", ["image", "crc", "salsa20", "vmpc", "bitcount", "vector_ops"]
    )
    def test_fixpoint_bit_identical_under_verify_always(self, workload):
        calls = list(workload_program(workload, elements=64, seed=0).session.calls)
        verified = optimize_program(calls, verify="always")
        unverified = optimize_program(calls, verify="off")
        assert program_structure_key(list(verified.calls)) == (
            program_structure_key(list(unverified.calls))
        )
        assert verified.output_names == unverified.output_names


#: Mutations the fuzzer applies to valid optimizer-output programs, with
#: the diagnostic code each must produce.  Every mutator returns None
#: when no call in the program is applicable.
def _mutate_duplicate(calls: list, rng: random.Random):
    index = rng.randrange(len(calls))
    return calls + [calls[index]], "multiple-assignment"


def _mutate_unknown_operation(calls: list, rng: random.Random):
    index = rng.randrange(len(calls))
    mutated = list(calls)
    mutated[index] = replace(calls[index], operation="frobnicate")
    return mutated, "unknown-operation"


def _mutate_drop_lut(calls: list, rng: random.Random):
    lut_backed = [i for i, c in enumerate(calls) if c.lut is not None]
    if not lut_backed:
        return None
    index = rng.choice(lut_backed)
    mutated = list(calls)
    mutated[index] = replace(calls[index], lut=None)
    return mutated, "missing-lut"


def _mutate_narrow_output(calls: list, rng: random.Random):
    candidates = [
        i
        for i, c in enumerate(calls)
        if c.lut is not None and c.lut.element_bits > 1
    ]
    if not candidates:
        return None
    index = rng.choice(candidates)
    call = calls[index]
    narrowed = replace(call.output, bit_width=call.lut.element_bits - 1)
    mutated = list(calls)
    mutated[index] = replace(call, output=narrowed)
    return mutated, "narrow-output"


_MUTATORS = (
    _mutate_duplicate,
    _mutate_unknown_operation,
    _mutate_drop_lut,
    _mutate_narrow_output,
)


class TestFuzzMutatedPrograms:
    """Every seeded mutation of a valid optimized program must be caught."""

    @pytest.mark.parametrize(
        "workload", ["image", "crc", "salsa20", "vmpc", "bitcount", "vector_ops"]
    )
    def test_mutations_are_caught(self, workload):
        program = workload_program(workload, elements=64, seed=0)
        optimized = PlutoSession.optimize(program.session)
        calls = list(optimized.calls)
        assert verify_program(calls).ok, "fuzz base program must verify"
        rng = random.Random(f"fuzz-{workload}")
        applied = 0
        for round_index in range(8):
            mutator = _MUTATORS[round_index % len(_MUTATORS)]
            outcome = mutator(calls, rng)
            if outcome is None:
                continue
            mutated, expected_code = outcome
            report = verify_program(mutated)
            assert not report.ok, (
                f"{mutator.__name__} on {workload} went undetected"
            )
            assert expected_code in report.codes()
            applied += 1
        assert applied >= 4  # every workload exercises at least one full cycle


class TestDataflowSharing:
    """The compiled backend and the verifier consume one dataflow pass."""

    def test_dataflow_summary_matches_compiled_metadata(self):
        compiled = _Compiled().build()
        safe = analyze_dataflow(compiled, assume_external_width=False)
        assert tuple(safe.row_slots) == (0, 1)
        assert safe.facts[3].result_slot == 1
        # The safe tier trusts nothing about external inputs: guard.
        assert safe.facts[3].guard_needed
        # The fast tier assumes declared widths: an 8-bit input cannot
        # reach past a 256-entry table, so the guard is elided.
        fast = analyze_dataflow(compiled, assume_external_width=True)
        assert not fast.facts[3].guard_needed

    def test_guard_flag_matches_backend_guarding(self):
        broken = _Compiled()
        small = _lut(index_bits=7)
        broken.s0 = SubarrayRegister(0, 128, small.name)
        broken.instructions[2] = PlutoSubarrayAlloc(broken.s0, 128, small.name)
        broken.instructions[3] = PlutoOp(broken.r1, broken.r0, broken.s0, 128, 8)
        broken.lut_bindings = {0: small}
        summary = analyze_dataflow(broken.build(), assume_external_width=True)
        assert summary.facts[3].guard_needed
