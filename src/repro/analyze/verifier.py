"""The pLUTo IR verifier: structural invariants as structured diagnostics.

Every fast tier assumes well-formed programs; this module *checks* those
assumptions and reports violations as :class:`Diagnostic` records
(severity, instruction index, message, fix hint) instead of raising, so
callers choose the policy: the CLI prints them, the serving front doors
reject with :class:`~repro.errors.VerificationError`, tests assert on
the stable codes.

Two levels are verified, matching the two program representations:

* :func:`verify_calls` — the recorded API program: unknown operations,
  arity, single assignment, LUT presence, operand/output widths, and
  dependency cycles (the conditions :mod:`repro.api.session` used to
  check ad hoc — its checks now build the same diagnostics via the
  ``*_diagnostic`` helpers here, so the messages stay consistent).
* :func:`verify_compiled` — the lowered ISA program: def-before-use,
  register-file capacity, LUT bindings/sizes, output-width narrowing,
  RowClone (``pluto_move``) legality, and — via the shared dataflow pass
  of :mod:`repro.analyze.dataflow` — value bounds that can reach past a
  LUT (a warning: the backends guard those queries at runtime).

:func:`verify_program` chains both; :func:`verify_cached` memoizes whole
reports on the program structure key (the identity every other warm
layer uses), so verify-on-submit in the serving tier costs a dict hit
per repeated request shape.  :func:`verify_shard_plans` checks dispatch
plans for slice aliasing and for positions outside their placement's
channels, ranks and banks, and
:func:`check_pass_invariants` is the optimizer's hook: it re-verifies a
pass's output and raises on errors or dropped preserved outputs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.analyze.dataflow import DataflowSummary, analyze_dataflow
from repro.analyze.diagnostics import Diagnostic, Severity, VerificationReport
from repro.api.session import _KEY_UNSET, hashable_structure_key
from repro.errors import (
    CompilationError,
    ConfigurationError,
    ExecutionError,
    ReproError,
)
from repro.isa.instructions import (
    Instruction,
    PlutoBitShift,
    PlutoBitwise,
    PlutoByteShift,
    PlutoMove,
    PlutoOp,
    PlutoRowAlloc,
    PlutoSubarrayAlloc,
)
from repro.isa.registers import RowRegister
from repro.utils.memo import BoundedMemo

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.api.handles import ApiCall, PlutoVector
    from repro.compiler.lowering import CompiledProgram
    from repro.core.lut import LookupTable
    from repro.dram.geometry import DRAMGeometry

__all__ = [
    "VERIFY_MODES",
    "verification_enabled",
    "narrow_output_diagnostic",
    "operand_width_diagnostic",
    "shards_overcommit_diagnostic",
    "verify_calls",
    "verify_compiled",
    "verify_program",
    "verify_cached",
    "verify_shard_plans",
    "check_pass_invariants",
]

#: The ``PlutoConfig(verify=...)`` / ``PassManager(verify=...)`` modes.
VERIFY_MODES = ("always", "debug", "off")

#: Operations the compiler can lower (anything ``*_lut`` is a binary LUT
#: routine — the recorded bitwise-as-LUT calls and the optimizer's fused
#: chains both use that suffix).
_BASE_OPERATIONS = frozenset(
    {"add", "mul", "map", "shift", "move", "not", "and", "or", "xor",
     "xnor", "nand", "nor"}
)


def verification_enabled(mode: str) -> bool:
    """Whether a verify mode is active in this interpreter.

    ``"always"`` verifies unconditionally, ``"debug"`` only under
    ``__debug__`` (i.e. not with ``python -O`` — the test default),
    ``"off"`` never.
    """
    if mode == "always":
        return True
    if mode == "debug":
        return __debug__
    if mode == "off":
        return False
    raise ConfigurationError(
        f"unknown verify mode {mode!r}; expected one of {list(VERIFY_MODES)}"
    )


# ---------------------------------------------------------------------- #
# Shared diagnostic builders (the API layer raises from these too)
# ---------------------------------------------------------------------- #
def narrow_output_diagnostic(
    out: "PlutoVector", lut: "LookupTable", *, instruction: int | None = None
) -> Diagnostic | None:
    """The narrow-output finding, or ``None`` when the widths fit.

    One builder serves both the verifier and the session-layer
    ``api_pluto_*`` checks, so the message is identical wherever the
    condition is caught.
    """
    if out.bit_width >= lut.element_bits:
        return None
    return Diagnostic(
        severity=Severity.ERROR,
        code="narrow-output",
        message=(
            f"output vector {out.name!r} is {out.bit_width}-bit wide but LUT "
            f"{lut.name!r} stores {lut.element_bits}-bit elements"
        ),
        instruction=instruction,
        hint=f"widen {out.name!r} to at least {lut.element_bits} bits",
    )


def operand_width_diagnostic(
    vector: "PlutoVector", bit_width: int, *, instruction: int | None = None
) -> Diagnostic | None:
    """The narrow-operand finding, or ``None`` when the vector is wide enough."""
    if vector.bit_width >= bit_width:
        return None
    return Diagnostic(
        severity=Severity.ERROR,
        code="operand-width",
        message=(
            f"vector {vector.name!r} is {vector.bit_width}-bit wide but the "
            f"routine operates on {bit_width}-bit operands"
        ),
        instruction=instruction,
        hint=f"allocate {vector.name!r} with at least {bit_width} bits",
    )


def shards_overcommit_diagnostic(
    shards: int, num_banks: int
) -> Diagnostic | None:
    """The shards-beyond-banks finding, or ``None`` when the plan fits."""
    if shards <= num_banks:
        return None
    return Diagnostic(
        severity=Severity.ERROR,
        code="shards-overcommit",
        message=(
            f"cannot run {shards} shards bank-parallel on a module with "
            f"{num_banks} banks"
        ),
        hint=f"use at most {num_banks} shards, or a larger module",
    )


# ---------------------------------------------------------------------- #
# API-level verification
# ---------------------------------------------------------------------- #
def verify_calls(
    calls: "Sequence[ApiCall]", *, subject: str = "program"
) -> VerificationReport:
    """Verify a recorded API program (diagnostics index = call index)."""
    diagnostics: list[Diagnostic] = []
    if not calls:
        return VerificationReport(
            (
                Diagnostic(
                    severity=Severity.ERROR,
                    code="empty-program",
                    message="the API program records no calls",
                    hint="record at least one api_pluto_* call before running",
                ),
            ),
            subject=subject,
        )

    producers: dict[str, int] = {}
    for index, call in enumerate(calls):
        operation = call.operation
        is_lut_routine = operation in ("add", "mul") or operation.endswith("_lut")
        if operation not in _BASE_OPERATIONS and not operation.endswith("_lut"):
            diagnostics.append(
                Diagnostic(
                    severity=Severity.ERROR,
                    code="unknown-operation",
                    message=f"unsupported API operation {operation!r}",
                    instruction=index,
                    hint=f"use one of {sorted(_BASE_OPERATIONS)} or a *_lut routine",
                )
            )
            continue

        previous = producers.get(call.output.name)
        if previous is not None:
            diagnostics.append(
                Diagnostic(
                    severity=Severity.ERROR,
                    code="multiple-assignment",
                    message=(
                        f"vector {call.output.name!r} is produced by call "
                        f"{previous} and again by call {index}"
                    ),
                    instruction=index,
                    hint="give each computation a distinct output vector",
                )
            )
        else:
            producers[call.output.name] = index

        if is_lut_routine:
            diagnostics.extend(_check_binary_lut_call(call, index))
        elif operation == "map":
            diagnostics.extend(_check_map_call(call, index))
        elif operation == "not":
            if len(call.inputs) != 1:
                diagnostics.append(_arity(call, index, 1))
        elif operation in ("and", "or", "xor", "xnor", "nand", "nor"):
            if len(call.inputs) != 2:
                diagnostics.append(
                    Diagnostic(
                        severity=Severity.ERROR,
                        code="arity",
                        message=f"bitwise {operation!r} needs two inputs",
                        instruction=index,
                        hint="pass both operand vectors",
                    )
                )
        elif operation == "shift":
            diagnostics.extend(_check_shift_call(call, index))
        elif operation == "move":
            if len(call.inputs) != 1:
                diagnostics.append(_arity(call, index, 1))

    diagnostics.extend(_check_dependencies(calls))
    return VerificationReport(tuple(diagnostics), subject=subject)


def _arity(call: "ApiCall", index: int, expected: int) -> Diagnostic:
    noun = "input" if expected == 1 else "inputs"
    return Diagnostic(
        severity=Severity.ERROR,
        code="arity",
        message=(
            f"API call {call.operation!r} needs exactly {expected} {noun}, "
            f"got {len(call.inputs)}"
        ),
        instruction=index,
        hint="check the routine's operand list",
    )


def _check_binary_lut_call(call: "ApiCall", index: int) -> list[Diagnostic]:
    found: list[Diagnostic] = []
    if call.lut is None:
        found.append(
            Diagnostic(
                severity=Severity.ERROR,
                code="missing-lut",
                message=(
                    f"API call {call.operation!r} is LUT-backed but carries "
                    "no LUT"
                ),
                instruction=index,
                hint="record the call through the session routines",
            )
        )
        return found
    if len(call.inputs) != 2:
        found.append(_arity(call, index, 2))
    bit_width = call.parameters.get("bit_width")
    if isinstance(bit_width, int) and bit_width > 0:
        for vector in call.inputs:
            diagnostic = operand_width_diagnostic(
                vector, bit_width, instruction=index
            )
            if diagnostic is not None:
                found.append(diagnostic)
    narrow = narrow_output_diagnostic(call.output, call.lut, instruction=index)
    if narrow is not None:
        found.append(narrow)
    return found


def _check_map_call(call: "ApiCall", index: int) -> list[Diagnostic]:
    found: list[Diagnostic] = []
    if call.lut is None:
        found.append(
            Diagnostic(
                severity=Severity.ERROR,
                code="missing-lut",
                message="API call 'map' is LUT-backed but carries no LUT",
                instruction=index,
                hint="pass the lookup table to api_pluto_map",
            )
        )
        return found
    if len(call.inputs) != 1:
        found.append(_arity(call, index, 1))
    source = call.inputs[0]
    if source.bit_width < call.lut.index_bits:
        found.append(
            Diagnostic(
                severity=Severity.ERROR,
                code="lut-index-width",
                message=(
                    f"vector {source.name!r} ({source.bit_width}-bit) cannot "
                    f"index a {call.lut.num_entries}-entry LUT"
                ),
                instruction=index,
                hint=(
                    f"the LUT needs {call.lut.index_bits}-bit indices; widen "
                    "the source or shrink the table"
                ),
            )
        )
    narrow = narrow_output_diagnostic(call.output, call.lut, instruction=index)
    if narrow is not None:
        found.append(narrow)
    return found


def _check_shift_call(call: "ApiCall", index: int) -> list[Diagnostic]:
    found: list[Diagnostic] = []
    if len(call.inputs) != 1:
        found.append(_arity(call, index, 1))
    direction = call.parameters.get("direction", "l")
    if direction not in ("l", "r"):
        found.append(
            Diagnostic(
                severity=Severity.ERROR,
                code="shift-direction",
                message=f"shift direction must be 'l' or 'r', got {direction!r}",
                instruction=index,
                hint="pass direction='l' or 'r'",
            )
        )
    bits = call.parameters.get("bits", 0)
    if isinstance(bits, int) and bits < 0:
        found.append(
            Diagnostic(
                severity=Severity.ERROR,
                code="shift-amount",
                message=f"shift amount must be non-negative, got {bits}",
                instruction=index,
                hint="shift by 0 or more bits",
            )
        )
    return found


def _check_dependencies(calls: "Sequence[ApiCall]") -> list[Diagnostic]:
    """Detect dependency cycles via the compiler's own ordering pass."""
    from repro.opt.analysis import topological_calls

    try:
        topological_calls(list(calls))
    except CompilationError as error:
        return [
            Diagnostic(
                severity=Severity.ERROR,
                code="dependency-cycle",
                message=str(error),
                hint="break the cycle with an intermediate vector",
            )
        ]
    return []


# ---------------------------------------------------------------------- #
# ISA-level verification
# ---------------------------------------------------------------------- #
def verify_compiled(
    compiled: "CompiledProgram", *, subject: str = "compiled program"
) -> VerificationReport:
    """Verify a lowered program (diagnostics index = instruction index)."""
    diagnostics: list[Diagnostic] = []
    summary = _try_dataflow(compiled, diagnostics)
    register_file = compiled.register_file
    defined_rows: set[int] = set()
    defined_subarrays: set[int] = set()
    row_allocs = 0
    subarray_allocs = 0

    def require_row(
        register: RowRegister, index: int, instruction: Instruction
    ) -> None:
        if register.index not in defined_rows:
            diagnostics.append(
                Diagnostic(
                    severity=Severity.ERROR,
                    code="use-before-def",
                    message=(
                        f"{instruction.render()}: row register {register.name} "
                        "used before allocation"
                    ),
                    instruction=index,
                    hint=f"emit pluto_row_alloc {register.name} first",
                )
            )

    for index, instruction in enumerate(compiled.program):
        if isinstance(instruction, PlutoRowAlloc):
            slot = instruction.destination.index
            row_allocs += 1
            if slot in defined_rows:
                diagnostics.append(
                    Diagnostic(
                        severity=Severity.ERROR,
                        code="duplicate-alloc",
                        message=(
                            f"row register {instruction.destination.name} is "
                            "allocated twice"
                        ),
                        instruction=index,
                        hint="allocate each register once",
                    )
                )
            defined_rows.add(slot)
            if slot >= register_file.max_row_registers:
                diagnostics.append(
                    Diagnostic(
                        severity=Severity.ERROR,
                        code="register-overcommit",
                        message=(
                            f"row register {instruction.destination.name} "
                            "exceeds the register file "
                            f"({register_file.max_row_registers} row registers)"
                        ),
                        instruction=index,
                        hint="split the program or enlarge the register file",
                    )
                )
        elif isinstance(instruction, PlutoSubarrayAlloc):
            slot = instruction.destination.index
            subarray_allocs += 1
            if slot in defined_subarrays:
                diagnostics.append(
                    Diagnostic(
                        severity=Severity.ERROR,
                        code="duplicate-alloc",
                        message=(
                            "subarray register "
                            f"{instruction.destination.name} is allocated twice"
                        ),
                        instruction=index,
                        hint="allocate each register once",
                    )
                )
            defined_subarrays.add(slot)
            if slot >= register_file.max_subarray_registers:
                diagnostics.append(
                    Diagnostic(
                        severity=Severity.ERROR,
                        code="register-overcommit",
                        message=(
                            f"subarray register {instruction.destination.name} "
                            "exceeds the register file "
                            f"({register_file.max_subarray_registers} subarray "
                            "registers)"
                        ),
                        instruction=index,
                        hint="split the program or enlarge the register file",
                    )
                )
            table = compiled.lut_bindings.get(slot)
            if table is None:
                diagnostics.append(
                    Diagnostic(
                        severity=Severity.ERROR,
                        code="unbound-lut",
                        message=(
                            f"subarray register {instruction.destination.name} "
                            "has no lookup table bound to it"
                        ),
                        instruction=index,
                        hint="bind the LUT in CompiledProgram.lut_bindings",
                    )
                )
            elif instruction.num_rows != table.num_entries:
                diagnostics.append(
                    Diagnostic(
                        severity=Severity.ERROR,
                        code="lut-size-mismatch",
                        message=(
                            f"{instruction.render()}: allocates "
                            f"{instruction.num_rows} rows but LUT "
                            f"{table.name!r} has {table.num_entries} entries"
                        ),
                        instruction=index,
                        hint="allocate exactly one row per LUT entry",
                    )
                )
        elif isinstance(instruction, PlutoOp):
            require_row(instruction.source, index, instruction)
            require_row(instruction.destination, index, instruction)
            if instruction.lut_subarray.index not in defined_subarrays:
                diagnostics.append(
                    Diagnostic(
                        severity=Severity.ERROR,
                        code="use-before-def",
                        message=(
                            f"{instruction.render()}: subarray register "
                            f"{instruction.lut_subarray.name} used before "
                            "allocation"
                        ),
                        instruction=index,
                        hint=(
                            "emit pluto_subarray_alloc "
                            f"{instruction.lut_subarray.name} first"
                        ),
                    )
                )
            diagnostics.extend(_check_pluto_op(compiled, instruction, index, summary))
        elif isinstance(instruction, PlutoBitwise):
            require_row(instruction.source1, index, instruction)
            if instruction.source2 is not None:
                require_row(instruction.source2, index, instruction)
            require_row(instruction.destination, index, instruction)
        elif isinstance(instruction, (PlutoBitShift, PlutoByteShift)):
            require_row(instruction.target, index, instruction)
        elif isinstance(instruction, PlutoMove):
            require_row(instruction.source, index, instruction)
            require_row(instruction.destination, index, instruction)
            if instruction.destination.index == instruction.source.index:
                diagnostics.append(
                    Diagnostic(
                        severity=Severity.ERROR,
                        code="move-self-copy",
                        message=(
                            f"{instruction.render()}: source and destination "
                            "are the same row register; RowClone cannot copy "
                            "a row onto itself"
                        ),
                        instruction=index,
                        hint="drop the move or copy through a scratch register",
                    )
                )
            elif (
                instruction.destination.size_elements
                < instruction.source.size_elements
            ):
                diagnostics.append(
                    Diagnostic(
                        severity=Severity.ERROR,
                        code="move-shrink",
                        message=(
                            f"{instruction.render()}: destination holds "
                            f"{instruction.destination.size_elements} elements "
                            f"but the source holds "
                            f"{instruction.source.size_elements}"
                        ),
                        instruction=index,
                        hint="moves may widen but never truncate a row",
                    )
                )

    diagnostics.extend(_check_bindings(compiled))
    diagnostics.sort(
        key=lambda d: (d.instruction if d.instruction is not None else -1)
    )
    return VerificationReport(tuple(diagnostics), subject=subject)


def _try_dataflow(
    compiled: "CompiledProgram", diagnostics: list[Diagnostic]
) -> DataflowSummary | None:
    try:
        return analyze_dataflow(compiled, assume_external_width=True)
    except ExecutionError as error:
        diagnostics.append(
            Diagnostic(
                severity=Severity.ERROR,
                code="unsupported-instruction",
                message=str(error),
                hint="only Table 2 pLUTo instructions are executable",
            )
        )
        return None


def _check_pluto_op(
    compiled: "CompiledProgram",
    instruction: PlutoOp,
    index: int,
    summary: DataflowSummary | None,
) -> list[Diagnostic]:
    found: list[Diagnostic] = []
    table = compiled.lut_bindings.get(instruction.lut_subarray.index)
    if table is not None:
        if instruction.lut_size != table.num_entries:
            found.append(
                Diagnostic(
                    severity=Severity.ERROR,
                    code="lut-size-mismatch",
                    message=(
                        f"{instruction.render()}: declares a "
                        f"{instruction.lut_size}-entry LUT but {table.name!r} "
                        f"has {table.num_entries} entries"
                    ),
                    instruction=index,
                    hint="re-lower the program against the bound table",
                )
            )
        if instruction.destination.bit_width < table.element_bits:
            found.append(
                Diagnostic(
                    severity=Severity.ERROR,
                    code="narrow-output",
                    message=(
                        f"{instruction.render()}: destination "
                        f"{instruction.destination.name} is "
                        f"{instruction.destination.bit_width}-bit wide but LUT "
                        f"{table.name!r} stores {table.element_bits}-bit "
                        "elements"
                    ),
                    instruction=index,
                    hint=(
                        "widen the destination to at least "
                        f"{table.element_bits} bits"
                    ),
                )
            )
    if summary is not None and summary.facts[index].guard_needed:
        entries = (
            table.num_entries if table is not None else instruction.lut_size
        )
        bound = summary.facts[index].operand_bounds[0]
        found.append(
            Diagnostic(
                severity=Severity.WARNING,
                code="lut-index-range",
                message=(
                    f"{instruction.render()}: source "
                    f"{instruction.source.name}'s provable value bound "
                    f"{bound} reaches the {entries}-entry LUT; out-of-range "
                    "queries are rejected at runtime"
                ),
                instruction=index,
                hint=(
                    "mask the source below the table size to elide the "
                    "runtime guard"
                ),
            )
        )
    return found


def _check_bindings(compiled: "CompiledProgram") -> list[Diagnostic]:
    """Every external/output vector must be bound to a matching register."""
    found: list[Diagnostic] = []
    seen: set[str] = set()
    for role, vectors in (
        ("external input", compiled.external_inputs),
        ("output", compiled.outputs),
    ):
        for vector in vectors:
            if vector.name in seen:
                continue
            seen.add(vector.name)
            register = compiled.vector_bindings.get(vector.name)
            if register is None:
                found.append(
                    Diagnostic(
                        severity=Severity.ERROR,
                        code="unbound-vector",
                        message=(
                            f"{role} vector {vector.name!r} is not bound to "
                            "any row register"
                        ),
                        hint="bind it in CompiledProgram.vector_bindings",
                    )
                )
            elif (
                register.size_elements != vector.size
                or register.bit_width != vector.bit_width
            ):
                found.append(
                    Diagnostic(
                        severity=Severity.ERROR,
                        code="binding-mismatch",
                        message=(
                            f"{role} vector {vector.name!r} "
                            f"({vector.size} x {vector.bit_width}-bit) is "
                            f"bound to {register.name} "
                            f"({register.size_elements} x "
                            f"{register.bit_width}-bit)"
                        ),
                        hint="re-bind the vector to a matching register",
                    )
                )
    return found


# ---------------------------------------------------------------------- #
# Whole-program verification (API + compiled) and its memo
# ---------------------------------------------------------------------- #
def verify_program(
    calls: "Sequence[ApiCall]",
    *,
    subject: str = "program",
    compiled: "CompiledProgram | None" = None,
) -> VerificationReport:
    """Verify a recorded program at both levels.

    API-level errors make the program uncompilable, so compilation (and
    the ISA-level walk) only runs on an error-free call list; compile
    failures the call checks did not predict surface as a
    ``compile-failed`` diagnostic rather than an exception.  A caller
    that already compiled ``calls`` passes the program as ``compiled``.
    """
    report = verify_calls(calls, subject=subject)
    if not report.ok:
        return report
    if compiled is None:
        from repro.api.session import compile_cached

        try:
            compiled = compile_cached(list(calls))
        except ReproError as error:
            return report.merged(
                VerificationReport(
                    (
                        Diagnostic(
                            severity=Severity.ERROR,
                            code="compile-failed",
                            message=str(error),
                            hint="the compiler rejected the program outright",
                        ),
                    ),
                    subject=subject,
                )
            )
    return report.merged(verify_compiled(compiled, subject=subject))


#: Structure key -> VerificationReport (whole-program verification).
_VERIFY_MEMO: BoundedMemo[VerificationReport] = BoundedMemo("verifier", 512)


def verify_cached(
    calls: "Sequence[ApiCall]",
    *,
    subject: str = "program",
    key: "tuple | None | object" = _KEY_UNSET,
    compiled: "CompiledProgram | None" = None,
) -> VerificationReport:
    """:func:`verify_program`, memoized on the program structure key.

    The same identity the compile/optimize/trace-template memos use, so
    serving-tier verify-on-submit costs one dict hit per repeated
    request shape.  Unhashable structures bypass the memo (counted as
    ``uncached``).  The cached report keeps its original subject; it is
    re-labelled when the caller asks for a different one.

    ``key`` lets the execution front doors pass the structure key they
    already computed for the compile cache (``None`` meaning "known
    unhashable"), so the hot path builds the key once per run, and the
    program they compiled as ``compiled``, so a miss compiles nothing.
    """
    if key is _KEY_UNSET:
        key = hashable_structure_key(calls)
    report = _VERIFY_MEMO.get_or_compute(
        key, lambda: verify_program(calls, subject=subject, compiled=compiled)
    )
    if report.subject != subject:
        report = VerificationReport(report.diagnostics, subject=subject)
    return report


# ---------------------------------------------------------------------- #
# Shard-plan verification
# ---------------------------------------------------------------------- #
def verify_shard_plans(
    plans: Sequence[Any],
    *,
    geometry: "DRAMGeometry",
    subject: str = "shard plan",
) -> VerificationReport:
    """Verify dispatch plans: slice aliasing, bank placement, coverage.

    ``plans`` are :class:`~repro.controller.dispatch.ShardPlan` records;
    the diagnostic ``instruction`` field carries the shard index.
    ``geometry`` is the placement the plans spread over (the narrowed
    device): each shard's channel, rank and rank-local bank must lie
    inside it, and the shards may not outnumber its banks.  Overlapping
    element slices are errors — two shards writing one output region is
    the silent-corruption case sharded execution must never reach; gaps
    are warnings (legal, but the concatenated outputs will not cover the
    program's vectors).  Two shards on one (channel, rank, bank)
    position are a warning: they serialize.
    """
    diagnostics: list[Diagnostic] = []
    overcommit = shards_overcommit_diagnostic(len(plans), geometry.total_banks)
    if overcommit is not None:
        diagnostics.append(overcommit)
    positions_seen: dict[tuple[int, int, int], int] = {}
    for plan in plans:
        if plan.start >= plan.stop:
            diagnostics.append(
                Diagnostic(
                    severity=Severity.ERROR,
                    code="empty-shard",
                    message=(
                        f"shard {plan.index} covers the empty slice "
                        f"[{plan.start}, {plan.stop})"
                    ),
                    instruction=plan.index,
                    hint="plan fewer shards than elements",
                )
            )
        if not (
            0 <= plan.channel < geometry.channels
            and 0 <= plan.rank < geometry.ranks
            and 0 <= plan.bank < geometry.banks
        ):
            diagnostics.append(
                Diagnostic(
                    severity=Severity.ERROR,
                    code="bank-out-of-range",
                    message=(
                        f"shard {plan.index} is placed in channel {plan.channel}, "
                        f"rank {plan.rank}, bank {plan.bank} of a placement with "
                        f"{geometry.channels} channel(s), {geometry.ranks} rank(s) "
                        f"and {geometry.banks} banks per rank"
                    ),
                    instruction=plan.index,
                    hint=(
                        f"channels are numbered 0..{geometry.channels - 1}, ranks "
                        f"0..{geometry.ranks - 1} and banks 0..{geometry.banks - 1}"
                    ),
                )
            )
        position = (plan.channel, plan.rank, plan.bank)
        previous = positions_seen.get(position)
        if previous is not None:
            diagnostics.append(
                Diagnostic(
                    severity=Severity.WARNING,
                    code="duplicate-bank",
                    message=(
                        f"shards {previous} and {plan.index} share bank "
                        f"{plan.bank} of channel {plan.channel}, rank "
                        f"{plan.rank} and will serialize"
                    ),
                    instruction=plan.index,
                    hint="place each shard in its own bank for overlap",
                )
            )
        else:
            positions_seen[position] = plan.index

    ordered = sorted(plans, key=lambda plan: (plan.start, plan.stop))
    for before, after in zip(ordered, ordered[1:]):
        if after.start < before.stop:
            diagnostics.append(
                Diagnostic(
                    severity=Severity.ERROR,
                    code="aliased-slices",
                    message=(
                        f"shards {before.index} and {after.index} alias: "
                        f"slices [{before.start}, {before.stop}) and "
                        f"[{after.start}, {after.stop}) overlap"
                    ),
                    instruction=after.index,
                    hint="shard slices must be disjoint",
                )
            )
        elif after.start > before.stop:
            diagnostics.append(
                Diagnostic(
                    severity=Severity.WARNING,
                    code="slice-gap",
                    message=(
                        f"elements [{before.stop}, {after.start}) are covered "
                        f"by no shard (between shards {before.index} and "
                        f"{after.index})"
                    ),
                    instruction=after.index,
                    hint="make the slices contiguous to cover every element",
                )
            )
    return VerificationReport(tuple(diagnostics), subject=subject)


# ---------------------------------------------------------------------- #
# The optimizer's pass-invariant hook
# ---------------------------------------------------------------------- #
def check_pass_invariants(
    calls: "Sequence[ApiCall]",
    *,
    preserved: Iterable[str] | None = None,
    pass_name: str = "pipeline",
) -> VerificationReport:
    """Re-verify an optimizer pass's output; raise on broken invariants.

    Checks the rewritten call list with :func:`verify_calls` and — when
    ``preserved`` names the outputs the optimization promised to keep —
    that every one of them is still produced.  Raises
    :class:`~repro.errors.VerificationError` carrying the error
    diagnostics, so a broken rewrite is caught at the pass that
    introduced it instead of at execution.
    """
    subject = f"optimizer pass {pass_name!r} output"
    report = verify_calls(calls, subject=subject)
    diagnostics = list(report.diagnostics)
    if preserved is not None:
        produced = {call.output.name for call in calls}
        for name in sorted(frozenset(preserved) - produced):
            diagnostics.append(
                Diagnostic(
                    severity=Severity.ERROR,
                    code="output-dropped",
                    message=(
                        f"preserved output {name!r} is no longer produced by "
                        "any call"
                    ),
                    hint="passes must keep every preserved output",
                )
            )
    report = VerificationReport(tuple(diagnostics), subject=subject)
    report.raise_if_errors()
    return report
