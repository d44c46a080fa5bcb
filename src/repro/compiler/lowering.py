"""Lowering pLUTo API programs to pLUTo ISA instructions.

The compiler's two responsibilities (Section 6.3) are:

1. **Allocation** — every user vector gets a row register
   (``pluto_row_alloc``) and every distinct LUT gets a subarray register
   (``pluto_subarray_alloc``).
2. **Operand alignment** — binary LUT routines (add, mul, bitwise-as-LUT)
   are lowered to *shift-left + OR + pluto_op* so the two operands form a
   single concatenated LUT index, exactly as in the Figure 5 example.

The output is a :class:`CompiledProgram`: the ISA program, the register
bindings for the program's external inputs and outputs, and the LUT
attached to each subarray register (which the controller loads before
execution).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.handles import ApiCall, PlutoVector
from repro.compiler.dependency_graph import DependencyGraph
from repro.core.lut import LookupTable
from repro.errors import CompilationError
from repro.isa.instructions import (
    BitwiseKind,
    PlutoBitShift,
    PlutoBitwise,
    PlutoMove,
    PlutoOp,
    PlutoRowAlloc,
    PlutoSubarrayAlloc,
    ShiftDirection,
)
from repro.isa.program import PlutoProgram
from repro.isa.registers import RegisterFile, RowRegister, SubarrayRegister

__all__ = ["CompiledProgram", "PlutoCompiler", "program_structure_key"]


def program_structure_key(calls: "list[ApiCall] | tuple[ApiCall, ...]") -> tuple:
    """A hashable key capturing everything compilation depends on.

    Two call lists with the same key lower to interchangeable
    :class:`CompiledProgram` objects: the key covers each call's
    operation, its operand names/sizes/widths, the exact LUT contents
    (:class:`LookupTable` is frozen, hence hashable), and its parameters.
    The session layer uses this to cache compiled programs across
    batched submissions.
    """

    def _vector_key(vector: PlutoVector) -> tuple:
        return (vector.name, vector.size, vector.bit_width)

    return tuple(
        (
            call.operation,
            tuple(_vector_key(vector) for vector in call.inputs),
            _vector_key(call.output),
            call.lut,
            tuple(sorted(call.parameters.items())),
        )
        for call in calls
    )


@dataclass
class CompiledProgram:
    """Result of compiling a pLUTo API program.

    A compiled program is also the one home of its per-structure
    products: the trace template of each engine configuration it ran
    under (:attr:`templates`) and the whole-program closure the compiled
    tier generates for it (:mod:`repro.backend.compiled`).  The closure
    is generated code, so pickling drops it, and with it the mark of the
    program's first run: a copy runs interpreted once and builds its
    closure on its second run.
    """

    program: PlutoProgram
    register_file: RegisterFile
    #: Vector name -> row register holding it.
    vector_bindings: dict[str, RowRegister]
    #: Subarray register index -> LUT to load there.
    lut_bindings: dict[int, LookupTable]
    #: Vectors the caller must supply values for before execution.
    external_inputs: list[PlutoVector] = field(default_factory=list)
    #: Vectors holding the program results.
    outputs: list[PlutoVector] = field(default_factory=list)
    #: Engine configuration -> the program's
    #: :class:`~repro.controller.executor.TraceTemplate` under it.
    templates: dict = field(default_factory=dict, compare=False, repr=False)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_jit_executable", None)
        state.pop("_jit_ran_once", None)
        return state

    @property
    def lut_queries(self) -> int:
        """Number of ``pluto_op`` instructions in the compiled program."""
        return self.program.lut_queries


class PlutoCompiler:
    """Lowers API call lists into validated ISA programs."""

    def compile(self, calls: list[ApiCall]) -> CompiledProgram:
        """Compile an API program (list of recorded calls) to pLUTo ISA."""
        if not calls:
            raise CompilationError("cannot compile an empty API program")
        graph = DependencyGraph(calls)
        register_file = RegisterFile()
        program = PlutoProgram()
        vector_bindings: dict[str, RowRegister] = {}
        lut_bindings: dict[int, LookupTable] = {}
        # Keyed on the (frozen, hashable) table itself, not its name:
        # distinct tables that happen to share a name must not alias one
        # subarray, and the optimizer's LUT-deduplication pass makes
        # content-equal tables *be* one object so they bind once here.
        lut_registers: dict[LookupTable, SubarrayRegister] = {}

        def _bind_vector(vector: PlutoVector) -> RowRegister:
            register = vector_bindings.get(vector.name)
            if register is None:
                register = register_file.allocate_row(vector.size, vector.bit_width)
                vector_bindings[vector.name] = register
                program.append(
                    PlutoRowAlloc(
                        destination=register,
                        size_elements=vector.size,
                        bit_width=vector.bit_width,
                    )
                )
            return register

        def _bind_lut(lut: LookupTable) -> SubarrayRegister:
            register = lut_registers.get(lut)
            if register is None:
                register = register_file.allocate_subarray(lut.num_entries, lut.name)
                lut_registers[lut] = register
                lut_bindings[register.index] = lut
                program.append(
                    PlutoSubarrayAlloc(
                        destination=register,
                        num_rows=lut.num_entries,
                        lut_name=lut.name,
                    )
                )
            return register

        # Bind external inputs first so their registers exist up front.
        for vector in graph.external_inputs():
            _bind_vector(vector)

        for call in graph.execution_order():
            self._lower_call(
                call,
                program,
                register_file,
                _bind_vector,
                _bind_lut,
            )

        program.validate()
        return CompiledProgram(
            program=program,
            register_file=register_file,
            vector_bindings=vector_bindings,
            lut_bindings=lut_bindings,
            external_inputs=graph.external_inputs(),
            outputs=graph.outputs(),
        )

    # ------------------------------------------------------------------ #
    # Per-call lowering
    # ------------------------------------------------------------------ #
    def _lower_call(self, call, program, register_file, bind_vector, bind_lut) -> None:
        operation = call.operation
        output_register = bind_vector(call.output)
        input_registers = [bind_vector(vector) for vector in call.inputs]

        if operation in ("add", "mul") or operation.endswith("_lut"):
            self._lower_binary_lut(
                call, program, register_file, bind_lut, input_registers, output_register
            )
        elif operation == "map":
            lut_register = bind_lut(call.lut)
            program.append(
                PlutoOp(
                    destination=output_register,
                    source=input_registers[0],
                    lut_subarray=lut_register,
                    lut_size=call.lut.num_entries,
                    lut_bit_width=call.lut.element_bits,
                )
            )
        elif operation in ("not", "and", "or", "xor", "xnor", "nand", "nor"):
            kind = BitwiseKind(operation)
            program.append(
                PlutoBitwise(
                    kind=kind,
                    destination=output_register,
                    source1=input_registers[0],
                    source2=input_registers[1] if len(input_registers) > 1 else None,
                )
            )
        elif operation == "shift":
            direction = (
                ShiftDirection.LEFT
                if call.parameters.get("direction", "l") == "l"
                else ShiftDirection.RIGHT
            )
            program.append(
                PlutoMove(destination=output_register, source=input_registers[0])
            )
            program.append(
                PlutoBitShift(
                    direction=direction,
                    target=output_register,
                    amount=int(call.parameters.get("bits", 0)),
                )
            )
        elif operation == "move":
            program.append(
                PlutoMove(destination=output_register, source=input_registers[0])
            )
        else:
            raise CompilationError(f"unsupported API operation {operation!r}")

    def _lower_binary_lut(
        self, call, program, register_file, bind_lut, input_registers, output_register
    ) -> None:
        """Lower a binary LUT routine to shift + OR + pluto_op (Figure 5 c/d)."""
        if call.lut is None:
            raise CompilationError(
                f"API call {call.operation!r} is LUT-backed but carries no LUT"
            )
        if len(input_registers) != 2:
            raise CompilationError(
                f"API call {call.operation!r} needs exactly two inputs"
            )
        lut_register = bind_lut(call.lut)
        operand_bits = int(call.parameters.get("bit_width", call.inputs[1].bit_width))

        # Temporary rows for the shifted left operand and the merged index.
        shifted = register_file.allocate_row(call.inputs[0].size, call.lut.index_bits)
        merged = register_file.allocate_row(call.inputs[0].size, call.lut.index_bits)
        program.append(
            PlutoRowAlloc(
                destination=shifted,
                size_elements=call.inputs[0].size,
                bit_width=call.lut.index_bits,
            )
        )
        program.append(
            PlutoRowAlloc(
                destination=merged,
                size_elements=call.inputs[0].size,
                bit_width=call.lut.index_bits,
            )
        )
        # 1) Copy the left operand and shift it into the high half of the index.
        program.append(PlutoMove(destination=shifted, source=input_registers[0]))
        program.append(
            PlutoBitShift(
                direction=ShiftDirection.LEFT, target=shifted, amount=operand_bits
            )
        )
        # 2) Merge with the right operand (bitwise OR).
        program.append(
            PlutoBitwise(
                kind=BitwiseKind.OR,
                destination=merged,
                source1=shifted,
                source2=input_registers[1],
            )
        )
        # 3) Query the LUT with the merged indices.
        program.append(
            PlutoOp(
                destination=output_register,
                source=merged,
                lut_subarray=lut_register,
                lut_size=call.lut.num_entries,
                lut_bit_width=call.lut.element_bits,
            )
        )
