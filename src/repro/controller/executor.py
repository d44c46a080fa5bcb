"""The pLUTo Controller: executes compiled ISA programs.

The controller plays the role described in Section 6.4.  Its accounting
walk consults the allocation table for physical placement and expands
every instruction into DRAM commands via the command ROM, accumulating
the latency/energy trace; it runs once per program and engine
configuration and records a :class:`TraceTemplate` against bank 0.  A
run takes its trace from that template placed in its bank, realized once
per program and bank and shared by every result placed there, and spends
its own walk on the *functional* effect of every instruction, so program
outputs are bit-exact.

Functional state is kept per row register as a vector of element values.
The functional effects themselves are delegated to an
:class:`~repro.backend.base.ExecutionBackend`: the default ``"functional"``
backend executes ``pluto_op`` instructions on a real
:class:`~repro.core.subarray.PlutoSubarray` (match logic + row sweep + FF
buffer) in row-sized chunks, while the ``"vectorized"`` backend executes
them as NumPy gathers.  Cost accounting never touches the backend, so the
command trace is identical whichever backend performs the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.backend.base import ExecutionBackend, resolve_backend
from repro.compiler.lowering import CompiledProgram
from repro.controller.allocation_table import AllocationTable
from repro.controller.rom import CommandRom
from repro.core.engine import PlutoConfig, PlutoEngine
from repro.dram.commands import Command, CommandTrace, CommandType
from repro.errors import ExecutionError
from repro.isa.instructions import (
    PlutoBitShift,
    PlutoBitwise,
    PlutoByteShift,
    PlutoMove,
    PlutoOp,
    PlutoRowAlloc,
    PlutoSubarrayAlloc,
)
from repro.utils.bitops import mask_of
from repro.utils.memo import MemoCounters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import RequestTrace
    from repro.opt.report import OptimizationReport
    from repro.plan.execution_plan import ExecutionPlan
    from repro.plan.planner import PlannerReport

__all__ = [
    "ExecutionResult",
    "PlutoController",
    "TraceTemplate",
    "TEMPLATE_COUNTERS",
]


def input_shape_error(name: str, data: np.ndarray, size: int) -> ExecutionError:
    """Why input ``name`` is not a ``(size,)`` array: its count, or its shape."""
    if data.ndim == 1:
        return ExecutionError(f"input {name!r} has {data.size} elements, expected {size}")
    return ExecutionError(f"input {name!r} has shape {data.shape}, expected ({size},)")


@dataclass(frozen=True)
class TraceTemplate:
    """The bank-independent command trace of one compiled program.

    Cost accounting depends only on program structure, geometry, and
    design — the bank id merely stamps each command — so the trace of a
    program is generated once (commands recorded against bank 0) and
    *synthesized* for any placement by rewriting the bank ids.  The shard
    dispatcher uses this to stop re-executing the controller ``shards``
    times just to regenerate identical traces.
    """

    commands: tuple[Command, ...]
    total_latency_ns: float
    total_energy_nj: float
    lut_queries: int
    instructions_executed: int

    def realize(self, timing, energy, *, bank: int) -> CommandTrace:
        """A concrete trace of this template placed in ``bank``."""
        if bank == 0:
            # Templates are recorded against bank 0, and Command is
            # frozen, so placement there shares the command objects
            # instead of rewriting every one.
            commands = list(self.commands)
        else:
            # The positional constructor costs well under half of
            # dataclasses.replace, which re-reads every field by name.
            commands = [
                Command(c.kind, bank, c.subarray, c.row, c.rows, c.meta)
                for c in self.commands
            ]
        trace = CommandTrace(
            timing=timing,
            energy=energy,
            commands=commands,
            total_latency_ns=self.total_latency_ns,
            total_energy_nj=self.total_energy_nj,
        )
        # Per-request observability accounting (command counts, energy,
        # refresh overhead) depends only on the template, not the bank:
        # link every realization to one shared pin store so
        # ``repro.obs.metrics`` computes it once per structure, not once
        # per request (see ``_obs_pins`` handling there).
        trace.__dict__["_obs_pins"] = self.__dict__
        return trace


def _cached_templates() -> int:
    """Trace templates the cached compiled programs hold."""
    from repro.api.session import _PROGRAM_CACHE

    return sum(len(program.templates) for program in _PROGRAM_CACHE.values())


#: Template builds (misses) and reuses (hits), surfaced with the templates
#: the cached programs hold as ``cache_stats()["trace_templates"]``.
TEMPLATE_COUNTERS = MemoCounters("trace_templates", _cached_templates)


@dataclass
class ExecutionResult:
    """Outputs and costs of one program execution."""

    outputs: dict[str, np.ndarray]
    #: The modelled command trace: a read-only record, shared by every
    #: result of one program placed in one bank (and, for a sharded run,
    #: by every run of one layout on one dispatcher).
    trace: CommandTrace
    lut_queries: int
    instructions_executed: int
    #: Every vector-bound register's final value; input registers hold
    #: private copies, so no result shares memory with the caller's inputs.
    #: A compiled ``run_finals`` pass writes them into recycled buffers
    #: (:data:`repro.backend.compiled.BUFFERS`), which are handed out
    #: again only once no array or view of them is referenced.
    registers: dict[str, np.ndarray] = field(default_factory=dict)
    #: Name of the execution backend that produced the functional outputs.
    backend: str = "functional"
    #: Report of the pre-compilation program optimization, when one ran
    #: (``PlutoSession.run(..., plan=ExecutionPlan(optimize=True))`` and
    #: friends).
    optimization: "OptimizationReport | None" = None
    #: The concrete :class:`~repro.plan.execution_plan.ExecutionPlan`
    #: this execution ran under (set by the session front doors).
    execution_plan: "ExecutionPlan | None" = None
    #: The auto-planner's report when the plan was chosen by
    #: ``plan="auto"`` (candidates, predicted makespan and energy).
    planner: "PlannerReport | None" = None
    #: Span tree of the run that produced this result (``None`` unless
    #: tracing is enabled; see :mod:`repro.obs`).
    request_trace: "RequestTrace | None" = None

    @property
    def latency_ns(self) -> float:
        """Total modelled latency of the execution."""
        return self.trace.total_latency_ns

    @property
    def energy_nj(self) -> float:
        """Total modelled energy of the execution."""
        return self.trace.total_energy_nj


class FusedResults(list):
    """The per-shard :class:`ExecutionResult` list of one fused pass.

    ``registers`` maps each vector name to the pass's stacked
    ``(shards, size)`` result array; every shard's outputs and registers
    are row views of them, so the dispatcher joins shards without copying.
    On the compiled route the stacked arrays are recycled buffers, so any
    one shard row keeps the whole array from reuse while it lives.
    """

    registers: dict[str, np.ndarray]


class _BankTraces(dict):
    """Bank -> one program's :class:`TraceTemplate` realized in that bank.

    A bank's trace is realized on its first read and shared by every
    later run placed there.
    """

    __slots__ = ("template", "engine")

    def __init__(self, template: TraceTemplate, engine: PlutoEngine) -> None:
        super().__init__()
        self.template = template
        self.engine = engine

    def __missing__(self, bank: int) -> CommandTrace:
        trace = self[bank] = self.template.realize(
            self.engine.timing, self.engine.energy, bank=bank
        )
        return trace


class PlutoController:
    """Executes compiled pLUTo programs on a functional engine.

    ``backend`` selects who performs the functional effects: a registry
    name (``"functional"`` or ``"vectorized"``) or a ready
    :class:`ExecutionBackend` instance.  The controller reuses the same
    backend instance across executions, which lets batched sessions share
    cached LUT gather arrays.

    The controller is the one place that decides whether an execution
    takes the whole-program compiled tier (:mod:`repro.backend.compiled`,
    see :meth:`_compiled_executable`): from a program's second run,
    executions that arrive with its ``structure_key`` on a
    batched-capable backend run through one cached NumPy closure instead
    of the per-instruction interpreter — bit-identical outputs and
    traces, no per-op Python dispatch.
    ``jit=False`` pins the interpreted walk (the compiled tier's own
    differential oracle and the reference its host-speed floor is
    measured against).
    """

    def __init__(
        self,
        engine: PlutoEngine | None = None,
        backend: str | ExecutionBackend = "functional",
        *,
        jit: bool = True,
    ) -> None:
        self.engine = engine if engine is not None else PlutoEngine(PlutoConfig())
        self.rom = CommandRom()
        self.backend = resolve_backend(backend)
        self.jit = jit
        #: ``id(program)`` -> ``(program, its traces per bank)``, read by
        #: every execution route.  Keyed on identity and holding the
        #: program, so a run skips the engine-config hash of its template
        #: lookup and an id is never reused while its entry lives; the
        #: controller's engine never changes, so an entry stays valid.
        self._traces: dict[int, tuple[CompiledProgram, _BankTraces]] = {}

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def execute(
        self,
        compiled: CompiledProgram,
        inputs: dict[str, np.ndarray],
        *,
        bank: int = 0,
        structure_key: tuple | None = None,
    ) -> ExecutionResult:
        """Run a compiled program with the given external input vectors.

        ``inputs`` maps vector names (as allocated by ``pluto_malloc``) to
        integer element arrays.  The result contains every program output
        plus the full command trace.  ``bank`` selects the DRAM bank the
        program is placed in: the sharded dispatcher runs one program
        replica per bank, and every command in the trace carries the bank
        so the scheduler can model cross-bank tRRD/tFAW contention.

        The trace, ``lut_queries`` and ``instructions_executed`` come from
        the program's :class:`TraceTemplate` (:meth:`trace_template`, the
        one accounting walk, which also raises the
        :class:`~repro.errors.AllocationError` of a program that does not
        fit the bank) placed in ``bank``: every run of one program in one
        bank shares that trace object.  The interpreted walk below
        performs only the functional effects, binding each LUT subarray
        the backend loads.

        ``structure_key`` is the program-structure key the program was
        compiled under; with it the execution may take the whole-program
        compiled tier (:meth:`_compiled_executable`): one cached NumPy
        closure performs every functional effect instead of the walk —
        bit-identical outputs and registers by construction.
        """
        geometry = self.engine.geometry
        if not 0 <= bank < geometry.banks:
            raise ExecutionError(
                f"bank {bank} outside the module's range [0, {geometry.banks})"
            )
        executable = self._compiled_executable(compiled, structure_key)
        if executable is not None:
            return self._execute_compiled(executable, compiled, inputs, bank=bank)
        self._check_inputs(compiled, inputs)
        traces = self._bank_traces(compiled)
        table = AllocationTable(geometry, bank=bank)
        backend = self.backend
        backend.begin_program(geometry, self.engine.config.design)

        register_by_vector = compiled.vector_bindings
        # Functional state: register index -> element values, seeded with
        # private arrays (a uint64 input copied, any other dtype converted,
        # once either way).  Every instruction below binds its destination
        # to a fresh array, so no final can be the caller's array.
        values: dict[int, np.ndarray] = {
            register_by_vector[name].index: np.array(data, dtype=np.uint64)
            for name, data in inputs.items()
        }

        for instruction in compiled.program:
            if isinstance(instruction, PlutoRowAlloc):
                if instruction.destination.index not in values:
                    values[instruction.destination.index] = np.zeros(
                        instruction.size_elements, dtype=np.uint64
                    )
            elif isinstance(instruction, PlutoSubarrayAlloc):
                backend.load_lut(
                    instruction.destination.index,
                    compiled.lut_bindings[instruction.destination.index],
                    subarray_index=table.bind_subarray(instruction.destination).subarray,
                )
            else:
                self._apply(instruction, compiled, values)

        # The finals are handed out as they are; outputs share the
        # register snapshot's arrays, as on the compiled routes.
        registers = {
            name: values[register.index]
            for name, register in register_by_vector.items()
            if register.index in values
        }
        outputs = {vector.name: registers[vector.name] for vector in compiled.outputs}
        template = traces.template
        return ExecutionResult(
            outputs=outputs,
            trace=traces[bank],
            lut_queries=template.lut_queries,
            instructions_executed=template.instructions_executed,
            registers=registers,
            backend=backend.name,
        )

    # ------------------------------------------------------------------ #
    # Whole-program compiled execution (the JIT tier)
    # ------------------------------------------------------------------ #
    def _compiled_executable(
        self, compiled: CompiledProgram, structure_key: tuple | None
    ):
        """The program's whole-program closure, when the JIT tier applies.

        The one decision of whether a run takes the compiled tier, for
        :meth:`execute` and :meth:`execute_fused` alike.  The tier
        requires an explicit opt-in signal (a structure key), a
        batched-capable backend, ``jit=True``, and a program that lowers;
        the functional oracle and keyless executions keep the interpreted
        walk.  A program's first such run is interpreted too, and marks
        the program; its second builds the closure.  Generating a closure
        costs a few interpreted runs at small sizes, so a program run
        once, as every never-seen program is, never pays for one.  The
        closure (or the verdict that the program cannot lower) is kept on
        the ``CompiledProgram``, so every controller shares it and a warm
        run reads it without generating anything; a program inserted as
        warm state has it from the start
        (:func:`~repro.api.session.insert_artifact`).
        """
        if not self.jit or structure_key is None or not self.backend.supports_batched:
            return None
        state = compiled.__dict__
        pinned = state.get("_jit_executable")
        if pinned is not None:
            return pinned or None
        if not state.get("_jit_ran_once"):
            state["_jit_ran_once"] = True
            return None
        from repro.backend.compiled import compiled_exec_cached

        return compiled_exec_cached(compiled, structure_key=structure_key)

    def _execute_compiled(
        self,
        executable,
        compiled: CompiledProgram,
        inputs: dict[str, np.ndarray],
        *,
        bank: int,
    ) -> ExecutionResult:
        """Run the closure; accounting comes from the cached template."""
        traces = self._bank_traces(compiled)
        served = executable.run_serve(inputs)
        if served is not None:
            outputs, registers = served
        else:
            self._check_inputs(compiled, inputs)
            finals = executable.run_finals(inputs)
            # No final shares a caller's array, so each is handed out
            # directly.  Outputs share the register snapshot's arrays —
            # both views of the same final.
            registers = {
                name: finals[position] for name, position in executable.register_bindings
            }
            outputs = {
                name: registers[name] for name, _ in executable.output_bindings
            }
        template = traces.template
        return ExecutionResult(
            outputs=outputs,
            trace=traces[bank],
            lut_queries=template.lut_queries,
            instructions_executed=template.instructions_executed,
            registers=registers,
            backend=self.backend.name,
        )

    # ------------------------------------------------------------------ #
    # Fused (batched) execution
    # ------------------------------------------------------------------ #
    def trace_template(self, compiled: CompiledProgram) -> TraceTemplate:
        """The program's bank-independent trace under this engine.

        Built once per engine configuration and kept on the program
        (:attr:`CompiledProgram.templates`).
        """
        config = self.engine.config
        template = compiled.templates.get(config)
        if template is not None:
            TEMPLATE_COUNTERS.hits += 1
            return template
        TEMPLATE_COUNTERS.misses += 1
        template = compiled.templates[config] = self._build_template(compiled)
        return template

    def _bank_traces(self, compiled: CompiledProgram) -> _BankTraces:
        """The program's template and its trace per bank, for every route.

        A reuse counts as a template hit; the table is bounded (cleared
        at 512 programs), and a program it dropped realizes its traces
        again from the template it keeps.
        """
        entry = self._traces.get(id(compiled))
        if entry is not None:
            TEMPLATE_COUNTERS.hits += 1
            return entry[1]
        traces = _BankTraces(self.trace_template(compiled), self.engine)
        if len(self._traces) >= 512:
            self._traces.clear()
        self._traces[id(compiled)] = (compiled, traces)
        return traces

    def _build_template(self, compiled: CompiledProgram) -> TraceTemplate:
        """The accounting walk: every instruction's commands, in bank 0."""
        table = AllocationTable(self.engine.geometry, bank=0)
        trace = CommandTrace(timing=self.engine.timing, energy=self.engine.energy)
        cost_model = self.engine.cost_model
        design = self.engine.config.design
        lut_queries = 0
        executed = 0
        for instruction in compiled.program:
            executed += 1
            if isinstance(instruction, PlutoRowAlloc):
                table.bind_row(instruction.destination)
                continue
            if isinstance(instruction, PlutoSubarrayAlloc):
                self._account_lut_load(instruction, compiled, table, trace)
                continue
            self._account(instruction, table, trace, cost_model, design)
            if isinstance(instruction, PlutoOp):
                lut_queries += 1
        return TraceTemplate(
            commands=tuple(trace.commands),
            total_latency_ns=trace.total_latency_ns,
            total_energy_nj=trace.total_energy_nj,
            lut_queries=lut_queries,
            instructions_executed=executed,
        )

    def execute_fused(
        self,
        compiled: CompiledProgram,
        inputs: dict[str, np.ndarray],
        *,
        banks: Sequence[int],
        structure_key: tuple | None = None,
    ) -> FusedResults:
        """Execute one program over many equal shards in a single pass.

        ``inputs`` maps each vector name to a stacked ``(shards, size)``
        array whose row *i* is shard *i*'s slice (a reshaped view of the
        caller's vector will do: inputs are never written); ``banks[i]``
        is the bank shard *i* is placed in.  The functional effects run
        **once** over the stacked arrays (one NumPy gather per LUT query
        instead of one per shard).  Shard *i*'s trace is the program's
        :class:`TraceTemplate` placed in ``banks[i]``, the same object
        :meth:`execute` returns for that program and bank.  Outputs are
        bit-identical to executing each shard through :meth:`execute` —
        the backend operations are element-wise, so stacking adds an axis
        without changing any value.

        Shard *i*'s outputs and registers are row views of the stacked
        result arrays the returned :class:`FusedResults` carries.  Result
        arrays that may alias an input are copied once for the whole
        pass, so no result shares memory with ``inputs``.  The compiled
        closure writes every stacked result, those copies included,
        into recycled buffers
        (:meth:`~repro.backend.compiled.CompiledExecutable.run_finals`):
        a warm pass reuses the buffers of dropped results instead of
        faulting in fresh pages, and never writes one that a live
        result or view still references.

        Requires a backend with ``supports_batched`` (the vectorized
        backend); the functional backend keeps the per-shard loop as the
        bit-exactness oracle.
        """
        backend = self.backend
        if not backend.supports_batched:
            raise ExecutionError(
                f"backend {backend.name!r} does not support fused batched "
                "execution; dispatch shards through execute() instead"
            )
        shards = len(banks)
        geometry = self.engine.geometry
        for bank in banks:
            if not 0 <= bank < geometry.banks:
                raise ExecutionError(
                    f"bank {bank} outside the module's range [0, {geometry.banks})"
                )
        self._check_inputs(compiled, inputs, shards)
        traces = self._bank_traces(compiled)
        register_by_vector = compiled.vector_bindings

        executable = self._compiled_executable(compiled, structure_key)
        if executable is not None and executable.supports_fused:
            # The whole stacked batch runs through the compiled closure,
            # whose finals are recycled buffers sharing no input array.
            finals = executable.run_finals(inputs, shards=shards)
            values = dict(zip(executable.final_slots, finals))
        else:
            backend.begin_program(geometry, self.engine.config.design)
            # Seeded with copies: every instruction below rebinds its
            # destination to a fresh array, so after this nothing in
            # ``values`` can alias an input.
            values = {
                register_by_vector[name].index: np.array(data, dtype=np.uint64)
                for name, data in inputs.items()
            }
            for instruction in compiled.program:
                if isinstance(instruction, PlutoRowAlloc):
                    if instruction.destination.index not in values:
                        values[instruction.destination.index] = np.zeros(
                            (shards, instruction.size_elements), dtype=np.uint64
                        )
                elif isinstance(instruction, PlutoSubarrayAlloc):
                    backend.load_lut(
                        instruction.destination.index,
                        compiled.lut_bindings[instruction.destination.index],
                    )
                else:
                    self._apply(instruction, compiled, values)

        registers = {
            name: values[register.index]
            for name, register in register_by_vector.items()
            if register.index in values
        }
        output_names = [vector.name for vector in compiled.outputs]
        template = traces.template
        results = FusedResults()
        for shard, bank in enumerate(banks):
            rows = {name: data[shard] for name, data in registers.items()}
            results.append(
                ExecutionResult(
                    outputs={name: rows[name] for name in output_names},
                    trace=traces[bank],
                    lut_queries=template.lut_queries,
                    instructions_executed=template.instructions_executed,
                    registers=rows,
                    backend=backend.name,
                )
            )
        results.registers = registers
        return results

    # ------------------------------------------------------------------ #
    # Cost accounting
    # ------------------------------------------------------------------ #
    def _account_lut_load(self, instruction, compiled, table, trace) -> None:
        """Account one LUT load (``pluto_subarray_alloc``).

        Loading the LUT costs one LISA move per LUT row; the command
        carries the row count so the scheduler charges every linked
        activation against the tFAW window.
        """
        allocation = table.bind_subarray(instruction.destination)
        lut = compiled.lut_bindings[instruction.destination.index]
        cost_model = self.engine.cost_model
        trace.add(
            CommandType.LISA_RBM,
            bank=allocation.bank,
            subarray=allocation.subarray,
            rows=lut.num_entries,
            meta=f"load {lut.name}",
            latency_ns=cost_model.lut_load_latency_ns(lut.num_entries),
            energy_nj=cost_model.lut_load_energy_nj(lut.num_entries),
        )

    def _account(self, instruction, table, trace, cost_model, design) -> None:
        if isinstance(instruction, PlutoOp):
            allocation = table.bind_subarray(instruction.lut_subarray)
            source_rows = table.bind_row(instruction.source).num_rows
            latency = cost_model.query_latency_ns(design, instruction.lut_size)
            energy = cost_model.query_energy_nj(design, instruction.lut_size)
            for _ in range(source_rows):
                trace.add_row_sweep(
                    latency,
                    energy,
                    bank=allocation.bank,
                    subarray=allocation.subarray,
                    rows=instruction.lut_size,
                    meta=instruction.render(),
                )
            return
        for command in self.rom.expand(instruction):
            # Scale per-row commands by the number of rows the operand spans.
            rows = 1
            if isinstance(instruction, (PlutoBitwise, PlutoBitShift, PlutoByteShift, PlutoMove)):
                target = (
                    instruction.destination
                    if hasattr(instruction, "destination")
                    else instruction.target
                )
                rows = table.bind_row(target).num_rows
            for _ in range(rows):
                trace.add(command.kind, bank=table.bank, meta=command.meta)

    # ------------------------------------------------------------------ #
    # Functional execution helpers (all effects delegated to the backend)
    # ------------------------------------------------------------------ #
    def _apply(self, instruction, compiled: CompiledProgram, values) -> None:
        """Perform one compute instruction's functional effect on ``values``."""
        if isinstance(instruction, PlutoOp):
            self._execute_lut_query(instruction, compiled, values)
        elif isinstance(instruction, PlutoBitwise):
            self._execute_bitwise(instruction, values)
        elif isinstance(instruction, (PlutoBitShift, PlutoByteShift)):
            self._execute_shift(instruction, values)
        elif isinstance(instruction, PlutoMove):
            self._execute_move(instruction, values)
        else:
            raise ExecutionError(
                f"unsupported instruction {type(instruction).__name__}"
            )

    def _execute_lut_query(
        self, instruction: PlutoOp, compiled: CompiledProgram, values
    ) -> None:
        source = values.get(instruction.source.index)
        if source is None:
            raise ExecutionError(
                f"{instruction.render()}: source register has no data"
            )
        lut = compiled.lut_bindings[instruction.lut_subarray.index]
        result = self.backend.lut_query(instruction.lut_subarray.index, source)
        values[instruction.destination.index] = result & np.uint64(
            mask_of(min(64, lut.element_bits))
        )

    def _execute_bitwise(self, instruction: PlutoBitwise, values) -> None:
        a = values[instruction.source1.index]
        b = (
            values[instruction.source2.index]
            if instruction.source2 is not None
            else None
        )
        values[instruction.destination.index] = self.backend.bitwise(
            instruction.kind, a, b, instruction.destination.bit_width
        )

    def _execute_shift(self, instruction, values) -> None:
        register = instruction.target
        amount = instruction.amount
        if isinstance(instruction, PlutoByteShift):
            amount *= 8
        values[register.index] = self.backend.shift(
            values[register.index], amount, instruction.direction, register.bit_width
        )

    def _execute_move(self, instruction: PlutoMove, values) -> None:
        source = values.get(instruction.source.index)
        if source is None:
            raise ExecutionError(f"{instruction.render()}: source register has no data")
        values[instruction.destination.index] = self.backend.move(
            source, values.get(instruction.destination.index)
        )

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_inputs(
        compiled: CompiledProgram,
        inputs: dict[str, np.ndarray],
        shards: int | None = None,
    ) -> None:
        """Validate inputs: one vector each, or ``(shards, size)`` stacks."""
        for vector in compiled.external_inputs:
            if vector.name not in inputs:
                raise ExecutionError(
                    f"missing input data for external vector {vector.name!r}"
                )
            data = np.asarray(inputs[vector.name])
            if shards is None:
                if data.shape != (vector.size,):
                    raise input_shape_error(vector.name, data, vector.size)
            elif data.shape != (shards, vector.size):
                raise ExecutionError(
                    f"fused input {vector.name!r} has shape {data.shape}, "
                    f"expected ({shards}, {vector.size})"
                )
            if data.size and int(data.max()) > mask_of(min(64, vector.bit_width)):
                raise ExecutionError(
                    f"input {vector.name!r} contains values wider than "
                    f"{vector.bit_width} bits"
                )
        for name in inputs:
            if name not in compiled.vector_bindings:
                raise ExecutionError(f"input {name!r} is not a vector of this program")
