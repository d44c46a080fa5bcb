"""Whole-program compiled execution: the program-level JIT tier.

The vectorized backend already turns each LUT query into one NumPy
gather, but the controller still *walks* the program op by op — an
isinstance dispatch, a cost-accounting call, and a values-dict update per
instruction.  For small-element serving programs that per-instruction
Python overhead dominates the wall clock.  This module removes it: an
optimized :class:`~repro.compiler.lowering.CompiledProgram` is lowered
**once** into a single generated Python function whose body is the
straight-line chain of NumPy gathers, shift-ORs, moves, and bitwise
kernels — every gather array, mask constant, operand slot, and output
selection resolved at compile time — and the resulting closure is kept
on the compiled program it was generated from (:func:`compiled_exec_cached`),
so every controller executing that program shares it.  The controller
asks for it on a program's second run; the first is interpreted
(``PlutoController._compiled_executable``), so a program run once pays
for no code generation.

Each closure carries two generated functions.  ``__pluto_serve__``, the
single-vector serving entry, allocates its results as NumPy does.
``__pluto_program__``, behind :meth:`CompiledExecutable.run_finals` (the
fused ``(shards, size)`` pass and the unsharded fallback), writes every
destination into a ``uint64`` array from :data:`BUFFERS`, one
process-wide recycler keyed on shape: at 65536 elements a fresh result
array is half a MiB of pages the kernel must fault in and zero, and the
allocator has returned the previous request's memory by then.  The
recycler hands out an array only once nothing but itself references it,
so a result keeps its bytes for as long as any of its arrays or views
lives.

Cost accounting is untouched: the controller realizes the program's
cached :class:`~repro.controller.executor.TraceTemplate` alongside the
closure, so a compiled execution's command trace is bit-identical to the
interpreted route's by construction.  The ``"functional"`` backend stays
interpreted on purpose — it is the bit-exactness oracle the differential
suites compare both fast tiers against.
"""

from __future__ import annotations

import threading
from sys import getrefcount
from typing import Callable

import numpy as np

from repro.analyze.dataflow import analyze_dataflow
from repro.compiler.lowering import CompiledProgram
from repro.core.lut import gather_array
from repro.errors import ExecutionError, LUTError
from repro.isa.instructions import (
    BitwiseKind,
    PlutoBitShift,
    PlutoBitwise,
    PlutoByteShift,
    PlutoMove,
    PlutoOp,
    PlutoRowAlloc,
    PlutoSubarrayAlloc,
    ShiftDirection,
)
from repro.obs.trace import stage
from repro.utils.bitops import mask_of
from repro.utils.memo import MemoCounters, register_layer

__all__ = [
    "BUFFERS",
    "BUFFER_LIMIT_BYTES",
    "CompiledExecutable",
    "compiled_exec_cached",
    "pin_executable",
    "CLOSURE_COUNTERS",
]

#: Bytes of result arrays :data:`BUFFERS` may hold at once.
BUFFER_LIMIT_BYTES = 64 << 20


def _last_idle(arrays: list, idle: int) -> int:
    """Position of the last array nothing but ``arrays`` references, or -1."""
    for index in range(len(arrays) - 1, -1, -1):
        if getrefcount(arrays[index]) <= idle:
            return index
    return -1


def _idle_refs() -> int:
    """The reference count :func:`_last_idle` reads on an array only
    its list holds (calibrated once: it depends on the interpreter)."""
    probe = [np.empty(0, dtype=np.uint64)]
    refs = 1
    while _last_idle(probe, refs) < 0:
        refs += 1
    return refs


class _BufferRecycler:
    """Process-wide ``uint64`` result arrays, recycled by shape.

    :meth:`acquire` hands out an array the recycler holds that nothing
    else references any more (its CPython reference count is the idle
    count calibrated once), or a fresh ``np.empty`` that it keeps while
    its held bytes stay within :attr:`limit`.  A result, any of its
    arrays, or any view of one therefore keeps its bytes until it is
    dropped.  The scan runs under a lock, because the runs of one
    dispatcher and a service's batch thread may overlap: an array leaves
    the lock already referenced by its taker.  Reported as
    ``cache_stats()["compiled_exec"]["buffers"]``; ``clear_all_caches()``
    forgets the held arrays.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self._held: dict[tuple[int, ...], list[np.ndarray]] = {}
        self._bytes = 0
        self._lock = threading.Lock()
        self._idle = _idle_refs()
        self.hits = 0
        self.misses = 0
        self.uncached = 0
        register_layer("compiled_exec", self.stats, self.clear)

    def acquire(self, shape: tuple[int, ...]) -> np.ndarray:
        """An array of ``shape`` no one else holds; its contents are stale."""
        with self._lock:
            arrays = self._held.get(shape)
            index = _last_idle(arrays, self._idle) if arrays else -1
            if index >= 0:
                # The scan runs from the most recently handed out array:
                # the idle array it finds first is the one likeliest to
                # be in the CPU's caches still.
                array = arrays.pop(index)
                arrays.append(array)
                self.hits += 1
                return array
            array = np.empty(shape, dtype=np.uint64)
            if self._bytes + array.nbytes > self.limit:
                self._drop_idle(shape, self.limit - array.nbytes)
                if self._bytes + array.nbytes > self.limit:
                    self.uncached += 1
                    return array
            self._held.setdefault(shape, []).append(array)
            self._bytes += array.nbytes
            self.misses += 1
            return array

    def _drop_idle(self, shape: tuple[int, ...], budget: int) -> None:
        """Forget idle arrays of other shapes until the held bytes fit ``budget``."""
        for other in [other for other in self._held if other != shape]:
            arrays = self._held[other]
            while self._bytes > budget:
                index = _last_idle(arrays, self._idle)
                if index < 0:
                    break
                self._bytes -= arrays.pop(index).nbytes
            if not arrays:
                del self._held[other]

    def stats(self) -> dict[str, dict[str, int]]:
        """Reuses, kept and unkept fresh arrays, arrays and bytes held."""
        with self._lock:
            size = sum(len(arrays) for arrays in self._held.values())
            return {
                "buffers": {
                    "hits": self.hits,
                    "misses": self.misses,
                    "uncached": self.uncached,
                    "size": size,
                    "bytes": self._bytes,
                }
            }

    def clear(self) -> None:
        """Forget every held array and zero the counters."""
        with self._lock:
            self._held.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0
            self.uncached = 0


#: The one recycler every ``__pluto_program__`` closure writes into.
BUFFERS = _BufferRecycler(BUFFER_LIMIT_BYTES)


class CompiledExecutable:
    """One program structure lowered to a straight-line NumPy closure.

    The closure takes a slot list ``V`` (row-register index -> value
    array), runs the whole program without touching the instruction
    stream, writing each destination into a buffer from
    :data:`BUFFERS`, and returns the final value of every vector-bound
    register.  Executables depend only on program structure and LUT
    contents — not on the engine, bank, or backend instance — so one
    instance serves every controller in the process.
    """

    __slots__ = (
        "source",
        "num_slots",
        "input_slots",
        "zero_specs",
        "final_slots",
        "output_bindings",
        "register_bindings",
        "supports_fused",
        "lut_queries",
        "instructions",
        "_fn",
        "_serve",
    )

    def __init__(
        self,
        *,
        fn: Callable[[list], tuple],
        serve: "Callable[[dict], tuple | None]",
        source: str,
        num_slots: int,
        input_slots: dict[str, int],
        zero_specs: tuple[tuple[int, int], ...],
        final_slots: tuple[int, ...],
        output_bindings: tuple[tuple[str, int], ...],
        register_bindings: tuple[tuple[str, int], ...],
        supports_fused: bool,
        lut_queries: int,
        instructions: int,
    ) -> None:
        #: Generated Python source of the closure (for debugging/tests).
        self.source = source
        self.num_slots = num_slots
        #: Vector name -> row-register slot callers may seed.
        self.input_slots = input_slots
        #: ``(slot, size_elements)`` for every register that must start
        #: zeroed when the caller does not seed it (read before any
        #: write, or never written at all) — matching the interpreted
        #: path, which zero-creates every allocated row.
        self.zero_specs = zero_specs
        #: Row-register slot behind each position of the returned tuple.
        self.final_slots = final_slots
        #: ``(vector name, position in finals)`` for program outputs.
        self.output_bindings = output_bindings
        #: ``(vector name, position in finals)`` for the register snapshot.
        self.register_bindings = register_bindings
        #: Stacked ``(shards, size)`` execution is only valid when no
        #: move writes across different-size rows (a partial-row copy is
        #: a 1-D slice assignment that has no stacked equivalent).
        self.supports_fused = supports_fused
        self.lut_queries = lut_queries
        self.instructions = instructions
        self._fn = fn
        self._serve = serve

    def run_serve(
        self, inputs: dict[str, np.ndarray]
    ) -> "tuple[dict, dict] | None":
        """The fully generated serving path: ``(outputs, registers)``.

        The generated function validates, seeds, executes, and assembles
        the result dicts in specialized straight-line code.  It only
        handles the common shape — ``inputs`` naming exactly the
        program's external vectors, each 1-D of its vector's length — and
        returns ``None`` otherwise, in which case the caller validates the
        inputs and takes :meth:`run_finals`.
        """
        try:
            return self._serve(inputs)
        except IndexError as error:
            raise LUTError(
                f"compiled LUT query index out of range: {error}"
            ) from None

    def run_finals(
        self, inputs: dict[str, np.ndarray], *, shards: int | None = None
    ) -> tuple[np.ndarray, ...]:
        """Seed inputs, zero-init the rest, and run the closure.

        Returns the final value array of every vector-bound register, in
        :attr:`final_slots` order, none sharing memory with ``inputs`` or
        with any array a live result holds.  Every array it makes comes
        from :data:`BUFFERS`: each destination the closure writes, the
        ``uint64`` conversion of an input of another dtype, each
        zero-initialised register, and the copy of a final that is still
        the caller's seed.  ``inputs`` must already be valid for the
        program: the controller checks them
        (``PlutoController._check_inputs``) before it gets here.  With
        ``shards`` the same closure runs over stacked ``(shards, size)``
        arrays — one gather per LUT query for the whole batch (the fused
        path).
        """
        if shards is not None and not self.supports_fused:
            raise ExecutionError(
                "program moves between different-size rows; fused "
                "compiled execution is unavailable"
            )
        acquire = BUFFERS.acquire
        values: list = [None] * self.num_slots
        callers: set[int] = set()
        for name, data in inputs.items():
            slot = self.input_slots[name]
            if isinstance(data, np.ndarray) and data.dtype != np.uint64:
                seed = acquire(data.shape)
                np.copyto(seed, data, casting="unsafe")
            else:
                seed = np.asarray(data, dtype=np.uint64)
                if _callers(seed, data):
                    callers.add(slot)
            values[slot] = seed
        for slot, size in self.zero_specs:
            if values[slot] is None:
                zeros = values[slot] = acquire((size,) if shards is None else (shards, size))
                zeros.fill(0)
        finals = self._fn(values)
        # A slot the closure never rebinds ends as its seed, which may
        # still be the caller's array; every other final is the closure's.
        return tuple(
            _recycled_copy(final) if slot in callers and final is values[slot] else final
            for slot, final in zip(self.final_slots, finals)
        )


def _callers(seed: np.ndarray, data: object) -> bool:
    """Whether ``seed``, which is ``np.asarray(data, dtype=np.uint64)``,
    is the caller's memory: ``data`` itself or a view of it when ``data``
    is already ``uint64``, and not when the conversion made it fresh."""
    return seed is data or seed.base is not None


def _unshared(seed: np.ndarray, data: object) -> np.ndarray:
    """``seed`` (see :func:`_callers`) as an array no caller holds: an
    input of another dtype (numpy's default ``int64``, say) is copied
    once, by its conversion, not twice."""
    return seed.copy() if _callers(seed, data) else seed


def _recycled_copy(array: np.ndarray) -> np.ndarray:
    """A copy of ``array`` in a buffer from :data:`BUFFERS`."""
    copy = BUFFERS.acquire(array.shape)
    np.copyto(copy, array)
    return copy


def _raise_lut_bounds(index: int, entries: int, name: str) -> None:
    """Raise the vectorized backend's LUT bounds error (generated code)."""
    raise LUTError(
        f"query index {index} outside the {entries}-entry LUT {name!r}"
    )


#: Bitwise kind -> (the operator and ufunc combining two sources, or
#: ``None`` for NOT's one source; whether the result is inverted).
_BITWISE: dict[BitwiseKind, tuple[tuple[str, str] | None, bool]] = {
    BitwiseKind.NOT: (None, True),
    BitwiseKind.AND: (("&", "AND"), False),
    BitwiseKind.OR: (("|", "OR"), False),
    BitwiseKind.XOR: (("^", "XOR"), False),
    BitwiseKind.XNOR: (("^", "XOR"), True),
    BitwiseKind.NAND: (("&", "AND"), True),
    BitwiseKind.NOR: (("|", "OR"), True),
}


def _bitwise_code(
    kind: BitwiseKind, destination: str, a: str, b: str | None, mask: str
) -> tuple[str, list[str]]:
    """The statement matching ``ExecutionBackend.bitwise`` exactly, and
    the same computation written into a recycled buffer."""
    if kind not in _BITWISE:
        raise ExecutionError(f"unsupported bitwise kind {kind}")
    combine, inverted = _BITWISE[kind]
    if combine is None:
        return f"{destination} = (~{a}) & {mask}", [
            f"{destination} = INV({a}, out=B({a}.shape))",
            f"AND({destination}, {mask}, out={destination})",
        ]
    if b is None:
        raise ExecutionError(f"bitwise {kind.value} needs two source rows")
    symbol, ufunc = combine
    combined = f"({a} {symbol} {b})"
    recycled = [f"{destination} = {ufunc}({a}, {b}, out=B({a}.shape))"]
    if inverted:
        combined = f"(~{combined})"
        recycled.append(f"INV({destination}, out={destination})")
    recycled.append(f"AND({destination}, {mask}, out={destination})")
    return f"{destination} = {combined} & {mask}", recycled


def _lower(compiled: CompiledProgram) -> CompiledExecutable:
    """Generate and compile the whole-program closure.

    The value-bound and structural reasoning lives in the shared forward
    pass of :mod:`repro.analyze.dataflow` (one run per input contract);
    this function is pure code generation against those facts.  Two
    variants of the program body are generated.  ``safe_lines`` (the
    ``__pluto_program__`` closure behind run_finals and fused execution)
    writes every destination into a buffer from :data:`BUFFERS` and
    carries an inline LUT bounds check wherever the source slot's
    provable value bound can reach the table size — the controller
    width-checks externals on the caller's dtype before ``run_finals``
    (a signed ``-1`` passes and wraps huge as uint64, as on the
    interpreted route), so its contract is
    ``assume_external_width=False``.  The serve entry point
    validates every external's *converted* uint64 values against the
    width mask and bails out otherwise, so ``fast_lines`` analyzes under
    ``assume_external_width=True`` — which elides every check in 8-bit
    serving programs — and allocates its results: its requests are
    single vectors, whose fresh arrays fault in next to no pages.
    """
    fast = analyze_dataflow(compiled, assume_external_width=True)
    safe = analyze_dataflow(compiled, assume_external_width=False)

    env: dict[str, object] = {
        "I": np.intp,
        "EL": _raise_lut_bounds,
        "B": BUFFERS.acquire,
        "TK": np.take,
        "RC": _recycled_copy,
        "AND": np.bitwise_and,
        "OR": np.bitwise_or,
        "XOR": np.bitwise_xor,
        "INV": np.invert,
        "LS": np.left_shift,
        "RS": np.right_shift,
    }
    fast_lines: list[str] = []
    safe_lines: list[str] = []
    masks: dict[int, str] = {}
    shift_consts: dict[int, str] = {}

    def emit(fast_line: str, *recycled: str) -> None:
        """One instruction: the serving body's statement, and the
        statements writing it into recycled buffers (the same one when
        none are given)."""
        fast_lines.append(fast_line)
        safe_lines.extend(recycled or (fast_line,))

    def mask_const(width: int) -> str:
        width = min(64, width)
        name = masks.get(width)
        if name is None:
            name = f"M{width}"
            masks[width] = name
            env[name] = np.uint64(mask_of(width))
        return name

    def shift_const(amount: int) -> str:
        name = shift_consts.get(amount)
        if name is None:
            name = f"C{amount}"
            shift_consts[amount] = name
            env[name] = np.uint64(amount)
        return name

    for index, instruction in enumerate(compiled.program):
        if isinstance(instruction, PlutoRowAlloc):
            pass  # structural facts (sizes, zero specs) come from the pass
        elif isinstance(instruction, PlutoSubarrayAlloc):
            slot = instruction.destination.index
            env[f"T{slot}"] = gather_array(compiled.lut_bindings[slot])
        elif isinstance(instruction, PlutoOp):
            source = f"r{instruction.source.index}"
            destination = f"r{instruction.destination.index}"
            lut_index = instruction.lut_subarray.index
            lut = compiled.lut_bindings[lut_index]
            # The vectorized backend raises LUTError when any index
            # reaches the table size.  The forward value-bound pass makes
            # that check free in the common case: when the source slot's
            # provable bound already fits inside the table the check is
            # elided entirely, otherwise the exact interpreted check (and
            # message) is generated inline.  This also closes the intp
            # wrap window — indices in [2^64 - entries, 2^64) would view
            # as valid negative offsets, but they can only occur on
            # unbounded slots, which always carry the guard.
            entries = lut.num_entries
            guard = (
                f"if {source}.size and int({source}.max()) >= {entries}: "
                f"EL(int({source}.max()), {entries}, {lut.name!r})"
            )
            if fast.facts[index].guard_needed:
                fast_lines.append(guard)
            if safe.facts[index].guard_needed:
                safe_lines.append(guard)
            # The uint64 indices are bit-reinterpreted as intp (a free,
            # itemsize-preserving view) because NumPy's intp gather is
            # measurably faster than uint64 fancy indexing.  ``take``
            # writes into a recycled buffer only with ``mode="clip"``
            # (``"raise"`` gathers into a scratch array first); the
            # guards above keep every index in range, so nothing clips.
            # The interpreted path's post-gather mask is omitted because
            # it is a no-op: LookupTable validates every stored value
            # against mask_of(element_bits) at construction.
            emit(
                f"{destination} = T{lut_index}[{source}.view(I)]",
                f"{destination} = TK(T{lut_index}, {source}.view(I), "
                f"out=B({source}.shape), mode='clip')",
            )
        elif isinstance(instruction, PlutoBitwise):
            fast_line, recycled = _bitwise_code(
                instruction.kind,
                f"r{instruction.destination.index}",
                f"r{instruction.source1.index}",
                (
                    f"r{instruction.source2.index}"
                    if instruction.source2 is not None
                    else None
                ),
                mask_const(instruction.destination.bit_width),
            )
            emit(fast_line, *recycled)
        elif isinstance(instruction, (PlutoBitShift, PlutoByteShift)):
            amount = instruction.amount
            if isinstance(instruction, PlutoByteShift):
                amount *= 8
            target = f"r{instruction.target.index}"
            if instruction.direction is ShiftDirection.LEFT:
                mask = mask_const(instruction.target.bit_width)
                emit(
                    f"{target} = ({target} << {shift_const(amount)}) & {mask}",
                    f"{target} = LS({target}, {shift_const(amount)}, out=B({target}.shape))",
                    f"AND({target}, {mask}, out={target})",
                )
            else:
                emit(
                    f"{target} = {target} >> {shift_const(amount)}",
                    f"{target} = RS({target}, {shift_const(amount)}, out=B({target}.shape))",
                )
        elif isinstance(instruction, PlutoMove):
            source = f"r{instruction.source.index}"
            destination = instruction.destination
            if destination.size_elements > instruction.source.size_elements:
                # Partial overwrite keeps the destination's tail, exactly
                # like the in-place slice write of ``backend.move``; a
                # stacked array has no 1-D equivalent, so such programs
                # fall back to the interpreted walk when fused.
                emit(
                    f"r{destination.index}"
                    f"[:{instruction.source.size_elements}] = {source}"
                )
            else:
                emit(
                    f"r{destination.index} = {source}.copy()",
                    f"r{destination.index} = RC({source})",
                )
        else:
            raise ExecutionError(
                f"unsupported instruction {type(instruction).__name__}"
            )

    row_slots = safe.row_slots
    rebound = safe.rebound
    supports_fused = safe.supports_fused
    num_slots = max(row_slots) + 1 if row_slots else 0
    zero_specs = safe.zero_specs()

    binding_items = tuple(compiled.vector_bindings.items())
    final_slots = tuple(
        dict.fromkeys(register.index for _, register in binding_items)
    )
    position = {slot: index for index, slot in enumerate(final_slots)}
    output_bindings = tuple(
        (vector.name, position[compiled.vector_bindings[vector.name].index])
        for vector in compiled.outputs
    )
    register_bindings = tuple(
        (name, position[register.index]) for name, register in binding_items
    )

    unpack = ", ".join(f"r{slot}" for slot in range(num_slots))
    unpack_line = f"({unpack},) = V" if num_slots else "pass"
    returns = ", ".join(f"r{slot}" for slot in final_slots)
    returns_expr = f"({returns},)" if final_slots else "()"
    body = "\n    ".join(safe_lines) if safe_lines else "pass"

    # The specialized serving entry point: validation, seeding,
    # zero-init, program body, and result-dict assembly all generated as
    # one straight-line function over the inputs dict.  It handles only
    # the common case — inputs naming exactly the external vectors, each
    # 1-D of its vector's length, with every *converted* uint64 value
    # inside its width mask (a signed negative wraps huge and fails that
    # test) — and bails out (``return None``) otherwise; the controller
    # then validates with the interpreted route's exact checks and errors
    # and takes run_finals.  Inside the fast path the width test doubles
    # as the proof that the fast body's external value bounds hold.
    env.update(A=np.asarray, U=np.uint64, Z=np.zeros, N=_unshared)
    external_slots = set()
    serve_lines = [f"if len(inputs) != {len(compiled.external_inputs)}:", "    return None"]
    for vector in compiled.external_inputs:
        slot = compiled.vector_bindings[vector.name].index
        external_slots.add(slot)
        limit = mask_of(min(64, vector.bit_width))
        serve_lines += [
            f"d{slot} = inputs.get({vector.name!r})",
            f"if d{slot} is None:",
            "    return None",
            f"r{slot} = A(d{slot}, U)",
            f"if r{slot}.shape != ({vector.size},) or (r{slot}.size and r{slot}.max() > {limit}):",
            "    return None",
        ]
    for slot, size in zero_specs:
        if slot not in external_slots:
            serve_lines.append(f"r{slot} = Z({size}, U)")
    serve_lines.extend(fast_lines)
    # A never-rebound external register still holds its seed: copied
    # while it is the caller's array, exactly as run_finals does.
    register_exprs = ", ".join(
        f"{name!r}: "
        + (
            f"N(r{register.index}, d{register.index})"
            if register.index in external_slots and register.index not in rebound
            else f"r{register.index}"
        )
        for name, register in binding_items
    )
    output_exprs = ", ".join(
        f"{vector.name!r}: R[{vector.name!r}]" for vector in compiled.outputs
    )
    serve_lines += [f"R = {{{register_exprs}}}", f"return ({{{output_exprs}}}, R)"]
    serve_body = "\n    ".join(serve_lines)

    source = (
        "def __pluto_program__(V):\n"
        f"    {unpack_line}\n"
        f"    {body}\n"
        f"    return {returns_expr}\n"
        "\n"
        "def __pluto_serve__(inputs):\n"
        f"    {serve_body}\n"
    )
    exec(compile(source, "<pluto-compiled>", "exec"), env)
    return CompiledExecutable(
        fn=env["__pluto_program__"],  # type: ignore[arg-type]
        serve=env["__pluto_serve__"],  # type: ignore[arg-type]
        source=source,
        num_slots=num_slots,
        input_slots={
            name: register.index for name, register in binding_items
        },
        zero_specs=zero_specs,
        final_slots=final_slots,
        output_bindings=output_bindings,
        register_bindings=register_bindings,
        supports_fused=supports_fused,
        lut_queries=safe.lut_queries,
        instructions=safe.instructions,
    )


def _cached_closures() -> int:
    """Closures the cached compiled programs hold."""
    from repro.api.session import _PROGRAM_CACHE

    return sum(bool(program.__dict__.get("_jit_executable")) for program in _PROGRAM_CACHE.values())


#: Closure builds (misses) and reuses (hits), surfaced with the closures
#: the cached programs hold as ``cache_stats()["compiled_exec"]``.
CLOSURE_COUNTERS = MemoCounters("compiled_exec", _cached_closures)


def pin_executable(compiled: CompiledProgram) -> CompiledExecutable | None:
    """Generate the program's closure and keep it on the program.

    Returns ``None`` when the program cannot take the compiled tier (an
    unsupported instruction); that verdict is kept too, so the
    controller stops re-attempting the program.
    """
    try:
        executable: CompiledExecutable | None = _lower(compiled)
    except Exception:
        executable = None
    compiled.__dict__["_jit_executable"] = executable if executable is not None else False
    return executable


def compiled_exec_cached(
    compiled: CompiledProgram, *, structure_key: tuple | None
) -> CompiledExecutable | None:
    """The program's closure, generated on first use.

    Returns ``None`` when the program cannot take the compiled tier —
    no structure key (the caller's opt-in signal), or a structure that
    failed to lower — and the caller falls back to interpreted
    execution.
    """
    if structure_key is None:
        CLOSURE_COUNTERS.note_uncached()
        return None
    pinned = compiled.__dict__.get("_jit_executable")
    if pinned is not None:
        CLOSURE_COUNTERS.hits += 1
        return pinned or None
    CLOSURE_COUNTERS.misses += 1
    with stage("closure_build", instructions=len(compiled.program)):
        return pin_executable(compiled)
