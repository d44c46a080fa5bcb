"""The pass manager: run the pipeline to fixpoint and report the savings.

:func:`optimize_program` is the subsystem's front door: it normalises a
recorded call list into dependency order, fixes the set of *preserved*
outputs (the program's natural outputs by default, or an explicit
subset), runs the pass pipeline until a round changes nothing, and
returns the rewritten program together with an
:class:`~repro.opt.report.OptimizationReport`.

:func:`optimize_cached` memoizes whole optimizations on the program
structure key (the same key the compile cache uses), so the serving path
optimises each distinct program shape once no matter how many requests
carry it; its hit/miss counters surface through
``repro.api.cache_stats()["optimizer"]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.analyze.verifier import check_pass_invariants, verification_enabled
from repro.api.handles import ApiCall, PlutoVector
from repro.api.session import _KEY_UNSET, hashable_structure_key
from repro.errors import CompilationError
from repro.opt.analysis import natural_output_names, topological_calls
from repro.opt.passes import (
    CommonSubexpressionEliminationPass,
    DeadOpEliminationPass,
    LutChainFusionPass,
    LutDeduplicationPass,
    OptimizationPass,
)
from repro.obs.trace import stage
from repro.opt.report import OptimizationReport, program_metrics
from repro.utils.memo import BoundedMemo

__all__ = [
    "OptimizedProgram",
    "PassManager",
    "default_passes",
    "optimize_program",
    "optimize_cached",
]


def default_passes() -> tuple[OptimizationPass, ...]:
    """The standard pipeline, in dependency order.

    Dedup first (so fusion and CSE see canonical tables), then fusion
    (which detaches intermediates), then CSE (fusion can expose
    duplicates), then dead-op elimination to sweep up whatever the
    earlier passes orphaned.  The manager re-runs the whole pipeline
    until a round is a no-op, so enabling opportunities across passes
    (a removed consumer turning a chain single-consumer, say) are found.
    """
    return (
        LutDeduplicationPass(),
        LutChainFusionPass(),
        CommonSubexpressionEliminationPass(),
        DeadOpEliminationPass(),
    )


@dataclass(frozen=True)
class OptimizedProgram:
    """An optimized API program plus the account of what was saved."""

    calls: tuple[ApiCall, ...]
    report: OptimizationReport
    #: Names of the outputs the optimization preserved bit-identically.
    output_names: frozenset[str]


class PassManager:
    """Runs an ordered pass pipeline over API programs to fixpoint.

    ``verify`` re-verifies the program through the IR verifier
    (:func:`repro.analyze.verifier.check_pass_invariants`) after every
    pass that changed it, so a broken rewrite is caught at the pass that
    introduced it: ``"always"`` unconditionally, ``"debug"`` (the
    default) only under ``__debug__`` — i.e. on in tests and normal
    runs, compiled away under ``python -O`` — and ``"off"`` never.
    Serving overhead is ~zero either way because whole optimizations
    are memoized on the program structure key
    (:func:`optimize_cached`), so each shape pays for its verification
    exactly once.
    """

    def __init__(
        self,
        passes: Sequence[OptimizationPass] | None = None,
        *,
        max_rounds: int = 8,
        verify: str | None = None,
    ) -> None:
        if max_rounds <= 0:
            raise CompilationError("the pass pipeline needs at least one round")
        self.passes: tuple[OptimizationPass, ...] = (
            tuple(passes) if passes is not None else default_passes()
        )
        self.max_rounds = max_rounds
        self.verify = "debug" if verify is None else verify
        verification_enabled(self.verify)  # reject unknown modes eagerly

    def optimize(
        self,
        calls: Sequence[ApiCall],
        *,
        outputs: Iterable[PlutoVector | str] | None = None,
    ) -> OptimizedProgram:
        """Optimize ``calls``, preserving ``outputs`` bit-identically.

        ``outputs`` defaults to the program's natural outputs (vectors
        produced but never consumed — exactly what execution returns), in
        which case the optimized program has the *same* output set.  An
        explicit subset additionally licenses dead-op elimination to drop
        every computation the named outputs do not depend on.
        """
        original = list(calls)
        if not original:
            raise CompilationError("cannot optimize an empty API program")
        work = topological_calls(original)
        preserved = self._preserved_names(work, outputs)
        before = program_metrics(original)

        checking = verification_enabled(self.verify)
        trail = []
        rounds = 0
        for _ in range(self.max_rounds):
            rounds += 1
            round_changed = False
            for optimization_pass in self.passes:
                with stage(f"opt:{optimization_pass.name}", round=rounds):
                    work, stats = optimization_pass.run(work, preserved)
                if stats.changed:
                    trail.append(stats)
                    round_changed = True
                    if checking:
                        check_pass_invariants(
                            work,
                            preserved=preserved,
                            pass_name=optimization_pass.name,
                        )
            if not round_changed:
                break
        if outputs is None and natural_output_names(work) != preserved:
            raise CompilationError(
                "optimizer invariant violated: the program's output set "
                f"changed from {sorted(preserved)} to "
                f"{sorted(natural_output_names(work))}"
            )
        report = OptimizationReport(
            before=before,
            after=program_metrics(work),
            passes=tuple(trail),
            rounds=rounds,
        )
        return OptimizedProgram(
            calls=tuple(work), report=report, output_names=preserved
        )

    @staticmethod
    def _preserved_names(
        calls: Sequence[ApiCall],
        outputs: Iterable[PlutoVector | str] | None,
    ) -> frozenset[str]:
        if outputs is None:
            return natural_output_names(calls)
        names = frozenset(
            output.name if isinstance(output, PlutoVector) else str(output)
            for output in outputs
        )
        if not names:
            raise CompilationError("cannot optimize away every program output")
        produced = {call.output.name for call in calls}
        missing = names - produced
        if missing:
            raise CompilationError(
                f"declared outputs {sorted(missing)} are not produced by any "
                "API call"
            )
        return names


def optimize_program(
    calls: Sequence[ApiCall],
    *,
    outputs: Iterable[PlutoVector | str] | None = None,
    passes: Sequence[OptimizationPass] | None = None,
    verify: str | None = None,
) -> OptimizedProgram:
    """Optimize one API program with the default (or given) pipeline."""
    return PassManager(passes, verify=verify).optimize(calls, outputs=outputs)


#: Structure key -> OptimizedProgram (natural outputs, default pipeline).
_OPTIMIZE_MEMO: BoundedMemo[OptimizedProgram] = BoundedMemo("optimizer", 512)


def optimize_cached(
    calls: Sequence[ApiCall], *, key: "tuple | None | object" = _KEY_UNSET
) -> OptimizedProgram:
    """Optimize with the default pipeline, memoized on program structure.

    The key is :func:`repro.compiler.lowering.program_structure_key` —
    the same identity the compile, trace-template, and makespan memos
    use, so a served program shape pays for its optimization exactly
    once.  Unhashable structures (list-valued parameters) bypass the
    memo and are counted as ``uncached``.  A caller that already holds
    the key passes it as ``key`` (``None`` meaning "known unhashable").
    """
    if key is _KEY_UNSET:
        key = hashable_structure_key(calls)
    return _OPTIMIZE_MEMO.get_or_compute(key, lambda: optimize_program(calls))
