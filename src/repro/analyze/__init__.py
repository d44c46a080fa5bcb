"""Static analysis for pLUTo programs: dataflow core + IR verifier.

Every fast tier built so far — the optimizer's rewrites, the compiled
closures' guard elimination, the serving tier's structure-key caches —
assumes pLUTo programs are well-formed.  This package checks those
invariants independently, the way production compiler stacks verify
their IR between passes:

* :mod:`repro.analyze.dataflow` — the shared forward
  abstract-interpretation pass over a
  :class:`~repro.compiler.lowering.CompiledProgram`: per-register value
  bounds (interval domain) and bit-width facts, plus the structural
  summary (first read/write events, rebinding, fused-execution
  legality) that :mod:`repro.backend.compiled` lowers against.
* :mod:`repro.analyze.verifier` — structural and dataflow invariant
  checks returning structured :class:`Diagnostic` records instead of
  raising: def-before-use, register-file capacity, LUT bindings and
  index ranges, output-width narrowing, RowClone legality, shard-slice
  aliasing, and the optimizer's pass invariants.
* :mod:`repro.analyze.cli` — ``python -m repro.analyze`` lints every
  registry workload program through the verifier.

Front doors elsewhere: :meth:`repro.api.session.PlutoSession.verify`,
verify-on-submit in :class:`repro.api.service.PlutoService`, and
``PlutoConfig(verify="always"|"debug"|"off")`` on the execution paths.
"""

from repro.analyze.dataflow import (
    DataflowSummary,
    InstructionFacts,
    analyze_dataflow,
)
from repro.analyze.diagnostics import (
    Diagnostic,
    Severity,
    VerificationReport,
)
from repro.analyze.verifier import (
    VERIFY_MODES,
    VerificationError,
    check_pass_invariants,
    narrow_output_diagnostic,
    operand_width_diagnostic,
    shards_overcommit_diagnostic,
    verification_enabled,
    verify_cached,
    verify_calls,
    verify_compiled,
    verify_program,
    verify_shard_plans,
)

__all__ = [
    "DataflowSummary",
    "InstructionFacts",
    "analyze_dataflow",
    "Diagnostic",
    "Severity",
    "VerificationReport",
    "VERIFY_MODES",
    "VerificationError",
    "check_pass_invariants",
    "narrow_output_diagnostic",
    "operand_width_diagnostic",
    "shards_overcommit_diagnostic",
    "verification_enabled",
    "verify_cached",
    "verify_calls",
    "verify_compiled",
    "verify_program",
    "verify_shard_plans",
]
