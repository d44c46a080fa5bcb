"""Program optimizer: a pass pipeline over recorded pLUTo API programs.

pLUTo computation is table lookup, so programs admit rewrites that cut
the number of DRAM row sweeps — the dominant latency and energy term —
without changing a single output bit:

* **LUT-chain fusion** — consecutive element-wise LUT queries whose
  intermediate has one consumer compose into one query of a
  compile-time-composed table (:class:`~repro.opt.passes.LutChainFusionPass`);
* **common-subexpression elimination** — a repeated computation reuses
  the earlier result (:class:`~repro.opt.passes.CommonSubexpressionEliminationPass`);
* **dead-op elimination** — computations no preserved output depends on
  are dropped (:class:`~repro.opt.passes.DeadOpEliminationPass`);
* **LUT deduplication** — content-identical tables share one subarray
  allocation and ROM load (:class:`~repro.opt.passes.LutDeduplicationPass`).

The pipeline runs before compilation under any plan with
``optimize=True`` (``PlutoSession.run(...,
plan=ExecutionPlan(optimize=True))``, ``PlutoService(...,
plan=ExecutionPlan(optimize=True))``) or on an engine built from
``PlutoConfig(optimize=True)``, and every optimization is summarised by
an :class:`~repro.opt.report.OptimizationReport`.
"""

from repro.opt.compose import can_compose, compose_luts
from repro.opt.passes import (
    CommonSubexpressionEliminationPass,
    DeadOpEliminationPass,
    LutChainFusionPass,
    LutDeduplicationPass,
    OptimizationPass,
)
from repro.opt.pipeline import (
    OptimizedProgram,
    PassManager,
    default_passes,
    optimize_cached,
    optimize_program,
)
from repro.opt.report import (
    OptimizationReport,
    PassStats,
    ProgramMetrics,
    program_metrics,
)

__all__ = [
    "OptimizationPass",
    "LutChainFusionPass",
    "CommonSubexpressionEliminationPass",
    "DeadOpEliminationPass",
    "LutDeduplicationPass",
    "PassManager",
    "OptimizedProgram",
    "default_passes",
    "optimize_program",
    "optimize_cached",
    "OptimizationReport",
    "PassStats",
    "ProgramMetrics",
    "program_metrics",
    "can_compose",
    "compose_luts",
]
