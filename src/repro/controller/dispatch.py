"""Bank-parallel sharded execution of pLUTo programs.

The paper's scalability results (Figure 12) and the tFAW study
(Section 8.7) rest on parallelism across subarrays and banks: every bank
can sweep its own LUT-holding subarray concurrently, with the rank-level
tRRD/tFAW activation constraints as the only coupling between them.  This
module adds that execution mode on top of the existing controller:

* :class:`ShardPlanner` partitions a program's element space into
  contiguous shards and rewrites the recorded API calls so each shard is
  a complete, smaller program over its slice (equal-sized shards share
  one compiled program through the structure-keyed compile cache).
* :class:`ParallelDispatcher` executes the shards through the
  :class:`~repro.controller.executor.PlutoController` — in one *fused*
  batched pass over a ``(shards, slice)`` view of the inputs when the
  selected :class:`~repro.backend.base.ExecutionBackend` supports it
  (the vectorized default), or shard by shard on the functional oracle —
  placing shard *i* in bank *i* so the per-shard command traces carry
  distinct bank ids.
* :func:`merged_makespan_ns` merges the per-shard command streams with
  the semantics of the timing-aware
  :class:`~repro.dram.scheduler.CommandScheduler`, memoized on the
  streams' structure (:mod:`repro.dram.analytic`), so the aggregate
  latency is a *makespan* with cross-bank tRRD/tFAW contention enforced,
  not a naive per-shard sum.

Functional outputs are bit-identical to unsharded execution by
construction: every shard runs the same lowering over a disjoint slice of
the same inputs, and the dispatcher joins the slices back in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from repro.api.handles import ApiCall, PlutoVector
from repro.backend.base import ExecutionBackend
from repro.controller.executor import ExecutionResult, PlutoController
from repro.core.designs import PlutoDesign
from repro.core.engine import PlutoConfig, PlutoEngine
from repro.dram.analytic import memoized_merge_makespan_ns
from repro.dram.commands import Command, CommandTrace
from repro.dram.scheduler import CommandScheduler
from repro.errors import ConfigurationError, ExecutionError, VerificationError
from repro.obs.trace import stage
from repro.utils.memo import register_layer

__all__ = [
    "ShardPlan",
    "ShardPlanner",
    "ShardedExecutionResult",
    "ParallelDispatcher",
    "execute_shard_plans",
    "sweep_act_interval_ns",
    "sweep_tail_ns",
    "sweep_acts_per_row",
    "merged_makespan_ns",
    "rank_scheduler",
    "rank_scheduler_key",
]


def sweep_act_interval_ns(engine: PlutoEngine) -> float:
    """ACT-to-ACT spacing inside a Row Sweep for the engine's design.

    Mirrors the per-design query-latency expressions of Table 1:
    pLUTo-BSA precharges after every activation (tRCD + tRP per row),
    pLUTo-GMC opens rows back to back (tRCD per row, one trailing
    precharge), and pLUTo-GSA additionally streams the LUT row back in
    through a LISA hop before each activation (destructive reads).
    """
    design, timing = engine.config.design, engine.timing
    if design is PlutoDesign.GSA:
        return engine.cost_model.lisa_hop_latency_ns + timing.t_rcd
    if design is PlutoDesign.GMC:
        return timing.t_rcd
    return timing.t_rcd + timing.t_rp


def sweep_tail_ns(engine: PlutoEngine) -> float:
    """Bank occupancy after a Row Sweep's final activation.

    GSA/GMC sweeps precharge once at the end (the ``+ tRP`` term of their
    Table 1 query latencies); BSA's per-row spacing already contains the
    precharge, so its sweeps carry no tail.
    """
    return 0.0 if engine.config.design is PlutoDesign.BSA else engine.timing.t_rp


def sweep_acts_per_row(engine: PlutoEngine) -> int:
    """Row activations per swept LUT entry (2 for GSA's reload+sweep)."""
    return 2 if engine.config.design is PlutoDesign.GSA else 1


@lru_cache(maxsize=None)
def _throttled_timing(timing, tfaw_fraction: float):
    return timing.with_tfaw_fraction(tfaw_fraction)


# Part of the engine helpers layer: cleared with it, not reported.
register_layer("engine_helpers", dict, _throttled_timing.cache_clear)


def rank_scheduler(engine: PlutoEngine) -> CommandScheduler:
    """A fresh per-rank scheduler configured for the engine's design."""
    return CommandScheduler(
        _throttled_timing(engine.timing, engine.config.tfaw_fraction),
        num_banks=engine.geometry.banks,
        banks_per_group=engine.geometry.banks_per_group,
        sweep_act_interval_ns=sweep_act_interval_ns(engine),
        sweep_tail_ns=sweep_tail_ns(engine),
        sweep_acts_per_row=sweep_acts_per_row(engine),
        lisa_hop_ns=engine.cost_model.lisa_hop_latency_ns,
    )


def rank_scheduler_key(engine: PlutoEngine) -> tuple:
    """The :func:`rank_scheduler` configuration as a hashable cache key.

    Mirrors :func:`repro.dram.analytic.scheduler_signature` without
    constructing a scheduler, so memo lookups on warm caches cost a few
    attribute reads.
    """
    return (
        _throttled_timing(engine.timing, engine.config.tfaw_fraction),
        engine.geometry.banks,
        engine.geometry.banks_per_group,
        sweep_act_interval_ns(engine),
        sweep_tail_ns(engine),
        sweep_acts_per_row(engine),
        engine.cost_model.lisa_hop_latency_ns,
    )


def merged_makespan_ns(
    command_streams: Sequence[Sequence[Command]], engine: PlutoEngine
) -> float:
    """Makespan of concurrent per-bank command streams under rank timing.

    The streams are merged at activation granularity with the semantics
    of :meth:`CommandScheduler.merge_streams`, configured with the
    engine's bank count, its design's sweep spacing, and its
    configuration's tFAW throttle (``tfaw_fraction``, matching the
    Figure 13 convention where 0 means unthrottled).  Returns the time at
    which the last command completes.  Results are memoized on the
    streams' structural signature (:mod:`repro.dram.analytic`), so
    repeated identical shard plans merge once.
    """
    streams = [stream for stream in command_streams if len(stream)]
    if not streams:
        return 0.0
    return memoized_merge_makespan_ns(
        streams,
        lambda: rank_scheduler(engine),
        config_key=rank_scheduler_key(engine),
    )


@dataclass(frozen=True)
class ShardPlan:
    """One shard: a bank, an element slice, and the rewritten program."""

    index: int
    bank: int
    start: int
    stop: int
    calls: tuple[ApiCall, ...]

    @property
    def size(self) -> int:
        """Number of elements this shard processes."""
        return self.stop - self.start


class ShardPlanner:
    """Partitions an element-wise API program across banks."""

    def __init__(self, *, num_banks: int = 16) -> None:
        if num_banks <= 0:
            raise ConfigurationError("shard planning needs at least one bank")
        self.num_banks = num_banks

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #
    def plan(self, calls: Sequence[ApiCall], shards: int) -> list[ShardPlan]:
        """Split ``calls`` into ``shards`` contiguous element slices.

        Shard sizes are balanced (they differ by at most one element), so
        equal-sized shards lower to structurally identical programs and
        compile once.  Shard *i* is placed in bank ``i % num_banks``.
        """
        from repro.analyze.verifier import shards_overcommit_diagnostic

        overcommit = shards_overcommit_diagnostic(shards, self.num_banks)
        if overcommit is not None:
            # The same Diagnostic the shard-plan verifier reports;
            # VerificationError subclasses ConfigurationError, so
            # existing handlers keep working.
            raise VerificationError((overcommit,), subject="shard plan")
        return [
            ShardPlan(
                index=index,
                # One bank per shard; shards <= num_banks is enforced
                # above, so the assignment never wraps.
                bank=index,
                start=start,
                stop=stop,
                calls=calls_,
            )
            for index, (start, stop, calls_) in enumerate(
                self.plan_slices(calls, shards)
            )
        ]

    @classmethod
    def plan_slices(
        cls, calls: Sequence[ApiCall], shards: int
    ) -> list[tuple[int, int, tuple[ApiCall, ...]]]:
        """Balanced contiguous ``(start, stop, rewritten calls)`` slices.

        The placement-free half of :meth:`plan`: the hierarchical planner
        reuses it with its own channel/rank/bank mapping, which is not
        limited to one rank's banks.
        """
        if shards <= 0:
            raise ConfigurationError("shard count must be positive")
        size = cls._uniform_size(calls)
        if shards > size:
            raise ConfigurationError(
                f"cannot split {size} elements into {shards} non-empty shards"
            )
        slices: list[tuple[int, int, tuple[ApiCall, ...]]] = []
        base, remainder = divmod(size, shards)
        # Balanced shards take at most two distinct sizes, and the
        # rewritten call tuples depend only on the size — share them so
        # planning allocates O(distinct sizes) replica programs instead
        # of O(shards x calls) vectors.
        resized: dict[int, tuple[ApiCall, ...]] = {}
        start = 0
        for index in range(shards):
            stop = start + base + (1 if index < remainder else 0)
            shard_size = stop - start
            shard_calls = resized.get(shard_size)
            if shard_calls is None:
                shard_calls = cls._resize_calls(calls, shard_size)
                resized[shard_size] = shard_calls
            slices.append((start, stop, shard_calls))
            start = stop
        return slices

    @staticmethod
    def _uniform_size(calls: Sequence[ApiCall]) -> int:
        if not calls:
            raise ConfigurationError("cannot shard an empty API program")
        sizes = {
            vector.size
            for call in calls
            for vector in (*call.inputs, call.output)
        }
        if len(sizes) != 1:
            raise ConfigurationError(
                "sharded execution needs a uniform element count across every "
                f"vector, got sizes {sorted(sizes)}"
            )
        return next(iter(sizes))

    @staticmethod
    def _resize_calls(calls: Sequence[ApiCall], size: int) -> tuple[ApiCall, ...]:
        """Rewrite every call over ``size``-element replicas of its vectors."""
        sample = calls[0].output if not calls[0].inputs else calls[0].inputs[0]
        if sample.size == size:
            # The slice covers the whole element space; the original
            # calls (and their vectors) are already correct.
            return tuple(calls)
        replicas: dict[str, PlutoVector] = {}

        def _replica(vector: PlutoVector) -> PlutoVector:
            replica = replicas.get(vector.name)
            if replica is None:
                replica = PlutoVector(
                    name=vector.name, size=size, bit_width=vector.bit_width
                )
                replicas[vector.name] = replica
            return replica

        return tuple(
            ApiCall(
                operation=call.operation,
                inputs=tuple(_replica(vector) for vector in call.inputs),
                output=_replica(call.output),
                lut=call.lut,
                parameters=call.parameters,
            )
            for call in calls
        )


@dataclass
class ShardedExecutionResult(ExecutionResult):
    """Aggregate result of a bank-parallel execution.

    ``trace`` holds every shard's commands and the *summed* latency/energy
    (energy genuinely adds across banks; the summed latency is exposed as
    :attr:`serial_latency_ns`).  :attr:`latency_ns` is overridden with the
    scheduler-derived :attr:`makespan_ns`, the time at which the slowest
    bank finishes under cross-bank tRRD/tFAW contention.
    """

    shard_results: list[ExecutionResult] = field(default_factory=list)
    shard_plans: list[ShardPlan] = field(default_factory=list)
    makespan_ns: float = 0.0

    @property
    def num_shards(self) -> int:
        """Number of bank-parallel shards that produced this result."""
        return len(self.shard_results)

    @property
    def serial_latency_ns(self) -> float:
        """Cost of draining every shard back to back through one bank.

        This includes each shard's replicated one-time LUT load, so it is
        the serialisation of *this shard plan* — not the latency of the
        equivalent unsharded run, which loads each LUT once and can
        therefore be cheaper than this sum divided by the shard count.
        """
        return self.trace.total_latency_ns

    @property
    def latency_ns(self) -> float:
        """Scheduler-derived makespan of the bank-parallel execution."""
        return self.makespan_ns

    @property
    def parallel_speedup(self) -> float:
        """Serial drain of this shard plan over its makespan.

        Measures how well the shards overlap (> 1 when they do).  To ask
        whether sharding beat *not* sharding, compare :attr:`makespan_ns`
        against the ``latency_ns`` of a ``shards=1`` run, which pays the
        LUT load only once.
        """
        if self.makespan_ns <= 0:
            return float("inf")
        return self.serial_latency_ns / self.makespan_ns


def _join(parts: Sequence[Mapping[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Whole vectors from result arrays that cover consecutive slices.

    Each part maps a name to a stacked ``(shards, size)`` array (one fused
    group) or a ``(size,)`` array (one shard of the per-shard loop).  A
    single part reshapes back into a view; several concatenate.
    """
    if len(parts) == 1:
        return {name: data.reshape(-1) for name, data in parts[0].items()}
    return {
        name: np.concatenate([part[name] for part in parts], axis=None)
        for name in parts[0]
    }


def execute_shard_plans(
    controller: PlutoController,
    plans: Sequence,
    arrays: Mapping[str, np.ndarray],
    *,
    fused: bool | None = None,
) -> tuple[list[ExecutionResult], dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Execute shard plans, fused in one batched pass when possible.

    ``plans`` are balanced contiguous slices in index order, as both the
    bank-parallel and hierarchical planners produce them: objects with
    ``index`` / ``bank`` / ``start`` / ``stop`` / ``calls`` attributes.
    With a batched-capable backend (``fused=None`` auto-detects;
    ``False`` forces the per-shard oracle loop) each group of equal-sized
    shards executes in a single controller pass over a ``(shards, size)``
    view of its slice of the inputs — one NumPy gather per LUT query
    instead of ``shards`` trips through the controller, and no copy of
    the inputs.  Outputs, traces, and per-shard results are identical to
    the per-shard loop.

    Returns ``(shard results, merged outputs, merged registers)``; merged
    outputs are the merged registers of the output vectors.  The merged
    arrays are views of the fused pass's results when every shard has one
    size, and are concatenated when the split made two sizes.
    """
    from repro.api.session import compile_cached_with_key

    use_fused = controller.backend.supports_batched if fused is None else fused
    if use_fused and not controller.backend.supports_batched:
        raise ConfigurationError(
            f"backend {controller.backend.name!r} cannot run fused; "
            "pass fused=False (or None) to use the per-shard path"
        )
    if not use_fused:
        results = [
            controller.execute(
                compile_cached_with_key(plan.calls)[0],
                {name: data[plan.start : plan.stop] for name, data in arrays.items()},
                bank=plan.bank,
            )
            for plan in plans
        ]
        parts: list = results
    else:
        groups: dict[int, list] = {}
        for plan in plans:
            groups.setdefault(plan.stop - plan.start, []).append(plan)
        results = []
        parts = []
        for size, group in groups.items():
            first, count = group[0].start, len(group)
            if any(plan.start != first + k * size for k, plan in enumerate(group)):
                raise ExecutionError(
                    "fused shards of one size must be consecutive slices"
                )
            compiled, structure_key = compile_cached_with_key(group[0].calls)
            fused_results = controller.execute_fused(
                compiled,
                {
                    name: data[first : first + count * size].reshape(count, size)
                    for name, data in arrays.items()
                },
                banks=[plan.bank for plan in group],
                structure_key=structure_key,
            )
            results.extend(fused_results)
            parts.append(fused_results)
    registers = _join([part.registers for part in parts])
    return results, {name: registers[name] for name in results[0].outputs}, registers


class ParallelDispatcher:
    """Executes shard plans through the controller and merges the results.

    ``fused`` selects the execution strategy: ``None`` (default) runs the
    shards in one batched pass when the backend supports it, ``False``
    forces the per-shard loop (the bit-exactness oracle path), ``True``
    requires a batched backend.
    """

    def __init__(
        self,
        engine: PlutoEngine | None = None,
        backend: str | ExecutionBackend = "vectorized",
        *,
        fused: bool | None = None,
        jit: bool = True,
    ) -> None:
        self.engine = engine if engine is not None else PlutoEngine(PlutoConfig())
        self.controller = PlutoController(self.engine, backend=backend, jit=jit)
        self.planner = ShardPlanner(num_banks=self.engine.geometry.banks)
        self.fused = fused

    def execute(
        self,
        calls: Sequence[ApiCall],
        inputs: Mapping[str, np.ndarray],
        *,
        shards: int,
    ) -> ShardedExecutionResult:
        """Run ``calls`` bank-parallel over ``shards`` slices of ``inputs``."""
        plans = self.planner.plan(calls, shards)
        self._verify_plans(plans)
        arrays = {name: np.asarray(data) for name, data in inputs.items()}
        self._check_inputs(calls, arrays)
        shard_results, outputs, registers = execute_shard_plans(
            self.controller, plans, arrays, fused=self.fused
        )
        return self._merge(plans, shard_results, outputs, registers)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def _verify_plans(self, plans: "list[ShardPlan]") -> None:
        """Statically verify the shard plan, per the engine's verify mode.

        Catches slice aliasing and bad bank placement before any shard
        executes — two shards writing one output region is the silent
        corruption sharded execution must never reach.
        """
        from repro.analyze.verifier import (
            verification_enabled,
            verify_shard_plans,
        )

        if verification_enabled(self.engine.config.verify):
            verify_shard_plans(
                plans, num_banks=self.engine.geometry.banks
            ).raise_if_errors()

    @staticmethod
    def _check_inputs(
        calls: Sequence[ApiCall], arrays: Mapping[str, np.ndarray]
    ) -> None:
        """Validate inputs against the *full-size* program vectors.

        The per-shard controller only ever sees exact-size slices, so
        without this check an oversized input array would be silently
        truncated — diverging from the unsharded run, which rejects it.
        """
        vectors = {
            vector.name: vector
            for call in calls
            for vector in (*call.inputs, call.output)
        }
        for name, data in arrays.items():
            vector = vectors.get(name)
            if vector is None:
                raise ExecutionError(
                    f"input {name!r} is not a vector of this program"
                )
            if data.size != vector.size:
                raise ExecutionError(
                    f"input {name!r} has {data.size} elements, "
                    f"expected {vector.size}"
                )

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def _merge(
        self,
        plans: list[ShardPlan],
        shard_results: list[ExecutionResult],
        outputs: dict[str, np.ndarray],
        registers: dict[str, np.ndarray],
    ) -> ShardedExecutionResult:
        merged_trace = CommandTrace(
            timing=self.engine.timing, energy=self.engine.energy
        )
        for result in shard_results:
            merged_trace.merge(result.trace)
        with stage("schedule", shards=len(shard_results)):
            makespan = merged_makespan_ns(
                [result.trace.commands for result in shard_results], self.engine
            )
        return ShardedExecutionResult(
            outputs=outputs,
            trace=merged_trace,
            lut_queries=sum(result.lut_queries for result in shard_results),
            instructions_executed=sum(
                result.instructions_executed for result in shard_results
            ),
            registers=registers,
            backend=self.controller.backend.name,
            shard_results=shard_results,
            shard_plans=plans,
            makespan_ns=makespan,
        )
