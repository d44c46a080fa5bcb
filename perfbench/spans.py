"""Spans around the public callables of each layer of the request ladder.

The traced run wraps the callables in :data:`WRAPPED` from outside the
program: each call records a span (name, start, end, parent) into
preallocated integer columns, so tracing allocates no tracked objects
per call.  :meth:`Tracer.remove` puts the original callables back.  A
span's self time is its duration minus its children's durations, so the
self times of one request's spans sum to its outermost span.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from dataclasses import dataclass

import numpy as np

__all__ = ["Target", "WRAPPED", "SELF_TIME_METRICS", "Tracer"]


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module.[owner.]attribute`` named ``name``."""

    name: str
    module: str
    owner: str | None
    attribute: str

    def holder(self) -> object:
        """The module or class whose attribute is replaced."""
        holder: object = importlib.import_module(self.module)
        if self.owner is not None:
            holder = getattr(holder, self.owner)
        return holder

    def original(self) -> object:
        """The callable as the program defines it."""
        holder = self.holder()
        if isinstance(holder, type):
            # The class's own attribute, not one found on a base class.
            return vars(holder)[self.attribute]
        return getattr(holder, self.attribute)


#: The ladder's public callables, closure first and front door last.
WRAPPED: tuple[Target, ...] = (
    Target("compiled.run_serve", "repro.backend.compiled", "CompiledExecutable", "run_serve"),
    Target("compiled.run_finals", "repro.backend.compiled", "CompiledExecutable", "run_finals"),
    Target("controller.execute", "repro.controller.executor", "PlutoController", "execute"),
    Target(
        "controller.execute_fused",
        "repro.controller.executor",
        "PlutoController",
        "execute_fused",
    ),
    Target("dispatch.execute", "repro.controller.dispatch", "ParallelDispatcher", "execute"),
    Target(
        "dispatch.merged_makespan_ns",
        "repro.controller.dispatch",
        None,
        "merged_makespan_ns",
    ),
    Target("session.run", "repro.api.session", "PlutoSession", "run"),
    Target("plan.plan_program", "repro.plan.planner", None, "plan_program"),
    Target("opt.optimize_cached", "repro.opt.pipeline", None, "optimize_cached"),
    Target("analyze.verify_cached", "repro.analyze.verifier", None, "verify_cached"),
    Target(
        "compiler.compile_cached_with_key",
        "repro.api.session",
        None,
        "compile_cached_with_key",
    ),
    Target(
        "compiled.compiled_exec_cached",
        "repro.backend.compiled",
        None,
        "compiled_exec_cached",
    ),
)

#: Per-layer self-time metric -> the wrapped callables it sums.
SELF_TIME_METRICS: dict[str, tuple[str, ...]] = {
    "compiled.closure_self_us": ("compiled.run_serve", "compiled.run_finals"),
    "controller.execute_self_us": ("controller.execute", "controller.execute_fused"),
    "dispatch.execute_self_us": ("dispatch.execute",),
    "dispatch.makespan_us": ("dispatch.merged_makespan_ns",),
    "session.run_self_us": ("session.run",),
    "plan.plan_program_us": ("plan.plan_program",),
    "opt.optimize_us": ("opt.optimize_cached",),
    "analyze.verify_us": ("analyze.verify_cached",),
    "compiler.compile_us": ("compiler.compile_cached_with_key",),
    "compiled.build_us": ("compiled.compiled_exec_cached",),
}


class Tracer:
    """Installs span-recording wrappers and aggregates what they record.

    Single-threaded: the benchmark's one generating thread is the only
    caller of the wrapped callables in its process.
    """

    def __init__(self, targets: tuple[Target, ...] = WRAPPED) -> None:
        self.targets = targets
        # One row per span: which target, when, and the enclosing span.
        self._names = array("q")
        self._starts = array("q")
        self._ends = array("q")
        self._parents = array("q")
        self._stack: list[int] = []
        self._originals = [target.original() for target in targets]
        self._wrappers = [
            self._wrap(index, original)
            for index, original in enumerate(self._originals)
        ]
        self.installed = False

    def _wrap(self, name_id: int, function):
        names, starts, ends = self._names, self._starts, self._ends
        parents, stack = self._parents, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return functools.wraps(function)(traced)

    def install(self) -> None:
        """Replace every target with its span-recording wrapper."""
        if self.installed:
            return
        for target, wrapper in zip(self.targets, self._wrappers):
            setattr(target.holder(), target.attribute, wrapper)
        self.installed = True

    def remove(self) -> None:
        """Put every original callable back."""
        if not self.installed:
            return
        for target, original in zip(self.targets, self._originals):
            setattr(target.holder(), target.attribute, original)
        self.installed = False

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.remove()

    @property
    def span_count(self) -> int:
        """Spans recorded so far."""
        return len(self._names)

    def totals(self) -> dict[str, tuple[int, int]]:
        """Target name -> (summed self time in ns, call count)."""
        count = len(self._names)
        width = len(self.targets)
        if not count:
            return {target.name: (0, 0) for target in self.targets}
        # Copies, so the columns stay appendable after aggregation.
        names = np.array(self._names, dtype=np.int64)
        parents = np.array(self._parents, dtype=np.int64)
        durations = np.array(self._ends, dtype=np.int64) - np.array(
            self._starts, dtype=np.int64
        )
        nested = parents >= 0
        children = np.zeros(count, dtype=np.int64)
        np.add.at(children, parents[nested], durations[nested])
        self_ns = np.bincount(names, weights=durations - children, minlength=width)
        calls = np.bincount(names, minlength=width)
        return {
            target.name: (int(self_ns[index]), int(calls[index]))
            for index, target in enumerate(self.targets)
        }
