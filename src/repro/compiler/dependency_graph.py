"""Data-dependency analysis of pLUTo API programs.

The compiler analyses an application's data-dependency graph to plan
in-memory placement and alignment of data (Figure 5 d).  We build a
directed graph whose nodes are API calls and whose edges connect producers
to consumers of each vector, then derive a topological execution order and
per-vector lifetime information used by the allocator.
"""

from __future__ import annotations

import heapq

from repro.api.handles import ApiCall, PlutoVector
from repro.errors import CompilationError

__all__ = ["DependencyGraph"]


class DependencyGraph:
    """Producer/consumer graph over a list of API calls."""

    def __init__(self, calls: list[ApiCall]) -> None:
        self.calls = list(calls)
        producers: dict[str, int] = {}
        for index, call in enumerate(self.calls):
            if call.output.name in producers:
                raise CompilationError(
                    f"vector {call.output.name!r} is written by more than one "
                    "API call; pLUTo programs are single-assignment"
                )
            producers[call.output.name] = index
        #: Call index -> indices of the calls that read its output.
        successors: list[set[int]] = [set() for _ in self.calls]
        for index, call in enumerate(self.calls):
            for operand in call.inputs:
                producer = producers.get(operand.name)
                if producer is not None and producer != index:
                    successors[producer].add(index)
        self._order, self._depth = _topological_order(successors)

    # ------------------------------------------------------------------ #
    # Queries used by the compiler
    # ------------------------------------------------------------------ #
    def execution_order(self) -> list[ApiCall]:
        """API calls in a valid topological execution order.

        Ties are broken by original program order so the lowering is
        deterministic and matches what the programmer wrote when possible.
        """
        return [self.calls[node] for node in self._order]

    def external_inputs(self) -> list[PlutoVector]:
        """Vectors read by the program but never produced by it (user inputs)."""
        produced = {call.output.name for call in self.calls}
        seen: dict[str, PlutoVector] = {}
        for call in self.calls:
            for operand in call.inputs:
                if operand.name not in produced and operand.name not in seen:
                    seen[operand.name] = operand
        return list(seen.values())

    def outputs(self) -> list[PlutoVector]:
        """Vectors produced but never consumed (program results)."""
        consumed = {operand.name for call in self.calls for operand in call.inputs}
        return [call.output for call in self.calls if call.output.name not in consumed]

    def consumers_of(self, vector: PlutoVector) -> list[ApiCall]:
        """All calls that read ``vector``."""
        return [
            call
            for call in self.calls
            if any(operand.name == vector.name for operand in call.inputs)
        ]

    @property
    def depth(self) -> int:
        """Length of the longest dependency chain (critical path in calls)."""
        return self._depth


def _topological_order(successors: list[set[int]]) -> tuple[list[int], int]:
    """Kahn's algorithm, always emitting the smallest ready call index.

    Returns the order and the longest chain's length in calls, or raises
    :class:`~repro.errors.CompilationError` when the graph has a cycle.
    """
    indegree = [0] * len(successors)
    for targets in successors:
        for target in targets:
            indegree[target] += 1
    ready = [node for node, count in enumerate(indegree) if count == 0]
    heapq.heapify(ready)
    # Calls on the longest chain ending at each call, itself included.
    chain = [1] * len(successors)
    order: list[int] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for target in successors[node]:
            chain[target] = max(chain[target], chain[node] + 1)
            indegree[target] -= 1
            if indegree[target] == 0:
                heapq.heappush(ready, target)
    if len(order) < len(successors):
        raise CompilationError("the API program contains a dependency cycle")
    return order, max(chain, default=0)
