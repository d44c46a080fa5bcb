"""How fast the host runs right now, from a fixed kernel.

The benchmark runs on a few vCPUs of a host shared with other tenants.
Their load changes how fast the same code runs, by up to 2x, for minutes
at a time: one 20 s run-small loop read 52 µs per request for its first
seconds and 74–82 µs for the rest, with no quiet window in between.  No
statistic over one run's own requests removes that, and two sets of runs
taken minutes apart disagree by more than any bound the benchmark may
set.

So the timed loops stop between segments of requests and time this
kernel.  :func:`slowdown` is the kernel's time over its time on a quiet
host of the reference machine (:data:`REFERENCE_S`); each segment's host
times are divided by the slowdown measured next to it, and its rates
multiplied.  A change to the program leaves the kernel alone, so it
moves the scaled metrics in full.

The kernel is interpreter work plus LUT queries, the two kinds of host
work the program does, and each workload picks the vector size its
queries run at (``workloads.KERNEL_ELEMENTS``): the neighbours' load
slows a 65536-element query about 3x and interpreter work about 1.5x,
so a kernel of the wrong size scales a workload by the wrong amount.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["REFERENCE_S", "kernel_seconds", "slowdown"]

#: Vector size -> the kernel's time (fastest of :data:`REPS`) on a quiet
#: host of the reference machine, a 2-vCPU Xeon VM: the fastest reading
#: of a 15 s probe, in which the median reading was 1.5-1.65x slower.
REFERENCE_S = {256: 400e-6, 4096: 220e-6, 65536: 330e-6}
#: Kernel runs per reading; the fastest is kept, dropping the runs a
#: context switch or an interrupt landed in.
REPS = 5
#: Elements the kernel's LUT queries cover in all (at least one query).
QUERY_ELEMENTS = 16384

_TABLE = np.arange(256, dtype=np.intp)[::-1].copy()


def _kernel(data: np.ndarray, index: np.ndarray, looked_up: np.ndarray) -> int:
    # Interpreter work: arithmetic, dict stores and loop overhead.
    total = 0
    seen = {}
    for i in range(2000):
        seen[i & 63] = total
        total += i * (i & 7)
    # LUT queries, chained as a program's calls are.  They write into
    # preallocated vectors: a fresh process and one that has run a
    # workload allocate large temporaries at different costs, and the
    # kernel must read the host, not the allocator's state.
    np.copyto(looked_up, data)
    for _ in range(max(1, QUERY_ELEMENTS // len(data))):
        np.multiply(looked_up, 3, out=index)
        np.bitwise_and(index, 255, out=index)
        np.take(_TABLE, index, out=looked_up)
        np.bitwise_xor(looked_up, data, out=looked_up)
    return total + int(looked_up[-1]) + len(seen)


def kernel_seconds(elements: int) -> float:
    """The kernel's time now at ``elements`` per query: the fastest of :data:`REPS`."""
    data = np.arange(elements, dtype=np.intp)
    index, looked_up = np.empty_like(data), np.empty_like(data)
    clock = time.perf_counter_ns
    best = None
    for _ in range(REPS):
        began = clock()
        _kernel(data, index, looked_up)
        elapsed = clock() - began
        best = elapsed if best is None else min(best, elapsed)
    return best / 1e9


def slowdown(elements: int) -> float:
    """How many times slower than on a quiet host the kernel runs now."""
    return kernel_seconds(elements) / REFERENCE_S[elements]
