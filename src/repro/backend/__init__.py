"""Pluggable execution backends for compiled pLUTo programs.

The controller delegates every functional effect to an
:class:`ExecutionBackend`; the cost accounting (command ROM + cost model)
is backend-independent, so the two shipped backends produce identical
latency/energy traces while differing by orders of magnitude in wall-clock
speed:

* ``"functional"`` — the bit-exact :class:`PlutoSubarray` row-sweep path.
* ``"vectorized"`` — whole-program NumPy gather/bitwise execution.

On top of the vectorized tier, :mod:`repro.backend.compiled` lowers a
whole compiled program into a single NumPy closure kept on the program
(zero per-instruction Python dispatch).  The controller alone decides
when an execution takes it: on a batched-capable backend, when a program
structure key is available.
"""

from repro.backend.base import ExecutionBackend, resolve_backend
from repro.backend.compiled import CompiledExecutable
from repro.backend.functional import FunctionalBackend
from repro.backend.vectorized import VectorizedBackend

__all__ = [
    "CompiledExecutable",
    "ExecutionBackend",
    "FunctionalBackend",
    "VectorizedBackend",
    "resolve_backend",
]
