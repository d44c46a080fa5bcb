"""Process-wide memo layers: one table, and the bounded memo they share.

The execution stack memoizes several expensive pure computations —
compiled programs, program artifacts, scheduler makespans, hierarchical
schedules — all with the same needs: a hashable structural key, a size
bound so long-running services cannot grow without limit, and hit/miss
counters.  :class:`BoundedMemo` implements that once.

Every process-wide memo registers in one table, under the name
``repro.api.session.cache_stats()`` reports it by, when it is built.
:func:`layer_stats` and :func:`clear_layers` read that table, and
through them so do ``cache_stats()``, ``clear_all_caches()`` and the
process-wide metrics registry's ``pluto_cache_*`` gauges, so building a
layer is enough to cover it.  The parts registered under one name make
one layer, their statistics merged in registration order: a
:class:`BoundedMemo`; a :class:`MemoCounters`, the counting half of a
memo whose products live elsewhere (the trace templates and closures
each compiled program keeps); a :func:`tally` of other counters; or a
``functools.lru_cache`` function (:func:`register_lru_cache`).
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Generic, Hashable, TypeVar

from repro.errors import ConfigurationError

__all__ = [
    "BoundedMemo",
    "MemoCounters",
    "clear_layers",
    "layer_stats",
    "register_layer",
    "register_lru_cache",
    "tally",
]

Value = TypeVar("Value")

#: The modules that build process-wide memo layers.  :func:`layer_stats`
#: imports them first, so the layers it reports never depend on which
#: modules the process has imported so far.
_LAYER_MODULES = (
    "repro.analyze.verifier",
    "repro.api.session",
    "repro.backend.compiled",
    "repro.controller.dispatch",
    "repro.controller.executor",
    "repro.core.lut",
    "repro.dram.analytic",
    "repro.opt.compose",
    "repro.opt.pipeline",
    "repro.serve.store",
)

#: Layer name -> the (statistics, clear) callables of its parts.
_TABLE: dict[str, list[tuple[Callable[[], dict[str, Any]], Callable[[], None]]]] = {}


def register_layer(
    name: str, stats: Callable[[], dict[str, Any]], clear: Callable[[], None]
) -> None:
    """Add a part to the layer ``name``: its statistics and its clear."""
    _TABLE.setdefault(name, []).append((stats, clear))


def layer_stats() -> dict[str, dict[str, Any]]:
    """Every layer's statistics, its parts' merged in registration order."""
    for module in _LAYER_MODULES:
        importlib.import_module(module)
    return {
        name: {key: value for stats, _ in parts for key, value in stats().items()}
        for name, parts in _TABLE.items()
    }


def clear_layers() -> None:
    """Clear every layer: drop its entries and zero its counters."""
    for parts in _TABLE.values():
        for _, clear in parts:
            clear()


def tally(name: str, **zeros: float) -> dict[str, float]:
    """Named counters registered as part of the layer ``name``.

    The owner increments the returned dict in place; clearing the layer
    sets every counter back to its value in ``zeros``.
    """
    counts = dict(zeros)
    register_layer(name, lambda: dict(counts), lambda: counts.update(zeros))
    return counts


def register_lru_cache(name: str, function: Any, label: str | None = None) -> None:
    """Register a ``functools.lru_cache`` function as part of the layer ``name``.

    Its hits, misses and size report under ``label``, or at the layer's
    top level without one; clearing the layer empties the cache.
    """

    def stats() -> dict[str, Any]:
        info = function.cache_info()
        counts = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
        return counts if label is None else {label: counts}

    register_layer(name, stats, function.cache_clear)


class MemoCounters:
    """Hit, miss and bypass counters of the memo layer ``name``.

    Registered when built; ``size`` counts the layer's entries each time
    its statistics are read.
    """

    def __init__(self, name: str, size: Callable[[], int]) -> None:
        self._size = size
        self.hits = 0
        self.misses = 0
        self.uncached = 0
        register_layer(name, self.stats, self.clear)

    def note_uncached(self) -> None:
        """Record a query that bypassed the memo (unhashable key)."""
        self.uncached += 1

    def stats(self) -> dict[str, int]:
        """The three counters plus the current size."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "uncached": self.uncached,
            "size": self._size(),
        }

    def clear(self) -> None:
        """Zero the counters."""
        self.hits = 0
        self.misses = 0
        self.uncached = 0


class BoundedMemo(MemoCounters, Generic[Value]):
    """An insertion-ordered memo evicting its oldest entry when full.

    ``get`` counts a hit or a miss; callers that cannot build a hashable
    key record the bypass with :meth:`note_uncached` so the statistics
    still account for every query.  ``None`` is not a storable value (a
    ``get`` returning ``None`` means "absent").
    """

    def __init__(self, name: str, limit: int) -> None:
        if limit <= 0:
            raise ConfigurationError("memo limit must be positive")
        self.limit = limit
        self._entries: dict[Hashable, Value] = {}
        super().__init__(name, self.__len__)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Value | None:
        """The cached value, counting a hit; ``None`` (a miss) otherwise."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def get_or_compute(self, key: Hashable | None, compute: Callable[[], Value]) -> Value:
        """The value under ``key``, or ``compute()`` stored under it on a miss.

        A ``None`` key (the query has no hashable key) computes without
        storing and counts as ``uncached``.
        """
        if key is None:
            self.uncached += 1
            return compute()
        value = self.get(key)
        if value is None:
            value = compute()
            self.put(key, value)
        return value

    def peek(self, key: Hashable) -> Value | None:
        """The cached value without touching the hit/miss counters."""
        return self._entries.get(key)

    def values(self) -> list[Value]:
        """Every cached value, oldest first."""
        return list(self._entries.values())

    def put(self, key: Hashable, value: Value) -> None:
        """Store ``value``, evicting the oldest entry at the size bound."""
        if len(self._entries) >= self.limit and key not in self._entries:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = value

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        self._entries.clear()
        super().clear()
