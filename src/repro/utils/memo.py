"""A bounded insertion-ordered memo with hit/miss accounting.

The execution stack memoizes several expensive pure computations —
scheduler makespans, trace templates, hierarchical schedules — all with
the same needs: a hashable structural key, a size bound so long-running
services cannot grow without limit, and hit/miss counters surfaced
through ``PlutoSession.cache_stats()``.  :class:`BoundedMemo` implements
that once.  :class:`MemoCounters` is its counting half, for layers whose
products live elsewhere (the trace templates and closures each compiled
program keeps).
"""

from __future__ import annotations

from typing import Generic, Hashable, TypeVar

from repro.errors import ConfigurationError

__all__ = ["BoundedMemo", "MemoCounters"]

Value = TypeVar("Value")


class MemoCounters:
    """Hit, miss and bypass counters of one cache layer."""

    def __init__(self) -> None:
        self.reset()

    def note_uncached(self) -> None:
        """Record a query that bypassed the memo (unhashable key)."""
        self.uncached += 1

    def counts(self) -> dict[str, int]:
        """The three counters."""
        return {"hits": self.hits, "misses": self.misses, "uncached": self.uncached}

    def reset(self) -> None:
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

    def __init__(self, limit: int) -> None:
        if limit <= 0:
            raise ConfigurationError("memo limit must be positive")
        super().__init__()
        self.limit = limit
        self._entries: dict[Hashable, Value] = {}

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

    def stats(self) -> dict[str, int]:
        """Counters plus the current entry count."""
        return {**self.counts(), "size": len(self._entries)}

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._entries.clear()
        self.reset()
