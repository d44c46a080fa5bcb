"""Low-overhead end-to-end request tracing.

A :class:`RequestTrace` is a tree of :class:`Span` records with monotonic
``time.perf_counter_ns`` timestamps.  Tracing is off by default and every
instrumentation point collapses to a single boolean check plus a no-op
context manager, so the hot serving path pays under 5% with tracing
enabled (``benchmarks/test_obs_overhead.py`` measures it and
``benchmarks/perf_track.py`` gates it) and effectively nothing with it
disabled.

The active trace travels through the stack via a :class:`contextvars.ContextVar`
so deeply nested layers (optimizer passes, the analytic scheduler, the
compile cache) can attach spans without any API plumbing.  Traces are
picklable, which lets :class:`repro.serve.pool.PlutoWorkerPool` ship a
worker-side trace back across the process boundary and graft it into the
pool-level trace (see :meth:`RequestTrace.graft`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar, Token
from typing import Any, Iterator

__all__ = [
    "NOOP_SPAN",
    "RequestTrace",
    "Span",
    "activate",
    "current_trace",
    "deactivate",
    "enable_tracing",
    "new_trace",
    "span_of",
    "stage",
    "tracing",
    "tracing_enabled",
]

_ENABLED: bool = False

#: Bound once so the span scopes skip the ``time`` attribute lookup.
_now = time.perf_counter_ns

_ACTIVE: ContextVar["RequestTrace | None"] = ContextVar(
    "pluto_active_request_trace", default=None
)


def tracing_enabled() -> bool:
    """Return whether tracing is globally enabled in this process."""

    return _ENABLED


def enable_tracing(on: bool = True) -> None:
    """Globally enable (or disable) tracing for this process."""

    global _ENABLED
    _ENABLED = on


@contextmanager
def tracing(on: bool = True) -> Iterator[None]:
    """Scoped :func:`enable_tracing`: restores the previous state on exit."""

    global _ENABLED
    previous = _ENABLED
    _ENABLED = on
    try:
        yield
    finally:
        _ENABLED = previous


class Span:
    """One timed stage of a request, possibly with nested child stages.

    ``start_ns`` comes from ``time.perf_counter_ns`` and is therefore only
    meaningful relative to other spans recorded in the same process;
    :meth:`RequestTrace.graft` rebases spans that crossed a process boundary.

    A plain ``__slots__`` class rather than a dataclass: spans are the unit
    of allocation on the traced hot path, and the <5% overhead gate in
    ``benchmarks/perf_track.py`` is won or lost on their cost.
    """

    __slots__ = (
        "name",
        "start_ns",
        "duration_ns",
        "attributes",
        "children",
        "_trace",
    )

    #: Bound by stage()/span_of()/RequestTrace.span() before __enter__,
    #: deleted again on __exit__; unset on completed spans.
    _trace: "RequestTrace"

    def __init__(
        self,
        name: str,
        start_ns: int = 0,
        duration_ns: int = 0,
        attributes: dict[str, Any] | None = None,
        children: list["Span"] | None = None,
    ) -> None:
        self.name = name
        self.start_ns = start_ns
        self.duration_ns = duration_ns
        # ``attributes``/``children`` stay unset slots for bare leaf spans
        # (the common case); __getattr__ materialises them on first access.
        # Surviving allocations are what tip extra gen-0 GC runs into traced
        # serving bursts, so every per-span container matters here.
        if attributes is not None:
            self.attributes = attributes
        if children is not None:
            self.children = children

    def __getattr__(self, item: str) -> Any:
        # Only reached when a slot is unset — i.e. the lazy containers.
        if item == "attributes":
            attributes: dict[str, Any] = {}
            self.attributes = attributes
            return attributes
        if item == "children":
            children: list["Span"] = []
            self.children = children
            return children
        raise AttributeError(item)

    # Spans double as their own context managers: :func:`stage` and
    # :func:`span_of` bind ``_trace`` and the ``with`` block opens/closes
    # the span with no separate scope allocation.

    def __enter__(self) -> "Span":
        trace = self._trace
        stack = trace._stack
        if stack:
            stack[-1].children.append(self)
        else:
            trace.spans.append(self)
        stack.append(self)
        self.start_ns = _now()
        return self

    def __exit__(self, *exc: object) -> None:
        self.duration_ns = _now() - self.start_ns
        trace = self._trace
        stack = trace._stack
        if stack and stack[-1] is self:
            stack.pop()
        del self._trace  # break the span->trace->span cycle

    def __repr__(self) -> str:
        return (
            f"Span(name={self.name!r}, start_ns={self.start_ns}, "
            f"duration_ns={self.duration_ns}, attributes={self.attributes!r}, "
            f"children={self.children!r})"
        )

    def set(self, **attributes: Any) -> None:
        """Attach key/value attributes to this span."""

        self.attributes.update(attributes)

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth first."""

        yield self
        for child in self.children:
            yield from child.walk()

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns


class _NoopSpan:
    """Shared do-nothing span used when tracing is off or no trace is active."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attributes: Any) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class RequestTrace:
    """A tree of spans describing one request's trip through the stack.

    A plain class (one allocation per served request) with a ``__dict__``:
    the pickle hooks below rely on it, and the metrics layer pins memoized
    accounting onto traces via ``__dict__`` as well.
    """

    def __init__(
        self,
        name: str,
        request_id: int | None = None,
        attributes: dict[str, Any] | None = None,
        spans: list[Span] | None = None,
    ) -> None:
        self.name = name
        self.request_id = request_id
        self.attributes = {} if attributes is None else attributes
        self.spans = [] if spans is None else spans
        self._stack: list[Span] = []

    def __repr__(self) -> str:
        return (
            f"RequestTrace(name={self.name!r}, request_id={self.request_id!r}, "
            f"attributes={self.attributes!r}, spans={self.spans!r})"
        )

    # -- recording ---------------------------------------------------------

    def span(self, name: str, **attributes: Any) -> Span:
        """Open a timed child span as a context manager."""

        span = Span(name, 0, 0, attributes or None)
        span._trace = self
        return span

    def add_span(
        self,
        name: str,
        duration_ns: int,
        *,
        start_ns: int | None = None,
        **attributes: Any,
    ) -> Span:
        """Record an already-measured span (e.g. queue wait) explicitly."""

        if start_ns is None:
            start_ns = _now() - duration_ns
        span = Span(name, start_ns, duration_ns, attributes or None)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.spans.append(span)
        return span

    def annotate(self, **attributes: Any) -> None:
        """Attach key/value attributes to the trace as a whole."""

        self.attributes.update(attributes)

    def graft(
        self,
        other: "RequestTrace",
        *,
        under: str = "worker",
        start_ns: int | None = None,
        duration_ns: int | None = None,
        **attributes: Any,
    ) -> Span:
        """Splice another trace's spans under a new top-level wrapper span.

        Used to merge a worker-process trace into a pool-level trace: the
        worker's ``perf_counter_ns`` clock is unrelated to ours, so its spans
        are shifted such that the earliest one aligns with the wrapper span's
        start.  The wrapper's duration defaults to the grafted trace's
        top-level total so stage sums stay within the end-to-end latency.
        """

        if duration_ns is None:
            duration_ns = other.total_ns
        if start_ns is None:
            start_ns = time.perf_counter_ns() - duration_ns
        wrapper = self.add_span(under, duration_ns, start_ns=start_ns, **attributes)
        if other.attributes:
            wrapper.attributes.setdefault("worker_attributes", dict(other.attributes))
        if other.spans:
            offset = start_ns - min(span.start_ns for span in other.spans)
            for span in other.spans:
                for node in span.walk():
                    node.start_ns += offset
                wrapper.children.append(span)
        return wrapper

    # -- queries -----------------------------------------------------------

    @property
    def total_ns(self) -> int:
        """Sum of top-level span durations (stage time accounted so far)."""

        return sum(span.duration_ns for span in self.spans)

    def stage_totals(self) -> dict[str, int]:
        """Aggregate top-level span durations by stage name."""

        totals: dict[str, int] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0) + span.duration_ns
        return totals

    def find(self, name: str) -> Span | None:
        """Return the first span (depth first) with the given name."""

        for top in self.spans:
            for span in top.walk():
                if span.name == name:
                    return span
        return None

    def walk(self) -> Iterator[Span]:
        """Yield every span in the trace, depth first."""

        for span in self.spans:
            yield from span.walk()

    # -- pickling ----------------------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        state["_stack"] = []  # never ship open spans across a process boundary
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)


def new_trace(name: str, *, request_id: int | None = None) -> RequestTrace | None:
    """Create a trace when tracing is enabled, else ``None``."""

    if not _ENABLED:
        return None
    return RequestTrace(name=name, request_id=request_id)


def current_trace() -> RequestTrace | None:
    """Return the trace active on this context, if any."""

    return _ACTIVE.get()


def activate(trace: RequestTrace | None) -> "Token[RequestTrace | None] | None":
    """Make ``trace`` the active trace; returns a token for :func:`deactivate`."""

    if trace is None:
        return None
    return _ACTIVE.set(trace)


def deactivate(token: "Token[RequestTrace | None] | None") -> None:
    """Undo a previous :func:`activate`."""

    if token is not None:
        _ACTIVE.reset(token)


def span_of(
    trace: RequestTrace | None, name: str, **attributes: Any
) -> "Span | _NoopSpan":
    """Open a span on ``trace``, or a no-op when ``trace`` is ``None``."""

    if trace is None:
        return NOOP_SPAN
    span = Span(name, 0, 0, attributes or None)
    span._trace = trace
    return span


def stage(name: str, **attributes: Any) -> "Span | _NoopSpan":
    """Open a span on the context-active trace; a cheap no-op otherwise.

    This is the instrumentation entry point used by inner layers (planner,
    optimizer, compiler, scheduler): one global boolean check when tracing is
    disabled, one ``ContextVar`` read when enabled.
    """

    if not _ENABLED:
        return NOOP_SPAN
    trace = _ACTIVE.get()
    if trace is None:
        return NOOP_SPAN
    span = Span(name, 0, 0, attributes or None)
    span._trace = trace
    return span
