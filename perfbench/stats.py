"""Percentiles that refuse thin tails, medians scaled to the reference
host speed, and the metric declarations.

Every metric the benchmark prints is declared once, in ``BENCHMARK.json``
at the repository root; :func:`emit` refuses to print a metric set that
differs from the declaration, so code and declaration cannot drift.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "MIN_BEYOND",
    "TooFewSamples",
    "percentile",
    "samples_beyond",
    "window_size",
    "scaled_time",
    "scaled_rate",
    "declaration",
    "declared_units",
    "emit",
]

#: A reported percentile needs at least this many samples above it.
MIN_BEYOND = 10

ROOT = Path(__file__).resolve().parent.parent
DECLARATION = ROOT / "BENCHMARK.json"


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q``-th percentile."""
    return int(count * (100 - Fraction(str(q))) // 100)


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, refusing one with a thin tail.

    A p99 of 200 samples is the second-largest sample, which says more
    about one stall than about the distribution; at least
    :data:`MIN_BEYOND` samples must lie beyond the reported percentile.
    """
    beyond = samples_beyond(len(samples), q)
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q} of {len(samples)} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def window_size(q: float, period: int) -> int:
    """Fewest whole rounds of ``period`` samples that support the ``q``-th percentile."""
    size = period
    while samples_beyond(size, q) < MIN_BEYOND:
        size += period
    return size


def scaled_time(segments: Sequence[tuple[float, float]]) -> float:
    """Median over segments of a host time divided by the segment's slowdown.

    Each segment is ``(value, slowdown)``: a statistic of a stretch of
    the run and the host slowdown measured next to it (see
    :mod:`perfbench.hostspeed`).
    """
    if not segments:
        raise TooFewSamples("no segment of the run was measured")
    return float(np.median([value / slow for value, slow in segments]))


def scaled_rate(segments: Sequence[tuple[float, float]]) -> float:
    """Median over segments of a rate multiplied by the segment's slowdown."""
    if not segments:
        raise TooFewSamples("no segment of the run was measured")
    return float(np.median([value * slow for value, slow in segments]))


def declaration(path: Path = DECLARATION) -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(path.read_text())


def declared_units(kind: str, path: Path = DECLARATION) -> dict[str, str]:
    """Metric name -> unit for ``kind`` (``end_to_end`` or ``per_layer``)."""
    return {entry["name"]: entry["unit"] for entry in declaration(path)[kind]}


def emit(
    values: Mapping[str, float], kind: str, path: Path = DECLARATION
) -> dict[str, dict]:
    """``{name: {"value", "unit"}}`` for exactly the declared metrics."""
    units = declared_units(kind, path)
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise ValueError(
            f"{kind} metrics differ from {path.name}: missing {missing}, "
            f"undeclared {extra}"
        )
    return {
        name: {"value": float(values[name]), "unit": units[name]}
        for name in units
    }
