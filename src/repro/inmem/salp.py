"""Subarray-level parallelism (MASA / SALP).

MASA overlaps accesses to different subarrays of the same bank, letting
multiple subarrays keep rows open and operate concurrently.  For pLUTo this
means many Row Sweeps can proceed in parallel (Section 5.5); the achievable
parallelism is bounded by the tFAW activation-rate constraint (Section 8.7).

:func:`salp_speedup` is the first-order model the figures use:
performance scales linearly with the number of parallel subarrays, then
is derated by the tFAW activation-rate ceiling.
"""

from __future__ import annotations

from repro.dram.timing import TimingParameters
from repro.errors import ConfigurationError

__all__ = ["salp_speedup"]


def salp_speedup(
    subarrays: int,
    timing: TimingParameters,
    *,
    act_interval_ns: float | None = None,
    tfaw_fraction: float = 0.0,
) -> float:
    """First-order speedup of running ``subarrays`` sweeps in parallel.

    Without a tFAW constraint the speedup is exactly ``subarrays``.  With a
    constraint, the aggregate activation rate across all subarrays cannot
    exceed ``4 / tFAW``; the speedup saturates at the ratio between that
    ceiling and a single subarray's activation rate.

    Parameters
    ----------
    subarrays:
        Degree of subarray-level parallelism.
    timing:
        DRAM timing parameters (used for the per-subarray activation rate).
    act_interval_ns:
        Time between consecutive activations of one sweep; defaults to the
        BSA spacing (tRCD + tRP).
    tfaw_fraction:
        Fraction of the nominal tFAW to enforce (0 disables the constraint,
        matching the paper's default "unthrottled" configuration).
    """
    if subarrays <= 0:
        raise ConfigurationError("subarray count must be positive")
    if act_interval_ns is None:
        act_interval_ns = timing.t_rcd + timing.t_rp
    if act_interval_ns <= 0:
        raise ConfigurationError("activation interval must be positive")
    ideal = float(subarrays)
    effective_tfaw = timing.t_faw * tfaw_fraction
    if effective_tfaw <= 0:
        return ideal
    per_subarray_rate = 1.0 / act_interval_ns
    ceiling_rate = 4.0 / effective_tfaw
    max_parallelism = ceiling_rate / per_subarray_rate
    return min(ideal, max(1.0, max_parallelism))
