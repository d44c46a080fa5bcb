"""The unified execution front door: :class:`ExecutionPlan`.

Before this module, callers tuned execution with a zoo of scattered
keywords — ``shards=``, ``channels=``, ``ranks=``, ``optimize=`` and the
backend selection — each living on a different entry point.  An
:class:`ExecutionPlan` is one frozen, hashable value object describing
*how* a recorded program should execute:

* ``mode="explicit"`` (default): execute exactly this configuration.
* ``mode="auto"``: defer the configuration to the cost-based planner
  (:mod:`repro.plan.planner`), which prices candidate configurations
  with the analytic makespan model and picks the cheapest.  The session
  entry points also accept the string ``"auto"`` as shorthand.

Plans validate at construction through the shared
:class:`~repro.analyze.diagnostics.Diagnostic` machinery, so
contradictory settings (an auto plan pinning explicit geometry, a
placement wider than it is allowed to be) fail with structured
diagnostics instead of deep inside dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, VerificationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analyze.diagnostics import Diagnostic
    from repro.dram.geometry import DRAMGeometry

__all__ = [
    "ExecutionPlan",
    "resolve_plan",
    "plan_conflict_diagnostics",
]


_MODES = ("explicit", "auto")


@dataclass(frozen=True)
class ExecutionPlan:
    """One execution configuration for a recorded pLUTo program.

    ``shards`` partitions the element space across DRAM banks
    (``None`` means the route's default: 1 for plain runs, every bank in
    the device for hierarchical runs).  ``hierarchical`` spreads the
    shards over the channel/rank/bank hierarchy; ``channels`` / ``ranks``
    optionally *narrow* that placement to a subset of the device's
    interface levels (they require ``hierarchical=True``).

    ``optimize`` runs the program optimizer before compilation
    (``None`` defers to ``PlutoConfig(optimize=...)``).  A plan names no
    host execution tier: the controller takes the compiled closure
    whenever the backend can run it, and the modelled cost is the same
    either way.

    ``mode="auto"`` hands the geometry decision to the cost-based
    planner; pinning ``optimize`` on an auto plan narrows the search,
    but pinning geometry (``shards`` / ``hierarchical`` / ``channels`` /
    ``ranks``) contradicts it and is rejected.
    """

    mode: str = "explicit"
    shards: int | None = None
    hierarchical: bool = False
    channels: int | None = None
    ranks: int | None = None
    optimize: bool | None = None

    def __post_init__(self) -> None:
        from repro.analyze.diagnostics import Diagnostic, Severity

        if self.mode not in _MODES:
            raise ConfigurationError(
                f"unknown plan mode {self.mode!r}; expected one of {list(_MODES)}"
            )
        if self.shards is not None and self.shards < 1:
            raise ConfigurationError("shard count must be >= 1")
        if self.channels is not None and self.channels < 1:
            raise ConfigurationError("plan channel count must be >= 1")
        if self.ranks is not None and self.ranks < 1:
            raise ConfigurationError("plan rank count must be >= 1")
        diagnostics: list[Diagnostic] = []
        if not self.hierarchical and (
            self.channels is not None or self.ranks is not None
        ):
            diagnostics.append(
                Diagnostic(
                    severity=Severity.ERROR,
                    code="plan-placement",
                    message=(
                        "channel/rank placement applies to hierarchical "
                        "execution only; this plan has hierarchical=False"
                    ),
                    hint="pass hierarchical=True or drop channels=/ranks=",
                )
            )
        if self.mode == "auto" and self._pinned_geometry():
            pinned = ", ".join(self._pinned_geometry())
            diagnostics.append(
                Diagnostic(
                    severity=Severity.ERROR,
                    code="plan-contradiction",
                    message=(
                        "an auto plan delegates the execution geometry to "
                        f"the planner but pins {pinned}"
                    ),
                    hint=(
                        "drop the explicit geometry, or use mode='explicit' "
                        "to run exactly that configuration"
                    ),
                )
            )
        if diagnostics:
            raise VerificationError(diagnostics, subject="execution plan")

    def _pinned_geometry(self) -> list[str]:
        """Names of explicitly pinned geometry fields (empty when free)."""
        pinned: list[str] = []
        if self.shards is not None:
            pinned.append(f"shards={self.shards}")
        if self.hierarchical:
            pinned.append("hierarchical=True")
        if self.channels is not None:
            pinned.append(f"channels={self.channels}")
        if self.ranks is not None:
            pinned.append(f"ranks={self.ranks}")
        return pinned

    @classmethod
    def auto(cls, *, optimize: bool | None = None) -> "ExecutionPlan":
        """An auto plan, optionally pinning the optimizer."""
        return cls(mode="auto", optimize=optimize)

    @property
    def is_auto(self) -> bool:
        """Whether the planner picks the geometry for this plan."""
        return self.mode == "auto"

    @property
    def effective_shards(self) -> int:
        """The shard count this plan executes with (1 when unset)."""
        return self.shards if self.shards is not None else 1

    @property
    def placement(self) -> tuple[int | None, int | None]:
        """The ``(channels, ranks)`` this plan's shards spread over.

        A bank-sharded plan runs on one channel and one rank; a
        hierarchical plan keeps its narrowing, where ``None`` means the
        device's own count.
        """
        return (self.channels, self.ranks) if self.hierarchical else (1, 1)

    def label(self) -> str:
        """Compact human-readable description, e.g. ``shards=16+opt``."""
        if self.is_auto:
            return "auto"
        parts: list[str] = []
        if self.hierarchical:
            placement = ""
            if self.channels is not None or self.ranks is not None:
                placement = f"@{self.channels or 'all'}x{self.ranks or 'all'}"
            shards = "device" if self.shards is None else str(self.shards)
            parts.append(f"hierarchical{placement}:{shards}")
        else:
            parts.append(f"shards={self.effective_shards}")
        if self.optimize:
            parts.append("opt")
        return "+".join(parts)


def resolve_plan(plan: "ExecutionPlan | str | None") -> ExecutionPlan:
    """Normalize a ``plan=`` argument to an :class:`ExecutionPlan`.

    ``None`` means the default explicit plan (one shard, engine-config
    optimize); the string ``"auto"`` is shorthand for
    :meth:`ExecutionPlan.auto`.  The two named plans are shared
    singletons — resolution on the hot ``run()`` path costs no
    allocation.
    """
    if plan is None:
        return _DEFAULT_PLAN
    if isinstance(plan, str):
        if plan == "auto":
            return _AUTO_PLAN
        raise ConfigurationError(
            f"unknown plan {plan!r}; expected 'auto' or an ExecutionPlan"
        )
    if isinstance(plan, ExecutionPlan):
        return plan
    raise ConfigurationError(
        f"plan must be an ExecutionPlan, 'auto', or None, got {type(plan).__name__}"
    )


_DEFAULT_PLAN = ExecutionPlan()
_AUTO_PLAN = ExecutionPlan.auto()


def plan_conflict_diagnostics(
    plan: ExecutionPlan, geometry: "DRAMGeometry"
) -> "tuple[Diagnostic, ...]":
    """Diagnostics for a plan that contradicts a device geometry.

    Used by ``PlutoConfig`` to reject contradictory settings at
    construction — a shard count beyond the addressable banks, or a
    channel/rank placement wider than the device — instead of failing
    deep inside dispatch.  Returns an empty tuple when the plan fits.
    """
    from repro.analyze.diagnostics import Diagnostic, Severity
    from repro.analyze.verifier import shards_overcommit_diagnostic

    diagnostics: list[Diagnostic] = []
    if plan.channels is not None and plan.channels > geometry.channels:
        diagnostics.append(
            Diagnostic(
                severity=Severity.ERROR,
                code="plan-placement",
                message=(
                    f"plan spreads shards over {plan.channels} channels but "
                    f"the geometry has {geometry.channels}"
                ),
                hint="raise PlutoConfig(channels=...) or narrow the plan",
            )
        )
    if plan.ranks is not None and plan.ranks > geometry.ranks:
        diagnostics.append(
            Diagnostic(
                severity=Severity.ERROR,
                code="plan-placement",
                message=(
                    f"plan spreads shards over {plan.ranks} ranks but "
                    f"the geometry has {geometry.ranks}"
                ),
                hint="raise PlutoConfig(ranks=...) or narrow the plan",
            )
        )
    if plan.shards is not None:
        channels, ranks = plan.placement
        capacity = (channels or geometry.channels) * (ranks or geometry.ranks) * geometry.banks
        overcommit = shards_overcommit_diagnostic(plan.shards, capacity)
        if overcommit is not None:
            diagnostics.append(overcommit)
    return tuple(diagnostics)
