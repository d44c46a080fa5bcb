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
placement for a single shard) and values of the wrong type fail with
structured errors instead of deep inside dispatch.
"""

from __future__ import annotations

import numbers
import operator
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

#: The integer fields of a plan, with the noun their range error uses.
_COUNTS = (
    ("shards", "shard count"),
    ("channels", "plan channel count"),
    ("ranks", "plan rank count"),
)


def _plan_error(code: str, message: str, hint: str) -> VerificationError:
    """A plan's construction error: one :class:`Diagnostic` record."""
    from repro.analyze.diagnostics import Diagnostic, Severity

    diagnostic = Diagnostic(severity=Severity.ERROR, code=code, message=message, hint=hint)
    return VerificationError((diagnostic,), subject="execution plan")


@dataclass(frozen=True)
class ExecutionPlan:
    """One execution configuration for a recorded pLUTo program.

    ``shards`` partitions the element space into that many slices, each
    run in a bank of its own (``None`` means one shard).  ``channels`` /
    ``ranks`` are the placement the shards spread over: the default
    ``1`` / ``1`` keeps them on one rank of one channel, an integer
    narrows the device to that many channels or ranks, and ``None``
    takes all of the device's, so
    ``ExecutionPlan(shards=8, channels=None, ranks=None)`` spreads eight
    shards over the whole device.  ``None`` and the device's own count
    are one placement: a run resolves ``None`` against its engine, and
    the resolved plan is the one its result carries.  A placement wider
    than one rank needs ``shards > 1``.

    ``optimize`` runs the program optimizer before compilation
    (``None`` defers to ``PlutoConfig(optimize=...)``).  A plan names no
    host execution tier: the controller takes the compiled closure
    whenever the backend can run it, and the modelled cost is the same
    either way.

    ``mode="auto"`` hands the geometry decision to the cost-based
    planner.  Pinning ``optimize`` on an auto plan narrows the search;
    any pinned geometry, ``shards=1`` included, contradicts it and is
    rejected.
    """

    mode: str = "explicit"
    shards: int | None = None
    channels: int | None = 1
    ranks: int | None = 1
    optimize: bool | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ConfigurationError(
                f"unknown plan mode {self.mode!r}; expected one of {list(_MODES)}"
            )
        for name, count in _COUNTS:
            value = getattr(self, name)
            if value is None:
                continue
            if type(value) is not int:
                if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                    raise ConfigurationError(
                        f"plan {name} must be an integer or None, got {value!r}"
                    )
                # A NumPy integer is stored as an int, so the plan's hash,
                # label and pickled form do not depend on its type.
                value = operator.index(value)
                object.__setattr__(self, name, value)
            if value < 1:
                raise ConfigurationError(f"{count} must be >= 1")
        if self.optimize is not None and not isinstance(self.optimize, bool):
            raise ConfigurationError(
                f"plan optimize must be a bool or None, got {self.optimize!r}"
            )
        if self.is_auto:
            pinned = [
                f"{name}={value}"
                for name, value, free in (
                    ("shards", self.shards, None),
                    ("channels", self.channels, 1),
                    ("ranks", self.ranks, 1),
                )
                if value != free
            ]
            if pinned:
                raise _plan_error(
                    "plan-contradiction",
                    "an auto plan delegates the execution geometry to the "
                    f"planner but pins {', '.join(pinned)}",
                    "drop the explicit geometry, or use mode='explicit' to run "
                    "exactly that configuration",
                )
        elif self.hierarchical and self.effective_shards == 1:
            raise _plan_error(
                "plan-placement",
                "a placement over channels and ranks spreads shards, but this "
                "plan runs one shard",
                "pass shards > 1 or drop channels=/ranks=",
            )

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
    def hierarchical(self) -> bool:
        """Whether the shards spread wider than one rank of one channel."""
        return (self.channels, self.ranks) != (1, 1)

    def label(self) -> str:
        """Compact description, e.g. ``shards=16+opt`` or ``shards=8@allx2``."""
        if self.is_auto:
            return "auto"
        label = f"shards={self.effective_shards}"
        if self.hierarchical:
            channels, ranks = (
                "all" if level is None else level for level in (self.channels, self.ranks)
            )
            label += f"@{channels}x{ranks}"
        return label + "+opt" if self.optimize else label


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
        capacity = (
            (plan.channels or geometry.channels) * (plan.ranks or geometry.ranks) * geometry.banks
        )
        overcommit = shards_overcommit_diagnostic(plan.shards, capacity)
        if overcommit is not None:
            diagnostics.append(overcommit)
    return tuple(diagnostics)
