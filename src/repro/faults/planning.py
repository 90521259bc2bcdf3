"""Resilient placement planning: a primary plan plus per-device backups.

:func:`plan_with_fallback` precomputes, besides the optimal *primary*
placement, one backup placement per non-host candidate device that avoids
that device entirely -- so when a device fails outright (not per-attempt,
but "gone"), execution degrades to a pre-computed feasible plan instead of
re-planning under fire.  Each backup is itself optimal over the reduced
device set, verified by the same engines as the primary.

Dispatch boundary (the PR-6 pattern, extended):

* **Fault-free plans** (``retry=None``) delegate to
  :func:`repro.search.planner.plan_workload` -- exact polynomial DP where
  its boundary admits the workload/objective, streaming enumeration
  otherwise, with the usual recorded reason.
* **Fault-aware plans** (``retry=`` given) rank placements by
  *expected cost under faults*.  That objective couples consecutive tasks
  through survival factors but is still evaluated exactly by the vectorized
  fault engine; the DP lattice, however, compiles from the classic tables
  only, so fault-aware planning always **streams** the sub-space
  (``method="auto"``/``"enumerate"``) and ``method="dp"`` raises with the
  reason.  The sub-space is bounded by ``fallback_limit`` exactly like the
  classic enumeration fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..devices.tables import build_tables
from .models import FaultProfile
from .retry import RetryPolicy, TimeoutPolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..devices.simulator import SimulatedExecutor
    from ..tasks.chain import TaskChain
    from ..tasks.graph import TaskGraph

__all__ = ["DevicePlan", "FallbackPlan", "plan_with_fallback"]

#: Largest sub-space the fault-aware streaming planner will enumerate.
DEFAULT_FAULT_PLAN_LIMIT = 1 << 20


@dataclass(frozen=True)
class DevicePlan:
    """One component plan: a placement, its objective value and provenance."""

    objective: str
    placement: tuple[str, ...]
    label: str
    value: float
    #: Devices the plan was allowed to use.
    aliases: tuple[str, ...]
    #: ``"chain-dp"``/``"level-dp"``/``"enumeration"`` (fault-free, from the
    #: exact planner) or ``"fault-stream"`` (expected-cost enumeration).
    method: str
    #: Success probability under the fault profile (``None`` for fault-free plans).
    success_probability: float | None = None


@dataclass(frozen=True)
class FallbackPlan:
    """A primary placement plus one backup per non-host candidate device.

    ``backups[alias]`` is the optimal plan over the candidate set without
    ``alias``: if that device fails for good, switching to the backup keeps
    the workload running on surviving hardware with no re-planning.  Host
    failure is out of scope -- the host anchors I/O and orchestration, so
    losing it ends the application, not the placement.
    """

    objective: str
    workload: str
    aliases: tuple[str, ...]
    primary: DevicePlan
    backups: Mapping[str, DevicePlan]
    #: Why the fault-aware path streamed instead of using the DP (or ``None``
    #: when the exact planner served every component plan).
    dispatch_reason: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "backups", MappingProxyType(dict(self.backups)))

    def backup_for(self, alias: str) -> DevicePlan:
        """The pre-computed plan to switch to when ``alias`` fails."""
        try:
            return self.backups[alias]
        except KeyError as exc:
            raise KeyError(
                f"no backup plan for device {alias!r}; covered devices: "
                f"{sorted(self.backups)}"
            ) from exc

    def covered_devices(self) -> tuple[str, ...]:
        return tuple(self.backups)

    def summary(self) -> str:
        lines = [
            f"fallback plan for {self.workload!r} (objective: {self.objective})",
            f"  primary : {self.primary.label}  value={self.primary.value:.6g}"
            f"  [{self.primary.method}]",
        ]
        for alias in self.backups:
            plan = self.backups[alias]
            lines.append(
                f"  -{alias:<6}: {plan.label}  value={plan.value:.6g}  [{plan.method}]"
            )
        return "\n".join(lines)


def _fault_stream_plan(
    executor: "SimulatedExecutor",
    workload: "TaskChain | TaskGraph",
    objective: str,
    aliases: tuple[str, ...],
    retry: RetryPolicy,
    faults: FaultProfile | None,
    timeout: TimeoutPolicy | None,
    min_success: float,
    fallback_limit: int,
) -> DevicePlan:
    """Expected-cost-under-faults optimum of one device subset, by enumeration."""
    from ..offload.space import placement_matrix, space_size

    n_tasks = len(workload)
    size = space_size(n_tasks, len(aliases))
    if size > fallback_limit:
        raise ValueError(
            f"fault-aware planning would enumerate {size} placements over "
            f"{list(aliases)} (limit {fallback_limit}); shrink the device set "
            f"or use search_space(..., retry=...) to stream the space in shards"
        )
    tables = build_tables(
        workload, executor.platform, devices=aliases, retry=retry, faults=faults, timeout=timeout
    )
    batch = tables.execute(placement_matrix(n_tasks, len(aliases)))
    values = batch.metric_values(objective)
    feasible = batch.success_probability >= min_success if min_success > 0.0 else np.isfinite(values)
    feasible = feasible & np.isfinite(values)
    if not feasible.any():
        raise ValueError(
            f"no placement of {workload.name!r} over {list(aliases)} reaches "
            f"success probability {min_success} under the fault profile"
        )
    index = int(np.argmin(np.where(feasible, values, np.inf)))
    return DevicePlan(
        objective=objective,
        placement=batch.placement(index),
        label=batch.label(index),
        value=float(values[index]),
        aliases=aliases,
        method="fault-stream",
        success_probability=float(batch.success_probability[index]),
    )


def plan_with_fallback(
    executor: "SimulatedExecutor",
    workload: "TaskChain | TaskGraph",
    objective: str = "time",
    *,
    devices: Sequence[str] | None = None,
    retry: RetryPolicy | None = None,
    faults: FaultProfile | None = None,
    timeout: TimeoutPolicy | None = None,
    min_success: float = 0.0,
    method: str = "auto",
    fallback_limit: int = DEFAULT_FAULT_PLAN_LIMIT,
) -> FallbackPlan:
    """Optimal primary placement plus a verified backup per non-host device.

    Fault-free (``retry=None``): every component plan comes from the exact
    planner (DP where admissible, recorded enumeration otherwise).
    Fault-aware (``retry=`` given): plans minimise *expected* cost under the
    profile, streamed over the sub-space (see the module docstring for the
    dispatch boundary); ``min_success`` additionally filters placements by
    success probability.  Either way, each backup is optimal over the
    candidate set minus the failed device, so any single non-host device
    failure degrades to a pre-computed feasible plan.
    """
    if method not in ("auto", "dp", "enumerate"):
        raise ValueError(f"unknown method {method!r}; choose 'auto', 'dp' or 'enumerate'")
    if retry is None and (faults is not None or timeout is not None):
        raise ValueError(
            "fault-aware planning needs retry=RetryPolicy(...); "
            "got faults/timeout without a retry policy"
        )
    if not 0.0 <= float(min_success) <= 1.0:
        raise ValueError(f"min_success must be in [0, 1], got {min_success!r}")
    platform = executor.platform
    aliases = tuple(devices) if devices is not None else tuple(platform.aliases)
    if len(aliases) < 2:
        raise ValueError(
            f"fallback planning needs at least two candidate devices, got {list(aliases)}"
        )
    platform.validate_aliases(aliases)
    host = platform.host
    covered = tuple(alias for alias in aliases if alias != host)
    if not covered:
        raise ValueError("no non-host candidate device to back up")

    dispatch_reason: str | None = None
    if retry is not None:
        if method == "dp":
            raise ValueError(
                "method='dp' cannot serve fault-aware planning: expected cost "
                "under faults couples tasks through survival factors outside "
                "the DP lattice; use method='auto' (streams) or drop retry= "
                "for the classic exact planner"
            )
        dispatch_reason = (
            "expected-cost-under-faults objectives stream the sub-space "
            "(outside the DP planner boundary)"
        )

        def component(subset: tuple[str, ...]) -> DevicePlan:
            return _fault_stream_plan(
                executor, workload, objective, subset, retry, faults, timeout,
                float(min_success), fallback_limit,
            )

    else:
        from ..search.planner import plan_workload

        def component(subset: tuple[str, ...]) -> DevicePlan:
            plan = plan_workload(
                executor, workload, objective, devices=subset, method=method
            )
            return DevicePlan(
                objective=plan.objective,
                placement=plan.placement,
                label=plan.label,
                value=plan.value,
                aliases=subset,
                method=plan.method,
            )

    primary = component(aliases)
    backups: dict[str, DevicePlan] = {}
    for alias in covered:
        subset = tuple(a for a in aliases if a != alias)
        backups[alias] = component(subset)
    return FallbackPlan(
        objective=objective,
        workload=workload.name,
        aliases=aliases,
        primary=primary,
        backups=backups,
        dispatch_reason=dispatch_reason,
    )
