"""Scalar objectives over :class:`~repro.devices.batch.BatchExecutionResult` columns.

An *objective* maps a batch to one float per placement (lower is better).  The
streaming selectors consume objectives for top-K ranking and as frontier
criteria, so everything here is vectorized and -- deliberately -- free of
lambdas: objective specs must survive pickling into the sharded worker
processes of :func:`repro.search.driver.search_space`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Protocol, Sequence, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..devices.batch import BatchExecutionResult

__all__ = [
    "Objective",
    "MetricObjective",
    "WeightedSumObjective",
    "DecisionObjective",
    "as_objective",
    "as_objectives",
]


@runtime_checkable
class Objective(Protocol):
    """Anything that turns a batch into one (minimised) scalar per placement."""

    @property
    def name(self) -> str:  # pragma: no cover - protocol
        ...

    def __call__(self, batch: "BatchExecutionResult") -> np.ndarray:  # pragma: no cover
        ...


@dataclass(frozen=True)
class MetricObjective:
    """One raw metric column of the batch: ``"time"``, ``"energy"`` or ``"cost"``."""

    metric: str = "time"

    @property
    def name(self) -> str:
        return self.metric

    def __call__(self, batch: "BatchExecutionResult") -> np.ndarray:
        return batch.metric_values(self.metric)


@dataclass(frozen=True)
class WeightedSumObjective:
    """Weighted combination of the three metric columns (all minimised)."""

    time_weight: float = 1.0
    energy_weight: float = 0.0
    cost_weight: float = 0.0
    label: str = "weighted"

    def __post_init__(self) -> None:
        for field_name in ("time_weight", "energy_weight", "cost_weight"):
            weight = getattr(self, field_name)
            # Written so that NaN fails the test too.
            if not 0 <= weight < np.inf:
                raise ValueError(
                    f"WeightedSumObjective.{field_name} must be finite and non-negative, "
                    f"got {weight!r}"
                )

    @property
    def name(self) -> str:
        return self.label

    def __call__(self, batch: "BatchExecutionResult") -> np.ndarray:
        values = self.time_weight * batch.total_time_s
        if self.energy_weight:
            values = values + self.energy_weight * batch.energy_total_j
        if self.cost_weight:
            values = values + self.cost_weight * batch.operating_cost
        return values


@dataclass(frozen=True)
class DecisionObjective:
    """The :class:`~repro.selection.decision.DecisionModel` objective, vectorized.

    Wraps ``model.batch_objective`` so huge sweeps rank placements by exactly
    the scalar the decision model minimises (``time + cost_weight * operating
    cost``; the cluster-confidence penalty needs per-label scores and is only
    available once a clustering exists -- see ``DecisionModel.decide_from_batch``).
    """

    model: Any  # DecisionModel; typed loosely to avoid a selection <-> search cycle
    label: str = "decision"

    @property
    def name(self) -> str:
        return self.label

    def __call__(self, batch: "BatchExecutionResult") -> np.ndarray:
        return self.model.batch_objective(batch)


def as_objective(spec: "str | Objective | Callable[..., np.ndarray]") -> Objective:
    """Coerce a spec to an objective: a metric name or any named callable."""
    if isinstance(spec, str):
        return MetricObjective(spec)
    if callable(spec) and hasattr(spec, "name"):
        return spec  # type: ignore[return-value]
    raise TypeError(
        f"cannot interpret {spec!r} as an objective; pass a metric name "
        "('time'/'energy'/'cost') or an object with a .name and batch -> values __call__"
    )


def as_objectives(specs: "Sequence[str | Objective]") -> tuple[Objective, ...]:
    """Coerce a sequence of specs, requiring unique objective names."""
    objectives = tuple(as_objective(spec) for spec in specs)
    names = [objective.name for objective in objectives]
    if len(set(names)) != len(names):
        raise ValueError(f"objective names must be unique, got {names}")
    return objectives
