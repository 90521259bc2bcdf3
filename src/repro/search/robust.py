"""Robust objectives and the streaming grid-search driver.

A placement that wins on today's platform may be the worst choice after the
Wi-Fi link falls back to LTE.  This module selects placements that stay good
across a whole :class:`~repro.scenarios.ScenarioGrid`:

* **robust objectives** collapse the ``(n_conditions, n_placements)`` metric
  grid to one (minimised) scalar per placement -- the worst case over
  scenarios (:class:`WorstCaseObjective`), the scenario-weighted expectation
  (:class:`ExpectedValueObjective`), the weighted tail quantile
  (:class:`QuantileObjective`, e.g. a fleet's p95 latency), the weighted
  fraction of scenarios missing a budget (:class:`SLOObjective`), or the
  maximum regret against each scenario's own best placement
  (:class:`RegretObjective`);
* :func:`search_grid` streams the placement space chunk by chunk through
  the grid tables' ``execute`` kernel, folds each chunk into bounded
  :class:`~repro.search.topk.StreamingTopK` state per robust objective, and
  tracks each scenario's individual winner so condition drift is visible in
  the result.  Each pass (regret baselines, then selection) is one fold over
  a chunk stream; run in parallel, it goes through the shard runner of
  :mod:`repro.search.shards`, split along placements (``n_workers``) or
  scenarios (``scenario_shards``).

Everything is free of lambdas and mutable shared state, like the rest of the
search layer: objective specs are value-type dataclasses that survive
pickling.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from ..offload.space import indices_to_matrix, iter_placement_batches, space_size
from .constraints import Constraint, feasible_mask
from .driver import TopSelection
from .objectives import Objective, as_objective
from .shards import ShardPool, fold, shard_ranges
from .topk import StreamingTopK

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..devices.grid import GridCostTables, GridExecutionResult
    from ..devices.simulator import SimulatedExecutor
    from ..scenarios import Scenario, ScenarioGrid
    from ..tasks.chain import TaskChain
    from ..tasks.graph import TaskGraph

__all__ = [
    "RobustObjective",
    "WorstCaseObjective",
    "ExpectedValueObjective",
    "QuantileObjective",
    "SLOObjective",
    "RegretObjective",
    "ScenarioBest",
    "GridSearchResult",
    "as_robust_objectives",
    "search_grid",
]


def _validate_weights(weights: Sequence[float]) -> tuple[float, ...]:
    """Coerce and validate per-scenario weights shared by weighted objectives.

    NaN compares ``False`` against every bound, so a bare ``w < 0`` check
    would wave non-finite weights through into ``weights @ values`` and turn
    every robust value into NaN with no error -- hence the explicit
    finiteness guard.
    """
    array = np.asarray(weights if isinstance(weights, np.ndarray) else list(weights), dtype=float)
    bad = ~np.isfinite(array) | (array < 0)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(
            "scenario weights must be finite and non-negative, "
            f"got weights[{i}]={float(array[i])!r}"
        )
    if not (array > 0).any():
        raise ValueError("at least one scenario weight must be positive")
    return tuple(array.tolist())


def _base_values(base: "str | Objective", grid: "GridExecutionResult") -> np.ndarray:
    """``(n_conditions, n_placements)`` values of the base objective.

    Metric names read the grid columns directly; general objectives are
    evaluated on each scenario's batch view and stacked.
    """
    if isinstance(base, str):
        return grid.metric_values(base)
    return np.stack([base(batch) for batch in grid.batches()], axis=0)


def _base_name(base: "str | Objective") -> str:
    return base if isinstance(base, str) else base.name


@dataclass(frozen=True)
class RobustObjective:
    """Base class: a per-scenario objective plus a reduction over scenarios.

    ``base`` is a metric name (``"time"``/``"energy"``/``"cost"``) or any
    search :class:`~repro.search.objectives.Objective`; subclasses implement
    :meth:`reduce`, mapping the ``(n_conditions, n_placements)`` base values
    to one scalar per placement (lower is better).
    """

    base: "str | Objective" = "time"
    label: str = ""

    #: Whether :meth:`reduce` needs the per-scenario minima of the base
    #: objective over the whole (feasible) space -- triggers the extra
    #: baseline pass in :func:`search_grid`.
    requires_baseline = False

    def __post_init__(self) -> None:
        if not isinstance(self.base, str):
            as_objective(self.base)  # validate early: needs .name and __call__

    @property
    def name(self) -> str:
        return self.label or f"{self._prefix}-{_base_name(self.base)}"

    _prefix = "robust"

    def values(self, grid: "GridExecutionResult") -> np.ndarray:
        """Per-scenario base values of one grid chunk, shape ``(s, n)``."""
        return _base_values(self.base, grid)

    def bind_weights(self, weights: Sequence[float]) -> "RobustObjective":
        """Bind the searched grid's scenario weights where the objective wants
        them and was constructed without explicit weights; the driver calls
        this once per sweep.  Unweighted objectives return themselves."""
        return self

    def reduce(
        self, values: np.ndarray, baselines: np.ndarray | None = None
    ) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, grid: "GridExecutionResult") -> np.ndarray:
        """Robust scalar per placement of a *complete* grid (no streaming).

        For :class:`RegretObjective` the per-scenario baselines are taken
        from the grid itself, i.e. the grid must hold the entire candidate
        space; :func:`search_grid` handles the streaming case.
        """
        values = self.values(grid)
        baselines = values.min(axis=1) if self.requires_baseline else None
        return self.reduce(values, baselines)


@dataclass(frozen=True)
class WorstCaseObjective(RobustObjective):
    """Minimise the worst value the placement attains over the scenarios."""

    _prefix = "worst"

    def reduce(self, values: np.ndarray, baselines: np.ndarray | None = None) -> np.ndarray:
        return values.max(axis=0)


@dataclass(frozen=True)
class ExpectedValueObjective(RobustObjective):
    """Minimise the scenario-weighted expectation of the base objective.

    ``weights`` (one non-negative weight per scenario, not necessarily
    normalised) defaults to the scenario weights of the grid being searched,
    or uniform when constructed directly over a bare values matrix.
    """

    weights: tuple[float, ...] | None = None

    _prefix = "expected"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.weights is not None:
            object.__setattr__(self, "weights", _validate_weights(self.weights))

    def with_weights(self, weights: Sequence[float]) -> "ExpectedValueObjective":
        """Copy with explicit weights (the driver binds grid weights here)."""
        return ExpectedValueObjective(base=self.base, label=self.label, weights=weights)

    def bind_weights(self, weights: Sequence[float]) -> "ExpectedValueObjective":
        return self if self.weights is not None else self.with_weights(weights)

    def reduce(self, values: np.ndarray, baselines: np.ndarray | None = None) -> np.ndarray:
        if self.weights is None:
            return values.mean(axis=0)
        if len(self.weights) != values.shape[0]:
            raise ValueError(
                f"expected {values.shape[0]} scenario weights, got {len(self.weights)}"
            )
        weights = np.array(self.weights)
        return weights @ values / weights.sum()


def _weighted_quantile_columns(
    values: np.ndarray, weights: np.ndarray, q: float
) -> np.ndarray:
    """Weighted ``q``-quantile of each column of a ``(s, n)`` value matrix.

    Per column: sort the scenario values (stable, so ties keep grid order),
    accumulate the correspondingly permuted weights, and return the first
    sorted value whose cumulative weight reaches ``q`` times the total.  This
    is the left-continuous inverse of the weighted empirical CDF: with equal
    weights and ``q = 1.0`` it is exactly the column maximum, and scenarios
    carrying zero weight can never be picked ahead of the quantile point.
    The reduction touches each column independently, so it is invariant to
    how the placement axis is chunked.  Columns are sorted as contiguous rows
    of the transpose (a stable sort has one answer, and ``cumsum`` adds in
    order along either layout, so the result is bitwise the same).
    """
    columns = np.ascontiguousarray(values.T)
    order = np.argsort(columns, axis=1, kind="stable")
    cumulative = np.cumsum(weights[order], axis=1)
    picks = (cumulative >= q * cumulative[:, -1:]).argmax(axis=1)
    placements = np.arange(columns.shape[0])
    return columns[placements, order[placements, picks]]


@dataclass(frozen=True)
class QuantileObjective(RobustObjective):
    """Minimise a weighted tail quantile of the base objective over scenarios.

    The fleet-scale risk measure: with one scenario per sampled user,
    ``QuantileObjective(q=0.95)`` ranks placements by the latency the worst
    5% (by weight) of the fleet experiences.  ``weights`` defaults to the
    scenario weights of the grid being searched (uniform when the objective
    is applied directly to a bare grid).  The quantile is the left-continuous
    inverse of the weighted empirical CDF; with equal weights ``q=1.0``
    coincides with :class:`WorstCaseObjective` exactly.

    The reduction is a pure per-placement function of the complete
    ``(n_scenarios, n_placements)`` value matrix, and :func:`search_grid`
    reassembles scenario-sharded chunks along the scenario axis *before* any
    reduction runs -- sharded weighted quantiles are therefore bitwise
    identical to the serial sweep.
    """

    q: float = 0.95
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"quantile q must lie in (0, 1], got {self.q!r}")
        if self.weights is not None:
            object.__setattr__(self, "weights", _validate_weights(self.weights))

    @property
    def name(self) -> str:
        return self.label or f"p{self.q * 100:g}-{_base_name(self.base)}"

    def with_weights(self, weights: Sequence[float]) -> "QuantileObjective":
        return QuantileObjective(
            base=self.base, label=self.label, q=self.q, weights=weights
        )

    def bind_weights(self, weights: Sequence[float]) -> "QuantileObjective":
        return self if self.weights is not None else self.with_weights(weights)

    def reduce(self, values: np.ndarray, baselines: np.ndarray | None = None) -> np.ndarray:
        if self.weights is None:
            weights = np.ones(values.shape[0])
        elif len(self.weights) != values.shape[0]:
            raise ValueError(
                f"expected {values.shape[0]} scenario weights, got {len(self.weights)}"
            )
        else:
            weights = np.array(self.weights)
        return _weighted_quantile_columns(values, weights, self.q)


@dataclass(frozen=True)
class SLOObjective(RobustObjective):
    """Minimise the weighted fraction of scenarios that miss a budget.

    The service-level view of a fleet: with one scenario per sampled user and
    ``base="time"``, ``SLOObjective(budget=0.25)`` ranks placements by the
    weighted share of users whose end-to-end latency exceeds 250 ms (strictly
    ``value > budget`` counts as a miss, so meeting the budget exactly is a
    hit).  Values are miss fractions in ``[0, 1]``; minimising them maximises
    SLO attainment.  ``weights`` defaults to the searched grid's scenario
    weights, like :class:`ExpectedValueObjective`.

    Like the quantile, the reduction is per-placement over the full scenario
    axis, so scenario-sharded sweeps are bitwise identical to serial ones.
    """

    budget: float = 0.0
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not math.isfinite(self.budget):
            raise ValueError(f"SLO budget must be finite, got {self.budget!r}")
        if self.weights is not None:
            object.__setattr__(self, "weights", _validate_weights(self.weights))

    @property
    def name(self) -> str:
        return self.label or f"slo-{_base_name(self.base)}@{self.budget:g}"

    def with_weights(self, weights: Sequence[float]) -> "SLOObjective":
        return SLOObjective(
            base=self.base, label=self.label, budget=self.budget, weights=weights
        )

    def bind_weights(self, weights: Sequence[float]) -> "SLOObjective":
        return self if self.weights is not None else self.with_weights(weights)

    def reduce(self, values: np.ndarray, baselines: np.ndarray | None = None) -> np.ndarray:
        misses = (values > self.budget).astype(float)
        if self.weights is None:
            return misses.mean(axis=0)
        if len(self.weights) != values.shape[0]:
            raise ValueError(
                f"expected {values.shape[0]} scenario weights, got {len(self.weights)}"
            )
        weights = np.array(self.weights)
        return weights @ misses / weights.sum()


@dataclass(frozen=True)
class RegretObjective(RobustObjective):
    """Minimise the maximum regret against each scenario's own best placement.

    The regret of placement ``p`` in scenario ``s`` is ``value[s, p] -
    min_q value[s, q]`` (how much worse than the best the scenario admits);
    the objective is the maximum over scenarios.  The minima are taken over
    the feasible placements actually searched, so under :func:`search_grid`
    the space is streamed twice: one pass to find the per-scenario baselines,
    one to select.
    """

    requires_baseline = True
    _prefix = "regret"

    def reduce(self, values: np.ndarray, baselines: np.ndarray | None = None) -> np.ndarray:
        if baselines is None:
            raise ValueError(
                f"{self.name} needs per-scenario baselines; search the grid via "
                "search_grid, or call the objective on a grid holding the full space"
            )
        baselines = np.asarray(baselines, dtype=float)
        if baselines.shape != (values.shape[0],):
            raise ValueError(
                f"expected {values.shape[0]} baselines, got shape {baselines.shape}"
            )
        return (values - baselines[:, None]).max(axis=0)


def as_robust_objectives(
    specs: "Sequence[str | RobustObjective]",
) -> tuple[RobustObjective, ...]:
    """Coerce specs (metric names become worst-case) with unique names."""
    objectives = tuple(
        WorstCaseObjective(base=spec) if isinstance(spec, str) else spec for spec in specs
    )
    for objective in objectives:
        if not isinstance(objective, RobustObjective):
            raise TypeError(
                f"cannot interpret {objective!r} as a robust objective; pass a metric "
                "name (selected by worst case) or a RobustObjective instance"
            )
    names = [objective.name for objective in objectives]
    if len(set(names)) != len(names):
        raise ValueError(f"robust objective names must be unique, got {names}")
    return objectives


# ----------------------------------------------------------------------------
# Result types
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioBest:
    """Each scenario's individual best feasible placement under one base objective."""

    objective: str
    scenario_names: tuple[str, ...]
    indices: np.ndarray
    values: np.ndarray
    labels: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.scenario_names)

    def drift(self) -> dict[str, str]:
        """``scenario -> winning label``, the condition-drift view."""
        return dict(zip(self.scenario_names, self.labels))


@dataclass(frozen=True)
class GridSearchResult:
    """Outcome of one streaming robust sweep over (scenario, placement) pairs."""

    n_tasks: int
    aliases: tuple[str, ...]
    scenario_names: tuple[str, ...]
    n_evaluated: int
    n_feasible: int
    top: Mapping[str, TopSelection]
    scenario_best: Mapping[str, ScenarioBest]
    #: Per-scenario minima used as regret baselines, keyed by base-objective name.
    baselines: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        object.__setattr__(self, "top", MappingProxyType(dict(self.top)))
        object.__setattr__(self, "scenario_best", MappingProxyType(dict(self.scenario_best)))
        object.__setattr__(self, "baselines", MappingProxyType(dict(self.baselines)))

    def __reduce__(self):
        # MappingProxyType cannot be pickled; rebuild through __init__.
        return (
            self.__class__,
            (
                self.n_tasks,
                self.aliases,
                self.scenario_names,
                self.n_evaluated,
                self.n_feasible,
                dict(self.top),
                dict(self.scenario_best),
                dict(self.baselines),
            ),
        )

    @property
    def space_size(self) -> int:
        return space_size(self.n_tasks, len(self.aliases))

    @property
    def n_scenarios(self) -> int:
        return len(self.scenario_names)

    def best(self, objective: str | None = None) -> str:
        """Label of the robust top-1 under one objective (the only one if unambiguous)."""
        if objective is None:
            if len(self.top) != 1:
                raise ValueError(
                    f"result ranks {sorted(self.top)} -- name the objective explicitly"
                )
            objective = next(iter(self.top))
        return self.top[objective].best

    def summary(self) -> str:
        lines = [
            f"searched {self.n_evaluated} of {self.space_size} placements under "
            f"{self.n_scenarios} scenarios ({self.n_feasible} robust-feasible) over "
            f"{len(self.aliases)} devices x {self.n_tasks} tasks"
        ]
        for name, selection in self.top.items():
            if len(selection):
                lines.append(
                    f"  top-{len(selection)} by {name}: best {selection.labels[0]} "
                    f"({selection.values[0]:.6g})"
                )
            else:
                lines.append(f"  top-K by {name}: no feasible placement")
        for name, best in self.scenario_best.items():
            shifts = len(dict.fromkeys(best.labels))
            lines.append(
                f"  per-scenario winners by {name}: "
                f"{' -> '.join(dict.fromkeys(best.labels))} ({shifts} distinct)"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------------
# Streaming driver
# ----------------------------------------------------------------------------

def _scenario_entries(scenarios) -> tuple["ScenarioGrid", tuple[str, ...], np.ndarray]:
    """Coerce a ScenarioGrid / scenario list to (grid, names, weights).

    No platform derivation happens here: grid tables are built in array
    space from the base platform plus the scenario definitions, and
    per-scenario platforms only materialize if something asks for them.
    """
    from ..scenarios import Scenario, ScenarioGrid

    if not isinstance(scenarios, ScenarioGrid):
        entries = tuple(scenarios)
        if not entries:
            raise ValueError("at least one scenario is required")
        for entry in entries:
            if not isinstance(entry, Scenario):
                raise TypeError(
                    f"expected Scenario instances or a ScenarioGrid, got {entry!r}"
                )
        scenarios = ScenarioGrid(entries)
    return scenarios, scenarios.names, np.array(scenarios.weights)


def _feasible(
    grid: "GridExecutionResult", constraints: Sequence[Constraint]
) -> np.ndarray:
    """Robust feasibility: a placement must satisfy the constraints in *every* scenario."""
    if not constraints:
        return np.ones(len(grid), dtype=bool)
    mask = np.ones(len(grid), dtype=bool)
    for batch in grid.batches():
        mask &= feasible_mask(batch, constraints)
    return mask


@dataclass
class _BaselinePass:
    """Mergeable outcome of one baseline-shard sweep (per-scenario minima)."""

    minima: dict[str, np.ndarray]
    any_feasible: bool

    def merge(self, other: "_BaselinePass") -> None:
        for name, values in self.minima.items():
            np.minimum(values, other.minima[name], out=values)
        self.any_feasible = self.any_feasible or other.any_feasible


@dataclass
class _SelectionPass:
    """Mergeable outcome of one selection-shard sweep.

    Merging is associative and order-independent: top-K accumulators merge
    through :meth:`StreamingTopK.merge`, counters add, and each scenario's
    winner merges under the serial sweep's exact tie rule -- strictly smaller
    value wins, equal values keep the smaller placement index (the serial loop
    streams ascending indices and replaces only on strict ``<``).
    """

    selectors: dict[str, StreamingTopK]
    scenario_best_idx: dict[str, np.ndarray]
    scenario_best_val: dict[str, np.ndarray]
    n_evaluated: int
    n_feasible: int

    def merge(self, other: "_SelectionPass") -> None:
        for name, selector in self.selectors.items():
            selector.merge(other.selectors[name])
        for name, current_val in self.scenario_best_val.items():
            current_idx = self.scenario_best_idx[name]
            other_val = other.scenario_best_val[name]
            other_idx = other.scenario_best_idx[name]
            better = (other_val < current_val) | (
                (other_val == current_val)
                & (other_idx >= 0)
                & ((current_idx < 0) | (other_idx < current_idx))
            )
            current_val[better] = other_val[better]
            current_idx[better] = other_idx[better]
        self.n_evaluated += other.n_evaluated
        self.n_feasible += other.n_feasible


def _grid_chunk_stream(
    tables: "GridCostTables",
    bases: Mapping[str, "str | Objective"],
    constraints: Sequence[Constraint],
    batch_size: int,
    start: int,
    stop: int,
) -> "Iterable[tuple[int, int, np.ndarray, dict[str, np.ndarray] | None]]":
    """Stream ``(chunk_start, n, feasible_mask, base_values)`` tuples.

    ``base_values`` maps base-objective names to their raw ``(s, n)`` value
    matrices -- **unmasked**, so the chunks of a scenario-sharded sweep can be
    concatenated along the scenario axis before the merged mask is applied
    (reductions like the weighted expectation are chunk-width dependent in
    floating point, so every path must reduce the exact same matrix).  It is
    ``None`` when no placement of the chunk is feasible.
    """
    chunk_start = start
    for matrix in iter_placement_batches(
        tables.n_tasks, tables.n_devices, batch_size, start=start, stop=stop
    ):
        grid = tables.execute(matrix)
        mask = _feasible(grid, constraints)
        values = (
            {name: _base_values(base, grid) for name, base in bases.items()}
            if mask.any()
            else None
        )
        yield chunk_start, len(grid), mask, values
        chunk_start += len(grid)


def _fold_baselines(
    n_scenarios: int,
    chunks: "Iterable[tuple[int, int, np.ndarray, dict[str, np.ndarray] | None]]",
    baseline_names: Sequence[str],
) -> _BaselinePass:
    """Fold a chunk stream into per-scenario minima (the regret baselines)."""
    minima = {name: np.full(n_scenarios, np.inf) for name in baseline_names}
    any_feasible = False
    for _, _, mask, chunk_values in chunks:
        if chunk_values is None:
            continue
        any_feasible = True
        for name in baseline_names:
            values = chunk_values[name][:, mask]
            np.minimum(minima[name], values.min(axis=1), out=minima[name])
    return _BaselinePass(minima=minima, any_feasible=any_feasible)


def _fold_selection(
    n_scenarios: int,
    chunks: "Iterable[tuple[int, int, np.ndarray, dict[str, np.ndarray] | None]]",
    coerced: Sequence[RobustObjective],
    bases: Mapping[str, "str | Objective"],
    top_k: int,
    baselines: Mapping[str, np.ndarray],
) -> _SelectionPass:
    """Fold a chunk stream into top-K selections and per-scenario winners."""
    base_names = list(bases)
    selectors = {objective.name: StreamingTopK(top_k) for objective in coerced}
    scenario_best_idx = {
        name: np.full(n_scenarios, -1, dtype=np.int64) for name in base_names
    }
    scenario_best_val = {name: np.full(n_scenarios, np.inf) for name in base_names}
    n_evaluated = 0
    n_feasible = 0
    for chunk_start, n, mask, raw_values in chunks:
        n_evaluated += n
        feasible_count = int(np.count_nonzero(mask))
        n_feasible += feasible_count
        if not feasible_count or raw_values is None:
            continue
        indices = np.arange(n, dtype=np.int64)[mask] + np.int64(chunk_start)
        chunk_values = {name: raw_values[name][:, mask] for name in base_names}
        for objective in coerced:
            values = chunk_values[_base_name(objective.base)]
            reduced = objective.reduce(
                values, baselines.get(_base_name(objective.base))
            ) if objective.requires_baseline else objective.reduce(values)
            selectors[objective.name].update(reduced, indices)
        for name in base_names:
            values = chunk_values[name]
            rows = np.arange(values.shape[0])
            arg = values.argmin(axis=1)
            candidate = values[rows, arg]
            better = candidate < scenario_best_val[name]
            scenario_best_val[name][better] = candidate[better]
            scenario_best_idx[name][better] = indices[arg[better]]
    return _SelectionPass(
        selectors=selectors,
        scenario_best_idx=scenario_best_idx,
        scenario_best_val=scenario_best_val,
        n_evaluated=n_evaluated,
        n_feasible=n_feasible,
    )


def _sweep_range(
    tables: "GridCostTables",
    bases: Mapping[str, "str | Objective"],
    constraints: Sequence[Constraint],
    batch_size: int,
    start: int,
    stop: int,
    fold_pass,
    *fold_args,
):
    """One pass of :func:`search_grid` over placements [start, stop) of ``tables``.

    ``fold_pass`` is :func:`_fold_baselines` or :func:`_fold_selection`.  The
    serial sweep runs this in-process on the executor's cached tables, and
    each placement shard runs it in its worker.
    """
    chunks = _grid_chunk_stream(tables, bases, constraints, batch_size, start, stop)
    return fold_pass(tables.n_scenarios, chunks, *fold_args)


def _block_chunk(
    tables: "GridCostTables",
    bases: Mapping[str, "str | Objective"],
    constraints: Sequence[Constraint],
    start: int,
    stop: int,
) -> tuple[np.ndarray, dict[str, np.ndarray] | None]:
    """Evaluate one placement chunk against a scenario shard's block.

    Returns the shard-local feasibility mask and the **raw, unmasked**
    ``(s_shard, n)`` base-value matrices; masking happens in the parent after
    the shard masks are merged.
    """
    (_, _, mask, values), = _grid_chunk_stream(
        tables, bases, constraints, stop - start, start, stop
    )
    return mask, values


def _scenario_sharded_chunks(
    pool: ShardPool,
    bases: Mapping[str, "str | Objective"],
    constraints: Sequence[Constraint],
    batch_size: int,
    start: int,
    stop: int,
) -> "Iterable[tuple[int, int, np.ndarray, dict[str, np.ndarray] | None]]":
    """Stitch scenario-shard chunk evaluations back into the serial chunk stream.

    For every placement chunk, all shards evaluate the same placements
    against their scenario blocks; the masks are ANDed and the raw value
    matrices concatenated along the scenario axis in shard order, which
    reconstructs exactly the serial sweep's ``(s, n)`` chunk -- every fold,
    reduction and tie rule then runs on bit-identical inputs.
    """
    cursor = start
    while cursor < stop:
        chunk_stop = min(cursor + batch_size, stop)
        parts = pool.map(
            _block_chunk, [(bases, constraints, cursor, chunk_stop)] * len(pool.ranges)
        )
        mask = parts[0][0].copy()
        for shard_mask, _ in parts[1:]:
            mask &= shard_mask
        values: dict[str, np.ndarray] | None = None
        if mask.any():
            # A surviving placement is feasible in every shard, so every shard
            # produced a value matrix.
            values = {
                name: np.concatenate([part_values[name] for _, part_values in parts], axis=0)
                for name in parts[0][1]
            }
        yield cursor, chunk_stop - cursor, mask, values
        cursor = chunk_stop


def _planner_baseline_reason(
    chain: "TaskChain | TaskGraph",
    constraints: Sequence[Constraint],
    start: int,
    stop: int,
    total: int,
    bases: Mapping[str, "str | Objective"],
    baseline_names: Sequence[str],
    fault_aware: bool = False,
) -> str | None:
    """Why the regret baselines cannot come from the exact per-scenario DP."""
    from ..tasks.graph import TaskGraph
    from .planner import planner_objective_weights

    if fault_aware:
        return (
            "expected-cost-under-faults bases are outside the DP planner "
            "boundary (survival factors couple consecutive tasks)"
        )
    if constraints:
        return "feasibility constraints require the streaming baseline pass"
    if (start, stop) != (0, total):
        return "baselines over an index slice require the streaming pass"
    if isinstance(chain, TaskGraph) and not chain.is_linear:
        return "planner baselines are exact for chain workloads only"
    for name in baseline_names:
        if planner_objective_weights(bases[name]) is None:
            return f"base objective {name!r} is not DP-plannable"
    return None


def search_grid(
    executor: "SimulatedExecutor",
    chain: "TaskChain | TaskGraph",
    scenarios: "ScenarioGrid | Sequence[Scenario]",
    *,
    objectives: "Sequence[str | RobustObjective]" = (WorstCaseObjective(),),
    top_k: int = 10,
    constraints: Sequence[Constraint] = (),
    devices: Sequence[str] | None = None,
    batch_size: int = 16384,
    start: int = 0,
    stop: int | None = None,
    n_workers: int | None = None,
    scenario_shards: int | None = None,
    baseline_method: str = "auto",
    faults=None,
    retry=None,
    timeout=None,
) -> GridSearchResult:
    """Stream a placement range under every scenario and select robust winners.

    Chunks of the placement space are evaluated against the whole condition
    grid in one vectorized pass each (``tables.execute``); per robust
    objective a :class:`StreamingTopK` keeps the best ``top_k`` placements,
    and each scenario's individual winner is tracked per base objective so
    the drift between conditions is part of the result.  Peak memory is one
    ``(n_scenarios, batch_size)`` chunk plus the O(top_k) selection state.

    Both parallel modes run on one :class:`~repro.search.shards.ShardPool`
    that serves the baseline and the selection pass alike.  With
    ``n_workers > 1`` the index range is split into contiguous shards
    exactly like :func:`~repro.search.search_space`; shard results merge
    associatively in shard order, so the outcome is identical to the serial
    sweep.  ``scenario_shards`` splits along the *other* axis: each worker
    holds the grid tables of one contiguous scenario block and evaluates
    every placement chunk against its block; the parent stitches the
    per-shard value matrices back together along the scenario axis before
    any reduction runs, so the result is bitwise identical to the serial
    sweep.  Scenario sharding pays off when the scenario count dominates the
    chunk cost; it is mutually exclusive with ``n_workers > 1`` (shard one
    axis or the other, not both).  Shard counts below 1 raise, and a failing
    shard raises a ``RuntimeError`` naming its placement range or scenario
    block.

    Constraints are enforced *robustly*: a placement is feasible only if it
    satisfies every constraint under every scenario.  Regret objectives need
    each scenario's best feasible value over the searched range --
    ``baseline_method`` picks how it is found: ``"stream"`` runs the classic
    extra streaming pass over the whole range; ``"planner"`` computes each
    scenario's optimum with one exact chain DP
    (:func:`repro.search.planner.grid_baselines`, bitwise the streamed
    minimum, at ``O(s * k * m**2)`` instead of ``O(s * m**k)``), raising when
    the request is outside the planner boundary (constraints, index slices,
    non-linear graphs, non-plannable bases); ``"auto"`` (default) plans when
    eligible and streams otherwise.

    With ``retry=`` given every (scenario, placement) pair is evaluated under
    faults: each scenario uses its own platform's attached profile (the shape
    the :class:`~repro.scenarios.DeviceFailureRate` /
    :class:`~repro.scenarios.LinkDropoutRate` axes produce) unless an
    explicit ``faults`` profile overrides them all.  Fault-aware bases are
    outside the DP planner boundary, so regret baselines stream
    (``baseline_method="planner"`` raises with that reason).
    """
    if retry is None and (faults is not None or timeout is not None):
        raise ValueError(
            "fault-aware evaluation needs retry=RetryPolicy(...); "
            "got faults/timeout without a retry policy"
        )
    grid, scenario_names, grid_weights = _scenario_entries(scenarios)
    # The driving process serves its tables from the executor's shared
    # content-addressed cache (shard workers, living in other processes,
    # build theirs through the same build_tables path).
    tables = executor.grid_cost_tables(
        chain,
        grid,
        devices,
        faults=faults,
        retry=retry,
        timeout=timeout,
    )
    total = space_size(tables.n_tasks, tables.n_devices)
    if stop is None:
        stop = total
    if not 0 <= start <= stop <= total:
        raise ValueError(f"invalid slice [{start}, {stop}) of a space of {total} placements")
    if start == stop:
        raise ValueError("cannot search an empty placement range")
    if top_k <= 0:
        raise ValueError("top_k must be positive")
    if baseline_method not in ("auto", "planner", "stream"):
        raise ValueError(
            f"unknown baseline_method {baseline_method!r}; choose 'auto', 'planner' or 'stream'"
        )

    coerced = as_robust_objectives(objectives)
    # Bind the grid's scenario weights to weighted objectives left unbound
    # (expectation, quantile, SLO -- each decides through bind_weights).
    coerced = tuple(objective.bind_weights(grid_weights) for objective in coerced)
    # Objectives sharing a base *name* must share the base itself: chunk values
    # are computed once per base name, so a silent last-wins collision would
    # rank one objective by another's values.
    bases: dict[str, "str | Objective"] = {}
    for objective in coerced:
        name = _base_name(objective.base)
        if name in bases and bases[name] != objective.base:
            raise ValueError(
                f"robust objectives disagree on the base objective named {name!r}: "
                f"{bases[name]!r} vs {objective.base!r}"
            )
        bases.setdefault(name, objective.base)
    base_names = list(bases)

    ranges = shard_ranges(start, stop, n_workers)
    blocks = shard_ranges(0, tables.n_scenarios, scenario_shards, name="scenario_shards")
    if len(ranges) > 1 and len(blocks) > 1:
        raise ValueError(
            "scenario_shards and n_workers > 1 are mutually exclusive: "
            "shard across scenarios or across placements, not both"
        )

    # Regret baselines come from the exact per-scenario DP where eligible,
    # otherwise from an extra streaming pass ahead of the selection pass.
    baseline_names = tuple(
        dict.fromkeys(
            _base_name(objective.base) for objective in coerced if objective.requires_baseline
        )
    )
    baselines: dict[str, np.ndarray] = {}
    stream_baselines = False
    if baseline_names:
        planner_reason = _planner_baseline_reason(
            chain, tuple(constraints), start, stop, total, bases, baseline_names,
            fault_aware=retry is not None,
        )
        if baseline_method == "planner" and planner_reason is not None:
            raise ValueError(
                f"baseline_method='planner' cannot serve this request: {planner_reason}; "
                "use baseline_method='stream' (or 'auto')"
            )
        if baseline_method in ("auto", "planner") and planner_reason is None:
            from .planner import grid_baselines

            try:
                baselines = {
                    name: grid_baselines(tables, bases[name]) for name in baseline_names
                }
            except KeyError:
                # No feasible placement at all: same contract as the streaming
                # pass, which leaves the baselines empty.
                baselines = {}
        else:
            stream_baselines = True

    sharded = len(ranges) > 1 or len(blocks) > 1
    with (
        ShardPool(
            chain, executor.platform, ranges if len(ranges) > 1 else blocks,
            devices=devices, scenarios=grid, split_scenarios=len(blocks) > 1,
            faults=faults, retry=retry, timeout=timeout,
        )
        if sharded
        else nullcontext()
    ) as pool:

        def run_pass(fold_pass, *fold_args):
            """One streaming pass: in-process, per placement shard, or stitched scenario shards."""
            if pool is None:
                return _sweep_range(
                    tables, bases, constraints, batch_size, start, stop, fold_pass, *fold_args
                )
            if pool.split_scenarios:
                chunks = _scenario_sharded_chunks(
                    pool, bases, constraints, batch_size, start, stop
                )
                return fold_pass(tables.n_scenarios, chunks, *fold_args)
            return fold(
                pool.map(
                    _sweep_range,
                    [(bases, constraints, batch_size, a, b, fold_pass, *fold_args)
                     for a, b in ranges],
                )
            )

        if stream_baselines:
            sweep = run_pass(_fold_baselines, baseline_names)
            if sweep.any_feasible:
                baselines = sweep.minima
        selection = run_pass(_fold_selection, coerced, bases, top_k, baselines)

    selectors = selection.selectors
    scenario_best_idx = selection.scenario_best_idx
    scenario_best_val = selection.scenario_best_val
    n_evaluated = selection.n_evaluated
    n_feasible = selection.n_feasible

    def _labels(indices: np.ndarray) -> tuple[str, ...]:
        from ..devices.batch import placement_labels

        matrix = indices_to_matrix(indices, tables.n_tasks, tables.n_devices)
        return tuple(placement_labels(matrix, tables.aliases))

    top: dict[str, TopSelection] = {}
    for objective in coerced:
        selector = selectors[objective.name]
        top[objective.name] = TopSelection(
            objective=objective.name,
            indices=selector.indices.copy(),
            values=selector.values.copy(),
            labels=_labels(selector.indices),
        )
    scenario_best: dict[str, ScenarioBest] = {}
    if n_feasible:
        for name in base_names:
            idx = scenario_best_idx[name]
            scenario_best[name] = ScenarioBest(
                objective=name,
                scenario_names=scenario_names,
                indices=idx.copy(),
                values=scenario_best_val[name].copy(),
                labels=_labels(idx),
            )
    return GridSearchResult(
        n_tasks=tables.n_tasks,
        aliases=tables.aliases,
        scenario_names=scenario_names,
        n_evaluated=n_evaluated,
        n_feasible=n_feasible,
        top=top,
        scenario_best=scenario_best,
        baselines=baselines,
    )
