"""Condition-stacked batch execution: all (scenario, placement) pairs at once.

The robustness workload evaluates one placement space under *many* platform
conditions (a scenario grid).  This module stacks the cost tables of every
scenario platform along a leading condition axis and holds the execution
kernels -- one per cost semantics:

* :class:`GridCostTables` holds the per-(task, device) and per-(device,
  device) tables with shape ``(n_conditions, ...)``, built **vectorized
  across scenarios** straight from the :mod:`~repro.devices.costmodel`
  formula functions -- each scenario's slice is bitwise identical to
  ``ChainCostTables.build`` on that platform;
* :func:`execute_placements_grid` evaluates an ``(n_placements, n_tasks)``
  placement matrix against every condition in one NumPy pass, returning
  metrics shaped ``(n_conditions, n_placements)``.  It has a chain kernel
  (a compact ``(s, m, m)`` combine plus subset-sum device totals) and a graph
  kernel (critical path, per-edge joins); the fault-aware pair lives in
  :mod:`repro.faults.engine`.

A plain batch is the one-scenario case: :func:`_one_scenario_grid` wraps
:class:`~repro.devices.batch.ChainCostTables` as ``np.newaxis`` views, and
``ChainCostTables.execute`` returns the ``batch(0)`` view of the grid result.
So every slice along the condition axis is bitwise identical to evaluating
the scenario's derived platform on its own.  Placements that cross a link the
platform lacks are rejected with the offending device pair named.

Construction has one path.  Every grid table is computed from one
:class:`~repro.devices.params.PlatformParams` bundle (``(scenario, ...)``
arrays of every device and link float) through one gather
(:func:`_fused_params`) and one formula core (:func:`_grid_value_arrays`).
:func:`repro.devices.tables.build_tables` fills the bundle one of two ways:

* a base platform plus a :class:`~repro.scenarios.grid.ScenarioGrid`
  broadcasts the base parameters and applies each condition axis once per
  (axis pattern, settings position) straight from the grid's value columns --
  through the axis' own ``scale_arrays`` hook when it has one, through the
  generic row adapter (``apply`` on one row's floats) otherwise -- so no
  per-scenario ``Platform`` is derived unless asked for;
* a pre-derived platform sequence is stacked row by row
  (:meth:`~repro.devices.params.PlatformParams.stack`), which checks that
  every platform shares the first one's devices, host and links.

Scenario builds carry a :class:`GridBuildContext`, which enables **delta
rebuilds**: :meth:`GridCostTables.updated` / :meth:`~GridCostTables.updated_many`
recompute only the replaced scenarios' condition slices and reuse every other
row; with a :class:`~repro.cache.TableCache`, unchanged slices are
content-fingerprint hits (see :meth:`GridCostTables.cache_stats`).

Scenario-independent quantities (byte counts, FLOPs) are stored once without
the condition axis -- conditions change speeds, powers and prices, never how
many bytes a placement moves.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..cache import (
    cached_fingerprint,
    canonical,
    scenario_row_digests,
    table_key_from_fingerprint,
)
from ..tasks.chain import TaskChain
from ..tasks.graph import TaskGraph
from . import costmodel
from .batch import (
    BatchExecutionResult,
    ChainCostTables,
    GraphCostTables,
    as_graph_tables,
    as_placement_matrix,
    placement_labels,
)
from .costmodel import PENALTY_MESSAGE_BYTES
from .params import PlatformParams
from .platform import Platform
from .tables import resolve_aliases

if TYPE_CHECKING:
    from ..cache import TableCache
    from ..scenarios.conditions import Scenario
    from ..scenarios.grid import ScenarioGrid, ScenarioRows

__all__ = [
    "GridBuildContext",
    "GridCostTables",
    "GridSlice",
    "GridSliceStats",
    "GraphGridCostTables",
    "GridExecutionResult",
    "ScenarioPlatforms",
    "execute_placements_grid",
]


class ScenarioPlatforms(SequenceABC):
    """Lazily derived per-scenario platforms of a scenario grid build.

    A sequence facade: ``platforms[i]`` is
    ``apply_conditions(base, scenarios[i])``, derived on first access and
    memoized.  The grid builder never needs the platform objects, so this
    keeps ``tables.platforms`` API-compatible (fault profiles, per-scenario
    ``table()`` views) without paying one ``apply_conditions`` per scenario
    up front.
    """

    __slots__ = ("_base", "_scenarios", "_derived")

    def __init__(self, base: Platform, scenarios: "ScenarioGrid") -> None:
        self._base = base
        self._scenarios = scenarios
        self._derived: dict[int, Platform] = {}

    @property
    def base(self) -> Platform:
        return self._base

    @property
    def scenarios(self) -> "ScenarioGrid":
        return self._scenarios

    def __len__(self) -> int:
        return len(self._scenarios)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"platform index {index} out of range for {len(self)} scenarios")
        derived = self._derived.get(i)
        if derived is None:
            from ..scenarios.conditions import apply_conditions

            derived = apply_conditions(self._base, self._scenarios[i])
            self._derived[i] = derived
        return derived

    def __reduce__(self):
        return (type(self), (self._base, self._scenarios))

    def __repr__(self) -> str:
        return f"ScenarioPlatforms(base={self._base.name!r}, n_scenarios={len(self)})"


@dataclass(frozen=True)
class GridSliceStats:
    """How one grid build (or delta rebuild) sourced its scenario slices."""

    #: Scenario slices served from the table cache by content fingerprint.
    served: int = 0
    #: Scenario slices computed fresh.
    built: int = 0

    @property
    def total(self) -> int:
        return self.served + self.built


#: The per-scenario arrays of GridCostTables, i.e. everything a condition can
#: move; scenario-independent arrays (byte counts, FLOPs) are excluded.
_SLICE_FIELDS = (
    "busy",
    "hostio_time",
    "energy_in",
    "energy_out",
    "penalty_time",
    "penalty_energy",
    "first_penalty_time",
    "first_penalty_energy",
    "power_active",
    "power_idle",
    "cost_per_hour",
    "extra_idle_power",
)


#: The ChainCostTables arrays that carry a condition axis in the grid form, and
#: those shared by every scenario.
_SCENARIO_TABLES = _SLICE_FIELDS[: _SLICE_FIELDS.index("power_active")]
_STATIC_TABLES = ("hostio_bytes", "task_flops", "penalty_bytes", "first_penalty_bytes")


@dataclass(frozen=True)
class GridSlice:
    """One scenario's row of every per-scenario grid table (cache unit)."""

    busy: np.ndarray  # (k, m)
    hostio_time: np.ndarray  # (k, m)
    energy_in: np.ndarray  # (k, m)
    energy_out: np.ndarray  # (k, m)
    penalty_time: np.ndarray  # (m, m)
    penalty_energy: np.ndarray  # (m, m)
    first_penalty_time: np.ndarray  # (m,)
    first_penalty_energy: np.ndarray  # (m,)
    power_active: np.ndarray  # (m,)
    power_idle: np.ndarray  # (m,)
    cost_per_hour: np.ndarray  # (m,)
    extra_idle_power: np.ndarray  # (n_extra,)


@dataclass(frozen=True)
class GridBuildContext:
    """The configuration a scenario grid build was derived from.

    Carried on :class:`GridCostTables` so delta rebuilds can recompute single
    condition slices (and re-key the result) without the original call site.
    """

    platform: Platform
    scenarios: "ScenarioGrid"
    devices: "tuple[str, ...] | None"
    #: Content fingerprint of the workload the tables were built from.
    workload_fingerprint: str
    #: The workload's per-task costs (scenario-independent).
    task_costs: tuple

    @cached_property
    def _slice_key_prefix(self) -> tuple:
        """The scenario-independent part of every slice cache key."""
        return (
            "grid-slice",
            self.workload_fingerprint,
            cached_fingerprint(self.platform),
            repr(canonical(self.devices)),
        )


#: Stored ``fingerprint`` of delta-rebuilt tables until first read (see
#: :class:`_DerivedKey`); not a hex digest, so it cannot collide with a key.
_DERIVE_KEY = "derive:build-context"


class _DerivedKey:
    """The ``fingerprint`` field of grid tables.

    Stores what it is given, except :data:`_DERIVE_KEY`: that is replaced on
    first read by the key :func:`~repro.devices.tables.build_tables` would
    attach, derived from ``build_context``.  Delta rebuilds store the marker,
    so a drift loop that never asks for keys never re-digests its grid.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.attr = f"_{name}"

    def __get__(self, tables, owner=None) -> str:
        if tables is None:
            return ""  # the field default
        key = tables.__dict__[self.attr]
        if key == _DERIVE_KEY:
            context = tables.build_context
            key = table_key_from_fingerprint(
                context.workload_fingerprint,
                context.platform,
                devices=context.devices,
                scenarios=context.scenarios,
            )
            tables.__dict__[self.attr] = key
        return key

    def __set__(self, tables, key: str) -> None:
        tables.__dict__[self.attr] = key


@dataclass(frozen=True)
class GridCostTables:
    """Cost tables of one chain under every platform of a scenario grid.

    Same layout as :class:`~repro.devices.batch.ChainCostTables` with a
    leading condition axis on every scenario-dependent array; scenario-
    independent arrays (``hostio_bytes``, ``task_flops``, penalty byte
    counts) carry no condition axis.  ``table(i)`` slices out one scenario's
    :class:`ChainCostTables`, bitwise identical to building it directly.
    """

    task_names: tuple[str, ...]
    #: Per-scenario platforms: a tuple for platform-sequence builds, a lazy
    #: :class:`ScenarioPlatforms` view for scenario builds.
    platforms: Sequence[Platform]
    aliases: tuple[str, ...]
    #: Device-iteration order shared by every platform (the energy/cost fold
    #: walks it exactly like the per-platform executor does).
    device_order: tuple[str, ...]
    busy: np.ndarray  # (s, k, m)
    hostio_time: np.ndarray  # (s, k, m)
    hostio_bytes: np.ndarray  # (k, m)
    energy_in: np.ndarray  # (s, k, m)
    energy_out: np.ndarray  # (s, k, m)
    task_flops: np.ndarray  # (k,)
    penalty_time: np.ndarray  # (s, m, m)
    penalty_energy: np.ndarray  # (s, m, m)
    penalty_bytes: np.ndarray  # (m, m)
    first_penalty_time: np.ndarray  # (s, m)
    first_penalty_energy: np.ndarray  # (s, m)
    first_penalty_bytes: np.ndarray  # (m,)
    power_active: np.ndarray  # (s, m)
    power_idle: np.ndarray  # (s, m)
    cost_per_hour: np.ndarray  # (s, m)
    #: Idle power of platform devices outside the candidate aliases, keyed by
    #: position in ``device_order`` restricted to those devices: ``(s, n_extra)``.
    extra_idle_power: np.ndarray
    missing_links: frozenset = frozenset()
    #: Name of the workload the tables were built from (chain/graph name).
    workload: str = ""
    #: Content fingerprint of the build configuration (see
    #: :func:`repro.devices.tables.build_tables`); empty for hand-built
    #: tables, derived on first read for delta-rebuilt ones.
    fingerprint: str = _DerivedKey()
    #: Build provenance enabling delta rebuilds; ``None`` for tables built
    #: from pre-derived platform sequences.
    build_context: "GridBuildContext | None" = None
    #: How this build sourced its scenario slices (cache-served vs computed);
    #: ``None`` for hand-built tables.
    slice_stats: "GridSliceStats | None" = None

    @property
    def n_scenarios(self) -> int:
        return len(self.platforms)

    @property
    def n_tasks(self) -> int:
        return len(self.task_names)

    @property
    def n_devices(self) -> int:
        return len(self.aliases)

    @property
    def host(self) -> str:
        return self.platforms[0].host

    def _scenario_index(self, index: int) -> int:
        """Normalize a scenario index (negative counts from the end)."""
        s = self.n_scenarios
        i = operator.index(index)
        j = i + s if i < 0 else i
        if not 0 <= j < s:
            raise IndexError(
                f"scenario index {i} out of range for {s} scenarios (valid: {-s}..{s - 1})"
            )
        return j

    def cache_stats(self) -> GridSliceStats:
        """Slice provenance of this build: how many of its scenario slices
        came out of the table cache vs were computed fresh."""
        if self.slice_stats is not None:
            return self.slice_stats
        return GridSliceStats(served=0, built=self.n_scenarios)

    def table(self, index: int) -> ChainCostTables:
        """The :class:`ChainCostTables` of one scenario (bitwise identical to
        ``ChainCostTables.build(chain, platforms[index], aliases)``); negative
        indices count from the end, like :meth:`GridExecutionResult.batch`."""
        index = self._scenario_index(index)
        return ChainCostTables(
            task_names=self.task_names,
            platform=self.platforms[index],
            aliases=self.aliases,
            busy=self.busy[index],
            hostio_time=self.hostio_time[index],
            hostio_bytes=self.hostio_bytes,
            energy_in=self.energy_in[index],
            energy_out=self.energy_out[index],
            task_flops=self.task_flops,
            penalty_time=self.penalty_time[index],
            penalty_energy=self.penalty_energy[index],
            penalty_bytes=self.penalty_bytes,
            first_penalty_time=self.first_penalty_time[index],
            first_penalty_energy=self.first_penalty_energy[index],
            first_penalty_bytes=self.first_penalty_bytes,
            missing_links=self.missing_links,
            workload=self.workload,
            fingerprint=f"{self.fingerprint}#scenario{index}" if self.fingerprint else "",
        )

    def updated(
        self, scenario_index: int, scenario: "Scenario", *, slice_cache: "TableCache | None" = None
    ) -> "GridCostTables":
        """Delta rebuild: these tables with one scenario replaced.

        Only the replaced scenario's condition slice is recomputed (or served
        from ``slice_cache`` by content fingerprint); every other row is
        reused as-is, which the differential tests pin bitwise against a full
        rebuild.  Negative indices count from the end.
        """
        return self.updated_many({scenario_index: scenario}, slice_cache=slice_cache)

    def updated_many(
        self,
        replacements: "ScenarioRows | Mapping[int, Scenario] | Sequence[tuple[int, Scenario]]",
        *,
        slice_cache: "TableCache | None" = None,
    ) -> "GridCostTables":
        """Batched :meth:`updated`: replace several scenarios in one pass.

        ``replacements`` is a :class:`~repro.scenarios.grid.ScenarioRows`
        (what :meth:`SampledFleet.resample_users
        <repro.fleet.SampledFleet.resample_users>` returns: row indices plus
        a columnar replacement grid) or any ``{index: Scenario}`` mapping /
        ``(index, scenario)`` sequence.  The replaced rows' condition slices
        are computed in one fused pass and spliced into copies of the arrays.
        """
        context = self.build_context
        if context is None:
            raise ValueError(
                "these grid tables carry no build context for delta rebuilds; "
                "build them from a base platform plus scenarios "
                "(build_tables(..., scenarios=...) or executor.grid_cost_tables) "
                "rather than from pre-derived platforms"
            )
        from ..scenarios.conditions import Scenario
        from ..scenarios.grid import ScenarioGrid, ScenarioRows

        s = self.n_scenarios
        if isinstance(replacements, ScenarioRows):
            rows = replacements.rows
            outside = (rows < -s) | (rows >= s)
            if outside.any():
                self._scenario_index(int(rows[outside][0]))  # raises IndexError
            rows = rows % s
            unique, counts = np.unique(rows, return_counts=True)
            if (counts > 1).any():
                raise ValueError(
                    f"duplicate replacement for scenario index {int(unique[counts > 1][0])}"
                )
            replacement = replacements.replacement
        else:
            normalized: dict[int, "Scenario"] = {}
            for index, scenario in dict(replacements).items():
                i = self._scenario_index(index)
                if i in normalized:
                    raise ValueError(f"duplicate replacement for scenario index {i}")
                if not isinstance(scenario, Scenario):
                    raise TypeError(f"expected a Scenario replacement, got {scenario!r}")
                normalized[i] = scenario
            if not normalized:
                return self
            rows = np.array(list(normalized), dtype=np.intp)
            replacement = ScenarioGrid(normalized.values())
        new_grid = context.scenarios.with_rows(rows, replacement)  # re-validates names

        changes = {name: getattr(self, name).copy() for name in _SLICE_FIELDS}
        _, stats = _slice_values(context, replacement, slice_cache, out=changes, at=rows)
        return replace(
            self,
            platforms=ScenarioPlatforms(context.platform, new_grid),
            build_context=replace(context, scenarios=new_grid),
            # Keyed tables stay keyed: on first read the key is derived from
            # the new context, equal to build_tables' key for it, so
            # executor-level caches recognise the rebuilt tables.
            fingerprint=_DERIVE_KEY if self.__dict__["_fingerprint"] else "",
            slice_stats=stats,
            **changes,
        )

    def execute(self, placements: np.ndarray) -> "GridExecutionResult":
        """Evaluate a placement batch under every condition (protocol entry)."""
        return execute_placements_grid(self, placements)


@dataclass(frozen=True)
class GraphGridCostTables(GridCostTables):
    """Condition-stacked cost tables of a :class:`~repro.tasks.graph.TaskGraph`.

    Same value arrays as :class:`GridCostTables` (built over the graph's
    topologically ordered tasks), plus the dependency structure.  Per-scenario
    slices are :class:`~repro.devices.batch.GraphCostTables`, so
    :meth:`GridExecutionResult.batch` views replay graph semantics.
    """

    #: Per topological position, the predecessors' topological positions.
    pred_positions: tuple[tuple[int, ...], ...] = ()

    def table(self, index: int) -> ChainCostTables:
        """The :class:`~repro.devices.batch.GraphCostTables` of one scenario."""
        return as_graph_tables(super().table(index), self.pred_positions)


def _one_scenario_grid(tables: ChainCostTables) -> GridCostTables:
    """Plain tables as a one-scenario grid: ``np.newaxis`` views, no copies.

    Every plain evaluation runs through this view, so the grid kernels are
    the only kernels; ``table(0)`` of the view equals ``tables`` field for
    field.
    """
    platform = tables.platform
    specs = [platform.device(alias) for alias in tables.aliases]
    extra = [
        spec.power_idle_w for alias, spec in platform.devices.items() if alias not in tables.aliases
    ]
    values = {
        "task_names": tables.task_names,
        "platforms": (platform,),
        "aliases": tables.aliases,
        "device_order": tuple(platform.devices),
        "power_active": np.array([[spec.power_active_w for spec in specs]]),
        "power_idle": np.array([[spec.power_idle_w for spec in specs]]),
        "cost_per_hour": np.array([[spec.cost_per_hour for spec in specs]]),
        "extra_idle_power": np.array(extra, dtype=float)[np.newaxis],
        "missing_links": tables.missing_links,
        "workload": tables.workload,
    }
    for name in _SCENARIO_TABLES:
        values[name] = getattr(tables, name)[np.newaxis]
    for name in _STATIC_TABLES:
        values[name] = getattr(tables, name)
    if isinstance(tables, GraphCostTables):
        return GraphGridCostTables(**values, pred_positions=tables.pred_positions)
    return GridCostTables(**values)


# ---------------------------------------------------------------------------
# shared construction machinery
# ---------------------------------------------------------------------------


def _grid_build_context(
    workload: TaskChain | TaskGraph,
    platform: Platform,
    scenarios: "ScenarioGrid",
    devices: Sequence[str] | None,
) -> GridBuildContext:
    return GridBuildContext(
        platform=platform,
        scenarios=scenarios,
        devices=tuple(devices) if devices is not None else None,
        workload_fingerprint=cached_fingerprint(workload),
        task_costs=tuple(workload.costs()),
    )


def _slice_keys(context: GridBuildContext, grid: "ScenarioGrid") -> list[tuple]:
    """Content-addressed cache keys of every row's condition slice."""
    prefix = context._slice_key_prefix
    return [prefix + (digest,) for digest in scenario_row_digests(grid)]


def _missing_link_topology(
    platform: Platform, aliases: Sequence[str], host: str
) -> tuple[frozenset, np.ndarray]:
    """Which candidate links are absent from the (shared) topology.

    Conditions never rewire a platform, so link presence is a property of the
    base platform alone.
    """
    links = platform.links

    def has(a: str, b: str) -> bool:
        return ((a, b) if a <= b else (b, a)) in links

    missing: set[tuple[str, str]] = set()
    host_missing = np.zeros(len(aliases), dtype=bool)
    for d, alias in enumerate(aliases):
        if alias != host and not has(host, alias):
            missing.add((host, alias))
            host_missing[d] = True
    for a in aliases:
        for b in aliases:
            if a != b and not has(a, b):
                missing.add((a, b))
    return frozenset(missing), host_missing


@dataclass
class _GridParamArrays:
    """Gathered ``(scenario, ...)`` parameter arrays feeding the formula core."""

    peak: np.ndarray  # (s, m)
    half_saturation: np.ndarray  # (s, m)
    mem_bw: np.ndarray  # (s, m)
    launch: np.ndarray  # (s, m)
    startup: np.ndarray  # (s, m)
    power_active: np.ndarray  # (s, m)
    power_idle: np.ndarray  # (s, m)
    cost_per_hour: np.ndarray  # (s, m)
    host_bw: np.ndarray  # (s, m), NaN where absent
    host_lat: np.ndarray  # (s, m)
    host_epb: np.ndarray  # (s, m)
    host_missing: np.ndarray  # (m,) bool
    pair_bw: np.ndarray  # (s, m, m), NaN where absent
    pair_lat: np.ndarray  # (s, m, m)
    pair_epb: np.ndarray  # (s, m, m)
    extra_idle_power: np.ndarray  # (s, n_extra)
    missing: frozenset


def _fused_params(
    params: PlatformParams, aliases: Sequence[str], host: str
) -> _GridParamArrays:
    """The one parameter gather: column slices of the array bundle.

    The arrays hold exactly the floats the scalar axis math would have put on
    derived ``DeviceSpec``/``LinkSpec`` objects (elementwise float64 ops round
    identically), so the result is bitwise a per-platform ``getattr`` gather
    over the derived platforms (the test suite keeps that gather as its
    oracle).
    """
    s, m = params.n_scenarios, len(aliases)
    missing, host_missing = _missing_link_topology(params.base, aliases, host)

    dev_index = {alias: i for i, alias in enumerate(params.device_order)}
    cand = np.array([dev_index[alias] for alias in aliases], dtype=np.intp)

    def dev(name: str) -> np.ndarray:
        return params.device[name][:, cand]

    pair_index = {pair: i for i, pair in enumerate(params.link_pairs)}

    def link_col(a: str, b: str) -> int:
        return pair_index[(a, b) if a <= b else (b, a)]

    host_bw = np.full((s, m), np.nan)
    host_lat = np.full((s, m), np.nan)
    host_epb = np.full((s, m), np.nan)
    for d, alias in enumerate(aliases):
        if alias == host or host_missing[d]:
            continue
        col = link_col(host, alias)
        host_bw[:, d] = params.link["bandwidth_gbs"][:, col]
        host_lat[:, d] = params.link["latency_s"][:, col]
        host_epb[:, d] = params.link["energy_per_byte_j"][:, col]

    pair_bw = np.full((s, m, m), np.nan)
    pair_lat = np.full((s, m, m), np.nan)
    pair_epb = np.full((s, m, m), np.nan)
    for i, a in enumerate(aliases):
        for j, b in enumerate(aliases):
            if a == b or (a, b) in missing:
                continue
            col = link_col(a, b)
            pair_bw[:, i, j] = params.link["bandwidth_gbs"][:, col]
            pair_lat[:, i, j] = params.link["latency_s"][:, col]
            pair_epb[:, i, j] = params.link["energy_per_byte_j"][:, col]

    extra = [alias for alias in params.device_order if alias not in aliases]
    extra_cols = np.array([dev_index[alias] for alias in extra], dtype=np.intp)
    extra_idle_power = params.device["power_idle_w"][:, extra_cols].reshape(s, len(extra))

    return _GridParamArrays(
        peak=dev("peak_gflops"),
        half_saturation=dev("half_saturation_flops"),
        mem_bw=dev("memory_bandwidth_gbs"),
        launch=dev("kernel_launch_overhead_s"),
        startup=dev("task_startup_overhead_s"),
        power_active=dev("power_active_w"),
        power_idle=dev("power_idle_w"),
        cost_per_hour=dev("cost_per_hour"),
        host_bw=host_bw,
        host_lat=host_lat,
        host_epb=host_epb,
        host_missing=host_missing,
        pair_bw=pair_bw,
        pair_lat=pair_lat,
        pair_epb=pair_epb,
        extra_idle_power=extra_idle_power,
        missing=missing,
    )


def _apply_grid_conditions(
    params: PlatformParams, grid: "ScenarioGrid", rows: "Sequence[int] | None" = None
) -> None:
    """Apply the condition columns of ``grid`` (or of some ``rows``) in place.

    One ``scale_arrays`` call per (pattern, position): settings positions are
    walked in order, so each row's axes apply in its own settings order, and
    the rows of different patterns are disjoint, so the arithmetic per row is
    exactly the scalar sequence of apply() calls.  An axis that
    :func:`~repro.scenarios.conditions.vectorized_axis` rejects runs through
    the base class' generic row adapter instead of its own hook.
    """
    from ..scenarios.conditions import ConditionAxis, vectorized_axis

    index = grid.pattern_index if rows is None else grid.pattern_index[rows]
    values = grid.values if rows is None else grid.values[rows]
    members = [np.flatnonzero(index == p) for p in range(len(grid.patterns))]
    for step in range(values.shape[1]):
        for pattern, pattern_rows in zip(grid.patterns, members):
            if step < len(pattern) and pattern_rows.size:
                axis = pattern[step]
                scale = type(axis).scale_arrays if vectorized_axis(axis) else ConditionAxis.scale_arrays
                scale(axis, params, pattern_rows, values[pattern_rows, step])


def _grid_value_arrays(costs: Sequence, pa: _GridParamArrays, nonhost: np.ndarray) -> dict:
    """The scenario-dependent grid tables from gathered parameter arrays.

    The formula core of every grid build and of delta rebuilds.  Every
    operation is elementwise along the scenario axis, so computing any
    scenario subset reproduces the full build's rows bitwise.
    """
    s, m = pa.peak.shape
    k = len(costs)

    busy = np.empty((s, k, m))
    hostio_time = np.zeros((s, k, m))
    energy_in = np.zeros((s, k, m))
    energy_out = np.zeros((s, k, m))
    any_nonhost = bool(nonhost.any())
    for t, cost in enumerate(costs):
        busy[:, t, :] = costmodel.busy_time(
            cost.flops, cost.kernel_calls, cost.working_set_bytes, pa.peak, pa.half_saturation, pa.mem_bw, pa.launch
        )
        if any_nonhost:
            # Host I/O and startup only exist for offloaded tasks; the same
            # single addition per value as the scalar build.
            hostio_time[:, t, nonhost] = (
                costmodel.transfer_time(cost.input_bytes, pa.host_bw, pa.host_lat)
                + costmodel.transfer_time(cost.output_bytes, pa.host_bw, pa.host_lat)
            )[:, nonhost]
            energy_in[:, t, nonhost] = costmodel.transfer_energy(cost.input_bytes, pa.host_epb)[:, nonhost]
            energy_out[:, t, nonhost] = costmodel.transfer_energy(cost.output_bytes, pa.host_epb)[:, nonhost]
            busy[:, t, nonhost] += pa.startup[:, nonhost]
    # Missing host links poison every link-dependent field, even for zero-byte
    # transfers (the scalar build NaNs the whole entry via the KeyError path).
    if pa.host_missing.any():
        hostio_time[:, :, pa.host_missing] = np.nan
        energy_in[:, :, pa.host_missing] = np.nan
        energy_out[:, :, pa.host_missing] = np.nan

    offdiag = ~np.eye(m, dtype=bool)
    penalty_time = np.zeros((s, m, m))
    penalty_energy = np.zeros((s, m, m))
    penalty_time[:, offdiag] = costmodel.transfer_time(PENALTY_MESSAGE_BYTES, pa.pair_bw, pa.pair_lat)[
        :, offdiag
    ]
    penalty_energy[:, offdiag] = costmodel.transfer_energy(PENALTY_MESSAGE_BYTES, pa.pair_epb)[:, offdiag]

    first_penalty_time = np.zeros((s, m))
    first_penalty_energy = np.zeros((s, m))
    first_penalty_time[:, nonhost] = costmodel.transfer_time(
        PENALTY_MESSAGE_BYTES, pa.host_bw, pa.host_lat
    )[:, nonhost]
    first_penalty_energy[:, nonhost] = costmodel.transfer_energy(PENALTY_MESSAGE_BYTES, pa.host_epb)[
        :, nonhost
    ]
    if pa.host_missing.any():
        first_penalty_time[:, pa.host_missing] = np.nan
        first_penalty_energy[:, pa.host_missing] = np.nan

    return {
        "busy": busy,
        "hostio_time": hostio_time,
        "energy_in": energy_in,
        "energy_out": energy_out,
        "penalty_time": penalty_time,
        "penalty_energy": penalty_energy,
        "first_penalty_time": first_penalty_time,
        "first_penalty_energy": first_penalty_energy,
        "power_active": pa.power_active,
        "power_idle": pa.power_idle,
        "cost_per_hour": pa.cost_per_hour,
        "extra_idle_power": pa.extra_idle_power,
    }


def _static_value_arrays(costs: Sequence, nonhost: np.ndarray, m: int) -> dict:
    """The scenario-independent grid tables (byte counts, FLOPs)."""
    k = len(costs)
    task_flops = np.array([cost.flops for cost in costs], dtype=float)
    hostio_bytes = np.zeros((k, m))
    if nonhost.any():
        for t, cost in enumerate(costs):
            hostio_bytes[t, nonhost] = cost.transferred_bytes
    offdiag = ~np.eye(m, dtype=bool)
    penalty_bytes = np.where(offdiag, PENALTY_MESSAGE_BYTES, 0.0)
    first_penalty_bytes = np.where(nonhost, PENALTY_MESSAGE_BYTES, 0.0)
    return {
        "hostio_bytes": hostio_bytes,
        "task_flops": task_flops,
        "penalty_bytes": penalty_bytes,
        "first_penalty_bytes": first_penalty_bytes,
    }


def _build_grid_tables(
    workload: TaskChain | TaskGraph,
    platform: "Platform | Sequence[Platform]",
    devices: Sequence[str] | None = None,
    *,
    scenarios: "ScenarioGrid | None" = None,
    slice_cache: "TableCache | None" = None,
) -> GridCostTables:
    """The grid builder behind :func:`~repro.devices.tables.build_tables`.

    ``platform`` is either a sequence of scenario platforms, stacked one per
    row (every platform must share the first one's devices, host and links
    -- conditions re-parameterize a platform, they do not rewire it), or a
    base platform plus ``scenarios``.  A scenario build carries a
    :class:`GridBuildContext` for delta rebuilds, derives its platforms
    lazily (:class:`ScenarioPlatforms`) and, with a ``slice_cache``, serves
    previously built scenario slices by content fingerprint instead of
    recomputing them (see :meth:`GridCostTables.cache_stats`).

    Either way each scenario's slice is bitwise identical to the scalar
    per-platform build, and a :class:`~repro.tasks.graph.TaskGraph` workload
    yields :class:`GraphGridCostTables` (the same values over the
    topologically ordered tasks, plus the dependency structure).
    """
    if scenarios is None:
        platforms = tuple(platform)
        params = PlatformParams.stack(platforms)
        base, context = platforms[0], None
    else:
        base, platforms = platform, ScenarioPlatforms(platform, scenarios)
        context = _grid_build_context(workload, base, scenarios, devices)
    aliases = resolve_aliases(base, devices)
    nonhost = np.array([alias != base.host for alias in aliases])
    if context is None:
        costs = workload.costs()
        values = _grid_value_arrays(costs, _fused_params(params, aliases, base.host), nonhost)
        stats = GridSliceStats(served=0, built=len(platforms))
    else:
        costs = context.task_costs
        values, stats = _slice_values(context, scenarios, slice_cache)
    tables = dict(
        task_names=tuple(workload.task_names),
        platforms=platforms,
        aliases=aliases,
        device_order=tuple(base.devices),
        missing_links=_missing_link_topology(base, aliases, base.host)[0],
        workload=workload.name,
        build_context=context,
        slice_stats=stats,
        **values,
        **_static_value_arrays(costs, nonhost, len(aliases)),
    )
    if isinstance(workload, TaskGraph):
        return GraphGridCostTables(**tables, pred_positions=workload.predecessor_positions)
    return GridCostTables(**tables)


def _slice_values(
    context: GridBuildContext,
    grid: "ScenarioGrid",
    slice_cache: "TableCache | None",
    out: "dict[str, np.ndarray] | None" = None,
    at: "np.ndarray | None" = None,
) -> "tuple[dict[str, np.ndarray], GridSliceStats]":
    """The condition slices of every row of ``grid``.

    Row ``j`` lands at ``out[name][at[j]]``, or in fresh row-ordered arrays
    when ``out`` is None.  With a ``slice_cache``, rows whose slice was built
    before are served by content key (:func:`~repro.cache.scenario_row_digests`)
    and the rest are computed in one pass and stored; without one, no
    per-row key is made.
    """
    served: dict[int, GridSlice] = {}
    keys: "list[tuple] | None" = None
    if slice_cache is not None:
        keys = _slice_keys(context, grid)
        for j, key in enumerate(keys):
            hit = slice_cache.get(key)
            if hit is not None:
                served[j] = hit
    need = [j for j in range(len(grid)) if j not in served] if served else range(len(grid))
    built = _condition_values(context, grid, need if served else None) if need else None
    stats = GridSliceStats(served=len(served), built=len(need))
    if keys is not None:
        for pos, j in enumerate(need):
            piece = GridSlice(**{name: built[name][pos].copy() for name in _SLICE_FIELDS})
            slice_cache.put(keys[j], piece)
    if out is None and not served:
        return built, stats
    if out is None:
        sample = next(iter(served.values()))
        out = {
            name: np.empty((len(grid),) + getattr(sample, name).shape)
            for name in _SLICE_FIELDS
        }
        at = np.arange(len(grid))
    built_at = at[need] if served else at
    served_at = [(int(at[j]), piece) for j, piece in served.items()]
    for name in _SLICE_FIELDS:
        target = out[name]
        if need:
            target[built_at] = built[name]
        for row, piece in served_at:
            target[row] = getattr(piece, name)
    return out, stats


def _condition_values(
    context: GridBuildContext, grid: "ScenarioGrid", rows: "Sequence[int] | None" = None
) -> dict:
    """Compute the condition slices of ``grid``'s rows (or of some ``rows``).

    The formula core is elementwise per scenario row, so the slices match a
    full rebuild bitwise.
    """
    platform = context.platform
    aliases = resolve_aliases(platform, context.devices)
    nonhost = np.array([alias != platform.host for alias in aliases])
    params = PlatformParams.gather(platform, len(grid) if rows is None else len(rows))
    _apply_grid_conditions(params, grid, rows)
    return _grid_value_arrays(
        context.task_costs, _fused_params(params, aliases, platform.host), nonhost
    )


@dataclass(frozen=True)
class GridExecutionResult:
    """Array-form execution records of one batch under every condition.

    Scenario-dependent metrics have shape ``(n_conditions, n_placements)``
    (per-device columns ``(n_conditions, n_placements, n_devices)``); byte
    counts and FLOPs, which conditions cannot change, are stored once.
    Every slice along the condition axis is bitwise identical to evaluating
    the scenario's derived platform on its own -- :meth:`batch` materialises
    that view on demand, and a plain batch is exactly ``batch(0)`` of a
    one-scenario grid.

    The per-device energy breakdowns :attr:`active_j` / :attr:`idle_j` are
    computed lazily on first access: the scalar totals already fold them in,
    so the full ``(s, n, m)`` breakdown cubes only cost memory traffic when a
    caller actually inspects them.
    """

    tables: GridCostTables
    placements: np.ndarray
    total_time_s: np.ndarray  # (s, n)
    busy_by_device: np.ndarray  # (s, n, m)
    flops_by_device: np.ndarray  # (n, m)
    transferred_bytes: np.ndarray  # (n,)
    transfer_energy_j: np.ndarray  # (s, n)
    energy_total_j: np.ndarray  # (s, n)
    operating_cost: np.ndarray  # (s, n)

    @cached_property
    def active_j(self) -> np.ndarray:
        """Per-device active energy ``(s, n, m)``, computed on first access."""
        return self.busy_by_device * self.tables.power_active[:, None, :]

    @cached_property
    def idle_j(self) -> np.ndarray:
        """Per-device idle energy ``(s, n, m)``, computed on first access."""
        return (
            np.maximum(self.total_time_s[:, :, None] - self.busy_by_device, 0.0)
            * self.tables.power_idle[:, None, :]
        )

    def __len__(self) -> int:
        """Number of placements (matching :class:`BatchExecutionResult`)."""
        return self.placements.shape[0]

    @property
    def n_scenarios(self) -> int:
        return self.tables.n_scenarios

    @property
    def aliases(self) -> tuple[str, ...]:
        return self.tables.aliases

    def placement(self, index: int) -> tuple[str, ...]:
        return tuple(self.aliases[d] for d in self.placements[index])

    def label(self, index: int) -> str:
        return "".join(self.placement(index))

    def labels(self) -> list[str]:
        return placement_labels(self.placements, self.aliases)

    def metric_values(self, metric: str = "time") -> np.ndarray:
        """``(n_conditions, n_placements)`` values of one scalar metric."""
        if metric == "time":
            return self.total_time_s
        if metric == "energy":
            return self.energy_total_j
        if metric == "cost":
            return self.operating_cost
        raise ValueError(f"unknown metric {metric!r}; choose 'time', 'energy' or 'cost'")

    def batch(self, index: int) -> BatchExecutionResult:
        """One scenario's :class:`BatchExecutionResult` (views, no copies);
        negative indices count from the end."""
        index = self.tables._scenario_index(index)
        return self._view(index, self.tables.table(index))

    def _view(self, index: int, tables: ChainCostTables) -> BatchExecutionResult:
        """Scenario ``index`` as a batch result carrying ``tables``."""
        return BatchExecutionResult(
            tables=tables,
            placements=self.placements,
            total_time_s=self.total_time_s[index],
            busy_by_device=self.busy_by_device[index],
            flops_by_device=self.flops_by_device,
            transferred_bytes=self.transferred_bytes,
            transfer_energy_j=self.transfer_energy_j[index],
            active_j=self.active_j[index],
            idle_j=self.idle_j[index],
            energy_total_j=self.energy_total_j[index],
            operating_cost=self.operating_cost[index],
        )

    def batches(self):
        """Iterate the per-scenario batch views, in grid order."""
        for index in range(self.n_scenarios):
            yield self.batch(index)


def execute_placements_grid(tables: GridCostTables, placements: np.ndarray) -> GridExecutionResult:
    """Evaluate every placement under every condition in one vectorized pass.

    The chain kernel (and, for :class:`GraphGridCostTables`, the entry to the
    graph kernel): gathers and left folds in task order with a leading
    condition axis, so every ``(scenario, placement)`` element undergoes the
    identical sequence of IEEE-754 operations as the sequential executor on
    the scenario's platform -- bitwise equal results.  Plain batches run
    here too, as one-scenario grids (see :func:`_one_scenario_grid`).
    """
    P = as_placement_matrix(placements, tables.aliases, tables.n_tasks, workload=tables.workload)
    P = P.astype(np.intp, copy=False)
    if isinstance(tables, GraphGridCostTables):
        return _execute_graph_placements_grid(tables, P)
    n, k = P.shape
    s, m = tables.n_scenarios, tables.n_devices

    # Condition math in compact space: a task's time contribution is
    # ``busy + (hostio + penalty)``, which takes at most m*m distinct values
    # per (scenario, task) -- one per (previous device, device) pair.  The
    # combine therefore runs on (s, m, m) tables and only the final gather and
    # accumulator add touch (s, n).  Per element this is the identical
    # sequence of IEEE-754 operations as the per-task expansion of the
    # sequential fold (the gather merely deduplicates them), so results stay
    # bitwise equal.
    energy_in_flat = tables.energy_in.reshape(s, k * m)
    energy_out_flat = tables.energy_out.reshape(s, k * m)
    pen_energy_flat = tables.penalty_energy.reshape(s, m * m)
    hostio_bytes_flat = tables.hostio_bytes.ravel()
    pen_bytes_flat = tables.penalty_bytes.ravel()

    total_time: np.ndarray | None = None
    transfer_energy: np.ndarray | None = None
    transferred = np.zeros(n)
    flops_by_device = np.zeros((n, m))
    rows = np.arange(n)
    # Device-major busy planes: busy_block[d] is a contiguous (s, n) slab, so
    # both the accumulation and the per-device finalization sums run on
    # contiguous memory; the (s, n, m) result view is a free transpose.
    # A placement's busy time (and FLOPs) on device d is the task-order sum
    # over the tasks it maps to d (the sequential fold adds busy * False ==
    # 0.0 for the rest, a bitwise no-op on these non-negative values), so
    # when the 2**k possible subset sums per (scenario, device) take no more
    # room than the busy planes they are built once and gathered instead;
    # otherwise each task scatters into its device's plane.
    subset_fold = (1 << k) <= n
    if subset_fold:
        busy_block = np.empty((m, s, n))
    else:
        busy_block = np.zeros((m, s, n))
        busy_flat = tables.busy.reshape(s, k * m)

    for t in range(k):
        col = P[:, t]
        cols_t = t * m + col
        if t == 0:
            combined = tables.hostio_time[:, 0, :] + tables.first_penalty_time  # (s, m)
            combined += tables.busy[:, 0, :]
            pen_bytes_t = tables.first_penalty_bytes.take(col)
            pen_energy_t = tables.first_penalty_energy[:, col]
            # The accumulators start at 0.0 and every contribution is
            # non-negative, so seeding them from the first task's (owned)
            # gathers equals the sequential fold's explicit zeros + add.
            total_time = combined[:, col]
            transfer_energy = energy_in_flat[:, cols_t]
        else:
            pair = P[:, t - 1] * m + col
            combined = tables.hostio_time[:, t, None, :] + tables.penalty_time  # (s, m, m)
            combined += tables.busy[:, t, None, :]
            pen_bytes_t = pen_bytes_flat.take(pair)
            pen_energy_t = pen_energy_flat[:, pair]
            np.add(total_time, combined.reshape(s, m * m)[:, pair], out=total_time)
            np.add(transfer_energy, energy_in_flat[:, cols_t], out=transfer_energy)
        transferred += hostio_bytes_flat.take(cols_t) + pen_bytes_t
        np.add(transfer_energy, energy_out_flat[:, cols_t], out=transfer_energy)
        np.add(transfer_energy, pen_energy_t, out=transfer_energy)
        # Scatter-adds: a row touches exactly one device cell per task (the
        # index pairs are unique, so plain fancy += is safe), and the
        # accumulators never hold -0.0 (they start at +0.0 and every term is
        # >= 0), so dropping the sequential fold's masked +0.0 additions for
        # the other devices is bitwise neutral.
        if not subset_fold:
            flops_by_device[rows, col] += tables.task_flops[t]
            busy_block[col, :, rows] += busy_flat[:, cols_t].T

    if total_time is None:  # zero-task workload: nothing to fold
        total_time = np.zeros((s, n))
        transfer_energy = np.zeros((s, n))
    # A placement crossing a missing link picks up a NaN transfer time, and
    # NaN survives every add of the fold.
    if tables.missing_links:
        _reject_missing_links(tables, P, np.isnan(total_time).any(axis=0))
    if subset_fold:
        # subsets[i, d]: bitmask of the tasks row i places on device d (a sum
        # of distinct powers of two, exact in float64 below 2**53).
        cells = (rows * m)[:, None] + P
        weights = np.broadcast_to(np.ldexp(1.0, np.arange(k)), (n, k))
        subsets = np.bincount(cells.ravel(), weights.ravel(), minlength=n * m)
        subsets = subsets.astype(np.intp).reshape(n, m)
        # sums[:, d, c] / flop_sums[c]: the task-order left fold of device
        # d's busy times / of the FLOPs over the tasks in bitmask c.
        sums = np.empty((s, m, 1 << k))
        flop_sums = np.empty(1 << k)
        sums[:, :, 0] = flop_sums[0] = 0.0
        for t in range(k):
            low, high = slice(0, 1 << t), slice(1 << t, 2 << t)
            np.add(sums[:, :, low], tables.busy[:, t, :, None], out=sums[:, :, high])
            np.add(flop_sums[low], tables.task_flops[t], out=flop_sums[high])
        for d in range(m):
            np.take(sums[:, d], subsets[:, d], axis=1, out=busy_block[d])
        flops_by_device = flop_sums[subsets]

    return _finalize_grid(
        tables,
        P,
        total_time,
        transferred,
        transfer_energy,
        busy_block.transpose(1, 2, 0),
        flops_by_device,
        busy_cols=tuple(busy_block),
    )


def _reject_missing_links(tables: GridCostTables, P: np.ndarray, bad_rows: np.ndarray) -> None:
    """Reject the first placement flagged in ``bad_rows`` (one bool per row).

    Only placements that actually traverse a missing link fail, like the
    sequential executor.  The error walks the first flagged placement's tasks
    in order and names the first link it needs but the platform lacks: a
    task's host link first, then the hop from each predecessor in canonical
    edge order (a chain task's only predecessor is the task before it).
    Conditions never rewire a platform, so every scenario has the same gaps.
    """
    if not bad_rows.any():
        return
    i = int(np.argmax(bad_rows))
    row = P[i]
    preds = getattr(tables, "pred_positions", None)
    for t, d in enumerate(row):
        sources = preds[t] if preds is not None else (t - 1,) if t else ()
        if np.isnan(tables.hostio_time[:, t, d]).any() or (
            not sources and np.isnan(tables.first_penalty_time[:, d]).any()
        ):
            a = tables.host
        else:
            gaps = [p for p in sources if np.isnan(tables.penalty_time[:, row[p], d]).any()]
            if not gaps:
                continue
            a = tables.aliases[row[gaps[0]]]
        raise KeyError(
            f"no link defined between {a!r} and {tables.aliases[d]!r} "
            f"(required by placement {placement_labels(P[i : i + 1], tables.aliases)[0]!r})"
        )


def _finalize_grid(
    tables: GridCostTables,
    P: np.ndarray,
    total_time: np.ndarray,
    transferred: np.ndarray,
    transfer_energy: np.ndarray,
    busy_by_device: np.ndarray,
    flops_by_device: np.ndarray,
    busy_cols: tuple[np.ndarray, ...] | None = None,
) -> GridExecutionResult:
    """Per-device energy/cost finalization shared by the chain and graph grid engines.

    ``busy_cols`` optionally supplies contiguous per-device ``(s, n)`` views of
    ``busy_by_device`` (the chain fast path accumulates device-major planes);
    when absent, strided column views are taken.  The per-device active/idle
    energy terms are summed column by column -- each column's elementwise
    product and the fold order match the full-cube formulation exactly, so the
    totals are bitwise unchanged while the ``(s, n, m)`` breakdown cubes are
    deferred to :attr:`GridExecutionResult.active_j` / ``idle_j``.
    """
    s, n = total_time.shape
    if busy_cols is None:
        busy_cols = tuple(busy_by_device[:, :, j] for j in range(tables.n_devices))

    # Fold the per-device energy/cost terms in the shared device order,
    # exactly like the sequential executor walks platform.devices; candidate
    # devices contribute active/idle/cost columns, the rest idle throughout.
    column = {alias: j for j, alias in enumerate(tables.aliases)}
    operating_cost = np.zeros((s, n))
    active_sum = np.zeros((s, n))
    idle_sum = np.zeros((s, n))
    # One reusable (s, n) staging buffer: each term is composed with explicit
    # out= steps -- the identical per-element operation sequence as the
    # expression form, without a fresh temporary per operation.
    scratch = np.empty((s, n))
    extra_position = 0
    for alias in tables.device_order:
        j = column.get(alias)
        if j is None:
            idle_w = tables.extra_idle_power[:, extra_position]
            extra_position += 1
            np.subtract(total_time, 0.0, out=scratch)
            np.maximum(scratch, 0.0, out=scratch)
            np.multiply(scratch, idle_w[:, None], out=scratch)
            np.add(idle_sum, scratch, out=idle_sum)
            continue
        b_j = busy_cols[j]
        np.multiply(tables.cost_per_hour[:, j, None], b_j, out=scratch)
        np.divide(scratch, 3600.0, out=scratch)
        np.add(operating_cost, scratch, out=operating_cost)
        np.multiply(b_j, tables.power_active[:, j, None], out=scratch)
        np.add(active_sum, scratch, out=active_sum)
        np.subtract(total_time, b_j, out=scratch)
        np.maximum(scratch, 0.0, out=scratch)
        np.multiply(scratch, tables.power_idle[:, j, None], out=scratch)
        np.add(idle_sum, scratch, out=idle_sum)
    # energy_total = (active + idle) + transfer, folded in place (active_sum
    # is not otherwise retained).
    np.add(active_sum, idle_sum, out=active_sum)
    np.add(active_sum, transfer_energy, out=active_sum)
    energy_total = active_sum

    return GridExecutionResult(
        tables=tables,
        placements=P,
        total_time_s=total_time,
        busy_by_device=busy_by_device,
        flops_by_device=flops_by_device,
        transferred_bytes=transferred,
        transfer_energy_j=transfer_energy,
        energy_total_j=energy_total,
        operating_cost=operating_cost,
    )


def _execute_graph_placements_grid(
    tables: GraphGridCostTables, P: np.ndarray
) -> GridExecutionResult:
    """The graph kernel: a DAG placement matrix under every condition in one pass.

    Edge-ordered penalty folds, max-over-predecessors ready times and a
    running-max critical path, with a leading condition axis -- every
    ``(scenario, placement)`` element is bitwise identical to
    ``SimulatedExecutor.execute_graph`` on the scenario's platform.
    """
    n, k = P.shape
    s, m = tables.n_scenarios, tables.n_devices
    preds = tables.pred_positions

    # Flat-index takes: one contiguous gather per table instead of broadcast
    # advanced indexing -- same elements, so bitwise identical, with far less
    # index arithmetic.
    flat_cols = ((np.arange(k) * m)[None, :] + P).ravel()

    def take_sk(table: np.ndarray) -> np.ndarray:
        return table.reshape(s, k * m).take(flat_cols, axis=1).reshape(s, n, k)

    busy_pt = take_sk(tables.busy)  # (s, n, k)
    hostio_time_pt = take_sk(tables.hostio_time)
    hostio_bytes_pt = tables.hostio_bytes.ravel().take(flat_cols).reshape(n, k)  # (n, k)
    energy_in_pt = take_sk(tables.energy_in)
    energy_out_pt = take_sk(tables.energy_out)
    pen_time_pt = np.zeros((s, n, k))
    pen_energy_pt = np.zeros((s, n, k))
    pen_bytes_pt = np.zeros((n, k))
    pen_time_flat = tables.penalty_time.reshape(s, m * m)
    pen_energy_flat = tables.penalty_energy.reshape(s, m * m)
    pen_bytes_flat = tables.penalty_bytes.ravel()
    for t in range(k):
        dst = P[:, t]
        if preds[t]:
            for p in preds[t]:
                edge = P[:, p] * m + dst
                pen_time_pt[:, :, t] += pen_time_flat.take(edge, axis=1)
                pen_energy_pt[:, :, t] += pen_energy_flat.take(edge, axis=1)
                pen_bytes_pt[:, t] += pen_bytes_flat.take(edge)
        else:
            pen_time_pt[:, :, t] = tables.first_penalty_time.take(dst, axis=1)
            pen_energy_pt[:, :, t] = tables.first_penalty_energy.take(dst, axis=1)
            pen_bytes_pt[:, t] = tables.first_penalty_bytes.take(dst)
    transfer_pt = hostio_time_pt + pen_time_pt

    total_time = np.zeros((s, n))
    finish = np.zeros((s, n, k))
    available = np.zeros((s, n, m))
    rows = np.arange(n)
    transferred = np.zeros(n)
    transfer_energy = np.zeros((s, n))
    busy_by_device = np.zeros((s, n, m))
    flops_by_device = np.zeros((n, m))
    for t in range(k):
        ready = np.zeros((s, n))
        for p in preds[t]:
            ready = np.maximum(ready, finish[:, :, p])
        # Device serialization, vectorized across the condition axis.
        start = np.maximum(ready, available[:, rows, P[:, t]])
        finish[:, :, t] = start + (busy_pt[:, :, t] + transfer_pt[:, :, t])
        available[:, rows, P[:, t]] = finish[:, :, t]
        total_time = np.maximum(total_time, finish[:, :, t])
        transferred += hostio_bytes_pt[:, t] + pen_bytes_pt[:, t]
        transfer_energy += energy_in_pt[:, :, t]
        transfer_energy += energy_out_pt[:, :, t]
        transfer_energy += pen_energy_pt[:, :, t]
        col = P[:, t]
        # Scatter-add: unique (row, device) pairs per task; see the chain
        # engine for the bitwise argument.
        busy_by_device[:, rows, col] += busy_pt[:, :, t]
        flops_by_device[rows, col] += tables.task_flops[t]

    # np.maximum propagates NaN, so a missing link reaches the critical path.
    if tables.missing_links:
        _reject_missing_links(tables, P, np.isnan(total_time).any(axis=0))

    return _finalize_grid(
        tables, P, total_time, transferred, transfer_energy, busy_by_device, flops_by_device
    )
