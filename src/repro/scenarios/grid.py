"""Scenario grids: columnar, ordered, named, weighted sets of condition points.

A :class:`ScenarioGrid` is the unit the grid execution engine and the robust
search driver consume.  It is stored **by column**, not as one
:class:`~repro.scenarios.conditions.Scenario` object per point:

* ``patterns`` -- the distinct ordered axis sequences the rows pin, in order
  of first appearance (a pattern may repeat an axis, e.g. a contention load
  appended after a user's own load; the repeats apply in order);
* ``pattern_index`` -- one pattern number per row;
* ``values`` -- an ``(n_scenarios, max_settings)`` float64 matrix, row ``i``
  holding its pattern's axis values left-aligned and zero padding after;
* ``weights`` -- one float64 weight per row;
* ``names`` -- one unique name per row.

``grid[i]``, iteration and :attr:`ScenarioGrid.scenarios` build
:class:`Scenario` row views on demand; the fused table builder, the
fingerprint and the fleet samplers work on the columns directly, so a
10**6-user fleet never materializes 10**6 Python objects.
:func:`link_degradation_grid` builds the canonical wifi->lte sweep of the
robustness experiment.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from itertools import product
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..devices.link import LinkSpec
from ..devices.platform import Platform
from .conditions import ConditionAxis, LinkInterpolation, Scenario, apply_conditions

__all__ = ["ScenarioGrid", "ScenarioRows", "link_degradation_grid"]


#: Up to this many names, uniqueness is checked with a plain set (fastest for
#: small grids); larger grids sort name hashes instead (far less memory).
_SET_CHECK_MAX = 1 << 16


#: The columns a spliced grid assembles on first access (``names`` is eager).
_COLUMNS = frozenset({"patterns", "pattern_index", "values", "weights"})


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _first_appearance_order(index: np.ndarray, n_patterns: int) -> bool:
    """Whether rows number all ``n_patterns`` patterns by first appearance.

    True exactly when the running maximum climbs from 0 to ``n_patterns - 1``
    in steps of one, i.e. it changes ``n_patterns - 1`` times.
    """
    running = np.maximum.accumulate(index)
    return bool(
        running[0] == 0
        and running[-1] == n_patterns - 1
        and np.count_nonzero(np.diff(running)) == n_patterns - 1
    )


def _with_width(values: np.ndarray, width: int) -> np.ndarray:
    """A writable copy of a value matrix, zero-padded or cut to ``width``."""
    if values.shape[1] == width:
        return values.copy()
    out = np.zeros((values.shape[0], width))
    kept = min(width, values.shape[1])
    out[:, :kept] = values[:, :kept]
    return out


def _renumber(patterns: tuple, index: np.ndarray) -> "tuple[tuple, np.ndarray]":
    """Number distinct ``patterns`` by first appearance, dropping unused ones."""
    if _first_appearance_order(index, len(patterns)):
        return patterns, index
    used, first = np.unique(index, return_index=True)
    order = used[np.argsort(first)]
    remap = np.empty(len(patterns), dtype=np.intp)
    remap[order] = np.arange(len(order))
    return tuple(patterns[p] for p in order), remap[index]


def _require_unique(names: "tuple[str, ...]") -> None:
    if len(names) <= _SET_CHECK_MAX:
        if len(set(names)) == len(names):
            return
    else:
        # Distinct hashes prove distinct names without a million-entry set;
        # only a hash tie (rare) pays for the exact check below.
        hashes = np.fromiter(map(hash, names), dtype=np.int64, count=len(names))
        hashes.sort()
        if not (hashes[1:] == hashes[:-1]).any():
            return
    seen: set = set()
    duplicates = sorted({name for name in names if name in seen or seen.add(name)})
    if duplicates:
        raise ValueError(f"scenario names must be unique, duplicated: {duplicates}")


class ScenarioGrid:
    """An ordered collection of uniquely named, weighted scenarios (columnar).

    ``ScenarioGrid(scenarios)`` converts a sequence of :class:`Scenario`
    objects; :meth:`from_columns` takes the columns directly and
    :meth:`cartesian` builds the product of axis value lists.  Every
    constructor normalizes to one canonical layout (patterns deduplicated by
    equality and numbered by first appearance, zero padding), so equal
    content always has equal columns -- and an equal fingerprint.  Axes must
    be hashable value types (every shipped axis is a frozen dataclass).
    """

    patterns: "tuple[tuple[ConditionAxis, ...], ...]"
    pattern_index: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    names: "tuple[str, ...]"

    def __init__(self, scenarios: "Iterable[Scenario]") -> None:
        # Each Scenario validated its own name, values and weight, and the
        # columns below are canonical by construction.
        scenarios = tuple(scenarios)
        if not scenarios:
            raise ValueError("a scenario grid needs at least one scenario")
        patterns = [tuple([axis for axis, _ in s.settings]) for s in scenarios]
        ids: "dict[tuple[ConditionAxis, ...], int]" = {}
        index = np.array([ids.setdefault(p, len(ids)) for p in patterns], dtype=np.intp)
        width = max(map(len, patterns))
        flat: list = []
        for s in scenarios:
            flat.extend([v for _, v in s.settings])
            flat.extend([0.0] * (width - len(s.settings)))
        names = tuple(s.name for s in scenarios)
        _require_unique(names)
        self._assign(
            tuple(ids),
            index,
            np.array(flat, dtype=float).reshape(len(scenarios), width),
            np.array([s.weight for s in scenarios], dtype=float),
            names,
        )

    @classmethod
    def from_columns(
        cls,
        patterns: "Sequence[Sequence[ConditionAxis]]",
        pattern_index: "Sequence[int] | np.ndarray",
        values: "np.ndarray",
        weights: "Sequence[float] | np.ndarray",
        names: "Sequence[str]",
    ) -> "ScenarioGrid":
        """A grid straight from its columns (validated and normalized)."""
        names = tuple(names)
        n = len(names)
        if n == 0:
            raise ValueError("a scenario grid needs at least one scenario")
        index = np.asarray(pattern_index, dtype=np.intp).reshape(-1)
        values = np.asarray(values, dtype=float)
        weights = np.array(weights, dtype=float).reshape(-1)
        if values.ndim != 2 or values.shape[0] != n or index.shape[0] != n or weights.shape[0] != n:
            raise ValueError(
                f"column lengths disagree: {n} names, {index.shape[0]} pattern indices, "
                f"values of shape {values.shape}, {weights.shape[0]} weights"
            )
        patterns = [tuple(pattern) for pattern in patterns]
        if index.min() < 0 or index.max() >= len(patterns):
            raise ValueError(f"pattern indices must lie in [0, {len(patterns)})")
        ids: "dict[tuple[ConditionAxis, ...], int]" = {}
        merged = np.array([ids.setdefault(p, len(ids)) for p in patterns], dtype=np.intp)
        if len(ids) < len(patterns):
            index = merged[index]
        patterns, index = _renumber(tuple(ids), index)

        lengths = np.array([len(p) for p in patterns], dtype=np.intp)
        width = int(lengths.max())
        if values.shape[1] < width:
            raise ValueError(
                f"values have {values.shape[1]} columns but a pattern pins {width} axes"
            )
        values = np.where(np.arange(width) < lengths[index][:, None], values[:, :width], 0.0)

        bad_value = ~np.isfinite(values)
        if bad_value.any():
            row, col = (int(k) for k in np.argwhere(bad_value)[0])
            axis = patterns[index[row]][col]
            raise ValueError(
                f"condition values must be finite: scenario {names[row]!r} (row {row}) "
                f"sets {axis.name!r} to {float(values[row, col])!r}"
            )
        bad_weight = ~np.isfinite(weights) | (weights < 0)
        if bad_weight.any():
            row = int(np.flatnonzero(bad_weight)[0])
            raise ValueError(
                f"scenario weight must be finite and non-negative, got {float(weights[row])!r} "
                f"(scenario {names[row]!r}, row {row})"
            )
        if not all(names):
            raise ValueError(f"scenario name must be non-empty (row {names.index('')})")
        _require_unique(names)
        grid = cls.__new__(cls)
        grid._assign(patterns, index, values, weights, names)
        return grid

    def _assign(self, patterns, index, values, weights, names) -> None:
        """Store canonical, validated columns."""
        self.patterns = patterns
        self.pattern_index = _readonly(index)
        self.values = _readonly(values)
        self.weights = _readonly(weights)
        self.names = names

    @classmethod
    def cartesian(
        cls,
        axes: "Sequence[tuple[ConditionAxis, Sequence[float]]]",
        weights: "Sequence[float] | None" = None,
    ) -> "ScenarioGrid":
        """Cartesian product of axis value lists, in lexicographic order.

        Scenario names are the ``axis=value`` fragments joined with ``|``
        (e.g. ``"link-bandwidth=0.5|device-load=2"``).  ``weights`` optionally
        assigns one weight per grid point, in the same lexicographic order.
        """
        if not axes:
            raise ValueError("cartesian grid needs at least one axis")
        for axis, values in axes:
            if not list(values):
                raise ValueError(f"axis {axis.name!r} has no values")
        combos = list(product(*[list(values) for _, values in axes]))
        n = len(combos)
        if weights is None:
            weight_column = np.ones(n)
        else:
            if len(weights) != n:
                raise ValueError(
                    f"expected {n} weights (one per grid point), got {len(weights)}"
                )
            weight_column = np.array([float(w) for w in weights])
            # Validate here so a bad weight names the caller's index, not the
            # generated scenario the columnar constructor would blame.
            bad = ~np.isfinite(weight_column) | (weight_column < 0)
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise ValueError(
                    f"weights[{i}] must be finite and non-negative, got {weights[i]!r}"
                )
        pattern = tuple(axis for axis, _ in axes)
        names = ["|".join(axis.describe(v) for axis, v in zip(pattern, combo)) for combo in combos]
        values = np.array(combos, dtype=float).reshape(n, len(pattern))
        return cls.from_columns([pattern], np.zeros(n, dtype=np.intp), values, weight_column, names)

    # ------------------------------------------------------------------
    # row views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.names)

    def _row(self, i: int) -> Scenario:
        pattern = self.patterns[self.pattern_index[i]]
        return Scenario(
            name=self.names[i],
            settings=tuple(zip(pattern, self.values[i, : len(pattern)].tolist())),
            weight=float(self.weights[i]),
        )

    def __getitem__(self, index):
        """Row view(s): a :class:`Scenario` for an int, a tuple for a slice."""
        if isinstance(index, slice):
            return tuple(self._row(i) for i in range(*index.indices(len(self))))
        i = operator.index(index)
        n = len(self)
        if not -n <= i < n:
            raise IndexError(f"scenario index {i} out of range for {n} scenarios")
        return self._row(i % n)

    def __iter__(self) -> Iterator[Scenario]:
        return (self._row(i) for i in range(len(self)))

    @property
    def scenarios(self) -> tuple[Scenario, ...]:
        """Every row as a :class:`Scenario` (built on demand -- O(n) objects)."""
        return tuple(self)

    def scenario(self, name: str) -> Scenario:
        try:
            return self._row(self.names.index(name))
        except ValueError:
            raise KeyError(f"unknown scenario {name!r}; available: {list(self.names)}") from None

    def platforms(self, base: Platform) -> list[Platform]:
        """Per-scenario derived platforms, in grid order."""
        return [apply_conditions(base, scenario) for scenario in self]

    # ------------------------------------------------------------------
    # columnar operations
    # ------------------------------------------------------------------
    def take(self, rows: "Sequence[int] | np.ndarray") -> "ScenarioGrid":
        """The sub-grid of some rows, in the given order."""
        rows = np.asarray(rows, dtype=np.intp).reshape(-1)
        return ScenarioGrid.from_columns(
            self.patterns,
            self.pattern_index[rows],
            self.values[rows],
            self.weights[rows],
            [self.names[i] for i in rows.tolist()],
        )

    def with_rows(
        self,
        rows: "Sequence[int] | np.ndarray",
        replacement: "ScenarioGrid | Iterable[Scenario]",
    ) -> "ScenarioGrid":
        """This grid with row ``rows[j]`` replaced by ``replacement[j]``.

        ``replacement`` is a grid or a sequence of scenarios.  Names are
        checked for uniqueness now; the other columns are spliced on first
        access, so a delta rebuild that never looks at its grid pays only for
        the names here.  Both inputs are valid already, so the splice only
        re-establishes the pattern numbering and the padding width.
        """
        if not isinstance(replacement, ScenarioGrid):
            replacement = ScenarioGrid(replacement)
        rows = np.asarray(rows, dtype=np.intp).reshape(-1)
        if rows.shape[0] != len(replacement):
            raise ValueError(f"{rows.shape[0]} row indices for {len(replacement)} replacement rows")
        names = list(self.names)
        renamed = False
        for row, name in zip(rows.tolist(), replacement.names):
            renamed = renamed or names[row] != name
            names[row] = name
        names = tuple(names)
        if renamed:
            _require_unique(names)
        if "_splice" in self.__dict__:
            self._materialize()  # splices never chain, so bases are released
        grid = ScenarioGrid.__new__(ScenarioGrid)
        grid.names = names
        grid._splice = (self, rows, replacement)
        return grid

    def __getattr__(self, name: str):
        # Only reached for attributes missing from the instance: the spliced
        # columns of a grid made by with_rows, before their first use.
        if name in _COLUMNS and "_splice" in self.__dict__:
            self._materialize()
            return self.__dict__[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def _materialize(self) -> None:
        base, rows, new = self.__dict__.pop("_splice")
        ids = {pattern: p for p, pattern in enumerate(base.patterns)}
        remap = np.array([ids.setdefault(p, len(ids)) for p in new.patterns], dtype=np.intp)
        index = base.pattern_index.copy()
        index[rows] = remap[new.pattern_index]
        patterns, index = _renumber(tuple(ids), index)
        width = max(map(len, patterns))
        values = _with_width(base.values, width)
        values[rows] = _with_width(new.values, width)
        weights = base.weights.copy()
        weights[rows] = new.weights
        self._assign(patterns, index, values, weights, self.names)

    # ------------------------------------------------------------------
    # value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScenarioGrid):
            return NotImplemented
        return (
            self.names == other.names
            and self.patterns == other.patterns
            and np.array_equal(self.pattern_index, other.pattern_index)
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self) -> int:
        return hash((len(self), self.names[0], self.names[-1], self.patterns))

    def __reduce__(self):
        columns = (self.patterns, self.pattern_index, self.values, self.weights, self.names)
        return (ScenarioGrid.from_columns, columns)

    def __repr__(self) -> str:
        return f"ScenarioGrid(n_scenarios={len(self)}, n_patterns={len(self.patterns)})"


class ScenarioRows(Mapping):
    """Replacement rows for a delta rebuild, kept in columns.

    A read-only ``{index: Scenario}`` mapping (row views built on demand) over
    ``rows[j] -> replacement[j]``; :meth:`GridCostTables.updated_many
    <repro.devices.grid.GridCostTables.updated_many>` splices it into the
    table arrays without building any :class:`Scenario`.
    """

    __slots__ = ("rows", "replacement", "_position")

    def __init__(self, rows: "Sequence[int] | np.ndarray", replacement: ScenarioGrid) -> None:
        self.rows = _readonly(np.array(rows, dtype=np.intp).reshape(-1))
        if self.rows.shape[0] != len(replacement):
            raise ValueError(
                f"{self.rows.shape[0]} row indices for {len(replacement)} replacement rows"
            )
        self.replacement = replacement
        self._position = {row: j for j, row in enumerate(self.rows.tolist())}
        if len(self._position) != len(replacement):
            raise ValueError("duplicate replacement row indices")

    def __getitem__(self, row: int) -> Scenario:
        return self.replacement[self._position[row]]

    def __iter__(self) -> Iterator[int]:
        return iter(self._position)

    def __len__(self) -> int:
        return len(self._position)


def link_degradation_grid(
    links: "Sequence[tuple[str, str]]",
    start: LinkSpec,
    end: LinkSpec,
    n_points: int = 5,
    axis_name: str = "link-quality",
) -> ScenarioGrid:
    """Sweep some links from one quality to another in ``n_points`` steps.

    Point ``i`` installs the :class:`LinkInterpolation` of ``start`` and
    ``end`` at ``t = i / (n_points - 1)`` -- ``t=0`` is ``start`` verbatim
    (e.g. healthy Wi-Fi), ``t=1`` is ``end`` (fallen back to LTE).  Scenario
    names carry the interpolation parameter (``"link-quality=0.25"``).
    """
    if n_points < 2:
        raise ValueError("a degradation sweep needs at least 2 points")
    axis = LinkInterpolation(links=tuple(links), start=start, end=end, name=axis_name)
    values = [i / (n_points - 1) for i in range(n_points)]
    return ScenarioGrid.cartesian([(axis, values)])
