"""Sampling a concrete fleet: spec -> weighted ``ScenarioGrid``.

:func:`sample_fleet` draws ``n_users`` users from a :class:`FleetSpec` with a
seeded generator into one weighted :class:`~repro.scenarios.ScenarioGrid` --
one row per user, named ``"<segment>/u<index>"``.  Each segment's column
draws go straight into the grid's value matrix (one axis pattern per
segment), so no per-user object is built.  The grid flows through the
vectorized grid engine *unchanged*: fused array-space builds, ``TableCache``
slice caching, scenario sharding, and robust objectives all apply to fleets
for free.

Scenario weights are ``segment.weight / n_segment_users``: each segment's
probability mass is split evenly over its sampled users, so the fleet's
weighted objectives estimate the population-level quantity regardless of how
the user count is apportioned (weights are finite and positive by
construction).

:meth:`SampledFleet.resample_users` redraws a subset of users and returns
the replacement rows that
:meth:`~repro.devices.simulator.SimulatedExecutor.update_grid_tables` /
``GridCostTables.updated_many`` consume -- a drifted fleet is a delta
rebuild, not a full build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..scenarios.conditions import Scenario
from ..scenarios.grid import ScenarioGrid, ScenarioRows
from .segments import FleetSpec, UserSegment

__all__ = ["SampledFleet", "sample_fleet"]


def _as_rng(seed: "int | np.random.Generator") -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _draw_columns(
    blocks: "Sequence[tuple[UserSegment, int]]", rng: np.random.Generator
) -> "tuple[list[tuple], np.ndarray, np.ndarray]":
    """Patterns, pattern index and value matrix of consecutive user blocks.

    Block ``b`` is ``count`` users of one segment.  Each axis sampler draws
    a whole block in one vectorized call, straight into its column of the
    value matrix, so redrawing the same blocks with the same generator state
    reproduces the draws bit-for-bit.
    """
    counts = [count for _, count in blocks]
    values = np.zeros((sum(counts), max(len(segment.axes) for segment, _ in blocks)))
    cursor = 0
    for segment, count in blocks:
        for column, sampler in enumerate(segment.axes):
            values[cursor : cursor + count, column] = sampler.sample(rng, count)
        cursor += count
    patterns = [tuple(sampler.axis for sampler in segment.axes) for segment, _ in blocks]
    return patterns, np.repeat(np.arange(len(blocks)), counts), values


@dataclass(frozen=True)
class SampledFleet:
    """A sampled user population: the spec, the grid, and the user->segment map.

    ``grid`` is a plain :class:`~repro.scenarios.ScenarioGrid` (one weighted
    scenario per user) -- anything that consumes a grid consumes a fleet.
    ``segment_of_user[i]`` is the index into ``spec.segments`` of user ``i``.
    """

    spec: FleetSpec
    grid: ScenarioGrid
    segment_of_user: tuple[int, ...]
    seed: "int | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "segment_of_user", tuple(self.segment_of_user))
        if len(self.segment_of_user) != len(self.grid):
            raise ValueError(
                f"segment_of_user has {len(self.segment_of_user)} entries for "
                f"{len(self.grid)} users"
            )

    @property
    def n_users(self) -> int:
        return len(self.grid)

    def __len__(self) -> int:
        return len(self.grid)

    def users_of_segment(self, name: str) -> tuple[int, ...]:
        """Indices of the users sampled from one segment."""
        target = self.spec.names.index(name) if name in self.spec.names else None
        if target is None:
            raise KeyError(f"unknown segment {name!r}; available: {list(self.spec.names)}")
        return tuple(i for i, s in enumerate(self.segment_of_user) if s == target)

    def segment_grid(self, name: str) -> ScenarioGrid:
        """The sub-grid of one segment's users (weights carried over)."""
        indices = self.users_of_segment(name)
        if not indices:
            raise ValueError(f"segment {name!r} received no users in this sample")
        return self.grid.take(indices)

    def resample_users(
        self,
        indices: Sequence[int],
        seed: "int | np.random.Generator",
    ) -> "tuple[SampledFleet, Mapping[int, Scenario]]":
        """Redraw some users from their segments' distributions.

        Returns the drifted fleet plus the replacement rows -- a
        :class:`~repro.scenarios.grid.ScenarioRows`, i.e. an ``{index:
        Scenario}`` mapping kept in columns -- for
        :meth:`GridCostTables.updated_many` /
        :meth:`SimulatedExecutor.update_grid_tables`.  That is the
        delta-rebuild path: untouched users' condition slices are reused,
        only the redrawn ones are recomputed.  Weights, names and segment
        membership are preserved (drift moves a user's conditions, not its
        probability mass).
        """
        rng = _as_rng(seed)
        indices = list(dict.fromkeys(int(i) for i in indices))
        for i in indices:
            if not 0 <= i < self.n_users:
                raise IndexError(f"user index {i} out of range [0, {self.n_users})")
        if not indices:
            return self, {}
        # Group by segment so each segment's axis draws stay vectorized.
        by_segment: dict[int, list[int]] = {}
        for i in indices:
            by_segment.setdefault(self.segment_of_user[i], []).append(i)
        rows = np.array([i for users in by_segment.values() for i in users], dtype=np.intp)
        replacement = ScenarioGrid.from_columns(
            *_draw_columns(
                [(self.spec.segments[k], len(users)) for k, users in by_segment.items()], rng
            ),
            self.grid.weights[rows],
            [self.grid.names[i] for i in rows.tolist()],
        )
        drifted = SampledFleet(
            spec=self.spec,
            grid=self.grid.with_rows(rows, replacement),
            segment_of_user=self.segment_of_user,
            seed=None,
        )
        return drifted, ScenarioRows(rows, replacement)


def sample_fleet(
    spec: FleetSpec,
    n_users: int,
    seed: "int | np.random.Generator" = 0,
) -> SampledFleet:
    """Draw a concrete fleet of ``n_users`` weighted user scenarios.

    Users are apportioned to segments by largest remainder on the segment
    weights (:meth:`FleetSpec.apportion`), laid out segment-block by
    segment-block in spec order, and each user's axis values are drawn from
    its segment's samplers with the seeded generator -- the same
    ``(spec, n_users, seed)`` triple always reproduces the same grid.

    Each scenario's weight is ``segment.weight / n_segment_users``, so
    segment masses survive sampling exactly and fleet-weighted objectives
    (:class:`~repro.search.ExpectedValueObjective`,
    :class:`~repro.search.QuantileObjective`,
    :class:`~repro.search.SLOObjective`) estimate population quantities.
    Segments whose largest-remainder share rounds to zero users contribute no
    scenarios (their mass is simply absent from this sample; raise
    ``n_users`` to resolve them).
    """
    rng = _as_rng(seed)
    counts = spec.apportion(n_users)
    blocks = [(segment, count) for segment, count in zip(spec.segments, counts) if count]
    names: list[str] = []
    cursor = 0
    for segment, count in blocks:
        names.extend([f"{segment.name}/u{index}" for index in range(cursor, cursor + count)])
        cursor += count
    grid = ScenarioGrid.from_columns(
        *_draw_columns(blocks, rng),
        np.concatenate([np.full(count, segment.weight / count) for segment, count in blocks]),
        names,
    )
    return SampledFleet(
        spec=spec,
        grid=grid,
        segment_of_user=tuple(np.repeat(np.arange(len(counts)), counts).tolist()),
        seed=seed if isinstance(seed, int) else None,
    )
