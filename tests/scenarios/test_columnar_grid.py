"""Differential tests for the columnar scenario grid.

A :class:`~repro.scenarios.ScenarioGrid` stores its conditions as columns
(patterns, a per-row pattern index, a value matrix, weights, names) and
builds :class:`~repro.scenarios.Scenario` objects only as row views.  The
claims pinned here:

* grid tables from the columns are **bitwise** equal to the object-path
  oracle (per-row Python grouping over ``Scenario`` objects, kept below as
  test code only) and to the materializing build, for every shipped axis,
  mixed-pattern rows and duplicate appended axes;
* ``updated_many`` -- from ``{index: Scenario}`` maps and from columnar
  :class:`~repro.scenarios.grid.ScenarioRows` alike -- equals a full rebuild,
  fingerprint included;
* a row view's slice key equals that of an equal standalone scenario, so
  slice-cache hits survive;
* grid fingerprints are canonical (layout-independent) and stable across
  processes;
* a cold fleet evaluation constructs zero ``Scenario`` objects, and a
  10**6-user fleet plus its fingerprint fits a small memory budget;
* non-finite condition values are rejected on every shipped axis.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    GRID_FINGERPRINT_SCHEME,
    TableCache,
    cached_fingerprint,
    canonical,
    fingerprint,
    scenario_row_digests,
)
from repro.devices import edge_cluster_platform, execute_placements_grid, lte, wifi_ac
from repro.devices.grid import (
    _fused_params,
    _grid_value_arrays,
    _slice_keys,
)
from repro.devices.params import PlatformParams
from repro.devices.tables import build_tables, resolve_aliases
from repro.fleet import FleetSpec, NormalAxis, UniformAxis, UserSegment, sample_fleet
from repro.fleet.contention import _loaded_grid
from repro.offload import placement_matrix
from repro.scenarios import (
    DeviceFailureRate,
    DeviceLoadFactor,
    DvfsFrequencyScale,
    EnergyPriceScale,
    LinkBandwidthScale,
    LinkDropoutRate,
    LinkInterpolation,
    LinkLatencyScale,
    Scenario,
    ScenarioGrid,
)
from repro.scenarios.grid import ScenarioRows
from repro.search import ExpectedValueObjective, QuantileObjective
from repro.tasks import RegularizedLeastSquaresTask, TaskChain

SLICE_FIELDS = (
    "busy", "hostio_time", "energy_in", "energy_out", "penalty_time",
    "penalty_energy", "first_penalty_time", "first_penalty_energy",
    "power_active", "power_idle", "cost_per_hour", "extra_idle_power",
)

BASE = edge_cluster_platform()
PAIR = tuple(sorted(BASE.links))[0]
HOST_ALIAS = sorted(BASE.devices)[0]

#: Every shipped axis with a valid value range ``(low, high)``.
SHIPPED_AXES = (
    (LinkBandwidthScale(), 0.05, 3.0),
    (LinkLatencyScale(), 0.0, 10.0),
    (DeviceLoadFactor(), 1.0, 3.0),
    (DeviceLoadFactor(devices=(HOST_ALIAS,), name="host-load"), 1.0, 2.0),
    (DvfsFrequencyScale(), 0.05, 1.0),
    (EnergyPriceScale(), 0.0, 4.0),
    (LinkInterpolation(links=(PAIR,), start=wifi_ac(), end=lte()), 0.0, 1.0),
    (DeviceFailureRate(), 0.0, 0.3),
    (LinkDropoutRate(), 0.0, 0.3),
)


def small_chain() -> TaskChain:
    tasks = [
        RegularizedLeastSquaresTask(size=40 + 30 * i, iterations=3, name=f"L{i + 1}")
        for i in range(2)
    ]
    return TaskChain(tasks, name="columnar-test")


def fleet_spec() -> FleetSpec:
    return FleetSpec(
        segments=(
            UserSegment("wifi", weight=3.0, axes=(
                UniformAxis(LinkBandwidthScale(), 0.8, 1.2),
                UniformAxis(LinkLatencyScale(), 0.9, 1.1),
            )),
            UserSegment("loaded", weight=1.0, axes=(
                NormalAxis(DeviceLoadFactor(devices=("D",)), mean=1.6, std=0.3, low=1.0, high=2.5),
            )),
        )
    )


# A row is a list of (axis number, position in the axis range) settings; the
# same axis may repeat within a row (a duplicate appended axis).
ROW = st.lists(
    st.tuples(
        st.integers(0, len(SHIPPED_AXES) - 1),
        st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
    ),
    max_size=4,
)


def scenario_of(name: str, row, weight: float = 1.0) -> Scenario:
    settings_ = []
    for axis_number, u in row:
        axis, low, high = SHIPPED_AXES[axis_number]
        settings_.append((axis, low + u * (high - low)))
    return Scenario(name=name, settings=tuple(settings_), weight=weight)


def object_path_values(chain: TaskChain, scenarios) -> dict:
    """Oracle: the per-object fused build (Python grouping of each row's axes)."""
    aliases = resolve_aliases(BASE, None)
    params = PlatformParams.gather(BASE, len(scenarios))
    for step in range(max((len(s.settings) for s in scenarios), default=0)):
        groups: dict = {}
        for row, scenario in enumerate(scenarios):
            if step < len(scenario.settings):
                axis, value = scenario.settings[step]
                rows, values = groups.setdefault(axis, ([], []))
                rows.append(row)
                values.append(value)
        for axis, (rows, values) in groups.items():
            axis.scale_arrays(params, np.asarray(rows, dtype=np.intp), np.asarray(values))
    nonhost = np.array([alias != BASE.host for alias in aliases])
    return _grid_value_arrays(tuple(chain.costs()), _fused_params(params, aliases, BASE.host), nonhost)


def assert_same_slices(a, b) -> None:
    for name in SLICE_FIELDS:
        left = a[name] if isinstance(a, dict) else getattr(a, name)
        right = b[name] if isinstance(b, dict) else getattr(b, name)
        assert left.tobytes() == right.tobytes(), name


class TestColumnarEqualsObjectPath:
    @given(rows=st.lists(ROW, min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_tables_are_bitwise_the_object_path(self, rows):
        chain = small_chain()
        scenarios = tuple(scenario_of(f"s{i}", row) for i, row in enumerate(rows))
        grid = ScenarioGrid(scenarios)
        assert tuple(grid) == scenarios  # row views round-trip
        columnar = build_tables(chain, BASE, scenarios=grid)
        assert_same_slices(columnar, object_path_values(chain, scenarios))
        assert_same_slices(columnar, build_tables(chain, grid.platforms(BASE)))

    def test_every_shipped_axis_in_one_mixed_grid(self):
        chain = small_chain()
        scenarios = tuple(
            scenario_of(f"s{i}", [(i, 0.3), (i, 0.6), ((i + 2) % len(SHIPPED_AXES), 0.5)])
            for i in range(len(SHIPPED_AXES))
        )
        grid = ScenarioGrid(scenarios)
        assert len(grid.patterns) == len(SHIPPED_AXES)
        assert_same_slices(build_tables(chain, BASE, scenarios=grid), object_path_values(chain, scenarios))

    def test_contention_appends_columns_like_appended_settings(self):
        fleet = sample_fleet(fleet_spec(), 12, seed=4)
        aliases = tuple(BASE.devices)
        loads = np.array([1.0, 1.5, 1.0, 2.25])
        loaded = _loaded_grid(fleet, aliases, loads)
        extra = tuple(
            (DeviceLoadFactor(devices=(alias,)), load)
            for alias, load in zip(aliases, loads) if load != 1.0
        )
        appended = ScenarioGrid(
            Scenario(s.name, settings=s.settings + extra, weight=s.weight) for s in fleet.grid
        )
        assert loaded == appended
        assert fingerprint(loaded) == fingerprint(appended)
        # The "loaded" segment now pins DeviceLoadFactor on D twice, in order.
        chain = small_chain()
        assert_same_slices(
            build_tables(chain, BASE, scenarios=loaded), object_path_values(chain, tuple(appended))
        )


class TestDeltaRebuild:
    @given(
        rows=st.lists(ROW, min_size=2, max_size=8),
        data=st.data(),
        columnar=st.booleans(),
        cached=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_updated_many_equals_a_full_rebuild(self, rows, data, columnar, cached):
        chain = small_chain()
        grid = ScenarioGrid(scenario_of(f"s{i}", row) for i, row in enumerate(rows))
        cache = TableCache() if cached else None
        tables = build_tables(chain, BASE, scenarios=grid, slice_cache=cache)
        changed = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, unique=True))
        new_rows = data.draw(st.lists(ROW, min_size=len(changed), max_size=len(changed)))
        replacements = {
            i: scenario_of(f"s{i}", row, weight=2.0) for i, row in zip(changed, new_rows)
        }
        if columnar:
            replacements = ScenarioRows(changed, ScenarioGrid(replacements.values()))
        updated = tables.updated_many(replacements, slice_cache=cache)

        entries = list(grid)
        for i in changed:
            entries[i] = replacements[i]
        full = build_tables(chain, BASE, scenarios=ScenarioGrid(entries))
        assert_same_slices(updated, full)
        assert updated.fingerprint == full.fingerprint
        assert updated.build_context.scenarios == full.build_context.scenarios

    def test_with_rows_checks_names_now_and_splices_on_first_use(self):
        grid = ScenarioGrid(scenario_of(f"s{i}", [(i % 4, 0.5)]) for i in range(6))
        with pytest.raises(ValueError, match="unique"):
            grid.with_rows([0], [scenario_of("s3", [])])
        entries = list(grid)
        spliced = grid
        for step in range(20):  # chained splices, none of them looked at
            i = step % 6
            entries[i] = scenario_of(f"s{i}", [((step + 1) % len(SHIPPED_AXES), 0.25)] * (step % 3))
            spliced = spliced.with_rows([i], [entries[i]])
        assert spliced == ScenarioGrid(entries)
        assert fingerprint(spliced) == fingerprint(ScenarioGrid(entries))

    def test_resample_users_returns_columnar_rows(self):
        fleet = sample_fleet(fleet_spec(), 20, seed=1)
        drifted, replacements = fleet.resample_users([3, 17, 5], seed=8)
        assert isinstance(replacements, ScenarioRows)
        assert sorted(replacements) == [3, 5, 17]
        for i in replacements:
            assert drifted.grid[i] == replacements[i]
        tables = build_tables(small_chain(), BASE, scenarios=fleet.grid)
        updated = tables.updated_many(replacements)
        full = build_tables(small_chain(), BASE, scenarios=drifted.grid)
        assert_same_slices(updated, full)
        assert updated.fingerprint == full.fingerprint

    def test_columnar_replacements_reject_bad_indices(self):
        grid = ScenarioGrid(scenario_of(f"s{i}", [(0, 0.5)]) for i in range(3))
        tables = build_tables(small_chain(), BASE, scenarios=grid)
        rows = ScenarioGrid([scenario_of("x", []), scenario_of("y", [])])
        with pytest.raises(ValueError, match="duplicate replacement for scenario index 0"):
            tables.updated_many(ScenarioRows([0, -3], rows))
        with pytest.raises(IndexError, match=r"valid: -3\.\.2"):
            tables.updated_many(ScenarioRows([0, 3], rows))


class TestSliceKeys:
    @given(rows=st.lists(ROW, min_size=1, max_size=6), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_row_view_key_equals_an_equal_standalone_scenario(self, rows, data):
        grid = ScenarioGrid(scenario_of(f"s{i}", row) for i, row in enumerate(rows))
        tables = build_tables(small_chain(), BASE, scenarios=grid)
        context = tables.build_context
        i = data.draw(st.integers(0, len(rows) - 1))
        view = grid[i]
        standalone = Scenario(name="elsewhere", settings=view.settings, weight=7.0)
        assert _slice_keys(context, grid)[i] == _slice_keys(context, ScenarioGrid([standalone]))[0]
        assert scenario_row_digests(grid, np.array([i])) == [scenario_row_digests(grid)[i]]

    def test_slice_cache_hits_survive_row_views(self):
        grid = ScenarioGrid(scenario_of(f"s{i}", [(i % 3, 0.25 * i)]) for i in range(4))
        cache = TableCache()
        tables = build_tables(small_chain(), BASE, scenarios=grid, slice_cache=cache)
        equal = Scenario(name="s1", settings=grid[2].settings)
        updated = tables.updated(1, equal, slice_cache=cache)
        assert updated.cache_stats().served == 1
        assert updated.cache_stats().built == 0


class TestFingerprint:
    def test_layout_does_not_leak_into_the_fingerprint(self):
        a, b = LinkBandwidthScale(), LinkLatencyScale()
        objects = ScenarioGrid([
            Scenario("x", ((b, 2.0),)),
            Scenario("y", ((a, 0.5), (b, 3.0))),
            Scenario("z", ((b, 4.0),)),
        ])
        # Unused and duplicated patterns, another numbering, garbage padding.
        columns = ScenarioGrid.from_columns(
            [(a,), (a, b), (b,), (LinkBandwidthScale(), LinkLatencyScale())],
            [2, 3, 2],
            np.array([[2.0, 9.0, 9.0], [0.5, 3.0, 9.0], [4.0, -1.0, 9.0]]),
            [1.0, 1.0, 1.0],
            ["x", "y", "z"],
        )
        assert objects == columns
        assert objects.patterns == ((b,), (a, b))
        assert fingerprint(objects) == fingerprint(columns)
        assert fingerprint(pickle.loads(pickle.dumps(columns))) == fingerprint(objects)

    def test_every_column_is_content(self):
        grid = ScenarioGrid.cartesian([(LinkBandwidthScale(), [1.0, 0.5])], weights=[1.0, 2.0])
        base = fingerprint(grid)
        variants = [
            ScenarioGrid.cartesian([(LinkBandwidthScale(), [1.0, 0.25])], weights=[1.0, 2.0]),
            ScenarioGrid.cartesian([(LinkBandwidthScale(), [1.0, 0.5])], weights=[1.0, 3.0]),
            ScenarioGrid.cartesian([(LinkLatencyScale(), [1.0, 0.5])], weights=[1.0, 2.0]),
            ScenarioGrid.from_columns(grid.patterns, [0, 0], grid.values, grid.weights, ["a", "b"]),
            ScenarioGrid.from_columns(grid.patterns, [0, 0], grid.values, grid.weights, ["b", "a"]),
        ]
        assert len({base, *(fingerprint(v) for v in variants)}) == 1 + len(variants)

    def test_names_split_is_unambiguous(self):
        pattern = [(LinkBandwidthScale(),)]
        one = ScenarioGrid.from_columns(pattern, [0, 0], [[1.0], [1.0]], [1.0, 1.0], ["ab", "c"])
        two = ScenarioGrid.from_columns(pattern, [0, 0], [[1.0], [1.0]], [1.0, 1.0], ["a", "bc"])
        assert fingerprint(one) != fingerprint(two)

    def test_canonical_form_carries_the_scheme_tag(self):
        grid = ScenarioGrid.cartesian([(LinkBandwidthScale(), [1.0, 0.5])])
        form = canonical(grid)
        assert form[:2] == ("ScenarioGrid", GRID_FINGERPRINT_SCHEME)
        assert cached_fingerprint(grid) == fingerprint(grid)

    def test_grid_fingerprints_survive_process_restarts(self):
        snippet = textwrap.dedent(
            """
            from repro.cache import fingerprint, scenario_row_digests
            from repro.fleet import FleetSpec, NormalAxis, UniformAxis, UserSegment, sample_fleet
            from repro.scenarios import DeviceLoadFactor, LinkBandwidthScale, LinkLatencyScale, ScenarioGrid

            spec = FleetSpec(segments=(
                UserSegment("wifi", weight=3.0, axes=(
                    UniformAxis(LinkBandwidthScale(), 0.8, 1.2),
                    UniformAxis(LinkLatencyScale(), 0.9, 1.1),
                )),
                UserSegment("loaded", weight=1.0, axes=(
                    NormalAxis(DeviceLoadFactor(devices=("D",)), mean=1.6, std=0.3, low=1.0, high=2.5),
                )),
            ))
            fleet = sample_fleet(spec, 50, seed=9)
            print(fingerprint(fleet.grid))
            print(scenario_row_digests(fleet.grid)[-1])
            print(fingerprint(ScenarioGrid.cartesian([(LinkLatencyScale(), [1.0, 2.5])])))
            """
        )
        repo = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        runs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"), PYTHONHASHSEED=hash_seed)
            runs.append(
                subprocess.run(
                    [sys.executable, "-c", snippet], capture_output=True, text=True, env=env, check=True
                ).stdout.splitlines()
            )
        assert runs[0] == runs[1]
        fleet = sample_fleet(fleet_spec(), 50, seed=9)
        here = [
            fingerprint(fleet.grid),
            scenario_row_digests(fleet.grid)[-1],
            fingerprint(ScenarioGrid.cartesian([(LinkLatencyScale(), [1.0, 2.5])])),
        ]
        assert runs[0] == here


class TestNoScenarioObjects:
    def test_cold_fleet_evaluation_builds_no_scenario(self, monkeypatch):
        built = []
        original = Scenario.__post_init__

        def counting(self):
            built.append(self.name)
            original(self)

        monkeypatch.setattr(Scenario, "__post_init__", counting)
        fleet = sample_fleet(fleet_spec(), 500, seed=2)
        cached_fingerprint(fleet.grid)
        tables = build_tables(small_chain(), BASE, scenarios=fleet.grid)
        result = execute_placements_grid(tables, placement_matrix(2, len(BASE.aliases)))
        QuantileObjective(q=0.9).bind_weights(fleet.grid.weights).reduce(result.total_time_s)
        drifted, replacements = fleet.resample_users(range(0, 500, 50), seed=3)
        tables.updated_many(replacements)
        assert built == []
        fleet.grid[0]  # a row view is a real Scenario
        assert built == [fleet.grid.names[0]]

    def test_million_user_fleet_fits_the_memory_budget(self):
        tracemalloc.start()
        try:
            fleet = sample_fleet(fleet_spec(), 1_000_000, seed=0)
            cached_fingerprint(fleet.grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(fleet.grid) == 1_000_000
        assert peak < 200 * 2**20, f"peak {peak / 2**20:.0f} MiB"


class TestNames:
    @pytest.mark.parametrize("n", [5, 70_000])
    def test_duplicate_names_are_rejected_at_any_size(self, n):
        names = [f"u{i}" for i in range(n)]
        names[-1] = names[n // 2]
        with pytest.raises(ValueError, match=rf"duplicated: \['u{n // 2}'\]"):
            ScenarioGrid.from_columns(
                [(LinkBandwidthScale(),)], np.zeros(n, dtype=int), np.ones((n, 1)), np.ones(n), names
            )


class TestFiniteOrReject:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("axis_number", range(len(SHIPPED_AXES)))
    def test_non_finite_values_are_rejected_on_every_axis(self, axis_number, bad):
        axis, low, _ = SHIPPED_AXES[axis_number]
        with pytest.raises(ValueError, match=f"must be finite: scenario 's' sets '{axis.name}'"):
            Scenario(name="s", settings=((axis, bad),))
        with pytest.raises(ValueError, match=rf"scenario 'b' \(row 1\) sets '{axis.name}'"):
            ScenarioGrid.from_columns([(axis,)], [0, 0], [[low], [bad]], [1.0, 1.0], ["a", "b"])
        with pytest.raises(ValueError, match=f"sets '{axis.name}'"):
            ScenarioGrid.cartesian([(axis, [low, bad])])


class TestVectorizedWeightValidation:
    def test_weights_stay_a_tuple_of_the_same_floats(self):
        weights = np.random.default_rng(0).uniform(0.1, 2.0, size=64)
        from_array = QuantileObjective(q=0.9).with_weights(weights)
        from_tuple = QuantileObjective(q=0.9, weights=tuple(float(w) for w in weights))
        assert type(from_array.weights) is tuple
        assert all(type(w) is float for w in from_array.weights)
        assert from_array.weights == from_tuple.weights
        assert fingerprint(from_array) == fingerprint(from_tuple)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
    def test_error_names_the_first_bad_index(self, bad):
        weights = np.ones(10)
        weights[[3, 7]] = bad
        with pytest.raises(ValueError, match=rf"got weights\[3\]={bad!r}$"):
            ExpectedValueObjective().with_weights(weights)
