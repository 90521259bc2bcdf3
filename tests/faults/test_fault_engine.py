"""Differential pins of the vectorized expected-cost-under-faults engine.

Three equivalences anchor the subsystem:

* vectorized :func:`execute_fault_placements` == scalar
  :func:`expected_record`, **bitwise**, on randomized platforms, chains and
  graphs under randomized fault profiles;
* the fault-free profile under a zero-retry policy == the classic engine,
  **bitwise** (the collapse that makes the fault path a strict superset);
* grid engine slices == per-scenario tables, **bitwise**.
"""

from __future__ import annotations

import numpy as np
import pytest

from factories import (
    MISSING_LINK_CASES,
    MISSING_LINK_SAFE,
    diamond_workloads,
    partially_linked_platform,
    random_chain,
    random_graph,
    random_platform,
)

from repro.devices import build_tables, edge_cluster_platform, execute_placements
from repro.faults import (
    DeviceFailure,
    FaultProfile,
    LinkDropout,
    RetryPolicy,
    StragglerModel,
    TimeoutPolicy,
    execute_fault_placements,
    execute_fault_placements_grid,
    expected_record,
)
from repro.offload import placement_matrix
from repro.scenarios import DeviceFailureRate, LinkBandwidthScale, ScenarioGrid
from repro.tasks import TaskGraph

SCALAR_FIELDS = (
    "total_time_s",
    "success_probability",
    "expected_attempts",
    "energy_total_j",
    "operating_cost",
    "transferred_bytes",
)


def random_profile(rng: np.random.Generator, aliases: tuple[str, ...]) -> FaultProfile:
    """A randomized profile exercising every model component."""
    overrides = {
        alias: float(rng.uniform(0.0, 0.4))
        for alias in rng.choice(aliases, size=min(2, len(aliases)), replace=False)
    }
    return FaultProfile(
        device_failure=DeviceFailure(
            rate=float(rng.uniform(0.0, 0.15)),
            rates=overrides,
            load_scaled=bool(rng.random() < 0.3),
        ),
        link_dropout=LinkDropout(rate=float(rng.uniform(0.0, 0.1))),
        straggler=StragglerModel(
            probability=float(rng.uniform(0.0, 0.3)),
            slowdown=float(rng.uniform(1.0, 4.0)),
        ),
    )


def assert_batch_matches_records(batch, tables, matrix, rows):
    for index in rows:
        record = expected_record(tables, matrix[index])
        for field in SCALAR_FIELDS:
            assert getattr(batch, field)[index] == getattr(record, field), (
                field,
                record.placement,
            )
        busy = [record.busy_time_by_device[alias] for alias in tables.aliases]
        assert list(batch.busy_by_device[index]) == busy
        flops = [record.flops_by_device[alias] for alias in tables.aliases]
        assert list(batch.flops_by_device[index]) == flops


class TestVectorizedMatchesScalarReference:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_chains_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        platform = random_platform(rng, n_devices=int(rng.integers(2, 5)))
        chain = random_chain(rng, n_tasks=int(rng.integers(2, 5)))
        retry = RetryPolicy(
            max_attempts=int(rng.integers(1, 5)),
            backoff_base_s=float(rng.uniform(0.0, 0.01)),
        )
        timeout = TimeoutPolicy(timeout_s=float(rng.uniform(0.05, 5.0)))
        tables = build_tables(
            chain,
            platform,
            retry=retry,
            faults=random_profile(rng, tuple(platform.aliases)),
            timeout=timeout,
        )
        matrix = placement_matrix(len(chain), len(platform.aliases))
        batch = execute_fault_placements(tables, matrix)
        rows = rng.choice(matrix.shape[0], size=min(40, matrix.shape[0]), replace=False)
        assert_batch_matches_records(batch, tables, matrix, rows)

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_graphs_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        platform = random_platform(rng, n_devices=3)
        graph = random_graph(rng, n_tasks=4)
        retry = RetryPolicy(max_attempts=3, backoff_base_s=0.002)
        tables = build_tables(
            graph, platform, retry=retry, faults=random_profile(rng, tuple(platform.aliases))
        )
        matrix = placement_matrix(len(graph), len(platform.aliases))
        batch = execute_fault_placements(tables, matrix)
        rows = rng.choice(matrix.shape[0], size=30, replace=False)
        assert_batch_matches_records(batch, tables, matrix, rows)


class TestFaultFreeCollapse:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_equals_classic_engine_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        platform = random_platform(rng, n_devices=3)
        for workload in (random_chain(rng, 4), random_graph(rng, 4)):
            matrix = placement_matrix(len(workload), len(platform.aliases))
            classic = execute_placements(build_tables(workload, platform), matrix)
            fault = execute_fault_placements(
                build_tables(workload, platform, retry=RetryPolicy()), matrix
            )
            assert np.array_equal(fault.total_time_s, classic.total_time_s)
            assert np.array_equal(fault.energy_total_j, classic.energy_total_j)
            assert np.array_equal(fault.operating_cost, classic.operating_cost)
            assert np.array_equal(fault.busy_by_device, classic.busy_by_device)
            assert np.array_equal(fault.transferred_bytes, classic.transferred_bytes)
            assert np.all(fault.success_probability == 1.0)
            assert np.all(fault.expected_attempts == len(workload))

    def test_zero_failure_with_retry_budget_still_collapses(self):
        # p_fail=0: every attempt succeeds first try, so a generous retry
        # budget changes nothing -- bitwise.
        rng = np.random.default_rng(3)
        platform = random_platform(rng, n_devices=3)
        chain = random_chain(rng, 3)
        matrix = placement_matrix(len(chain), len(platform.aliases))
        classic = execute_placements(build_tables(chain, platform), matrix)
        fault = execute_fault_placements(
            build_tables(
                chain, platform, retry=RetryPolicy(max_attempts=4, backoff_base_s=0.5)
            ),
            matrix,
        )
        assert np.array_equal(fault.total_time_s, classic.total_time_s)
        assert np.array_equal(fault.energy_total_j, classic.energy_total_j)
        assert np.all(fault.success_probability == 1.0)


class TestImpossibleTasks:
    def test_certain_failure_yields_failed_records_not_loops(self):
        platform = edge_cluster_platform()
        rng = np.random.default_rng(0)
        chain = random_chain(rng, 3)
        profile = FaultProfile(device_failure=DeviceFailure(rates={"A": 1.0}))
        tables = build_tables(
            chain, platform, retry=RetryPolicy(max_attempts=5), faults=profile
        )
        matrix = placement_matrix(len(chain), len(platform.aliases))
        batch = execute_fault_placements(tables, matrix)
        uses_a = (matrix == platform.aliases.index("A")).any(axis=1)
        assert np.all(batch.success_probability[uses_a] == 0.0)
        assert np.all(np.isinf(batch.total_time_s[uses_a]))
        assert np.all(np.isinf(batch.energy_total_j[uses_a]))
        assert np.all(batch.success_probability[~uses_a] > 0.0)
        assert np.all(np.isfinite(batch.total_time_s[~uses_a]))
        # The scalar reference agrees on an impossible placement.
        row = int(np.flatnonzero(uses_a)[0])
        record = expected_record(tables, matrix[row])
        assert record.success_probability == 0.0
        assert np.isinf(record.total_time_s)

    def test_unreachable_timeout_kills_every_attempt(self):
        platform = edge_cluster_platform()
        rng = np.random.default_rng(1)
        chain = random_chain(rng, 2)
        tables = build_tables(
            chain,
            platform,
            retry=RetryPolicy(max_attempts=3),
            timeout=TimeoutPolicy(timeout_s=1e-12),
        )
        batch = execute_fault_placements(
            tables, placement_matrix(len(chain), len(platform.aliases))
        )
        assert np.all(batch.success_probability == 0.0)
        assert np.all(np.isinf(batch.total_time_s))


class TestGridSlicing:
    def test_grid_equals_per_scenario_tables_bitwise(self):
        platform = edge_cluster_platform()
        rng = np.random.default_rng(5)
        chain = random_chain(rng, 3)
        axis = DeviceFailureRate(devices=("E", "A"))
        scenarios = ScenarioGrid.cartesian([(axis, [0.0, 0.1, 0.3])])
        platforms = scenarios.platforms(platform)
        retry = RetryPolicy(max_attempts=3, backoff_base_s=0.001)
        gt = build_tables(chain, platforms, retry=retry)
        matrix = placement_matrix(len(chain), len(platform.aliases))
        grid = execute_fault_placements_grid(gt, matrix)
        for index in range(len(platforms)):
            single = execute_fault_placements(gt.table(index), matrix)
            assert np.array_equal(grid.total_time_s[index], single.total_time_s)
            assert np.array_equal(grid.success_probability[index], single.success_probability)
            assert np.array_equal(grid.expected_attempts[index], single.expected_attempts)
            assert np.array_equal(grid.energy_total_j[index], single.energy_total_j)
            assert np.array_equal(grid.operating_cost[index], single.operating_cost)
            assert np.array_equal(grid.transferred_bytes[index], single.transferred_bytes)
            assert np.array_equal(grid.flops_by_device[index], single.flops_by_device)
            # A direct build on the scenario platform matches the slice too.
            direct = build_tables(chain, platforms[index], retry=retry)
            assert np.array_equal(gt.node_survival[index], direct.node_survival)


class TestExpectedRecordNormalisation:
    def test_accepts_alias_rows(self):
        platform = edge_cluster_platform()
        rng = np.random.default_rng(2)
        chain = random_chain(rng, 3)
        tables = build_tables(chain, platform, retry=RetryPolicy(max_attempts=2))
        by_alias = expected_record(tables, ("D", "E", "A"))
        by_index = expected_record(
            tables, [platform.aliases.index(a) for a in ("D", "E", "A")]
        )
        assert by_alias == by_index

    def test_unknown_alias_names_candidates(self):
        platform = edge_cluster_platform()
        rng = np.random.default_rng(2)
        chain = random_chain(rng, 2)
        tables = build_tables(chain, platform, retry=RetryPolicy())
        with pytest.raises(ValueError, match=r"uses device 'Z'.*candidates"):
            expected_record(tables, ("D", "Z"))

    def test_wrong_length_names_workload(self):
        platform = edge_cluster_platform()
        rng = np.random.default_rng(2)
        chain = random_chain(rng, 3)
        tables = build_tables(chain, platform, retry=RetryPolicy())
        with pytest.raises(ValueError, match="has 2 entries but workload"):
            expected_record(tables, ("D", "E"))


class TestFaultMissingLinks:
    """The fault kernels reject gap-crossing placements like the classic ones."""

    GRID = ScenarioGrid.cartesian([(LinkBandwidthScale(), [1.0, 0.5, 0.25])])
    #: ``B`` never succeeds under DOOMED, so its expected times are ``inf``;
    #: a missing link must still be reported, not hidden behind the ``inf``.
    PROFILES = {
        "faulty": FaultProfile(device_failure=DeviceFailure(rate=0.05)),
        "doomed": FaultProfile(device_failure=DeviceFailure(rate=0.05, rates={"B": 1.0})),
    }

    @staticmethod
    def workload(kind: str):
        chain, graph = diamond_workloads()
        return chain if kind == "chain" else graph

    @pytest.mark.parametrize("missing, kind, placements, message", MISSING_LINK_CASES)
    @pytest.mark.parametrize("scenarios", [None, GRID], ids=["plain", "grid"])
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_exact_error_text(self, missing, kind, placements, message, scenarios, profile):
        tables = build_tables(
            self.workload(kind),
            partially_linked_platform(missing),
            scenarios=scenarios,
            retry=RetryPolicy(max_attempts=2),
            faults=self.PROFILES[profile],
        )
        with pytest.raises(KeyError) as excinfo:
            tables.execute(placements)
        assert excinfo.value.args[0] == message

    @pytest.mark.parametrize("kind", ["chain", "graph"])
    @pytest.mark.parametrize("scenarios", [None, GRID], ids=["plain", "grid"])
    def test_result_carries_the_callers_tables(self, kind, scenarios):
        tables = build_tables(
            self.workload(kind),
            partially_linked_platform(("A", "B")),
            scenarios=scenarios,
            retry=RetryPolicy(max_attempts=2),
            faults=self.PROFILES["faulty"],
        )
        key = tables.fingerprint
        result = tables.execute(MISSING_LINK_SAFE)
        assert result.fault_tables is tables
        assert result.tables is tables.base
        assert tables.fingerprint == key and key
        assert np.isfinite(result.total_time_s).all()
