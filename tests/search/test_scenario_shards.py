"""Scenario-sharded ``search_grid`` must be bitwise the serial sweep.

Each scenario shard evaluates every placement chunk against its own scenario
block in a separate process; the parent stitches the per-shard value matrices
back together along the scenario axis before any reduction runs.  Because the
reassembled ``(s, n)`` chunk is the exact matrix the serial sweep reduces,
every top-K value, per-scenario winner, baseline and tie-break agrees bit for
bit -- which these tests pin for all three robust objective families, with
constraints, and under faults.

The last tests cover the shard runner every sharded sweep goes through: shard
counts below 1 are rejected, and a shard that fails names its range.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest

from repro.devices import SimulatedExecutor, edge_cluster_platform
from repro.faults.retry import RetryPolicy
from repro.scenarios import (
    DeviceLoadFactor,
    LinkBandwidthScale,
    LinkLatencyScale,
    ScenarioGrid,
)
from repro.search.constraints import EnergyBudgetConstraint
from repro.search.robust import (
    ExpectedValueObjective,
    RegretObjective,
    WorstCaseObjective,
    search_grid,
)
from repro.search import search_space
from repro.tasks import RegularizedLeastSquaresTask, TaskChain, TaskGraph, fork_join_graph


def small_chain(n_tasks: int = 3) -> TaskChain:
    tasks = [
        RegularizedLeastSquaresTask(size=40 + 30 * i, iterations=3, name=f"L{i + 1}")
        for i in range(n_tasks)
    ]
    return TaskChain(tasks, name="shard-test")


def small_graph() -> TaskGraph:
    """A 4-task fork-join DAG (``prep -> {b1, b2} -> join``)."""
    return fork_join_graph(
        branches=2, prepare_size=40, branch_size=70, reduce_size=50, iterations=3
    )


def condition_grid() -> ScenarioGrid:
    return ScenarioGrid.cartesian(
        [
            (LinkBandwidthScale(), [1.0, 0.5, 0.25]),
            (LinkLatencyScale(), [1.0, 4.0]),
            (DeviceLoadFactor(devices=("D",)), [1.0, 1.5]),
        ]
    )


def assert_identical_results(sharded, serial) -> None:
    assert sharded.n_evaluated == serial.n_evaluated
    assert sharded.n_feasible == serial.n_feasible
    assert sharded.scenario_names == serial.scenario_names
    assert set(sharded.top) == set(serial.top)
    for name in serial.top:
        assert np.array_equal(sharded.top[name].indices, serial.top[name].indices), name
        assert (
            sharded.top[name].values.tobytes() == serial.top[name].values.tobytes()
        ), name
        assert sharded.top[name].labels == serial.top[name].labels
    assert set(sharded.scenario_best) == set(serial.scenario_best)
    for name in serial.scenario_best:
        assert np.array_equal(
            sharded.scenario_best[name].indices, serial.scenario_best[name].indices
        )
        assert (
            sharded.scenario_best[name].values.tobytes()
            == serial.scenario_best[name].values.tobytes()
        )
    assert set(sharded.baselines) == set(serial.baselines)
    for name in serial.baselines:
        assert sharded.baselines[name].tobytes() == serial.baselines[name].tobytes()


class TestScenarioSharding:
    @pytest.mark.parametrize("scenario_shards", [2, 3])
    def test_bitwise_identical_to_serial_sweep(self, scenario_shards):
        executor = SimulatedExecutor(edge_cluster_platform())
        grid = condition_grid()
        kwargs = dict(
            objectives=[
                WorstCaseObjective(),
                ExpectedValueObjective(),
                RegretObjective(),
            ],
            top_k=5,
            constraints=[EnergyBudgetConstraint(1e9)],
            batch_size=17,
            baseline_method="stream",
        )
        for workload in (small_chain(), small_graph()):
            serial = search_grid(executor, workload, grid, **kwargs)
            sharded = search_grid(
                executor, workload, grid, scenario_shards=scenario_shards, **kwargs
            )
            assert_identical_results(sharded, serial)

    def test_fault_aware_sweep_shards_bitwise(self):
        executor = SimulatedExecutor(edge_cluster_platform())
        chain = small_chain(2)
        grid = ScenarioGrid.cartesian([(LinkBandwidthScale(), [1.0, 0.5, 0.2])])
        kwargs = dict(
            objectives=[WorstCaseObjective()],
            top_k=3,
            batch_size=7,
            retry=RetryPolicy(max_attempts=3),
        )
        serial = search_grid(executor, chain, grid, **kwargs)
        sharded = search_grid(executor, chain, grid, scenario_shards=2, **kwargs)
        assert_identical_results(sharded, serial)

    def test_shards_clamp_to_the_scenario_count(self):
        executor = SimulatedExecutor(edge_cluster_platform())
        chain = small_chain(2)
        grid = ScenarioGrid.cartesian([(LinkLatencyScale(), [1.0, 2.0])])
        serial = search_grid(executor, chain, grid, batch_size=64)
        sharded = search_grid(executor, chain, grid, scenario_shards=9, batch_size=64)
        assert_identical_results(sharded, serial)

    def test_single_shard_stays_in_process(self):
        executor = SimulatedExecutor(edge_cluster_platform())
        chain = small_chain(2)
        grid = ScenarioGrid.cartesian([(LinkLatencyScale(), [1.0, 2.0])])
        serial = search_grid(executor, chain, grid, batch_size=64)
        one = search_grid(executor, chain, grid, scenario_shards=1, batch_size=64)
        assert_identical_results(one, serial)

    def test_placement_and_scenario_sharding_are_mutually_exclusive(self):
        executor = SimulatedExecutor(edge_cluster_platform())
        with pytest.raises(ValueError, match="mutually exclusive"):
            search_grid(
                executor,
                small_chain(2),
                condition_grid(),
                scenario_shards=2,
                n_workers=2,
            )

    def test_invalid_shard_counts_are_rejected(self):
        executor = SimulatedExecutor(edge_cluster_platform())
        with pytest.raises(ValueError, match="scenario_shards must be >= 1"):
            search_grid(executor, small_chain(2), condition_grid(), scenario_shards=0)
        for n_workers in (0, -4):
            with pytest.raises(ValueError, match="n_workers must be >= 1"):
                search_grid(executor, small_chain(2), condition_grid(), n_workers=n_workers)
            with pytest.raises(ValueError, match="n_workers must be >= 1"):
                search_space(executor, small_chain(2), n_workers=n_workers)


@dataclass(frozen=True)
class Kaboom:
    """A base objective that fails wherever it is evaluated."""

    name: str = "kaboom"

    def __call__(self, batch):
        raise RuntimeError("kaboom")


class TestShardFailures:
    @pytest.mark.parametrize("mode", ["space-placements", "grid-placements", "grid-scenarios"])
    def test_a_failed_shard_names_itself(self, mode):
        executor = SimulatedExecutor(edge_cluster_platform())
        chain = small_chain(2)
        grid = condition_grid()  # 12 scenarios
        robust = (WorstCaseObjective(base=Kaboom()),)
        placements = rf"placements \[0, {len(executor.platform.aliases) ** 2 // 2}\)"
        run, shard_range = {
            "space-placements": (
                partial(search_space, executor, chain, objectives=(Kaboom(),), n_workers=2),
                placements,
            ),
            "grid-placements": (
                partial(search_grid, executor, chain, grid, objectives=robust, n_workers=2),
                placements,
            ),
            "grid-scenarios": (
                partial(search_grid, executor, chain, grid, objectives=robust, scenario_shards=2),
                r"scenarios \[0, 6\)",
            ),
        }[mode]
        with pytest.raises(
            RuntimeError, match=rf"shard 0 of 2 \({shard_range}\) failed: RuntimeError: kaboom"
        ) as info:
            run()
        assert isinstance(info.value.__cause__, RuntimeError)
        assert str(info.value.__cause__) == "kaboom"
