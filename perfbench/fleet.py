"""``fleet``: a cold sampled user population, then population drift.

Why: it is the workload where per-scenario objects, fingerprinting and grid
table builds dominate.  The drift steps add writes (delta rebuilds through
``updated_many``) beside the read path, so a gain for cold builds that slows
incremental rebuilds shows.

The cold evaluation samples the fleet (three user segments), builds the grid
tables for every user, executes every placement under every user and reduces
to the weighted p95, then picks the best placement.  Each drift step redraws
1% of the users, delta-rebuilds the tables and re-executes and re-reduces the
whole fleet.  Ops: the cold evaluation, then one per drift step.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

from repro.cache import table_key
from repro.devices import edge_cluster_platform
from repro.devices.grid import execute_placements_grid
from repro.devices.tables import build_tables
from repro.fleet import FleetSpec, NormalAxis, UniformAxis, UserSegment, sample_fleet
from repro.offload import placement_matrix
from repro.scenarios import DeviceLoadFactor, LinkBandwidthScale, LinkLatencyScale
from repro.search import QuantileObjective
from repro.tasks import RegularizedLeastSquaresTask, TaskChain

from perfbench.common import Rep
from perfbench.tracer import Tracer

UNITS = {"cold_eval_s": "s", "drift_p50_ms": "ms"}
QUANTILE = 0.95
#: The per-scenario arrays of a condition slice (compared bitwise).
SLICE_FIELDS = (
    "busy", "hostio_time", "energy_in", "energy_out", "penalty_time",
    "penalty_energy", "first_penalty_time", "first_penalty_energy",
    "power_active", "power_idle", "cost_per_hour", "extra_idle_power",
)


def fleet_spec() -> FleetSpec:
    """Three user segments: good wifi, congested cellular, loaded hosts."""
    return FleetSpec(
        segments=(
            UserSegment("office-wifi", weight=6.0, axes=(
                UniformAxis(LinkBandwidthScale(), 0.8, 1.3),
                UniformAxis(LinkLatencyScale(), 0.8, 1.5),
            )),
            UserSegment("congested-cell", weight=3.0, axes=(
                UniformAxis(LinkBandwidthScale(), 0.1, 0.45),
                UniformAxis(LinkLatencyScale(), 2.0, 6.0),
            )),
            UserSegment("loaded-host", weight=1.0, axes=(
                NormalAxis(DeviceLoadFactor(devices=("D",)), mean=1.6, std=0.3, low=1.0, high=2.5),
            )),
        )
    )


def setup(seed: int, tiny: bool = False) -> dict:
    rng = np.random.default_rng([seed, 3])
    n_users, n_steps = (2_000, 2) if tiny else (100_000, 3)
    n_drift = n_users // 100
    params = {
        "n_users": n_users,
        "sample_seed": int(rng.integers(2**31)),
        "sizes": [int(x) for x in rng.integers(40, 320, size=2)],
        "iterations": int(rng.integers(4, 13)),
        "drift": [
            {"seed": int(rng.integers(2**31)),
             "users": sorted(int(i) for i in rng.choice(n_users, size=n_drift, replace=False))}
            for _ in range(n_steps)
        ],
        "quantile": QUANTILE,
    }
    chain = TaskChain(
        [
            RegularizedLeastSquaresTask(size=size, iterations=params["iterations"],
                                        name=f"L{i + 1}", generate_on_host=False)
            for i, size in enumerate(params["sizes"])
        ],
        name="fleet-chain",
    )
    platform = edge_cluster_platform()
    return {
        "params": params,
        "spec": fleet_spec(),
        "chain": chain,
        "platform": platform,
        # 4**2 = 16 placements on the 4-device edge cluster.
        "matrix": placement_matrix(len(chain), len(platform.aliases)),
        "objective": QuantileObjective(q=QUANTILE),
    }


def _evaluate(inputs: dict, fleet, tables, tr: Tracer):
    with tr.span("fleet.devices.execute_s"):
        result = execute_placements_grid(tables, inputs["matrix"])
    with tr.span("fleet.search.reduce_s"):
        reduced = inputs["objective"].bind_weights(fleet.grid.weights).reduce(result.total_time_s)
        pick = int(np.argmin(reduced))
    return result, reduced, pick


def run(inputs: dict, tr: Tracer) -> Rep:
    rep = Rep()
    params = inputs["params"]
    start = perf_counter()
    with tr.span("fleet.sample_s"):
        fleet = sample_fleet(inputs["spec"], params["n_users"], seed=params["sample_seed"])
    if tr.enabled:
        # The key build_tables computes first; memoized on the grid, so the
        # build span below no longer includes it.
        with tr.span("fleet.cache.fingerprint_s"):
            table_key(inputs["chain"], inputs["platform"], scenarios=fleet.grid)
    with tr.span("fleet.devices.build_s"):
        tables = build_tables(inputs["chain"], inputs["platform"], scenarios=fleet.grid)
    result, reduced, pick = _evaluate(inputs, fleet, tables, tr)
    seconds = perf_counter() - start
    rep.metrics["cold_eval_s"] = seconds
    rep.ops.add("cold_eval", seconds * 1e3, (reduced, pick))
    rep.state["cold"] = (fleet, result.total_time_s)
    tr.count("fleet.pairs", result.total_time_s.size)
    tr.count("fleet.table_bytes", sum(getattr(tables, name).nbytes for name in SLICE_FIELDS))
    drift_ms = []
    for step, drift in enumerate(params["drift"]):
        start = perf_counter()
        with tr.span("fleet.resample_s"):
            fleet, replacements = fleet.resample_users(drift["users"], seed=drift["seed"])
        with tr.span("fleet.devices.delta_s"):
            tables = tables.updated_many(replacements)
        _, reduced, pick = _evaluate(inputs, fleet, tables, tr)
        drift_ms.append((perf_counter() - start) * 1e3)
        rep.ops.add(f"drift{step}", drift_ms[-1], (reduced, pick))
        tr.count("fleet.slices_rebuilt", tables.slice_stats.built / len(params["drift"]))
        if step == 0:
            rep.state["drift"] = (fleet, replacements, tables)
    rep.metrics["drift_p50_ms"] = median(drift_ms)
    return rep


def op_output(value):
    return value


def weighted_quantile_reference(values: np.ndarray, weights: np.ndarray, q: float) -> np.ndarray:
    """Left-continuous inverse CDF per placement column, by sort and cumulative sum."""
    out = np.empty(values.shape[1])
    for column in range(values.shape[1]):
        order = np.argsort(values[:, column], kind="stable")
        cumulative = np.cumsum(weights[order])
        index = int(np.searchsorted(cumulative, q * cumulative[-1], side="left"))
        out[column] = values[order[min(index, len(order) - 1)], column]
    return out


def check(inputs: dict, rep: Rep) -> dict[int, str]:
    failures: dict[int, str] = {}
    fleet, times = rep.state["cold"]
    if rep.ops.values[0] is not None:
        reduced, _ = rep.ops.values[0]
        expected = weighted_quantile_reference(times, np.asarray(fleet.grid.weights), QUANTILE)
        if reduced.tobytes() != expected.tobytes():
            failures[0] = "weighted p95 differs from the sort/cumsum inverse CDF"
    drifted, _, delta = rep.state["drift"]
    full = build_tables(inputs["chain"], inputs["platform"], scenarios=drifted.grid)
    for name in SLICE_FIELDS:
        if getattr(delta, name).tobytes() != getattr(full, name).tobytes():
            failures[1] = f"delta rebuild differs from a full rebuild in {name}"
            break
    else:
        if delta.fingerprint != full.fingerprint:
            failures[1] = "delta rebuild's fingerprint differs from a full rebuild's"
    return failures


def replay(inputs: dict, rep: Rep, tr: Tracer) -> dict[int, str]:
    """The fleet workload is already a chain of public calls: its spans are the layers."""
    return {}
