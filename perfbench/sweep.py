"""``sweep``: four large top-k + Pareto-frontier searches on ``edge-cluster``.

Why: it is the only workload where the execution kernels (``devices.batch``,
``devices.grid``, ``faults.engine``) and the ``search`` accumulators do most
of the work, and it runs both sharding mechanisms beside in-process sweeps.
``campaign`` bypasses this code, so there the prediction for a kernel change
is no change.

The searches: a 10-task chain (4**10 placements) through
``search_space(n_workers=2)``; a 9-task fork-join graph, serial; a fault-aware
9-task chain (``retry=``), serial; a 9-task chain over a 24-point
link-degradation grid under worst-case and regret through
``search_grid(scenario_shards=2)``.  The worker count is fixed at 2 and not
read from the machine.  An op is one search.
"""

from __future__ import annotations

import numpy as np

from repro.devices import SimulatedExecutor, edge_cluster_platform, lte, wifi_ac
from repro.faults import DeviceFailure, FaultProfile, LinkDropout, RetryPolicy
from repro.offload import iter_placement_batches
from repro.scenarios import link_degradation_grid
from repro.search import (
    RegretObjective,
    SpaceSearch,
    StreamingTopK,
    WorstCaseObjective,
    grid_baselines,
    plan_workload,
    search_grid,
    search_space,
)
from repro.tasks import RegularizedLeastSquaresTask, TaskChain, fork_join_graph

from perfbench.common import Rep, digest
from perfbench.service import RADIO
from perfbench.tracer import Tracer

UNITS: dict[str, str] = {}
WORKERS = 2
TOP_K = 10
OBJECTIVES = ("time", "energy")
ROBUST = (WorstCaseObjective(), RegretObjective())
#: Chunk sizes: the defaults of ``search_space`` and ``search_grid``.
BATCH, GRID_BATCH = 65536, 16384


def _chain(name: str, sizes: list[int], iterations: list[int]) -> TaskChain:
    return TaskChain(
        [
            RegularizedLeastSquaresTask(size=size, iterations=iters, name=f"L{i + 1}",
                                        generate_on_host=False)
            for i, (size, iters) in enumerate(zip(sizes, iterations))
        ],
        name=name,
    )


def setup(seed: int, tiny: bool = False) -> dict:
    rng = np.random.default_rng([seed, 4])
    chain_tasks, small_tasks, branches, n_points = (6, 5, 3, 4) if tiny else (10, 9, 7, 24)

    def chain_params(n: int) -> dict:
        return {"sizes": [int(x) for x in rng.integers(40, 320, size=n)],
                "iterations": [int(x) for x in rng.integers(4, 13, size=n)]}

    params = {
        "chain": chain_params(chain_tasks),
        "graph": {"branches": branches,
                  "sizes": [int(x) for x in rng.integers(40, 320, size=3)],
                  "iterations": int(rng.integers(4, 13))},
        "fault": {**chain_params(small_tasks),
                  "max_attempts": int(rng.integers(2, 5)),
                  "failure_rate": float(rng.uniform(0.005, 0.05)),
                  "dropout_rate": float(rng.uniform(0.0, 0.02))},
        "grid": {**chain_params(small_tasks), "n_points": n_points},
    }
    prepare, branch, reduce = params["graph"]["sizes"]
    fault = params["fault"]
    requests = {
        "chain": {"workload": _chain("sweep-chain", **params["chain"]), "n_workers": WORKERS},
        "graph": {"workload": fork_join_graph(
            branches=branches, prepare_size=prepare, branch_size=branch, reduce_size=reduce,
            iterations=params["graph"]["iterations"])},
        "fault": {
            "workload": _chain("sweep-fault", fault["sizes"], fault["iterations"]),
            "retry": RetryPolicy(max_attempts=fault["max_attempts"], backoff_base_s=0.001),
            "faults": FaultProfile(device_failure=DeviceFailure(rate=fault["failure_rate"]),
                                   link_dropout=LinkDropout(rate=fault["dropout_rate"])),
        },
        "grid": {
            "workload": _chain("sweep-grid", params["grid"]["sizes"], params["grid"]["iterations"]),
            "grid": link_degradation_grid(
                RADIO["edge-cluster"], start=wifi_ac(), end=lte(), n_points=n_points
            ),
            "scenario_shards": WORKERS,
        },
    }
    return {
        "params": params,
        "requests": requests,
        "executor": SimulatedExecutor(edge_cluster_platform(), seed=0),
    }


def search(executor, request: dict, sharded: bool = True):
    """One search as a user makes it; ``sharded=False`` is the serial reference."""
    if "grid" in request:
        return search_grid(
            executor, request["workload"], request["grid"], objectives=ROBUST, top_k=TOP_K,
            scenario_shards=request["scenario_shards"] if sharded else None,
        )
    return search_space(
        executor, request["workload"], objectives=OBJECTIVES, top_k=TOP_K,
        n_workers=request.get("n_workers") if sharded else None,
        retry=request.get("retry"), faults=request.get("faults"),
    )


def run(inputs: dict, tr: Tracer) -> Rep:
    rep = Rep()
    executor = inputs["executor"]
    for name, request in inputs["requests"].items():
        with tr.span(f"sweep.request.{name}"):
            rep.ops.run(name, lambda: search(executor, request))
    return rep


def op_output(result):
    parts = [result.n_evaluated, result.n_feasible]
    for name, selection in sorted(result.top.items()):
        parts += [name, selection.indices, selection.values, selection.labels]
    frontier = getattr(result, "frontier", None)
    if frontier is not None:
        parts += [frontier.criteria, frontier.indices, frontier.values, frontier.labels]
    return parts


def check(inputs: dict, rep: Rep) -> dict[int, str]:
    """Sharded equals serial bitwise; the chain's stream top-1 equals the exact DP plan."""
    failures: dict[int, str] = {}
    executor = inputs["executor"]
    for index, ((name, request), result) in enumerate(zip(inputs["requests"].items(), rep.ops.values)):
        if result is None:
            continue
        if ("n_workers" in request or "scenario_shards" in request) and (
            digest(op_output(search(executor, request, sharded=False))) != digest(op_output(result))
        ):
            failures[index] = "sharded result differs from the serial sweep"
        if name == "chain":
            plan = plan_workload(executor, request["workload"], "time", method="dp")
            top = result.top["time"]
            if (top.labels[0], float(top.values[0]).hex()) != (plan.label, float(plan.value).hex()):
                failures[index] = f"stream top-1 {top.labels[0]} differs from the DP plan {plan.label}"
    return failures


def _computed_bytes(result) -> int:
    """Bytes of the result arrays a kernel call produced (computed from their sizes)."""
    return sum(value.nbytes for value in vars(result).values() if isinstance(value, np.ndarray))


def _serial(executor, name: str, request: dict, tr: Tracer):
    """One request through its public layers: tables, kernel per chunk, selection."""
    workload, kernel = request["workload"], f"sweep.kernel.{name}_s"
    if "grid" in request:
        with tr.span("sweep.devices.tables_s"):
            tables = executor.grid_cost_tables(workload, request["grid"])
        with tr.span("sweep.search.select_s"):
            baselines = grid_baselines(tables, "time")
            selectors = {objective.name: StreamingTopK(TOP_K) for objective in ROBUST}
        cursor = 0
        for matrix in iter_placement_batches(tables.n_tasks, tables.n_devices, GRID_BATCH):
            with tr.span(kernel):
                grid = tables.execute(matrix)
            with tr.span("sweep.search.select_s"):
                values = grid.metric_values("time")
                indices = np.arange(len(grid), dtype=np.int64) + np.int64(cursor)
                for objective in ROBUST:
                    reduced = (objective.reduce(values, baselines) if objective.requires_baseline
                               else objective.reduce(values))
                    selectors[objective.name].update(reduced, indices)
            tr.count("sweep.evaluations", values.size)
            tr.count("sweep.bytes_computed", _computed_bytes(grid))
            cursor += len(grid)
        return [[key, top.indices, top.values] for key, top in sorted(selectors.items())]
    with tr.span("sweep.devices.tables_s"):
        tables = executor.cost_tables(
            workload, retry=request.get("retry"), faults=request.get("faults")
        )
    selection = SpaceSearch(objectives=OBJECTIVES, top_k=TOP_K)
    cursor = 0
    for matrix in iter_placement_batches(tables.n_tasks, tables.n_devices, BATCH):
        with tr.span(kernel):
            batch = tables.execute(matrix)
        with tr.span("sweep.search.select_s"):
            selection.update(batch, start_index=cursor)
        tr.count("sweep.evaluations", len(batch))
        tr.count("sweep.bytes_computed", _computed_bytes(batch))
        cursor += len(batch)
    return op_output(selection.result())


def replay(inputs: dict, rep: Rep, tr: Tracer) -> dict[int, str]:
    """Repeat every search serially, layer by layer; it must equal the timed result bitwise.

    ``sweep.shard.overhead_s`` is a sharded request's wall time minus its
    serial traced total.
    """
    failures: dict[int, str] = {}
    executor = SimulatedExecutor(inputs["executor"].platform, seed=0)
    timed = {span["name"]: span["end"] - span["start"] for span in tr.spans}
    for index, ((name, request), result) in enumerate(zip(inputs["requests"].items(), rep.ops.values)):
        if result is None:
            continue
        tr.op = index
        serial_span = len(tr.spans)
        with tr.span(f"sweep.serial.{name}"):
            serial = _serial(executor, name, request, tr)
        if "grid" in request:
            expected = [[key, sel.indices, sel.values] for key, sel in sorted(result.top.items())]
        else:
            expected = op_output(result)
        if digest(serial) != digest(expected):
            failures[index] = "serial layer-by-layer replay differs from the timed result"
        if "n_workers" in request or "scenario_shards" in request:
            serial_s = tr.spans[serial_span]["end"] - tr.spans[serial_span]["start"]
            tr.count("sweep.shard.overhead_s", timed[f"sweep.request.{name}"] - serial_s)
            tr.count("sweep.shards", WORKERS)
    return failures
