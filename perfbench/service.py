"""``service``: a Zipf-popular placement query stream sent to one ``PlacementService``.

Why: it is the one workload that exercises ``service``, ``cache`` and the
``search`` dispatch together.  Requests for the same workload under different
objectives share cost tables, the number of distinct table configurations is
larger than ``TableCache``'s 256 entries, and popular configurations repeat,
so sharing, working-set-over-cache-size and cold-versus-hot traffic all show.

Configurations over ``edge-cluster`` and ``cpu-gpu`` mix plain chains (chain
DP), fork-join ``TaskGraph``s (level DP), link-degradation scenario grids
(``plan_grid``), fault-aware requests (``retry=``) and
``MaxOffloadedConstraint`` requests (streaming enumeration).  Every request
is a freshly built object made in set-up, so a repeat hits by content, never
by identity.  An op is one ``submit``.
"""

from __future__ import annotations

import math
from statistics import median

import numpy as np

from repro.cache import TableCache, fingerprint
from repro.devices import SimulatedExecutor, lte, wifi_ac
from repro.faults import DeviceFailure, FaultProfile, LinkDropout, RetryPolicy
from repro.scenarios import link_degradation_grid
from repro.search import (
    MaxOffloadedConstraint,
    WorstCaseObjective,
    as_objective,
    plan_grid,
    plan_workload,
    search_grid,
    search_space,
)
from repro.service import PlacementRequest, PlacementService
from repro.tasks import RegularizedLeastSquaresTask, TaskChain, fork_join_graph

from perfbench.common import Rep
from perfbench.tracer import Tracer

UNITS = {
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "op_p99_beyond": "count",
    "cold_p50_ms": "ms",
    "hot_p50_ms": "ms",
}
RADIO = {
    "edge-cluster": (("D", "E"), ("D", "A"), ("N", "E"), ("N", "A"), ("E", "A")),
    "cpu-gpu": (("D", "A"),),
}
#: Kinds of the configurations of a chain workload, cycled so every seed has
#: the same mix: 9 plain, 5 grid, 3 fault-aware and 3 constrained in 20.
CHAIN_KINDS = (
    "plain", "grid", "plain", "fault", "plain", "constrained", "grid", "plain", "plain", "fault",
    "grid", "plain", "constrained", "plain", "grid", "fault", "plain", "constrained", "grid", "plain",
)
OBJECTIVES = ("time", "energy", "cost")


def _workload_params(rng: np.random.Generator, index: int) -> dict:
    """Shapes (platform, kind, task count) follow the index; the seed picks the values."""
    platform = "edge-cluster" if index % 5 < 3 else "cpu-gpu"
    if index % 4 == 3:
        return {
            "name": f"w{index}", "platform": platform, "graph": True,
            "branches": 2 + index % 3,
            "sizes": [int(x) for x in rng.integers(40, 300, size=3)],
            "iterations": int(rng.integers(4, 13)),
        }
    n_tasks = 3 + (index // 4) % (4 if platform == "edge-cluster" else 6)
    return {
        "name": f"w{index}", "platform": platform, "graph": False,
        "sizes": [int(x) for x in rng.integers(40, 320, size=n_tasks)],
        "iterations": [int(x) for x in rng.integers(4, 13, size=n_tasks)],
        "on_host": [bool(x) for x in rng.random(n_tasks) < 0.5],
    }


def _config_params(rng: np.random.Generator, index: int, workloads: list[dict]) -> dict:
    """Configuration ``index`` of workload ``index % len(workloads)``.

    The configurations of one workload differ in kind or objective, so plain
    requests for one workload under different objectives share its tables.
    """
    workload, round_ = index % len(workloads), index // len(workloads)
    kind = "plain" if workloads[workload]["graph"] else CHAIN_KINDS[(index + 3 * round_) % 20]
    config = {"workload": workload, "kind": kind,
              "objective": OBJECTIVES[round_ % (3 if kind == "plain" else 2)]}
    if kind == "grid":
        config["n_points"] = 3 + index % 4
    elif kind == "fault":
        config["max_attempts"] = 2 + index % 3
        config["failure_rate"] = float(rng.uniform(0.005, 0.05))
        config["dropout_rate"] = float(rng.uniform(0.0, 0.02))
    elif kind == "constrained":
        config["max_offloaded"] = 1 + index % 2
    return config


def zipf_counts(n_configs: int, n_requests: int) -> list[int]:
    """Requests per popularity rank: Zipf(1), apportioned by largest remainder."""
    shares = np.array([1.0 / rank for rank in range(1, n_configs + 1)])
    exact = shares / shares.sum() * n_requests
    counts = np.floor(exact).astype(int)
    for rank in np.argsort(-(exact - counts), kind="stable")[: n_requests - counts.sum()]:
        counts[rank] += 1
    return [int(c) for c in counts]


def build_workload(params: dict):
    if params["graph"]:
        prepare, branch, reduce = params["sizes"]
        return fork_join_graph(
            branches=params["branches"], prepare_size=prepare, branch_size=branch,
            reduce_size=reduce, iterations=params["iterations"],
        )
    return TaskChain(
        [
            RegularizedLeastSquaresTask(size=size, iterations=iters, name=f"L{i + 1}",
                                        generate_on_host=on_host)
            for i, (size, iters, on_host) in enumerate(
                zip(params["sizes"], params["iterations"], params["on_host"]))
        ],
        name=params["name"],
    )


def build_request(config: dict, workloads: list[dict]) -> PlacementRequest:
    """A freshly built request object (workload, grid, policies all new)."""
    params = workloads[config["workload"]]
    request = {
        "workload": build_workload(params),
        "platform": params["platform"],
        "objective": config["objective"],
    }
    kind = config["kind"]
    if kind == "grid":
        request["scenario_grid"] = link_degradation_grid(
            RADIO[params["platform"]], start=wifi_ac(), end=lte(), n_points=config["n_points"],
        )
    elif kind == "fault":
        request["retry"] = RetryPolicy(max_attempts=config["max_attempts"], backoff_base_s=0.001)
        request["faults"] = FaultProfile(
            device_failure=DeviceFailure(rate=config["failure_rate"]),
            link_dropout=LinkDropout(rate=config["dropout_rate"]),
        )
    elif kind == "constrained":
        request["constraints"] = (MaxOffloadedConstraint(config["max_offloaded"]),)
    return PlacementRequest(**request)


def setup(seed: int, tiny: bool = False) -> dict:
    rng = np.random.default_rng([seed, 2])
    n_workloads, n_configs, n_requests = (20, 40, 200) if tiny else (240, 600, 3000)
    workloads = [_workload_params(rng, i) for i in range(n_workloads)]
    configs = [_config_params(rng, i, workloads) for i in range(n_configs)]
    # The seed decides which configuration gets which popularity rank and the
    # order of the stream; the number of requests per rank is fixed.
    ranked = rng.permutation(n_configs)
    stream = np.repeat(ranked, zipf_counts(n_configs, n_requests))
    rng.shuffle(stream)
    params = {"workloads": workloads, "configs": configs, "stream": [int(c) for c in stream]}
    return {
        "params": params,
        "requests": [build_request(configs[c], workloads) for c in params["stream"]],
        "service": PlacementService(seed=0),
    }


def run(inputs: dict, tr: Tracer) -> Rep:
    rep = Rep()
    service: PlacementService = inputs["service"]
    for index, (request, config) in enumerate(zip(inputs["requests"], inputs["params"]["stream"])):
        if tr.enabled:
            tr.op = index
            with tr.span("service.cache.fingerprint_s"):
                fingerprint(request.workload)
                fingerprint(request.scenario_grid)
        with tr.span("service.submit"):
            response = rep.ops.run("submit", lambda: service.submit(request), config=config)
        rep.ops.records[-1]["hit"] = response.cache_info.response_hit if response else None
    rep.state["service"] = service
    return rep


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100]: a measured sample, never interpolated."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def summarize(rep: Rep) -> dict[str, float]:
    records = [r for r in rep.ops.records if r["error"] is None]
    latencies = [r["ms"] for r in records]
    p99 = percentile(latencies, 99)
    return {
        "op_p50_ms": median(latencies),
        "op_p99_ms": p99,
        "op_p99_beyond": float(sum(ms > p99 for ms in latencies)),
        "cold_p50_ms": median(r["ms"] for r in records if not r["hit"]),
        "hot_p50_ms": median(r["ms"] for r in records if r["hit"]),
    }


def op_output(response):
    return (
        response.plan, response.placement, response.objective, response.value.hex(),
        response.engine, response.dispatch_reason,
    )


def check(inputs: dict, rep: Rep) -> dict[int, str]:
    """Every later answer for a configuration is bitwise its first (cold) answer."""
    failures: dict[int, str] = {}
    first: dict[int, tuple] = {}
    for index, (record, response) in enumerate(zip(rep.ops.records, rep.ops.values)):
        if response is None:
            continue
        answer = op_output(response)
        cold = first.setdefault(record["config"], answer)
        if answer != cold:
            failures[index] = f"answer {answer} differs from the cold answer {cold}"
    return failures


def _replay_one(service: PlacementService, request: PlacementRequest, engine: str, tr: Tracer):
    """The cold request again on a fresh executor, through the public calls it names."""
    executor = SimulatedExecutor(
        service.resolve_platform(request.platform), seed=service.seed, table_cache=TableCache()
    )
    fault_args = {"faults": request.faults, "retry": request.retry, "timeout": request.timeout}
    common = {"constraints": request.constraints, "devices": request.devices, **fault_args}
    if request.is_grid:
        robust = request.objective
        if isinstance(robust, str):
            robust = WorstCaseObjective(base=robust)
        with tr.span("service.devices.tables_s"):
            executor.grid_cost_tables(request.workload, request.scenario_grid, request.devices,
                                      **fault_args)
        if engine == "planner":
            with tr.span("service.search.planner_s"):
                plan = plan_grid(executor, request.workload, request.scenario_grid, robust,
                                 devices=request.devices)
            return plan.label, plan.value
        with tr.span("service.search.stream_s"):
            result = search_grid(executor, request.workload, request.scenario_grid,
                                 objectives=(robust,), top_k=1, **common)
        selection = result.top[robust.name]
        return selection.best, float(selection.values[0])
    objective = as_objective(request.objective)
    with tr.span("service.devices.tables_s"):
        executor.cost_tables(request.workload, request.devices, **fault_args)
    if engine == "planner":
        with tr.span("service.search.planner_s"):
            plan = plan_workload(executor, request.workload, objective, devices=request.devices,
                                 method="dp")
        return plan.label, plan.value
    with tr.span("service.search.stream_s"):
        result = search_space(executor, request.workload, objectives=(objective,), top_k=1,
                              frontier=None, method="stream", **common)
    selection = result.top[objective.name]
    return selection.best, float(selection.values[0])


def replay(inputs: dict, rep: Rep, tr: Tracer) -> dict[int, str]:
    """Replay every cold request layer by layer; its value must equal the response bitwise."""
    service: PlacementService = rep.state["service"]
    failures: dict[int, str] = {}
    records, responses = rep.ops.records, rep.ops.values
    for index, (record, response, request) in enumerate(zip(records, responses, inputs["requests"])):
        if response is None:
            continue
        tr.count(f"service.engine.{response.engine}")
        if record["hit"]:
            continue
        tr.op = index
        try:
            label, value = _replay_one(service, request, response.engine, tr)
        except Exception as exc:
            failures[index] = f"replay raised {type(exc).__name__}: {exc}"
            continue
        if (label, float(value).hex()) != (response.plan, response.value.hex()):
            failures[index] = (
                f"replay gave {label} = {value!r}, the service {response.plan} = {response.value!r}"
            )
    tables, answers = service.cache_stats(), service.response_cache.stats()
    tr.counts["service.response_hit_ratio"] = sum(bool(r["hit"]) for r in records) / len(records)
    tr.counts["service.cache.table_hit_ratio"] = tables.hit_rate
    tr.counts["service.cache.table_evictions"] = tables.evictions
    tr.counts["service.cache.response_evictions"] = answers.evictions
    return failures
