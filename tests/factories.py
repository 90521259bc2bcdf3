"""Shared randomized factories for platforms, chains and graphs.

One copy of the ``random_platform`` / ``random_chain`` helpers that used to be
duplicated across ``tests/devices/test_batch.py``, ``test_costmodel.py`` and
``test_grid.py`` (plus the DAG analogue ``random_graph``).  They live in a
plain module -- not ``conftest.py`` -- so hypothesis tests can call them with
drawn seeds (function-scoped fixtures and ``@given`` do not mix);
``tests/conftest.py`` re-exports them as factory fixtures for ordinary tests.

It also keeps :func:`materialized_params`, the per-platform ``getattr``
parameter gather the grid builder used before every grid was built from
``PlatformParams`` arrays; the differential tests pin the one gather the
builder has left against it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.devices import DeviceSpec, LinkSpec, Platform
from repro.devices.grid import _GridParamArrays, _missing_link_topology
from repro.tasks import GemmLoopTask, TaskChain, TaskGraph


def random_platform(rng: np.random.Generator, n_devices: int) -> Platform:
    """A fully linked platform with randomized device and link parameters."""
    aliases = ["D", "A", "B", "C"][:n_devices]
    devices = {
        alias: DeviceSpec(
            name=f"dev-{alias}",
            peak_gflops=float(rng.uniform(5.0, 500.0)),
            half_saturation_flops=float(rng.uniform(1e4, 1e7)),
            memory_bandwidth_gbs=float(rng.uniform(2.0, 200.0)),
            kernel_launch_overhead_s=float(rng.uniform(0.0, 1e-4)),
            task_startup_overhead_s=float(rng.uniform(0.0, 1e-3)),
            power_active_w=float(rng.uniform(1.0, 250.0)),
            power_idle_w=float(rng.uniform(0.1, 30.0)),
            cost_per_hour=float(rng.uniform(0.0, 2.0)),
        )
        for alias in aliases
    }
    links = {
        (a, b): random_link(rng, name=f"link-{a}{b}")
        for i, a in enumerate(aliases)
        for b in aliases[i + 1 :]
    }
    return Platform(devices=devices, links=links, host=aliases[0], name="random")


def random_link(rng: np.random.Generator, name: str = "rand") -> LinkSpec:
    return LinkSpec(
        name=name,
        bandwidth_gbs=float(rng.uniform(0.01, 10.0)),
        latency_s=float(rng.uniform(0.0, 1e-2)),
        energy_per_byte_j=float(rng.uniform(0.0, 1e-7)),
    )


def random_chain(rng: np.random.Generator, n_tasks: int) -> TaskChain:
    """A chain of small randomized GEMM loop tasks named ``L1..Ln``."""
    tasks = [
        GemmLoopTask(
            int(rng.integers(8, 96)),
            iterations=int(rng.integers(1, 4)),
            name=f"L{i + 1}",
        )
        for i in range(n_tasks)
    ]
    return TaskChain(tasks, name=f"random-{n_tasks}")


def random_graph(
    rng: np.random.Generator, n_tasks: int, edge_probability: float = 0.5
) -> TaskGraph:
    """A random DAG over the tasks of :func:`random_chain`.

    Each forward pair ``(Li, Lj)`` with ``i < j`` becomes an edge with the
    given probability, so the graph mixes sources, fan-out, fan-in joins and
    independent components -- the structures the DAG engine must handle.
    """
    chain = random_chain(rng, n_tasks)
    names = chain.task_names
    edges = [
        (names[i], names[j])
        for i in range(n_tasks)
        for j in range(i + 1, n_tasks)
        if rng.random() < edge_probability
    ]
    return TaskGraph(chain.tasks, edges=edges, name=f"random-graph-{n_tasks}")


def partially_linked_platform(missing: tuple[str, str]) -> Platform:
    """Host ``D`` plus devices ``A`` and ``B``, linked pairwise except ``missing``."""
    devices = {alias: DeviceSpec(name=f"dev-{alias}") for alias in "DAB"}
    links = {
        pair: LinkSpec(name="".join(pair), bandwidth_gbs=1.0, latency_s=1e-3)
        for pair in (("D", "A"), ("D", "B"), ("A", "B"))
        if pair != missing
    }
    return Platform(devices=devices, links=links, host="D", name="partial")


def diamond_workloads() -> tuple[TaskChain, TaskGraph]:
    """A 4-task chain and the fork-join ``L1 -> (L2, L3) -> L4`` over the same tasks."""
    tasks = [GemmLoopTask(16, name=f"L{i + 1}") for i in range(4)]
    chain = TaskChain(tasks, name="partial-chain")
    edges = [("L1", "L2"), ("L1", "L3"), ("L2", "L4"), ("L3", "L4")]
    return chain, TaskGraph(tasks, edges=edges, name="partial-graph")


#: (missing link, workload kind, placements, exact KeyError text).  The first
#: offending row is named; a graph join names its first predecessor (in
#: canonical edge order) whose hop crosses the gap, and a missing host link
#: wins over a penalty hop.
MISSING_LINK_CASES = [
    (("A", "B"), "chain", ["DDDD", "DABD", "DDAB"],
     "no link defined between 'A' and 'B' (required by placement 'DABD')"),
    (("D", "B"), "chain", ["DDDD", "DABD", "DDAB"],
     "no link defined between 'D' and 'B' (required by placement 'DABD')"),
    (("A", "B"), "graph", ["DDDD", "DAAB", "DABA"],
     "no link defined between 'A' and 'B' (required by placement 'DAAB')"),
    (("A", "B"), "graph", ["DDDD", "DBAA"],
     "no link defined between 'B' and 'A' (required by placement 'DBAA')"),
    (("D", "B"), "graph", ["DDDD", "DBAA"],
     "no link defined between 'D' and 'B' (required by placement 'DBAA')"),
]

#: Placements that avoid the A <-> B gap on both diamond workloads.
MISSING_LINK_SAFE = ["DDDD", "DADA", "ADDA", "DBBD"]


def device_param(platforms: Sequence[Platform], aliases: Sequence[str], field: str) -> np.ndarray:
    """Per-(scenario, device) array of one DeviceSpec parameter."""
    return np.array(
        [[getattr(platform.device(alias), field) for alias in aliases] for platform in platforms]
    )


def materialized_params(
    platforms: Sequence[Platform],
    aliases: Sequence[str],
    host: str,
    device_order: Sequence[str],
) -> _GridParamArrays:
    """Oracle parameter gather: per-platform ``getattr`` loops over derived platforms."""
    s, m = len(platforms), len(aliases)
    missing, host_missing = _missing_link_topology(platforms[0], aliases, host)

    def link_params(a: str, b: str) -> list[tuple[float, float, float]]:
        return [
            (link.bandwidth_gbs, link.latency_s, link.energy_per_byte_j)
            for platform in platforms
            for link in (platform.link(a, b),)
        ]

    host_bw = np.full((s, m), np.nan)
    host_lat = np.full((s, m), np.nan)
    host_epb = np.full((s, m), np.nan)
    for d, alias in enumerate(aliases):
        if alias == host or host_missing[d]:
            continue
        params = link_params(host, alias)
        host_bw[:, d] = [p[0] for p in params]
        host_lat[:, d] = [p[1] for p in params]
        host_epb[:, d] = [p[2] for p in params]

    pair_bw = np.full((s, m, m), np.nan)
    pair_lat = np.full((s, m, m), np.nan)
    pair_epb = np.full((s, m, m), np.nan)
    for i, a in enumerate(aliases):
        for j, b in enumerate(aliases):
            if a == b or (a, b) in missing:
                continue
            params = link_params(a, b)
            pair_bw[:, i, j] = [p[0] for p in params]
            pair_lat[:, i, j] = [p[1] for p in params]
            pair_epb[:, i, j] = [p[2] for p in params]

    extra = [alias for alias in device_order if alias not in aliases]
    extra_idle_power = np.array(
        [[platform.device(alias).power_idle_w for alias in extra] for platform in platforms]
    ).reshape(s, len(extra))

    return _GridParamArrays(
        peak=device_param(platforms, aliases, "peak_gflops"),
        half_saturation=device_param(platforms, aliases, "half_saturation_flops"),
        mem_bw=device_param(platforms, aliases, "memory_bandwidth_gbs"),
        launch=device_param(platforms, aliases, "kernel_launch_overhead_s"),
        startup=device_param(platforms, aliases, "task_startup_overhead_s"),
        power_active=device_param(platforms, aliases, "power_active_w"),
        power_idle=device_param(platforms, aliases, "power_idle_w"),
        cost_per_hour=device_param(platforms, aliases, "cost_per_hour"),
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
