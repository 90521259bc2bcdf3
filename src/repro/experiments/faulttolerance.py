"""Experiment ``faulttolerance``: fault-blind vs fault-aware placement.

A placement chosen by the classic noise-free cost model is *fault-blind*: it
happily concentrates work on the fastest accelerator even when that device
crashes often enough that retries (each re-paying compute and transfer) eat
the speedup.  This experiment sweeps the failure rate of the remote devices
(edge server + cloud GPU) of the 4-device edge cluster and, per point:

* evaluates the **whole placement space** under the scenario's fault profile
  with the vectorized expected-cost engine (retries with backoff),
* compares the *fault-blind* optimum (picked once at failure rate 0) with the
  *fault-aware* optimum of that point -- expected times, success
  probabilities, and the overhead the blind pick pays,
* reports the crossover: the first failure rate at which the fault-aware
  engine abandons the fault-blind placement.

The sweep ends with a :func:`~repro.faults.plan_with_fallback` plan at the
highest failure rate -- the primary placement plus one verified backup per
non-host device, the operational answer to "what do we run when the edge
server is gone?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..devices import SimulatedExecutor, build_tables, edge_cluster_platform
from ..faults import (
    FallbackPlan,
    RetryPolicy,
    plan_with_fallback,
)
from ..offload.space import placement_matrix
from ..reporting import format_table
from ..scenarios import DeviceFailureRate, Scenario, ScenarioGrid, apply_conditions
from ..tasks import RegularizedLeastSquaresTask, TaskChain

__all__ = ["FaultToleranceConfig", "FaultPoint", "FaultToleranceResult", "run", "fault_chain"]


@dataclass(frozen=True)
class FaultToleranceConfig:
    """Parameters of the fault-tolerance experiment."""

    #: Per-attempt failure probabilities swept on the faulty devices.
    failure_rates: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.35, 0.5)
    #: Devices that fail (the remote edge server and cloud GPU of the cluster).
    faulty_devices: Sequence[str] = ("E", "A")
    #: Matrix sizes of the chained loop tasks.
    task_sizes: Sequence[int] = (60, 100, 160, 260, 420)
    #: Loop length of every task (compute-heavy loops make offloading pay).
    iterations: int = 20
    #: Retry policy every evaluation uses (attempts incl. the first).
    max_attempts: int = 3
    backoff_base_s: float = 0.001
    seed: int = 0


def fault_chain(config: FaultToleranceConfig | None = None) -> TaskChain:
    """The experiment's loop chain (device-generated data, mixed task sizes)."""
    cfg = config or FaultToleranceConfig()
    tasks = [
        RegularizedLeastSquaresTask(
            size=size, iterations=cfg.iterations, name=f"L{i + 1}", generate_on_host=False
        )
        for i, size in enumerate(cfg.task_sizes)
    ]
    return TaskChain(tasks, name="fault-tolerance")


@dataclass(frozen=True)
class FaultPoint:
    """Everything observed at one failure rate of the sweep."""

    scenario: str
    #: Per-attempt failure probability of the faulty devices.
    rate: float
    #: Fault-aware optimum of this point (min expected time).
    aware: str
    aware_time_s: float
    aware_success: float
    #: Expected time the fault-blind placement (rate-0 optimum) pays here.
    blind: str
    blind_time_s: float
    blind_success: float

    @property
    def blind_overhead(self) -> float:
        """Relative extra expected time of sticking with the blind pick."""
        if self.aware_time_s == 0.0:
            return 0.0
        return self.blind_time_s / self.aware_time_s - 1.0


@dataclass(frozen=True)
class FaultToleranceResult:
    config: FaultToleranceConfig
    sweep: tuple[FaultPoint, ...]
    #: The fault-blind placement (optimal at failure rate 0).
    blind_label: str
    #: First swept rate at which the fault-aware pick differs (None: never).
    crossover_rate: float | None
    #: Primary + per-device backup plans at the highest swept failure rate.
    fallback: FallbackPlan

    def picks(self) -> dict[str, str]:
        return {point.scenario: point.aware for point in self.sweep}

    def pick_drift(self) -> int:
        """Number of distinct fault-aware picks along the sweep."""
        return len(dict.fromkeys(point.aware for point in self.sweep))

    def report(self) -> str:
        rows = [
            (
                f"{point.rate:g}",
                point.aware,
                f"{point.aware_time_s * 1e3:.2f}",
                f"{point.aware_success:.4f}",
                f"{point.blind_time_s * 1e3:.2f}",
                f"{point.blind_success:.4f}",
                f"{point.blind_overhead * 100:+.1f}%",
            )
            for point in self.sweep
        ]
        crossover = (
            f"fault-aware pick abandons {self.blind_label} at rate "
            f"{self.crossover_rate:g}"
            if self.crossover_rate is not None
            else f"fault-blind pick {self.blind_label} survives the whole sweep"
        )
        parts = [
            "Fault-tolerance experiment: device-failure sweep on "
            f"{list(self.config.faulty_devices)} "
            f"({len(self.sweep)} points, blind pick {self.blind_label})",
            format_table(
                (
                    "failure rate",
                    "aware pick",
                    "aware E[time] [ms]",
                    "aware P(succ)",
                    "blind E[time] [ms]",
                    "blind P(succ)",
                    "blind overhead",
                ),
                rows,
            ),
            "",
            f"pick drift: {self.pick_drift()} distinct fault-aware picks; {crossover}",
            self.fallback.summary(),
        ]
        return "\n".join(parts)


def run(config: FaultToleranceConfig | None = None) -> FaultToleranceResult:
    """Sweep device failure rates and report the blind-vs-aware comparison."""
    cfg = config or FaultToleranceConfig()
    rates = tuple(float(r) for r in cfg.failure_rates)
    if len(rates) < 2:
        raise ValueError("the failure sweep needs at least 2 rates")
    if sorted(rates) != list(rates):
        raise ValueError(f"failure rates must be ascending, got {rates}")
    base = edge_cluster_platform()
    chain = fault_chain(cfg)
    retry = RetryPolicy(max_attempts=cfg.max_attempts, backoff_base_s=cfg.backoff_base_s)
    axis = DeviceFailureRate(devices=tuple(cfg.faulty_devices))
    scenarios = ScenarioGrid.cartesian([(axis, rates)])
    platforms = scenarios.platforms(base)

    matrix = placement_matrix(len(chain), len(base.aliases))
    sweep: list[FaultPoint] = []
    blind_row: int | None = None
    blind_label = ""
    crossover: float | None = None
    for index, scenario in enumerate(scenarios):
        tables = build_tables(chain, platforms[index], retry=retry)
        batch = tables.execute(matrix)
        times = batch.total_time_s
        aware_row = int(np.argmin(times))
        if blind_row is None:
            # Rate 0 evaluates the classic cost model exactly (the fault-free
            # collapse the engine tests pin), so this IS the fault-blind pick.
            blind_row = aware_row
            blind_label = batch.label(blind_row)
        aware_label = batch.label(aware_row)
        if crossover is None and aware_label != blind_label:
            crossover = rates[index]
        sweep.append(
            FaultPoint(
                scenario=scenario.name,
                rate=rates[index],
                aware=aware_label,
                aware_time_s=float(times[aware_row]),
                aware_success=float(batch.success_probability[aware_row]),
                blind=blind_label,
                blind_time_s=float(times[blind_row]),
                blind_success=float(batch.success_probability[blind_row]),
            )
        )

    executor = SimulatedExecutor(platforms[-1], seed=cfg.seed)
    fallback = plan_with_fallback(executor, chain, "time", retry=retry)
    return FaultToleranceResult(
        config=cfg,
        sweep=tuple(sweep),
        blind_label=blind_label,
        crossover_rate=crossover,
        fallback=fallback,
    )
