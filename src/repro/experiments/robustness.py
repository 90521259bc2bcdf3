"""Experiment ``robustness``: ranking drift along a wifi -> lte degradation sweep.

The paper shows that *system noise* makes single-number rankings unstable;
this experiment shows the same instability under *environment drift*.  A
5-task loop chain runs on the 4-device edge cluster while every radio link
(host/NPU to edge server and cloud GPU) degrades from healthy Wi-Fi to LTE in
``n_points`` interpolation steps:

* per scenario, the **whole placement space** (``4**5 = 1024``) is evaluated
  through the condition-stacked grid engine, giving the per-scenario winner
  and the decision-model pick;
* a fixed candidate set (the union of each scenario's top placements) is
  measured under noise and clustered into performance classes per scenario,
  exposing how the class structure itself drifts;
* the :class:`~repro.selection.robust.RobustDecisionModel` reports the
  placements that stay good across the *whole* sweep (worst case and minimax
  regret) -- typically neither endpoint's winner.

The tasks generate their data on the executing device (``generate_on_host=
False``), the regime where offloading is latency- rather than byte-bound and
therefore genuinely sensitive to link quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..core.analyzer import AnalysisResult
from ..devices import SimulatedExecutor, edge_cluster_platform, lte, wifi_ac
from ..devices.grid import GridExecutionResult, execute_placements_grid
from ..devices.tables import build_tables
from ..measurement.noise import default_system_noise
from ..offload.space import placement_matrix
from ..reporting import format_table
from ..scenarios import ScenarioGrid, link_degradation_grid
from ..selection import DecisionModel, RobustDecision, RobustDecisionModel
from ..tasks import RegularizedLeastSquaresTask, TaskChain
from .base import default_analyzer

__all__ = ["RobustnessConfig", "RobustnessPoint", "RobustnessResult", "run", "drift_chain"]


@dataclass(frozen=True)
class RobustnessConfig:
    """Parameters of the robustness experiment."""

    #: Number of wifi->lte interpolation points (the acceptance sweep uses >= 5).
    n_points: int = 6
    #: Matrix sizes of the chained loop tasks (mixed small-to-heavy, so the
    #: profitable offload boundary moves as the links degrade).
    task_sizes: Sequence[int] = (60, 100, 160, 260, 420)
    #: Loop length of every task (compute-heavy loops make offloading pay).
    iterations: int = 20
    #: Links that ride the degrading radio (every remote hop of the cluster).
    degraded_links: Sequence[tuple[str, str]] = (
        ("D", "E"),
        ("D", "A"),
        ("N", "E"),
        ("N", "A"),
        ("E", "A"),
    )
    #: Per scenario, this many of its best placements join the fixed
    #: clustering candidate set (union over scenarios).
    candidates_per_scenario: int = 4
    n_measurements: int = 30
    repetitions: int = 60
    seed: int = 0
    noise_level: float = 1.0
    #: Cost weight of the per-scenario decision model (seconds per cost unit).
    cost_weight: float = 1000.0


def drift_chain(config: RobustnessConfig | None = None) -> TaskChain:
    """The experiment's loop chain (device-generated data, mixed task sizes)."""
    cfg = config or RobustnessConfig()
    tasks = [
        RegularizedLeastSquaresTask(
            size=size, iterations=cfg.iterations, name=f"L{i + 1}", generate_on_host=False
        )
        for i, size in enumerate(cfg.task_sizes)
    ]
    return TaskChain(tasks, name="robustness-drift")


@dataclass(frozen=True)
class RobustnessPoint:
    """Everything observed at one point of the degradation sweep."""

    scenario: str
    #: Interpolation parameter: 0 = healthy Wi-Fi, 1 = LTE fallback.
    t: float
    winner: str
    winner_time_s: float
    decision: str
    n_clusters: int
    fastest_class: tuple[str, ...]
    analysis: AnalysisResult


@dataclass(frozen=True)
class RobustnessResult:
    config: RobustnessConfig
    sweep: tuple[RobustnessPoint, ...]
    #: The fixed candidate labels clustered at every point, in batch order.
    candidates: tuple[str, ...]
    robust_worst_case: RobustDecision
    robust_regret: RobustDecision
    grid: GridExecutionResult

    def winners(self) -> dict[str, str]:
        return {point.scenario: point.winner for point in self.sweep}

    def winner_drift(self) -> int:
        """Number of distinct per-scenario winners along the sweep."""
        return len(dict.fromkeys(point.winner for point in self.sweep))

    def class_drift(self) -> int:
        """Number of distinct fastest performance classes along the sweep."""
        return len(dict.fromkeys(frozenset(point.fastest_class) for point in self.sweep))

    def report(self) -> str:
        rows = [
            (
                point.scenario,
                point.winner,
                f"{point.winner_time_s * 1e3:.1f}",
                point.decision,
                point.n_clusters,
                " ".join(point.fastest_class),
            )
            for point in self.sweep
        ]
        parts = [
            "Robustness experiment: wifi -> lte degradation sweep "
            f"({len(self.sweep)} points, {len(self.grid.labels())} placements/scenario)",
            format_table(
                (
                    "scenario",
                    "best placement",
                    "best time [ms]",
                    "decision pick",
                    "classes",
                    "fastest class",
                ),
                rows,
            ),
            "",
            f"winner drift: {self.winner_drift()} distinct winners; "
            f"performance-class drift: {self.class_drift()} distinct fastest classes",
            f"robust (worst case): {self.robust_worst_case.summary()}",
            f"robust (min regret): {self.robust_regret.summary()}",
        ]
        return "\n".join(parts)


def run(config: RobustnessConfig | None = None) -> RobustnessResult:
    """Sweep the link degradation and report winner/performance-class drift."""
    cfg = config or RobustnessConfig()
    if cfg.n_points < 2:
        raise ValueError("the degradation sweep needs at least 2 points")
    if cfg.candidates_per_scenario < 1:
        raise ValueError("candidates_per_scenario must be positive")
    base = edge_cluster_platform()
    chain = drift_chain(cfg)
    scenarios: ScenarioGrid = link_degradation_grid(
        tuple(cfg.degraded_links), start=wifi_ac(), end=lte(), n_points=cfg.n_points
    )
    platforms = scenarios.platforms(base)

    # One condition-stacked pass over all (scenario, placement) pairs.
    tables = build_tables(chain, platforms)
    matrix = placement_matrix(len(chain), tables.n_devices)
    grid = execute_placements_grid(tables, matrix)
    labels = grid.labels()
    times = grid.total_time_s

    # Fixed clustering candidates: the union of every scenario's top placements
    # (so classes are comparable across the sweep), in placement order.
    top = np.argsort(times, axis=1, kind="stable")[:, : cfg.candidates_per_scenario]
    candidate_rows = np.unique(top.ravel())
    candidates = tuple(labels[int(row)] for row in candidate_rows)

    decision_model = DecisionModel(cost_weight=cfg.cost_weight)
    t_values = [i / (cfg.n_points - 1) for i in range(cfg.n_points)]
    sweep: list[RobustnessPoint] = []
    for index, scenario in enumerate(scenarios):
        executor = SimulatedExecutor(
            platforms[index], noise=default_system_noise(cfg.noise_level), seed=cfg.seed + index
        )
        batch = executor.execute_batch(chain, matrix[candidate_rows])
        measurements = executor.measure_batch(batch, repetitions=cfg.n_measurements)
        # Deterministic comparator: the engine precomputes the pairwise
        # outcome matrix once per scenario, keeping the sweep fast.
        analyzer = default_analyzer(
            seed=cfg.seed,
            repetitions=cfg.repetitions,
            n_measurements=cfg.n_measurements,
            stochastic=False,
        )
        analysis = analyzer.analyze(measurements)
        winner_row = int(np.argmin(times[index]))
        decision = decision_model.decide_from_batch(analysis.final, batch)
        sweep.append(
            RobustnessPoint(
                scenario=scenario.name,
                t=t_values[index],
                winner=labels[winner_row],
                winner_time_s=float(times[index, winner_row]),
                decision=str(decision.label),
                n_clusters=analysis.final.n_clusters,
                fastest_class=tuple(str(label) for label in analysis.best_algorithms()),
                analysis=analysis,
            )
        )

    robust_worst = RobustDecisionModel(
        model=decision_model, criterion="worst_case"
    ).decide_grid(grid)
    robust_regret = RobustDecisionModel(model=decision_model, criterion="regret").decide_grid(grid)
    return RobustnessResult(
        config=cfg,
        sweep=tuple(sweep),
        candidates=candidates,
        robust_worst_case=robust_worst,
        robust_regret=robust_regret,
        grid=grid,
    )
