"""Streaming placement-space search & selection (the conclusion's "subset of solutions").

The paper's methodology meets an ``m**k`` wall: the batch engine makes
*executing* every placement fast, but selecting winners used to require a
fully materialised ``label -> AlgorithmProfile`` mapping.  This subpackage
selects directly from :class:`~repro.devices.batch.BatchExecutionResult`
chunks in bounded memory: top-K under scalar objectives, an incremental
Pareto frontier, and vectorized feasibility constraints, with optional
multi-process sharding of the placement range or scenario axis on one shard
runner (:mod:`repro.search.shards`).
``repro.selection.pareto`` keeps the materialised-profiles facade over the
same dominance kernel (:func:`pareto_mask`).

:mod:`repro.search.planner` escapes enumeration altogether where the
objective is additive over the placement lattice: :func:`plan_workload` is an
exact ``O(k * m**2)`` Viterbi DP (chains; level-DP on barrier-decomposable
graphs) and :func:`plan_grid` its robust scenario-grid counterpart, both
differential-pinned against the streaming enumerators.
"""

from .constraints import (
    Constraint,
    CostBudgetConstraint,
    DeadlineConstraint,
    EnergyBudgetConstraint,
    MaxOffloadedConstraint,
    SuccessProbabilityConstraint,
    feasible_mask,
)
from .driver import (
    FrontierSelection,
    SearchResult,
    SpaceSearch,
    TopSelection,
    search_space,
)
from .frontier import StreamingFrontier
from .objectives import (
    DecisionObjective,
    MetricObjective,
    Objective,
    WeightedSumObjective,
    as_objective,
    as_objectives,
)
from .pareto import dominated_by, pareto_mask
from .planner import (
    GridPlanResult,
    PlanResult,
    dispatch_reason,
    grid_baselines,
    plan_grid,
    plan_workload,
    planner_objective_weights,
)
from .robust import (
    ExpectedValueObjective,
    GridSearchResult,
    QuantileObjective,
    RegretObjective,
    RobustObjective,
    ScenarioBest,
    SLOObjective,
    WorstCaseObjective,
    as_robust_objectives,
    search_grid,
)
from .topk import StreamingTopK

__all__ = [
    "search_space",
    "search_grid",
    "plan_workload",
    "plan_grid",
    "grid_baselines",
    "planner_objective_weights",
    "dispatch_reason",
    "PlanResult",
    "GridPlanResult",
    "GridSearchResult",
    "ScenarioBest",
    "RobustObjective",
    "WorstCaseObjective",
    "ExpectedValueObjective",
    "QuantileObjective",
    "SLOObjective",
    "RegretObjective",
    "as_robust_objectives",
    "SpaceSearch",
    "SearchResult",
    "TopSelection",
    "FrontierSelection",
    "StreamingTopK",
    "StreamingFrontier",
    "pareto_mask",
    "dominated_by",
    "Objective",
    "MetricObjective",
    "WeightedSumObjective",
    "DecisionObjective",
    "as_objective",
    "as_objectives",
    "Constraint",
    "DeadlineConstraint",
    "EnergyBudgetConstraint",
    "CostBudgetConstraint",
    "MaxOffloadedConstraint",
    "SuccessProbabilityConstraint",
    "feasible_mask",
]
