"""Fleet-scale simulation: sampled user populations over the scenario engine.

ROADMAP item 3: the production north star serves *millions of users*, and a
user base is a distribution over platforms and conditions -- not a cartesian
grid.  This subpackage models it in three layers, all riding the existing
vectorized grid substrate (PR 4's scenario grids, PR 9's fused array-space
builds, delta rebuilds, and scenario sharding):

* **specification** (:mod:`repro.fleet.segments`): a :class:`FleetSpec` of
  weighted :class:`UserSegment` entries, each a bundle of per-axis
  distributions (:class:`UniformAxis` / :class:`NormalAxis` /
  :class:`ChoiceAxis`);
* **sampling** (:mod:`repro.fleet.sample`): :func:`sample_fleet` draws a
  seeded, reproducible :class:`SampledFleet` -- one weighted row per user,
  drawn column-wise into a columnar grid -- whose grid flows unchanged through ``build_tables`` /
  ``search_grid`` / ``plan_grid`` / ``PlacementService``; redrawing a subset
  (:meth:`SampledFleet.resample_users`) yields the replacement rows for
  delta rebuilds;
* **coupling** (:mod:`repro.fleet.contention`): :class:`ContentionModel`
  turns per-device tenant counts into
  :class:`~repro.scenarios.DeviceLoadFactor` values and
  :func:`solve_contention` iterates the placements -> counts -> loads fixed
  point (fixed-assignment or best-response), differential-testable against
  direct evaluation at the returned loads.

Fleet-level risk measures live in :mod:`repro.search.robust`:
:class:`~repro.search.QuantileObjective` (weighted p95/p99 across the fleet)
and :class:`~repro.search.SLOObjective` (weighted miss fraction of a
deadline/energy budget), both exact under scenario sharding.
"""

from .contention import ContentionModel, ContentionResult, solve_contention
from .sample import SampledFleet, sample_fleet
from .segments import (
    AxisSampler,
    ChoiceAxis,
    FleetSpec,
    NormalAxis,
    UniformAxis,
    UserSegment,
)

__all__ = [
    "AxisSampler",
    "UniformAxis",
    "NormalAxis",
    "ChoiceAxis",
    "UserSegment",
    "FleetSpec",
    "SampledFleet",
    "sample_fleet",
    "ContentionModel",
    "ContentionResult",
    "solve_contention",
]
