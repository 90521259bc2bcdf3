"""Condition-parameterized platforms: environment drift as first-class data.

The paper shows algorithm rankings are unstable under *system noise*; the same
instability appears under *environment drift* -- a Wi-Fi link degrading to
LTE, a loaded CPU, DVFS throttling, a spot-price spike.  This subpackage
turns drift into data:

* :class:`ConditionAxis` subclasses transform a platform along one drift
  dimension (link bandwidth/latency scaling, device load, DVFS frequency,
  energy price, link-quality interpolation, and the failure-regime axes
  :class:`DeviceFailureRate` / :class:`LinkDropoutRate` which install
  :mod:`repro.faults` profiles);
* a :class:`Scenario` names one point in condition space (axes pinned to
  values, plus a weight for expectation-style objectives);
* a :class:`ScenarioGrid` is an ordered cartesian-or-explicit set of
  scenarios stored as columns (axis patterns, a value matrix, weights,
  names; ``Scenario`` objects are row views built on demand), with
  :class:`ScenarioRows` carrying replacement rows for delta rebuilds and
  :func:`link_degradation_grid` building the canonical wifi->lte sweep;
* :func:`apply_conditions` derives a scenario's platform through
  ``Platform.with_devices`` / ``Platform.with_links``.

Downstream, :func:`repro.devices.build_tables` (``scenarios=grid``) plus
:func:`repro.devices.execute_placements_grid` evaluate all (scenario,
placement) pairs in one NumPy pass and
:func:`repro.search.search_grid` selects placements that stay good across the
whole grid (worst case, expectation, minimax regret).
"""

from .conditions import (
    ConditionAxis,
    DeviceFailureRate,
    DeviceLoadFactor,
    DvfsFrequencyScale,
    EnergyPriceScale,
    LinkBandwidthScale,
    LinkDropoutRate,
    LinkInterpolation,
    LinkLatencyScale,
    Scenario,
    apply_conditions,
)
from .grid import ScenarioGrid, ScenarioRows, link_degradation_grid

__all__ = [
    "ConditionAxis",
    "LinkBandwidthScale",
    "LinkLatencyScale",
    "DeviceLoadFactor",
    "DvfsFrequencyScale",
    "EnergyPriceScale",
    "LinkInterpolation",
    "DeviceFailureRate",
    "LinkDropoutRate",
    "Scenario",
    "ScenarioGrid",
    "ScenarioRows",
    "apply_conditions",
    "link_degradation_grid",
]
