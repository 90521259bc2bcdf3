"""Unified cost-table backend: one entry point for every table family.

Cost tables come in six families -- chain/graph tables
(:mod:`repro.devices.batch`), their condition-stacked grid forms
(:mod:`repro.devices.grid`) and the fault-augmented variants of both
(:mod:`repro.faults.tables`).  :func:`build_tables` is the one place that
builds them, and each family maps onto one of four execution kernels:

====================  ==========================  =============================
configuration          fault-free                  under faults (``retry=...``)
====================  ==========================  =============================
one platform           ``ChainCostTables`` /       ``FaultChainCostTables``
                       ``GraphCostTables``
platform sequence or   ``GridCostTables`` /        ``FaultGridCostTables``
``scenarios=...``      ``GraphGridCostTables``
kernel                 chain grid / graph grid     fault chain grid /
                                                   fault graph grid
====================  ==========================  =============================

There is one kernel per cost semantics, and every kernel is a grid kernel:
a one-platform family evaluates as a one-scenario grid (``np.newaxis``
views of its tables) and returns that grid's ``batch(0)`` view, carrying the
caller's tables and fingerprint.

Every returned object satisfies the :class:`CostTables` protocol --
``execute(placements)``, ``.n_tasks``, ``.aliases`` and a content-addressed
``.fingerprint`` (the composite SHA-256 of the build configuration, see
:mod:`repro.cache`) under which the executor's :class:`~repro.cache.TableCache`
stores it.  Every table in the system, fault-aware ones included
(``retry=...``), is constructed through this one code path.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Protocol, Sequence, runtime_checkable

import numpy as np

from ..cache import table_key
from .platform import Platform

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids import cycles
    from ..scenarios.grid import ScenarioGrid

__all__ = ["CostTables", "build_tables", "check_fault_args", "resolve_aliases"]


def resolve_aliases(platform: Platform, devices: Sequence[str] | None) -> tuple[str, ...]:
    """Validate and normalise the candidate device aliases.

    The shared preamble of every table builder: ``devices`` defaults to all
    platform devices (host first), must be non-empty, unique, and known to
    the platform.
    """
    aliases = tuple(devices) if devices is not None else tuple(platform.aliases)
    if not aliases:
        raise ValueError("at least one device alias is required")
    if len(set(aliases)) != len(aliases):
        raise ValueError("device aliases must be unique")
    platform.validate_aliases(aliases)
    return aliases


def check_fault_args(retry: Any, faults: Any, timeout: Any) -> None:
    """Reject fault arguments without a retry policy (shared validation)."""
    if retry is None and (faults is not None or timeout is not None):
        raise ValueError(
            "fault-aware evaluation needs retry=RetryPolicy(...); "
            "got faults/timeout without a retry policy"
        )


@runtime_checkable
class CostTables(Protocol):
    """What every table family exposes to the layers above.

    ``execute`` evaluates an ``(n_placements, n_tasks)`` device-index matrix
    (or any placement spelling :func:`~repro.devices.batch.as_placement_matrix`
    accepts) and returns the family's batch result; ``fingerprint`` is the
    content hash of the build configuration (empty for hand-built tables).
    """

    fingerprint: str

    @property
    def n_tasks(self) -> int: ...

    @property
    def aliases(self) -> tuple[str, ...]: ...

    def execute(self, placements: np.ndarray) -> Any: ...


def _as_scenario_grid(platform: Platform, scenarios: Any) -> "ScenarioGrid":
    """Coerce the scenarios argument to a grid (no platform derivation)."""
    from ..scenarios.grid import ScenarioGrid

    if not isinstance(platform, Platform):
        raise TypeError(
            "scenarios need a single base platform to derive from; "
            f"got platform={platform!r}"
        )
    if not isinstance(scenarios, ScenarioGrid):
        scenarios = ScenarioGrid(tuple(scenarios))
    return scenarios


def build_tables(
    workload: Any,
    platform: "Platform | Sequence[Platform]",
    *,
    devices: Sequence[str] | None = None,
    scenarios: Any = None,
    faults: Any = None,
    retry: Any = None,
    timeout: Any = None,
    slice_cache: Any = None,
):
    """Build the cost tables for one configuration, fingerprint attached.

    Parameters
    ----------
    workload:
        A :class:`~repro.tasks.chain.TaskChain` or
        :class:`~repro.tasks.graph.TaskGraph`.
    platform:
        One platform, or a sequence of scenario platforms (grid tables).  A
        sequence is stacked one platform per parameter row; every platform
        must share the first one's devices, host and links.
    devices:
        Candidate device aliases; defaults to every platform device.
    scenarios:
        A :class:`~repro.scenarios.grid.ScenarioGrid` (or scenario sequence)
        to derive grid tables from ``platform``; mutually exclusive with
        passing a platform sequence.  The grid is built in array space
        without deriving per-scenario platforms: each condition axis
        transforms the base platform's parameter arrays through its
        :meth:`~repro.scenarios.conditions.ConditionAxis.scale_arrays` hook
        (axes without one run their ``apply`` row by row through the base
        class' adapter), bitwise identical to stacking the derived
        platforms.  The tables carry a build context enabling
        :meth:`~repro.devices.grid.GridCostTables.updated` delta rebuilds.
    faults, retry, timeout:
        Fault-aware evaluation: passing ``retry`` layers survival tables over
        the fault-free build (which keeps its own fault-free fingerprint);
        ``faults``/``timeout`` without ``retry`` is an error (mirroring the
        executor).
    slice_cache:
        Optional :class:`~repro.cache.TableCache` for per-scenario condition
        slices of ``scenarios=`` builds; slices already cached (by content
        fingerprint) are served instead of recomputed.

    The returned object satisfies :class:`CostTables`; its ``fingerprint``
    is :func:`repro.cache.table_key` of the configuration, which is also the
    key the executor caches it under.
    """
    check_fault_args(retry, faults, timeout)

    platforms: list[Platform] | None = None
    grid: "ScenarioGrid | None" = None
    if scenarios is not None:
        grid = _as_scenario_grid(platform, scenarios)
        key_platform: Any = platform
    elif isinstance(platform, Platform):
        key_platform = platform
    else:
        platforms = list(platform)
        key_platform = platforms

    key = table_key(
        workload,
        key_platform,
        devices=devices,
        scenarios=grid,
        faults=faults,
        retry=retry,
        timeout=timeout,
    )

    if retry is not None:
        from ..faults.tables import _check_policies

        _check_policies(retry, timeout)

    stacked = grid is not None or platforms is not None
    if stacked:
        from .grid import _build_grid_tables

        tables = _build_grid_tables(
            workload, key_platform, devices, scenarios=grid, slice_cache=slice_cache
        )
    else:
        from ..tasks.graph import TaskGraph
        from .batch import ChainCostTables, GraphCostTables

        if isinstance(workload, TaskGraph):
            tables = GraphCostTables.build(workload, platform, devices)
        else:
            tables = ChainCostTables.build(workload, platform, devices)

    if retry is not None:
        # Survival tables layer over the fault-free build, which keeps its
        # own fault-free fingerprint.
        from ..faults.tables import _build_fault_grid_tables, _build_fault_tables

        base_key = table_key(workload, key_platform, devices=devices, scenarios=grid)
        layer = _build_fault_grid_tables if stacked else _build_fault_tables
        tables = layer(
            workload,
            replace(tables, fingerprint=base_key),
            retry=retry,
            faults=faults,
            timeout=timeout,
        )

    return replace(tables, fingerprint=key)
