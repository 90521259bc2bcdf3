"""Vectorized batch execution: evaluate many placements in one pass.

The sequential :meth:`~repro.devices.simulator.SimulatedExecutor.execute` walks
a task chain in a Python loop, once per placement -- fine for the paper's
``2**3 = 8`` splits, hopeless for the ``m**k`` spaces its conclusion worries
about.  This module holds the per-platform side of batch evaluation:

* :class:`ChainCostTables` precomputes, per ``(task, device)``, the busy time
  (compute + startup), the host<->device transfer time/energy/bytes, and, per
  ``(device, device)``, the penalty-link costs of the scalar crossing devices;
* :class:`GraphCostTables` extends the tables with a
  :class:`~repro.tasks.graph.TaskGraph`'s dependency structure -- same
  per-entry values, evaluated level by level along the DAG;
* :class:`BatchExecutionResult` holds every scalar field of an
  :class:`~repro.devices.simulator.ExecutionRecord` as one array per field,
  and replays single rows as full records (:meth:`BatchExecutionResult.record`).

There is one execution kernel per cost semantics, and it lives in
:mod:`repro.devices.grid`.  A plain batch (:meth:`ChainCostTables.execute`,
:func:`execute_placements`) is the ``batch(0)`` view of a one-scenario grid:
the tables are wrapped as a :class:`~repro.devices.grid.GridCostTables` with
``np.newaxis`` views (built once per tables object), evaluated by the grid
kernel, and the single scenario is returned carrying the caller's tables.

Results are **bitwise identical** to the sequential loop: per-task quantities
come from the same scalar computations (the tables), and all accumulations
fold left in task order exactly like the sequential accumulators (a plain
``np.sum`` would use pairwise summation and drift in the last ulp for long
chains).

For DAG workloads the timing model changes where the structure demands it:
a task starts when its slowest predecessor has finished *and* its device is
free (tasks sharing a device serialize in topological order; parallel
branches placed on different devices overlap -- the total time is the
critical path through the schedule), a fan-in join pays one penalty hop per
incoming edge (summed in canonical edge order), source tasks are fed by the
host exactly like a chain's first task, and energy/bytes/cost remain plain
sums over tasks and edges.  On a *linear* graph every one of these rules
degenerates to the chain rule -- the device-availability term never exceeds
the predecessor's finish time there -- and the results are bitwise identical
to the chain kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from ..tasks.chain import TaskChain
from ..tasks.graph import TaskGraph
from .costmodel import finalize_execution, penalty_cost, task_device_cost
from .platform import Platform
from .simulator import ExecutionRecord, TaskExecutionRecord
from .tables import resolve_aliases

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (grid imports us)
    from .grid import GridCostTables

__all__ = [
    "ChainCostTables",
    "GraphCostTables",
    "BatchExecutionResult",
    "execute_placements",
    "as_placement_matrix",
    "placement_labels",
]


@dataclass(frozen=True)
class ChainCostTables:
    """Precomputed per-(task, device) and per-(device, device) cost tables.

    ``aliases`` fixes the device-index encoding: placement matrices hold the
    position of each task's device in this tuple.  All per-task tables have
    shape ``(n_tasks, n_devices)``; the penalty tables have shape
    ``(n_devices, n_devices)`` with the first-task (host -> device) costs kept
    in separate vectors so the host does not need to be a candidate device.
    """

    # Task names only (not the TaskChain): tables are cached under content
    # fingerprints, and a back-reference would keep every workload object
    # alive for as long as its tables sit in the cache.
    task_names: tuple[str, ...]
    platform: Platform
    aliases: tuple[str, ...]
    busy: np.ndarray
    hostio_time: np.ndarray
    hostio_bytes: np.ndarray
    energy_in: np.ndarray
    energy_out: np.ndarray
    task_flops: np.ndarray
    penalty_time: np.ndarray
    penalty_energy: np.ndarray
    penalty_bytes: np.ndarray
    first_penalty_time: np.ndarray
    first_penalty_energy: np.ndarray
    first_penalty_bytes: np.ndarray
    #: Device pairs without a platform link: their table entries are NaN, and
    #: only placements that actually traverse such a pair are rejected (the
    #: sequential executor likewise fails only when a transfer needs the link).
    missing_links: frozenset = frozenset()
    #: Name of the workload the tables were built from (chain/graph name);
    #: used to attribute placement-shape errors to the offending workload.
    workload: str = ""
    #: Content fingerprint of the build configuration (see
    #: :func:`repro.devices.tables.build_tables`); empty for hand-built tables.
    fingerprint: str = ""

    @property
    def n_tasks(self) -> int:
        return len(self.task_names)

    @property
    def n_devices(self) -> int:
        return len(self.aliases)

    def execute(self, placements: np.ndarray) -> "BatchExecutionResult":
        """Evaluate a placement batch against these tables (protocol entry).

        Runs the grid kernel on the one-scenario view of these tables and
        returns its ``batch(0)`` view, carrying these tables.
        """
        from .grid import execute_placements_grid

        return execute_placements_grid(self._grid, placements)._view(0, self)

    @cached_property
    def _grid(self) -> "GridCostTables":
        """These tables as a one-scenario grid (views, built once per object)."""
        from .grid import _one_scenario_grid

        return _one_scenario_grid(self)

    @classmethod
    def build(
        cls, chain: TaskChain, platform: Platform, devices: Sequence[str] | None = None
    ) -> "ChainCostTables":
        """Precompute the cost tables of a chain for the given candidate devices.

        ``devices`` defaults to every device of the platform (host first).
        Requires a link between every pair of candidate devices and between the
        host and every candidate -- the same connectivity the sequential
        executor needs to run an arbitrary placement.
        """
        aliases = resolve_aliases(platform, devices)
        host = platform.host
        costs = chain.costs()
        k, m = len(chain), len(aliases)
        missing: set[tuple[str, str]] = set()

        busy = np.zeros((k, m))
        hostio_time = np.zeros((k, m))
        hostio_bytes = np.zeros((k, m))
        energy_in = np.zeros((k, m))
        energy_out = np.zeros((k, m))
        task_flops = np.array([cost.flops for cost in costs], dtype=float)
        for t, cost in enumerate(costs):
            for d, alias in enumerate(aliases):
                # The shared cost model performs the exact scalar expressions
                # (and the same single additions) as the sequential executor,
                # so the tables are bitwise exact.
                entry = task_device_cost(platform, cost, alias, on_missing_link="nan")
                if np.isnan(entry.hostio_time_s):
                    missing.add((host, alias))
                busy[t, d] = entry.busy_s
                hostio_time[t, d] = entry.hostio_time_s
                hostio_bytes[t, d] = entry.hostio_bytes
                energy_in[t, d] = entry.energy_in_j
                energy_out[t, d] = entry.energy_out_j

        penalty_time = np.zeros((m, m))
        penalty_energy = np.zeros((m, m))
        penalty_bytes = np.zeros((m, m))
        for i, a in enumerate(aliases):
            for j, b in enumerate(aliases):
                hop = penalty_cost(platform, a, b, on_missing_link="nan")
                if np.isnan(hop.time_s):
                    missing.add((a, b))
                penalty_time[i, j] = hop.time_s
                penalty_energy[i, j] = hop.energy_j
                penalty_bytes[i, j] = hop.n_bytes

        first_hops = [penalty_cost(platform, host, alias, on_missing_link="nan") for alias in aliases]
        for alias, hop in zip(aliases, first_hops):
            if np.isnan(hop.time_s):
                missing.add((host, alias))
        first_penalty_time = np.array([hop.time_s for hop in first_hops])
        first_penalty_energy = np.array([hop.energy_j for hop in first_hops])
        first_penalty_bytes = np.array([hop.n_bytes for hop in first_hops])
        return cls(
            task_names=tuple(chain.task_names),
            platform=platform,
            aliases=aliases,
            busy=busy,
            hostio_time=hostio_time,
            hostio_bytes=hostio_bytes,
            energy_in=energy_in,
            energy_out=energy_out,
            task_flops=task_flops,
            penalty_time=penalty_time,
            penalty_energy=penalty_energy,
            penalty_bytes=penalty_bytes,
            first_penalty_time=first_penalty_time,
            first_penalty_energy=first_penalty_energy,
            first_penalty_bytes=first_penalty_bytes,
            missing_links=frozenset(missing),
            workload=chain.name,
        )


@dataclass(frozen=True)
class GraphCostTables(ChainCostTables):
    """Cost tables of a :class:`~repro.tasks.graph.TaskGraph` on a platform.

    The per-(task, device) and per-(device, device) tables are *identical* to
    :class:`ChainCostTables` built over the graph's tasks in topological
    order -- what changes is how :func:`execute_placements` traverses them:
    ``pred_positions`` carries each task's predecessors (by topological
    position, ascending), sources draw the ``first_penalty`` host feed, and
    the total time is the critical path instead of the serial sum.
    """

    #: Per topological position, the topological positions of the task's
    #: predecessors (ascending; empty = source task fed from the host).
    pred_positions: tuple[tuple[int, ...], ...] = ()

    @classmethod
    def build(
        cls, graph: TaskGraph, platform: Platform, devices: Sequence[str] | None = None
    ) -> "GraphCostTables":
        """Precompute the cost tables of a DAG workload on a platform.

        The value tables are built by :meth:`ChainCostTables.build` over the
        graph's topologically ordered tasks (bitwise the same entries a chain
        of those tasks would get); the graph contributes only its structure.
        """
        base = ChainCostTables.build(
            TaskChain(graph.tasks, name=graph.name), platform, devices
        )
        return as_graph_tables(base, graph.predecessor_positions)


def as_graph_tables(
    base: ChainCostTables, pred_positions: tuple[tuple[int, ...], ...]
) -> GraphCostTables:
    """Attach DAG structure to already-built chain tables (shared with the grid)."""
    values = {f.name: getattr(base, f.name) for f in fields(ChainCostTables)}
    return GraphCostTables(**values, pred_positions=pred_positions)


def as_placement_matrix(
    placements: np.ndarray | Iterable[Sequence[str] | str],
    aliases: Sequence[str],
    n_tasks: int,
    workload: str = "",
) -> np.ndarray:
    """Normalise placements to an ``(n_placements, n_tasks)`` device-index matrix.

    Accepts an integer matrix (validated and returned as-is up to dtype), or an
    iterable of placements in any of the sequential executor's spellings
    (strings like ``"DDA"``, alias tuples, :class:`~repro.offload.placement.Placement`).
    ``workload`` (a chain/graph name) is woven into shape errors so a failure
    inside a batch sweep names the workload it was evaluating.
    """
    what = f"workload {workload!r}" if workload else "the workload"
    if isinstance(placements, np.ndarray):
        if placements.dtype.kind not in "iu":
            raise TypeError("placement matrices must have an integer dtype")
        matrix = np.atleast_2d(placements)
        if matrix.ndim != 2 or matrix.shape[1] != n_tasks:
            raise ValueError(
                f"placement matrix has shape {placements.shape}, expected (*, {n_tasks}) "
                f"-- {what} has {n_tasks} tasks"
            )
        if matrix.shape[0] == 0:
            raise ValueError("at least one placement is required")
        if matrix.min() < 0 or matrix.max() >= len(aliases):
            raise ValueError(
                f"placement matrix entries must be device indices in [0, {len(aliases)}) "
                f"(candidate devices: {list(aliases)})"
            )
        return matrix
    index = {alias: i for i, alias in enumerate(aliases)}
    rows = []
    for placement in placements:
        entries = tuple(placement)
        if len(entries) != n_tasks:
            raise ValueError(
                f"placement {entries!r} has {len(entries)} entries but {what} has "
                f"{n_tasks} tasks (candidate devices: {list(aliases)})"
            )
        try:
            rows.append([index[alias] for alias in entries])
        except KeyError as exc:
            raise KeyError(
                f"placement {entries!r} for {what} uses device {exc.args[0]!r}, "
                f"not among the candidates {list(aliases)}"
            ) from exc
    if not rows:
        raise ValueError("at least one placement is required")
    return np.array(rows, dtype=np.intp)


def placement_labels(matrix: np.ndarray, aliases: Sequence[str]) -> list[str]:
    """Algorithm labels (``"DDA"``-style) for every row of a placement matrix."""
    if all(len(alias) == 1 for alias in aliases):
        # Vectorized join: view the (n, k) array of single characters as one
        # k-character string per row.
        lut = np.array(list(aliases), dtype="U1")
        grid = np.ascontiguousarray(lut[matrix])
        return grid.view(f"U{matrix.shape[1]}").ravel().tolist()
    return ["".join(aliases[d] for d in row) for row in matrix.tolist()]


@dataclass(frozen=True)
class BatchExecutionResult:
    """Array-form execution records of one batch: one row per placement.

    Every vector/column is bitwise identical to the corresponding scalar field
    of the sequential :class:`~repro.devices.simulator.ExecutionRecord`; use
    :meth:`record` to materialise the full object form of one row on demand
    (materialising millions of records would defeat the purpose of the batch).
    Device columns follow ``tables.aliases``; platform devices outside the
    candidate set have no column (they never run a task), but their idle
    energy is still folded into ``energy_total_j``, exactly like the
    sequential record.
    """

    tables: ChainCostTables
    placements: np.ndarray
    total_time_s: np.ndarray
    busy_by_device: np.ndarray
    flops_by_device: np.ndarray
    transferred_bytes: np.ndarray
    transfer_energy_j: np.ndarray
    active_j: np.ndarray
    idle_j: np.ndarray
    energy_total_j: np.ndarray
    operating_cost: np.ndarray

    def __len__(self) -> int:
        return self.placements.shape[0]

    @property
    def aliases(self) -> tuple[str, ...]:
        return self.tables.aliases

    def placement(self, index: int) -> tuple[str, ...]:
        return tuple(self.aliases[d] for d in self.placements[index])

    def label(self, index: int) -> str:
        return "".join(self.placement(index))

    def labels(self) -> list[str]:
        """Algorithm labels of every placement, in batch order."""
        return placement_labels(self.placements, self.aliases)

    def n_offloaded(self, host: str | None = None) -> np.ndarray:
        """Per-placement count of tasks placed away from the host device.

        The array form of ``Placement.n_offloaded``: one integer per batch row,
        computed straight from the device-index matrix.  ``host`` defaults to
        the platform host; a host outside the candidate ``aliases`` never runs
        a task, so every task of every placement counts as offloaded.
        """
        alias = self.tables.platform.host if host is None else host
        if alias not in self.tables.platform.devices:
            raise KeyError(
                f"unknown device alias {alias!r}; available: "
                f"{sorted(self.tables.platform.devices)}"
            )
        if alias not in self.aliases:
            return np.full(len(self), self.placements.shape[1], dtype=np.intp)
        host_index = self.aliases.index(alias)
        return np.count_nonzero(self.placements != host_index, axis=1)

    def metric_values(self, metric: str = "time") -> np.ndarray:
        """One scalar per placement: ``"time"``, ``"energy"`` or ``"cost"``."""
        if metric == "time":
            return self.total_time_s
        if metric == "energy":
            return self.energy_total_j
        if metric == "cost":
            return self.operating_cost
        raise ValueError(f"unknown metric {metric!r}; choose 'time', 'energy' or 'cost'")

    def argbest(self, metric: str = "time") -> int:
        """Index of the best (minimal) placement under the given metric."""
        return int(np.argmin(self.metric_values(metric)))

    def top(self, k: int, metric: str = "time") -> np.ndarray:
        """Indices of the ``k`` best placements, best first."""
        values = self.metric_values(metric)
        if not 0 < k <= values.size:
            raise ValueError(f"k must be in [1, {values.size}]")
        order = np.argsort(values, kind="stable")
        return order[:k]

    # ------------------------------------------------------------------
    def record(self, index: int) -> ExecutionRecord:
        """Materialise the full :class:`ExecutionRecord` of one placement.

        Replays the sequential accumulation with scalars taken from the cost
        tables, so every field -- including the per-task records -- is bitwise
        identical to ``SimulatedExecutor.execute`` (or, for graph tables,
        ``SimulatedExecutor.execute_graph``) on the same placement.
        """
        if isinstance(self.tables, GraphCostTables):
            return _graph_record(self.tables, self.placements[index])
        t = self.tables
        platform = t.platform
        row = self.placements[index]
        aliases_row = tuple(t.aliases[d] for d in row)

        task_records: list[TaskExecutionRecord] = []
        busy: dict[str, float] = {alias: 0.0 for alias in platform.devices}
        flops: dict[str, float] = {alias: 0.0 for alias in platform.devices}
        transferred = 0.0
        transfer_energy = 0.0
        total_time = 0.0
        for pos, (task_name, d) in enumerate(zip(t.task_names, row)):
            alias = t.aliases[d]
            busy_time = float(t.busy[pos, d])
            pen_time = float(t.first_penalty_time[d]) if pos == 0 else float(
                t.penalty_time[row[pos - 1], d]
            )
            pen_bytes = float(t.first_penalty_bytes[d]) if pos == 0 else float(
                t.penalty_bytes[row[pos - 1], d]
            )
            pen_energy = float(t.first_penalty_energy[d]) if pos == 0 else float(
                t.penalty_energy[row[pos - 1], d]
            )
            transfer_time = float(t.hostio_time[pos, d]) + pen_time
            task_bytes = float(t.hostio_bytes[pos, d]) + pen_bytes
            transfer_energy += float(t.energy_in[pos, d])
            transfer_energy += float(t.energy_out[pos, d])
            transfer_energy += pen_energy
            busy[alias] += busy_time
            flops[alias] += float(t.task_flops[pos])
            transferred += task_bytes
            total_time += busy_time + transfer_time
            task_records.append(
                TaskExecutionRecord(
                    task_name=task_name,
                    device=alias,
                    busy_time_s=busy_time,
                    transfer_time_s=transfer_time,
                    transferred_bytes=task_bytes,
                    flops=float(t.task_flops[pos]),
                )
            )

        energy, cost_total = finalize_execution(platform, busy, total_time, transfer_energy)
        return ExecutionRecord(
            placement=aliases_row,
            tasks=tuple(task_records),
            total_time_s=total_time,
            busy_time_by_device=busy,
            flops_by_device=flops,
            transferred_bytes=transferred,
            energy=energy,
            operating_cost=cost_total,
        )

    def records(self) -> Iterator[ExecutionRecord]:
        """Iterate the materialised records of every placement, in batch order."""
        for index in range(len(self)):
            yield self.record(index)


def execute_placements(tables: ChainCostTables, placements: np.ndarray) -> BatchExecutionResult:
    """Evaluate every placement row of the matrix against the cost tables.

    ``placements`` must be an ``(n_placements, n_tasks)`` integer matrix of
    positions into ``tables.aliases`` (see :func:`as_placement_matrix`).
    Delegates to :meth:`ChainCostTables.execute`: graph tables get the DAG
    semantics (critical-path latency, per-edge penalty hops), chain tables
    the serial chain fold, and either way the result is a
    :class:`BatchExecutionResult`.
    """
    return tables.execute(placements)


def _graph_record(tables: GraphCostTables, row: np.ndarray) -> ExecutionRecord:
    """Replay ``SimulatedExecutor.execute_graph`` with scalars from the tables.

    The graph analogue of :meth:`BatchExecutionResult.record`: identical fold
    orders (edge-ordered penalty sums, max-over-predecessors ready times), so
    every field is bitwise identical to the sequential graph executor.
    """
    platform = tables.platform
    aliases_row = tuple(tables.aliases[d] for d in row)

    task_records: list[TaskExecutionRecord] = []
    busy: dict[str, float] = {alias: 0.0 for alias in platform.devices}
    flops: dict[str, float] = {alias: 0.0 for alias in platform.devices}
    transferred = 0.0
    transfer_energy = 0.0
    total_time = 0.0
    finish: list[float] = []
    available: dict[str, float] = {alias: 0.0 for alias in platform.devices}
    for pos, (task_name, d) in enumerate(zip(tables.task_names, row)):
        alias = tables.aliases[d]
        preds = tables.pred_positions[pos]
        if preds:
            pen_time = 0.0
            pen_energy = 0.0
            pen_bytes = 0.0
            for p in preds:
                pen_time += float(tables.penalty_time[row[p], d])
                pen_energy += float(tables.penalty_energy[row[p], d])
                pen_bytes += float(tables.penalty_bytes[row[p], d])
        else:
            pen_time = float(tables.first_penalty_time[d])
            pen_energy = float(tables.first_penalty_energy[d])
            pen_bytes = float(tables.first_penalty_bytes[d])
        ready = 0.0
        for p in preds:
            ready = max(ready, finish[p])
        start = max(ready, available[alias])
        busy_time = float(tables.busy[pos, d])
        transfer_time = float(tables.hostio_time[pos, d]) + pen_time
        task_bytes = float(tables.hostio_bytes[pos, d]) + pen_bytes
        transfer_energy += float(tables.energy_in[pos, d])
        transfer_energy += float(tables.energy_out[pos, d])
        transfer_energy += pen_energy
        busy[alias] += busy_time
        flops[alias] += float(tables.task_flops[pos])
        transferred += task_bytes
        end = start + (busy_time + transfer_time)
        finish.append(end)
        available[alias] = end
        total_time = max(total_time, end)
        task_records.append(
            TaskExecutionRecord(
                task_name=task_name,
                device=alias,
                busy_time_s=busy_time,
                transfer_time_s=transfer_time,
                transferred_bytes=task_bytes,
                flops=float(tables.task_flops[pos]),
            )
        )

    energy, cost_total = finalize_execution(platform, busy, total_time, transfer_energy)
    return ExecutionRecord(
        placement=aliases_row,
        tasks=tuple(task_records),
        total_time_s=total_time,
        busy_time_by_device=busy,
        flops_by_device=flops,
        transferred_bytes=transferred,
        energy=energy,
        operating_cost=cost_total,
    )
