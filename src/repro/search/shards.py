"""The one shard runner behind every parallel sweep of the search layer.

Three mechanisms fan a sweep out over worker processes, and all of them run
here: :func:`~repro.search.search_space` and
:func:`~repro.search.search_grid` with ``n_workers > 1`` split the
placement-index range, and ``search_grid(scenario_shards=...)`` splits the
scenario axis.  A :class:`ShardPool` holds one single-worker process per
shard; each worker builds its shard's cost tables once, through
:func:`~repro.devices.tables.build_tables`, and then serves any number of
:meth:`ShardPool.map` calls against them.  Shard results come back in shard
order and combine with :func:`fold`, so a sharded sweep performs exactly the
merges of the serial one in a fixed order and stays bitwise identical to it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

import numpy as np

__all__ = ["ShardPool", "fold", "shard_ranges"]


def shard_ranges(
    start: int, stop: int, n_shards: int | None, *, name: str = "n_workers"
) -> list[tuple[int, int]]:
    """Split [start, stop) into at most ``n_shards`` contiguous non-empty ranges.

    ``None`` means one range.  This is the one place shard counts are
    validated: a count below 1 raises, naming the option (``name``) it came
    from.
    """
    if n_shards is None:
        n_shards = 1
    elif n_shards < 1:
        raise ValueError(f"{name} must be >= 1")
    total = stop - start
    n_shards = max(1, min(n_shards, total))
    bounds = [start + (total * i) // n_shards for i in range(n_shards + 1)]
    return [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def fold(parts: Sequence[Any]) -> Any:
    """Merge shard results left to right, in shard order, through ``.merge()``."""
    merged, *rest = parts
    for part in rest:
        merged.merge(part)
    return merged


# Each worker process serves exactly one shard, so its tables live in a
# module global set once by the pool initializer.
_WORKER: dict = {}


def _init_worker(workload, platform, devices, scenarios, faults, retry, timeout) -> None:
    from ..devices.tables import build_tables

    _WORKER["tables"] = build_tables(
        workload, platform, devices=devices, scenarios=scenarios,
        faults=faults, retry=retry, timeout=timeout,
    )


def _call(fn: Callable, args: tuple) -> Any:
    return fn(_WORKER["tables"], *args)


class ShardPool:
    """One single-worker process per shard, each holding its shard's tables.

    ``ranges`` are the shards: placement-index ranges, or -- with
    ``split_scenarios=True`` -- row blocks of ``scenarios``, whose worker
    then builds the tables of ``scenarios.take(block)`` only.  Placement
    shards build the tables of the whole configuration (``scenarios`` being
    the full grid, or ``None`` for single-platform tables).  Use it as a
    context manager; leaving it shuts every worker down.
    """

    def __init__(
        self,
        workload,
        platform,
        ranges: Sequence[tuple[int, int]],
        *,
        devices: Sequence[str] | None = None,
        scenarios=None,
        split_scenarios: bool = False,
        faults=None,
        retry=None,
        timeout=None,
    ):
        self.ranges = list(ranges)
        self.split_scenarios = split_scenarios
        self._pools = []
        for lo, hi in self.ranges:
            block = scenarios.take(np.arange(lo, hi)) if split_scenarios else scenarios
            self._pools.append(
                ProcessPoolExecutor(
                    max_workers=1,
                    initializer=_init_worker,
                    initargs=(workload, platform, devices, block, faults, retry, timeout),
                )
            )

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        for pool in self._pools:
            pool.shutdown(cancel_futures=True)

    def map(self, fn: Callable, per_shard_args: Sequence[tuple]) -> list:
        """Run ``fn(tables, *args)`` on every shard concurrently; results in shard order.

        ``fn`` must be a module-level function (it is pickled to the
        workers).  A shard that raises is re-raised as a ``RuntimeError``
        naming the shard and its range, chained from the original error.
        """
        futures = [
            pool.submit(_call, fn, args)
            for pool, args in zip(self._pools, per_shard_args, strict=True)
        ]
        axis = "scenarios" if self.split_scenarios else "placements"
        results = []
        for index, future in enumerate(futures):
            try:
                results.append(future.result())
            except Exception as error:
                lo, hi = self.ranges[index]
                raise RuntimeError(
                    f"shard {index} of {len(self.ranges)} ({axis} [{lo}, {hi})) failed: "
                    f"{type(error).__name__}: {error}"
                ) from error
        return results
