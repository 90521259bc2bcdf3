"""Content-addressed fingerprints and the bounded cost-table cache.

Cost tables are a pure function of ``(workload, platform(s), scenarios,
faults, retry, timeout)`` -- the paper's methodology computes them once per
configuration and everything downstream is reuse.  This module provides the
two pieces that make that reuse safe across object identities and process
boundaries:

* :func:`fingerprint` -- a **stable** SHA-256 content hash over canonicalized
  field tuples.  Two structurally equal platforms (or workloads, scenarios,
  fault profiles, policies) fingerprint identically regardless of object
  identity, dict insertion order of *non-semantic* mappings, or Python
  process (no salted ``hash()`` anywhere).  Orders that carry meaning are
  kept: a platform's device insertion order defines its alias order, and a
  scenario grid's row order defines the scenario axis of every grid table,
  so both stay part of the content.  Graph node insertion order does *not*
  carry meaning (:class:`~repro.tasks.graph.TaskGraph` reorders tasks into a
  canonical topological order at construction), so permuting it leaves the
  fingerprint unchanged.  A :class:`~repro.scenarios.grid.ScenarioGrid` is
  digested from its columns in one pass (scheme tag
  :data:`GRID_FINGERPRINT_SCHEME`), and :func:`scenario_row_digests` keys
  single condition slices.
* :class:`TableCache` -- a bounded LRU mapping composite fingerprints to
  built objects, capped by entry count and estimated byte size, with
  hit/miss/evict counters.  :class:`~repro.devices.simulator.SimulatedExecutor`
  keeps one for cost tables and one for execution records, and the service
  layer shares a single table cache across platform executors.

Floats are canonicalized via :meth:`float.hex` (exact, bitwise, handles
``inf``/``nan``), so fingerprints never depend on ``repr`` rounding.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from collections import OrderedDict
from collections.abc import Mapping
from functools import lru_cache
from typing import Any, Callable, Hashable

import numpy as np

__all__ = [
    "CacheStats",
    "TableCache",
    "canonical",
    "estimate_nbytes",
    "fingerprint",
    "scenario_row_digests",
    "table_key",
    "table_key_from_fingerprint",
]


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------


def _canonical_float(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "float:nan"
    return f"float:{value.hex()}"


def _canonical_dataclass(obj: Any) -> tuple:
    pairs = tuple(
        (field.name, canonical(getattr(obj, field.name)))
        for field in dataclasses.fields(obj)
    )
    return (type(obj).__name__, pairs)


@lru_cache(maxsize=None)
def _domain_classes() -> tuple:
    # Late imports memoized once: cache is a leaf module every layer above may
    # import, and ``canonical`` recurses through every field of a platform.
    from .devices.platform import Platform
    from .scenarios.grid import ScenarioGrid
    from .tasks.chain import TaskChain
    from .tasks.graph import TaskGraph
    from .tasks.task import MathTask

    return Platform, TaskChain, TaskGraph, MathTask, ScenarioGrid


#: Version tag of the scenario-grid fingerprint scheme.  Grids hash their
#: columns (see :func:`_scenario_grid_digest`); bump the tag whenever that
#: encoding changes, so keys of different schemes can never collide.
GRID_FINGERPRINT_SCHEME = "scenario-grid/columnar-v2"

_GRID_DIGEST_ATTR = "_repro_grid_digest"
_I8 = np.dtype("<i8")
_F8 = np.dtype("<f8")


@lru_cache(maxsize=4096)
def _pattern_digest(pattern: tuple) -> bytes:
    # Axes are frozen value types, so a pattern's digest is a pure function
    # of the (hashable) pattern: grids and delta rebuilds share one walk.
    return hashlib.sha256(repr(canonical(pattern)).encode("utf-8")).digest()


def _scenario_grid_digest(grid: Any) -> str:
    """One SHA-256 over a grid's columns, memoized on the grid.

    The payload is the scheme tag, the pattern count and value-matrix shape,
    the SHA-256 of each pattern's canonical encoding, the little-endian bytes
    of the pattern-index, value and weight arrays, and the names (their
    lengths, then their UTF-8 concatenation, so the split is unambiguous).
    Grids are normalized at construction (patterns numbered by first
    appearance, zero padding), so equal content always digests equally, in
    any process.
    """
    cached = getattr(grid, _GRID_DIGEST_ATTR, None)
    if cached is not None:
        return cached
    h = hashlib.sha256(GRID_FINGERPRINT_SCHEME.encode("ascii"))
    h.update(np.array([len(grid.patterns), *grid.values.shape], dtype=_I8).tobytes())
    for pattern in grid.patterns:
        h.update(_pattern_digest(pattern))
    h.update(np.ascontiguousarray(grid.pattern_index, dtype=_I8).tobytes())
    h.update(np.ascontiguousarray(grid.values, dtype=_F8).tobytes())
    h.update(np.ascontiguousarray(grid.weights, dtype=_F8).tobytes())
    names = grid.names
    h.update(np.fromiter(map(len, names), dtype=_I8, count=len(names)).tobytes())
    h.update("".join(names).encode("utf-8", "surrogatepass"))
    digest = h.hexdigest()
    object.__setattr__(grid, _GRID_DIGEST_ATTR, digest)
    return digest


def scenario_row_digests(grid: Any, rows: "np.ndarray | None" = None) -> list[str]:
    """Per-row content digests of a scenario grid, computed in one batch.

    A row's digest covers what its condition slice depends on -- its axis
    pattern and values -- and not its name or weight, so a row and an equal
    standalone scenario (a one-row grid) share a digest wherever they sit.
    ``rows`` restricts the result to some rows (in the given order).
    """
    index = (grid.pattern_index if rows is None else grid.pattern_index[rows]).tolist()
    values = np.ascontiguousarray(grid.values if rows is None else grid.values[rows], dtype=_F8)
    if values.shape[1]:
        row_bytes = values.view(f"V{8 * values.shape[1]}").ravel().tolist()
    else:
        row_bytes = [b""] * len(index)
    prefixes = {}
    for p in set(index):
        pattern = grid.patterns[p]
        prefixes[p] = (b"scenario-row/v2\0" + _pattern_digest(pattern), 8 * len(pattern))
    digests = []
    for p, row in zip(index, row_bytes):
        prefix, width = prefixes[p]
        digests.append(hashlib.sha256(prefix + row[:width]).hexdigest())
    return digests


def canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a nested tuple of primitives with a stable ``repr``.

    The result contains only ``str``, ``int``, ``bool``, ``None`` and tuples,
    so ``repr(canonical(obj))`` is identical across processes.  Domain types
    get shape-aware treatment; unknown types raise ``TypeError`` rather than
    silently fingerprinting an identity.
    """
    Platform, TaskChain, TaskGraph, MathTask, ScenarioGrid = _domain_classes()

    if obj is None or isinstance(obj, (str, int, bool)):
        return obj
    if isinstance(obj, float):
        return _canonical_float(obj)
    if isinstance(obj, np.floating):
        return _canonical_float(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, Platform):
        # Device insertion order is semantic (it defines the alias order of
        # every table built from the platform); link-key order is not (links
        # are looked up by canonical pair), so links are sorted.
        devices = tuple((alias, canonical(spec)) for alias, spec in obj.devices.items())
        links = tuple(
            sorted((pair, canonical(spec)) for pair, spec in obj.links.items())
        )
        return ("Platform", obj.name, obj.host, devices, links, canonical(obj.faults))
    if isinstance(obj, TaskChain):
        tasks = tuple(canonical(task) for task in obj.tasks)
        return ("TaskChain", obj.name, tasks)
    if isinstance(obj, TaskGraph):
        # Tasks are already in the canonical topological order -- a pure
        # function of (names, edges) -- so node insertion order cannot leak.
        tasks = tuple(canonical(task) for task in obj.tasks)
        return ("TaskGraph", obj.name, tasks, tuple(obj.edges))
    if isinstance(obj, MathTask):
        return ("MathTask", type(obj).__name__, obj.name, canonical(obj.cost()))
    if isinstance(obj, ScenarioGrid):
        # Row order is semantic: it is the scenario axis of every grid table.
        return ("ScenarioGrid", GRID_FINGERPRINT_SCHEME, _scenario_grid_digest(obj))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _canonical_dataclass(obj)
    if isinstance(obj, Mapping):
        return ("mapping", tuple(sorted((canonical(k), canonical(v)) for k, v in obj.items())))
    if isinstance(obj, (frozenset, set)):
        return ("set", tuple(sorted(canonical(item) for item in obj)))
    if isinstance(obj, (tuple, list)):
        return tuple(canonical(item) for item in obj)
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for fingerprinting: {obj!r}")


def fingerprint(obj: Any) -> str:
    """Stable SHA-256 hex digest of ``obj``'s canonical content."""
    payload = repr(canonical(obj)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


_FINGERPRINT_ATTR = "_repro_content_fingerprint"

#: ``fingerprint(None)``, precomputed -- every table key digests three
#: ``None`` parts (faults/retry/timeout) on the delta-rebuild hot path.
_NONE_FINGERPRINT: str | None = None


def cached_fingerprint(obj: Any) -> str:
    """:func:`fingerprint`, memoized on the object for hot paths.

    Workloads and platforms are immutable by convention, so the digest is
    stashed on the instance (``object.__setattr__`` works on frozen
    dataclasses); objects refusing attributes fall back to recomputing.
    """
    if obj is None:
        global _NONE_FINGERPRINT
        if _NONE_FINGERPRINT is None:
            _NONE_FINGERPRINT = fingerprint(None)
        return _NONE_FINGERPRINT
    cached = getattr(obj, _FINGERPRINT_ATTR, None)
    if cached is not None:
        return cached
    digest = fingerprint(obj)
    try:
        object.__setattr__(obj, _FINGERPRINT_ATTR, digest)
    except (AttributeError, TypeError):
        pass
    return digest


def table_key(
    workload: Any,
    platform: Any,
    *,
    devices: Any = None,
    scenarios: Any = None,
    faults: Any = None,
    retry: Any = None,
    timeout: Any = None,
) -> str:
    """Composite fingerprint keying one cost-table build configuration.

    ``platform`` may be a single platform or a sequence (explicit grid
    platforms); either way the key is content-addressed, so rebuilding an
    equal configuration from scratch hits the cache.
    """
    return table_key_from_fingerprint(
        cached_fingerprint(workload),
        platform,
        devices=devices,
        scenarios=scenarios,
        faults=faults,
        retry=retry,
        timeout=timeout,
    )


def table_key_from_fingerprint(
    workload_fingerprint: str,
    platform: Any,
    *,
    devices: Any = None,
    scenarios: Any = None,
    faults: Any = None,
    retry: Any = None,
    timeout: Any = None,
) -> str:
    """:func:`table_key` with the workload already digested.

    Delta rebuilds carry the workload's fingerprint in their build context
    rather than the workload object itself; this entry point lets them re-key
    updated tables under the same scheme as :func:`table_key`.
    """
    if platform is None or isinstance(platform, _domain_classes()[0]):
        platform_part = ("platform", cached_fingerprint(platform))
    else:
        platform_part = ("platforms", tuple(cached_fingerprint(p) for p in platform))
    parts = (
        "table",
        workload_fingerprint,
        platform_part,
        ("devices", canonical(tuple(devices) if devices is not None else None)),
        ("scenarios", cached_fingerprint(scenarios)),
        ("faults", cached_fingerprint(faults)),
        ("retry", cached_fingerprint(retry)),
        ("timeout", cached_fingerprint(timeout)),
    )
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# size accounting
# ---------------------------------------------------------------------------


def estimate_nbytes(obj: Any, _depth: int = 0) -> int:
    """Rough payload size: the ndarray bytes reachable through dataclass
    fields, tuples and mappings, plus a small per-object overhead."""
    if _depth > 6:
        return 64
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + 64
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return 64 + sum(
            estimate_nbytes(getattr(obj, field.name), _depth + 1)
            for field in dataclasses.fields(obj)
        )
    if isinstance(obj, Mapping):
        return 64 + sum(estimate_nbytes(value, _depth + 1) for value in obj.values())
    if isinstance(obj, (tuple, list, set, frozenset)):
        return 64 + sum(estimate_nbytes(item, _depth + 1) for item in obj)
    if isinstance(obj, str):
        return 49 + len(obj)
    return 32


# ---------------------------------------------------------------------------
# the bounded LRU cache
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Counter snapshot of one :class:`TableCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    nbytes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class TableCache:
    """Bounded LRU cache keyed by content fingerprints.

    Entries are evicted least-recently-used first whenever the entry count
    exceeds ``max_entries`` or the estimated payload size exceeds
    ``max_bytes`` -- except that the most recently inserted entry is never
    evicted by its own insertion, so a single oversized table still caches.
    All traffic is counted (``hits`` / ``misses`` / ``evictions``).
    """

    def __init__(self, max_entries: int = 256, max_bytes: int = 256 * 2**20) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[Hashable, tuple[Any, int]]" = OrderedDict()
        self._nbytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable, default: Any = None) -> Any:
        entry = self._entries.get(key)
        if entry is None:
            self._misses += 1
            return default
        self._entries.move_to_end(key)
        self._hits += 1
        return entry[0]

    def put(self, key: Hashable, value: Any, nbytes: int | None = None) -> None:
        if key in self._entries:
            _, old_size = self._entries.pop(key)
            self._nbytes -= old_size
        size = estimate_nbytes(value) if nbytes is None else int(nbytes)
        self._entries[key] = (value, size)
        self._nbytes += size
        self._evict()

    def get_or_build(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """Return the cached value, building and inserting it on a miss."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[0]
        self._misses += 1
        value = build()
        size = estimate_nbytes(value)
        self._entries[key] = (value, size)
        self._nbytes += size
        self._evict()
        return value

    def _evict(self) -> None:
        while len(self._entries) > 1 and (
            len(self._entries) > self.max_entries or self._nbytes > self.max_bytes
        ):
            _, (_, size) = self._entries.popitem(last=False)
            self._nbytes -= size
            self._evictions += 1

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        self._nbytes = 0
        return dropped

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            entries=len(self._entries),
            nbytes=self._nbytes,
        )
