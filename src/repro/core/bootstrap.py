"""Vectorised bootstrap resampling utilities.

The comparator of Section III quantifies the overlap of two measurement
distributions by *bootstrapping*: statistics are repeatedly evaluated on data
resampled (with replacement) from the ``N`` raw measurements, instead of being
summarised once into a single number.  This module provides the resampling
primitives used by :mod:`repro.core.comparison`.

Resampling is fully vectorised: a single ``(n_resamples, n)`` index matrix
is drawn and statistics are evaluated along an axis, avoiding Python-level
loops over bootstrap rounds.

Every quantile and median of the comparators goes through one order-statistic
kernel, :func:`order_quantiles` / :func:`order_median`: the axis is sorted
once and the order statistics are read from the sorted array with NumPy's
``linear`` rule (for quantiles) and ``numpy.median``'s mean of the two middle
values, written out here.  The interpolation plan (indices, weights, the
``>= 0.5`` mask) depends only on the axis length and the levels, so it is
built once per ``(n, quantiles)`` and cached.  Results equal ``numpy.quantile``
and ``numpy.median`` bit for bit, except that ``-0.0`` and ``0.0`` tie and may
come out in either order (equal as values, not always as bits).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "bootstrap_indices",
    "bootstrap_samples",
    "bootstrap_statistic",
    "bootstrap_quantiles",
    "batched_quantile_profiles",
    "order_quantiles",
    "order_median",
    "percentile_interval",
    "BootstrapInterval",
]


def _as_1d_float(data: np.ndarray | Sequence[float], name: str = "data") -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must contain at least one measurement")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _validate_quantiles(quantiles: Sequence[float]) -> np.ndarray:
    q = np.asarray(quantiles, dtype=float)
    if q.ndim != 1 or q.size == 0:
        raise ValueError("quantiles must be a non-empty 1-D sequence")
    # Written so that NaN fails the test too.
    if np.any(~((q >= 0.0) & (q <= 1.0))):
        raise ValueError("quantiles must lie in [0, 1]")
    return q


@lru_cache(maxsize=256)
def _linear_plan(n: int, quantiles: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """NumPy's ``linear`` interpolation plan for ``n`` sorted values.

    Returns ``(previous, following, gamma, one_minus_gamma, upper)``: the
    neighbouring order statistics of every level, the interpolation weights
    and the ``gamma >= 0.5`` mask under which NumPy interpolates down from the
    upper neighbour.
    """
    if n <= 0:
        raise ValueError("cannot take quantiles along an empty axis")
    q = _validate_quantiles(quantiles)
    virtual = (n - 1) * q
    previous = np.floor(virtual)
    following = previous + 1
    # At or past the last order statistic both neighbours are the maximum,
    # and gamma is taken against the clipped index, as NumPy does.
    above = virtual >= n - 1
    previous[above] = -1
    following[above] = -1
    gamma = virtual - previous
    plan = (previous.astype(np.intp), following.astype(np.intp), gamma, 1 - gamma, gamma >= 0.5)
    for array in plan:
        array.flags.writeable = False
    return plan


def _sorted_quantiles(s: np.ndarray, quantiles: Sequence[float], axis: int = -1) -> np.ndarray:
    """:func:`order_quantiles` of an array already sorted along ``axis``."""
    axis = axis % s.ndim
    q = np.asarray(quantiles, dtype=float)
    if q.ndim != 1:
        raise ValueError("quantiles must be a non-empty 1-D sequence")
    previous, following, gamma, one_minus_gamma, upper = _linear_plan(
        s.shape[axis], tuple(q.tolist())
    )
    lead = (slice(None),) * axis
    a, b = s[lead + (previous,)], s[lead + (following,)]
    shape = (gamma.size,) + (1,) * (s.ndim - axis - 1)
    diff = b - a
    return np.where(
        upper.reshape(shape),
        b - diff * one_minus_gamma.reshape(shape),
        a + diff * gamma.reshape(shape),
    )


def _sorted_median(s: np.ndarray, axis: int = -1) -> np.ndarray:
    """:func:`order_median` of an array already sorted along ``axis``."""
    axis = axis % s.ndim
    n = s.shape[axis]
    if n == 0:
        raise ValueError("cannot take the median along an empty axis")
    lead = (slice(None),) * axis
    h = n // 2
    if n % 2:
        return s[lead + (h,)]
    return (s[lead + (h - 1,)] + s[lead + (h,)]) / 2


def order_quantiles(
    x: np.ndarray | Sequence[float],
    quantiles: Sequence[float],
    axis: int = -1,
) -> np.ndarray:
    """Quantiles of ``x`` along ``axis``: one sort, then NumPy's ``linear`` rule.

    With ``vi = (n - 1) * q``, ``prev = floor(vi)`` and ``next = prev + 1``
    (both ``-1`` when ``vi >= n - 1``, the weight ``gamma = vi - prev`` taken
    against that clipped index), the result is ``a + (b - a) * gamma`` from
    the order statistics ``a = s[prev]``, ``b = s[next]``, replaced by
    ``b - (b - a) * (1 - gamma)`` where ``gamma >= 0.5``.

    The result has the shape of ``x`` with ``axis`` replaced by the
    ``len(quantiles)`` levels; ``np.moveaxis(result, axis, 0)`` equals
    ``numpy.quantile(x, quantiles, axis=axis)``.  ``x`` must be free of NaN.
    """
    s = np.sort(np.asarray(x, dtype=float), axis=axis)
    return _sorted_quantiles(s, quantiles, axis)


def order_median(x: np.ndarray | Sequence[float], axis: int = -1) -> np.ndarray:
    """Median of ``x`` along ``axis``, with ``numpy.median``'s arithmetic.

    ``numpy.median`` is the mean of the middle order statistics,
    ``(s[h - 1] + s[h]) / 2`` for an even length (which differs in the last
    bit from ``numpy.quantile(x, 0.5)``), ``s[h]`` for an odd one.
    """
    return _sorted_median(np.sort(np.asarray(x, dtype=float), axis=axis), axis)


def bootstrap_indices(
    n: int,
    n_resamples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw a ``(n_resamples, n)`` matrix of resampling indices with replacement."""
    if n <= 0:
        raise ValueError("n must be positive")
    if n_resamples <= 0:
        raise ValueError("n_resamples must be positive")
    return rng.integers(0, n, size=(n_resamples, n))


def bootstrap_samples(
    data: np.ndarray | Sequence[float],
    n_resamples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Return a ``(n_resamples, n)`` matrix of bootstrap resamples of ``data``."""
    arr = _as_1d_float(data)
    idx = bootstrap_indices(arr.size, n_resamples, rng)
    return arr[idx]


def bootstrap_statistic(
    data: np.ndarray | Sequence[float],
    statistic: Callable[[np.ndarray], np.ndarray],
    n_resamples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Evaluate ``statistic`` on every bootstrap resample.

    ``statistic`` must accept a 2-D array and an ``axis`` keyword is *not*
    assumed; instead it is called on the full resample matrix and must reduce
    the last axis (e.g. ``lambda m: np.mean(m, axis=-1)``).  For the common
    cases prefer :func:`bootstrap_quantiles`.
    """
    samples = bootstrap_samples(data, n_resamples, rng)
    out = np.asarray(statistic(samples))
    if out.ndim == 0 or out.shape[0] != n_resamples:
        raise ValueError(
            "statistic must preserve the resample axis: expected leading dimension "
            f"{n_resamples}, got shape {out.shape}"
        )
    return out


def bootstrap_quantiles(
    data: np.ndarray | Sequence[float],
    quantiles: Sequence[float],
    n_resamples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Quantile profile of every bootstrap resample.

    Returns an array of shape ``(n_resamples, len(quantiles))`` where row ``r``
    holds the requested quantiles of the ``r``-th resample.
    """
    samples = bootstrap_samples(data, n_resamples, rng)
    samples.sort(axis=-1)
    # The levels are validated once per (n, quantiles) plan, not per call.
    return _sorted_quantiles(samples, quantiles, axis=-1)


def batched_quantile_profiles(
    sample_matrices: Sequence[np.ndarray],
    quantiles: Sequence[float],
) -> np.ndarray:
    """Quantile profiles of many ``(n_resamples, n)`` resample matrices at once.

    The comparison engine stacks the resample matrices of *all* algorithm pairs
    and evaluates them in one batch instead of once per matrix, which is where
    the per-call overhead of the pairwise bootstrap goes.  Matrices are grouped
    by sample width ``n`` (measurement vectors of different lengths cannot
    share a stack); each group is sorted once along its last axis and read
    through the cached ``(n, quantiles)`` plan of :func:`order_quantiles`.

    Returns an array of shape ``(len(sample_matrices), n_resamples, len(quantiles))``
    whose slice ``k`` equals ``numpy.quantile(sample_matrices[k], quantiles,
    axis=-1).T`` bit for bit (every slice of a batch is interpolated
    independently, with the same arithmetic as the unbatched call).
    """
    q = _validate_quantiles(quantiles)
    matrices = list(sample_matrices)
    if not matrices:
        return np.empty((0, 0, q.size))
    n_resamples = matrices[0].shape[0]
    for m in matrices:
        if m.ndim != 2 or m.shape[0] != n_resamples:
            raise ValueError(
                f"all resample matrices must share the shape ({n_resamples}, n), got {m.shape}"
            )
    out = np.empty((len(matrices), n_resamples, q.size))
    by_width: dict[int, list[int]] = {}
    for index, m in enumerate(matrices):
        by_width.setdefault(m.shape[1], []).append(index)
    for indices in by_width.values():
        stacked = np.stack([matrices[i] for i in indices])
        stacked.sort(axis=-1)
        out[indices] = _sorted_quantiles(stacked, q, axis=-1)
    return out


@dataclass(frozen=True)
class BootstrapInterval:
    """A two-sided percentile confidence interval for a bootstrapped statistic."""

    low: float
    high: float
    confidence: float

    @property
    def width(self) -> float:
        return self.high - self.low

    def overlaps(self, other: "BootstrapInterval") -> bool:
        """True if the two intervals share at least one point."""
        return self.low <= other.high and other.low <= self.high

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


def percentile_interval(
    samples: np.ndarray | Sequence[float],
    confidence: float = 0.95,
) -> BootstrapInterval:
    """Percentile confidence interval of a vector of bootstrapped statistics."""
    arr = _as_1d_float(samples, "samples")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")
    alpha = 1.0 - confidence
    low, high = order_quantiles(arr, (alpha / 2.0, 1.0 - alpha / 2.0))
    return BootstrapInterval(low=float(low), high=float(high), confidence=confidence)
