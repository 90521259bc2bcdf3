"""Tests for the vectorised bootstrap utilities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BootstrapComparator,
    BootstrapInterval,
    bootstrap_indices,
    bootstrap_quantiles,
    bootstrap_samples,
    bootstrap_statistic,
    percentile_interval,
)
from repro.core.bootstrap import batched_quantile_profiles, order_median, order_quantiles

#: Values drawn often enough to produce ties, signed zeros included.
_TIED = st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, 1e-300])
_VALUES = st.one_of(_TIED, st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False))
#: Quantile levels: the edges, the median, the comparator's default 95% bounds, anything.
_LEVELS = st.one_of(st.sampled_from([0.0, 1.0, 0.5, 0.025, 0.975]), st.floats(0.0, 1.0))


def _assert_same(got: np.ndarray, want: np.ndarray, data: np.ndarray) -> None:
    """Bitwise equal; where the data holds a signed zero, equal as values.

    ``-0.0`` and ``0.0`` tie, and a full sort and NumPy's partition may order
    them differently, so only value equality is promised there.
    """
    assert got.shape == np.shape(want)
    if np.any((data == 0) & np.signbit(data)):
        np.testing.assert_array_equal(got, want)
    else:
        assert got.tobytes() == np.asarray(want).tobytes()


@st.composite
def _matrices(draw, max_rows: int = 5, max_width: int = 9):
    rows = draw(st.integers(1, max_rows))
    width = draw(st.integers(1, max_width))
    values = draw(st.lists(_VALUES, min_size=rows * width, max_size=rows * width))
    return np.array(values, dtype=float).reshape(rows, width)


class TestBootstrapIndices:
    def test_shape(self, rng):
        idx = bootstrap_indices(10, 50, rng)
        assert idx.shape == (50, 10)

    def test_values_within_range(self, rng):
        idx = bootstrap_indices(7, 200, rng)
        assert idx.min() >= 0
        assert idx.max() < 7

    @pytest.mark.parametrize("n,n_resamples", [(0, 5), (5, 0), (-1, 5)])
    def test_invalid_arguments_raise(self, rng, n, n_resamples):
        with pytest.raises(ValueError):
            bootstrap_indices(n, n_resamples, rng)


class TestBootstrapSamples:
    def test_resamples_only_original_values(self, rng):
        data = np.array([1.0, 2.0, 3.0])
        samples = bootstrap_samples(data, 100, rng)
        assert set(np.unique(samples)).issubset(set(data))

    def test_rejects_empty(self, rng):
        with pytest.raises(ValueError):
            bootstrap_samples(np.array([]), 10, rng)

    def test_rejects_nan(self, rng):
        with pytest.raises(ValueError):
            bootstrap_samples(np.array([1.0, np.nan]), 10, rng)

    def test_rejects_2d(self, rng):
        with pytest.raises(ValueError):
            bootstrap_samples(np.ones((2, 2)), 10, rng)


class TestBootstrapStatistic:
    def test_mean_statistic_centres_on_sample_mean(self, rng):
        data = rng.normal(5.0, 1.0, size=200)
        means = bootstrap_statistic(data, lambda m: np.mean(m, axis=-1), 500, rng)
        assert means.shape == (500,)
        assert abs(np.mean(means) - np.mean(data)) < 0.1

    def test_statistic_must_keep_resample_axis(self, rng):
        with pytest.raises(ValueError):
            bootstrap_statistic(np.arange(10.0), lambda m: np.mean(m), 50, rng)


class TestBootstrapQuantiles:
    def test_shape(self, rng):
        data = rng.normal(size=50)
        q = bootstrap_quantiles(data, [0.25, 0.5, 0.75], 120, rng)
        assert q.shape == (120, 3)

    def test_rows_are_monotone_in_quantile_level(self, rng):
        data = rng.normal(size=80)
        q = bootstrap_quantiles(data, [0.1, 0.5, 0.9], 100, rng)
        assert np.all(q[:, 0] <= q[:, 1])
        assert np.all(q[:, 1] <= q[:, 2])

    def test_invalid_quantiles_raise(self, rng):
        with pytest.raises(ValueError):
            bootstrap_quantiles(np.arange(5.0), [1.5], 10, rng)
        with pytest.raises(ValueError):
            bootstrap_quantiles(np.arange(5.0), [], 10, rng)

    @given(st.integers(min_value=2, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_constant_data_gives_constant_quantiles(self, n):
        rng = np.random.default_rng(0)
        data = np.full(n, 3.5)
        q = bootstrap_quantiles(data, [0.2, 0.8], 30, rng)
        assert np.allclose(q, 3.5)


class TestOrderQuantileKernel:
    """``order_quantiles`` / ``order_median`` against ``np.quantile`` / ``np.median``."""

    @given(
        x=_matrices(),
        levels=st.lists(_LEVELS, min_size=1, max_size=6),
        axis=st.sampled_from([0, 1, -1]),
    )
    @settings(max_examples=300, deadline=None)
    def test_quantiles_match_numpy(self, x, levels, axis):
        got = order_quantiles(x, levels, axis=axis)
        _assert_same(np.moveaxis(got, axis, 0), np.quantile(x, levels, axis=axis), x)

    @given(x=_matrices(), axis=st.sampled_from([0, 1, -1]))
    @settings(max_examples=300, deadline=None)
    def test_median_matches_numpy(self, x, axis):
        _assert_same(order_median(x, axis=axis), np.median(x, axis=axis), x)

    @given(
        x=st.lists(_VALUES, min_size=1, max_size=40).map(np.array),
        confidence=st.one_of(st.sampled_from([0.5, 0.9, 0.95, 0.99]), st.floats(0.01, 0.99)),
    )
    @settings(max_examples=200, deadline=None)
    def test_comparator_interval_levels_match_numpy(self, x, confidence):
        alpha = 1.0 - confidence
        levels = [alpha / 2.0, 1.0 - alpha / 2.0]
        _assert_same(order_quantiles(x, levels), np.quantile(x, levels), x)
        interval = percentile_interval(x, confidence)
        low, high = np.quantile(x, levels)
        assert (interval.low, interval.high) == (low, high)

    @pytest.mark.parametrize("n", [1, 2, 3, 30, 200])
    def test_edge_levels_and_lengths(self, n):
        x = np.random.default_rng(n).normal(size=(4, n))
        levels = [0.0, 0.5, 1.0]
        _assert_same(order_quantiles(x, levels), np.quantile(x, levels, axis=-1).T, x)
        _assert_same(order_median(x), np.median(x, axis=-1), x)

    def test_median_is_not_the_half_quantile(self):
        # np.median means the middle pair; np.quantile(x, 0.5) interpolates,
        # and the two differ in the last bit here.
        x = np.array([8.4, 0.7])
        assert np.median(x) != np.quantile(x, 0.5)
        assert order_median(x) == np.median(x)
        assert order_quantiles(x, [0.5])[0] == np.quantile(x, 0.5)

    @given(
        widths=st.lists(st.integers(1, 8), min_size=1, max_size=6),
        levels=st.lists(_LEVELS, min_size=1, max_size=5),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_batched_profiles_over_mixed_widths(self, widths, levels, seed):
        rng = np.random.default_rng(seed)
        matrices = [np.round(rng.normal(size=(7, w)), 1) for w in widths]
        profiles = batched_quantile_profiles(matrices, levels)
        assert profiles.shape == (len(widths), 7, len(levels))
        for k, m in enumerate(matrices):
            _assert_same(profiles[k], np.quantile(m, levels, axis=-1).T, m)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: order_quantiles(np.arange(5.0), [0.5, np.nan]),
            lambda: bootstrap_quantiles(np.arange(5.0), [np.nan], 10, np.random.default_rng(0)),
            lambda: batched_quantile_profiles([np.ones((3, 4))], [0.5, np.nan]),
            lambda: BootstrapComparator(quantiles=(np.nan, 0.5)),
        ],
        ids=["order_quantiles", "bootstrap_quantiles", "batched_quantile_profiles", "BootstrapComparator"],
    )
    def test_nan_quantile_rejected_on_every_entry_point(self, call):
        with pytest.raises(ValueError, match=r"quantiles"):
            call()

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            order_quantiles(np.empty((3, 0)), [0.5])
        with pytest.raises(ValueError):
            order_median(np.empty(0))


class TestPercentileInterval:
    def test_contains_bulk_of_samples(self, rng):
        samples = rng.normal(0.0, 1.0, size=2000)
        interval = percentile_interval(samples, confidence=0.9)
        inside = np.mean((samples >= interval.low) & (samples <= interval.high))
        assert 0.88 <= inside <= 0.92

    def test_interval_ordering_and_width(self, rng):
        interval = percentile_interval(rng.normal(size=100), confidence=0.5)
        assert interval.low <= interval.high
        assert interval.width == pytest.approx(interval.high - interval.low)

    def test_overlap_detection(self):
        a = BootstrapInterval(0.0, 1.0, 0.95)
        b = BootstrapInterval(0.5, 2.0, 0.95)
        c = BootstrapInterval(1.5, 2.5, 0.95)
        assert a.overlaps(b)
        assert b.overlaps(a)
        assert not a.overlaps(c)

    def test_contains(self):
        interval = BootstrapInterval(1.0, 2.0, 0.95)
        assert interval.contains(1.5)
        assert not interval.contains(2.5)

    def test_invalid_confidence_raises(self, rng):
        with pytest.raises(ValueError):
            percentile_interval(rng.normal(size=10), confidence=1.0)


class TestDeterminism:
    def test_same_seed_same_resamples(self):
        data = np.arange(20.0)
        a = bootstrap_samples(data, 50, np.random.default_rng(3))
        b = bootstrap_samples(data, 50, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)
