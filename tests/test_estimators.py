"""Tests for statistical estimators (repro.analysis.estimators)."""

import math

import numpy as np
import pytest

from repro.analysis.estimators import (
    Welford,
    mean_with_ci,
    quantiles,
    success_rate,
    truncated_mean,
    wilson_interval,
)


class TestMeanWithCI:
    def test_point_estimate(self):
        mean, (lo, hi) = mean_with_ci([1.0, 2.0, 3.0], seed=0)
        assert mean == pytest.approx(2.0)
        assert lo <= mean <= hi

    def test_interval_covers_truth_usually(self):
        rng = np.random.default_rng(1)
        covered = 0
        for i in range(40):
            data = rng.normal(10, 2, size=60)
            _, (lo, hi) = mean_with_ci(data, seed=i)
            covered += lo <= 10 <= hi
        assert covered >= 32  # ~95% nominal; allow slack

    def test_single_sample(self):
        mean, (lo, hi) = mean_with_ci([5.0])
        assert mean == lo == hi == 5.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            mean_with_ci([1.0, math.inf])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mean_with_ci([])

    def test_rejects_bad_confidence(self):
        with pytest.raises(ValueError):
            mean_with_ci([1.0, 2.0], confidence=1.5)


class TestTruncatedMean:
    def test_clips_inf_at_horizon(self):
        tm = truncated_mean([10.0, math.inf], horizon=100)
        assert tm.mean == pytest.approx(55.0)
        assert tm.censored_fraction == pytest.approx(0.5)
        assert tm.is_lower_bound

    def test_no_censoring(self):
        tm = truncated_mean([1.0, 2.0], horizon=10)
        assert tm.mean == pytest.approx(1.5)
        assert not tm.is_lower_bound

    def test_values_beyond_horizon_clipped(self):
        tm = truncated_mean([5.0, 200.0], horizon=100)
        assert tm.mean == pytest.approx(52.5)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            truncated_mean([1.0], horizon=math.inf)


class TestSuccessRate:
    def test_counts_finite_within_horizon(self):
        assert success_rate([1.0, math.inf, 50.0], horizon=10) == pytest.approx(1 / 3)

    def test_no_horizon_counts_all_finite(self):
        assert success_rate([1.0, math.inf]) == pytest.approx(0.5)


class TestWilson:
    def test_contains_mle(self):
        lo, hi = wilson_interval(30, 100)
        assert lo < 0.3 < hi

    @pytest.mark.parametrize("n", [1, 3, 20, 400, 10_000])
    @pytest.mark.parametrize("confidence", [0.8, 0.9, 0.95, 0.99, 0.999])
    def test_extremes_stay_in_unit_interval(self, confidence, n):
        # The closed bounds are exact, whatever the last bit of z.
        lo, hi = wilson_interval(0, n, confidence)
        assert lo == 0.0 and 0 < hi < 1
        lo, hi = wilson_interval(n, n, confidence)
        assert hi == 1.0 and 0 < lo < 1

    def test_narrows_with_n(self):
        lo1, hi1 = wilson_interval(5, 10)
        lo2, hi2 = wilson_interval(500, 1000)
        assert (hi2 - lo2) < (hi1 - lo1)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)


class TestQuantiles:
    def test_median_of_odd(self):
        assert quantiles([3.0, 1.0, 2.0], (0.5,)) == (2.0,)

    def test_inf_sorts_last(self):
        qs = quantiles([1.0, 2.0, math.inf], (0.0, 1.0))
        assert qs[0] == 1.0 and math.isinf(qs[1])

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            quantiles([1.0], (1.2,))


class TestWelford:
    def test_matches_numpy(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=500)
        acc = Welford()
        acc.extend(data.tolist())
        assert acc.mean == pytest.approx(float(data.mean()), abs=1e-12)
        assert acc.variance == pytest.approx(float(data.var(ddof=1)), rel=1e-10)
        assert acc.count == 500

    def test_rejects_non_finite(self):
        acc = Welford()
        with pytest.raises(ValueError):
            acc.add(math.nan)

    def test_variance_needs_two(self):
        acc = Welford()
        acc.add(1.0)
        with pytest.raises(ValueError):
            _ = acc.variance

    def test_mean_needs_one(self):
        with pytest.raises(ValueError):
            _ = Welford().mean
