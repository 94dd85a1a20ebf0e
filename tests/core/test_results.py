"""Tests for the result dataclasses."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.results import LossRateResult, OccupancyBounds


class TestLossRateResult:
    def test_estimate_is_bound_average(self):
        result = LossRateResult(
            lower=0.1, upper=0.2, iterations=10, bins=64, converged=True, negligible=False
        )
        assert result.estimate == pytest.approx(0.15)
        assert result.gap == pytest.approx(0.1)
        assert result.relative_gap == pytest.approx(0.1 / 0.15)

    def test_negligible_reports_zero(self):
        result = LossRateResult(
            lower=0.0, upper=5e-11, iterations=10, bins=64, converged=True, negligible=True
        )
        assert result.estimate == 0.0

    def test_zero_bounds_relative_gap(self):
        result = LossRateResult(
            lower=0.0, upper=0.0, iterations=0, bins=0, converged=True, negligible=True
        )
        assert result.relative_gap == 0.0

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="dominate"):
            LossRateResult(
                lower=0.2, upper=0.1, iterations=1, bins=1, converged=True, negligible=False
            )

    def test_rejects_negative_lower(self):
        with pytest.raises(ValueError, match="non-negative"):
            LossRateResult(
                lower=-0.1, upper=0.1, iterations=1, bins=1, converged=True, negligible=False
            )

    @pytest.mark.parametrize(
        "lower,upper",
        [
            (float("nan"), float("nan")),
            (0.1, float("nan")),
            (float("nan"), 0.1),
            (0.1, float("inf")),
            (float("-inf"), 0.1),
            (float("inf"), float("inf")),
        ],
    )
    def test_rejects_non_finite_bounds(self, lower, upper):
        with pytest.raises(ValueError, match="finite"):
            LossRateResult(
                lower=lower, upper=upper, iterations=1, bins=1,
                converged=True, negligible=False,
            )

    def test_str_mentions_convergence(self):
        result = LossRateResult(
            lower=0.1, upper=0.2, iterations=10, bins=64, converged=False, negligible=False
        )
        assert "NOT converged" in str(result)


class TestOccupancyBounds:
    def test_cdf_and_means(self):
        grid = np.array([0.0, 0.5, 1.0])
        bounds = OccupancyBounds(
            grid=grid,
            lower_pmf=np.array([1.0, 0.0, 0.0]),
            upper_pmf=np.array([0.0, 0.0, 1.0]),
            iterations=5,
        )
        assert bounds.lower_mean == 0.0
        assert bounds.upper_mean == 1.0
        np.testing.assert_allclose(bounds.lower_cdf, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(bounds.upper_cdf, [0.0, 0.0, 1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            OccupancyBounds(
                grid=np.array([0.0, 1.0]),
                lower_pmf=np.array([1.0]),
                upper_pmf=np.array([0.0, 1.0]),
                iterations=1,
            )

    def _bounds(self) -> OccupancyBounds:
        return OccupancyBounds(
            grid=np.array([0.0, 0.5, 1.0]),
            lower_pmf=np.array([0.5, 0.4, 0.1]),
            upper_pmf=np.array([0.2, 0.4, 0.4]),
            iterations=10,
        )

    def test_quantile_bracket_ordering(self):
        bounds = self._bounds()
        low, high = bounds.quantile(0.8)
        assert low <= high
        # lower chain cdf: [0.5, 0.9, 1.0] -> 0.8 quantile at 0.5
        assert low == 0.5
        # upper chain cdf: [0.2, 0.6, 1.0] -> 0.8 quantile at 1.0
        assert high == 1.0

    def test_quantile_validation(self):
        with pytest.raises(ValueError, match="level"):
            self._bounds().quantile(1.0)

    def test_reset_probabilities(self):
        bounds = self._bounds()
        assert bounds.full_probability == (0.1, 0.4)
        empty_low, empty_high = bounds.empty_probability
        assert empty_low == 0.2 and empty_high == 0.5
        assert empty_low <= empty_high
