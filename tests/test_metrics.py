import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from premex.errors import DataValidationError, NumericError
from premex.metrics import (
    evaluate_predictions,
    mae,
    mape,
    normal_quantile,
    r_squared,
    qq_points,
    rmse,
)

# Hand-computed oracle: actual [10,20,30], predicted [12,18,33]
# residuals [-2,2,-3], SSE 17, SST 200, |resid| sum 7, pct errors .2/.1/.1
ACTUAL = [10.0, 20.0, 30.0]
PREDICTED = [12.0, 18.0, 33.0]

residual_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=40
)


class TestHandOracle:
    def test_r_squared(self):
        assert r_squared(ACTUAL, PREDICTED) == pytest.approx(1 - 17 / 200, abs=1e-9)
        assert r_squared(ACTUAL, PREDICTED) == pytest.approx(0.915, abs=1e-9)

    def test_mae(self):
        assert mae(ACTUAL, PREDICTED) == pytest.approx(7 / 3, abs=1e-9)

    def test_rmse(self):
        assert rmse(ACTUAL, PREDICTED) == pytest.approx(math.sqrt(17 / 3), abs=1e-9)

    def test_mape(self):
        assert mape(ACTUAL, PREDICTED) == pytest.approx(40 / 3, abs=1e-9)


class TestTrivialCases:
    def test_perfect_predictions(self):
        assert r_squared(ACTUAL, ACTUAL) == 1.0
        assert mae(ACTUAL, ACTUAL) == 0.0
        assert rmse(ACTUAL, ACTUAL) == 0.0
        assert mape(ACTUAL, ACTUAL) == 0.0

    def test_mean_prediction_gives_zero_r2(self):
        predicted = [20.0, 20.0, 20.0]
        assert r_squared(ACTUAL, predicted) == pytest.approx(0.0, abs=1e-12)

    def test_r2_can_be_negative(self):
        assert r_squared(ACTUAL, [30.0, 10.0, 20.0]) < 0.0

    def test_single_pair_mae(self):
        assert mae([5.0], [8.0]) == 3.0

    def test_constant_absolute_residuals(self):
        actual = np.array([1.0, 2.0, 3.0])
        assert rmse(actual, actual - 2.5) == pytest.approx(2.5)

    def test_length_mismatch(self):
        with pytest.raises(DataValidationError):
            mae([1.0], [1.0, 2.0])

    def test_too_few_samples_is_numeric(self):
        # a one-row test split: R^2 needs two actuals
        with pytest.raises(NumericError, match="at least 2"):
            r_squared([1.0], [1.0])

    def test_constant_actuals(self):
        with pytest.raises(NumericError):
            r_squared([2.0, 2.0], [1.0, 3.0])

    def test_mape_zero_actual_rejected(self):
        with pytest.raises(NumericError):
            mape([0.0, 1.0], [1.0, 1.0])

    @pytest.mark.parametrize("metric, actual, predicted", [
        (r_squared, [3e154, -3e154], [0.0, 0.0]),  # SST and SSE overflow: inf / inf
        (mae, [1.7e308, -1.7e308], [-1.7e308, 1.7e308]),
        (rmse, [1e155, 2e155], [0.0, 0.0]),
        (mape, [1e-300, 1.0], [1e300, 1.0]),
    ], ids=["r_squared", "mae", "rmse", "mape"])
    def test_non_finite_value_names_the_metric(self, metric, actual, predicted):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # computed without numpy's RuntimeWarning
            with pytest.raises(NumericError, match=f"^{metric.__name__} is (nan|inf)"):
                metric(actual, predicted)


class TestProperties:
    @given(residuals=residual_vectors)
    @settings(max_examples=200, deadline=None)
    def test_rmse_dominates_mae(self, residuals):
        actual = np.arange(1.0, len(residuals) + 1.0)
        predicted = actual - np.asarray(residuals)
        assert rmse(actual, predicted) >= mae(actual, predicted) - 1e-9

    def test_rmse_equals_mae_iff_equal_magnitudes(self):
        actual = np.array([1.0, 2.0, 3.0])
        assert rmse(actual, actual + 2) == pytest.approx(mae(actual, actual + 2), abs=1e-12)
        predicted = actual + np.array([1.0, -1.0, 2.0])
        assert rmse(actual, predicted) > mae(actual, predicted)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        actual = rng.normal(size=12) + 5.0
        predicted = actual + rng.normal(size=12)
        order = rng.permutation(12)
        for metric in (r_squared, mae, rmse):
            assert metric(actual, predicted) == pytest.approx(
                metric(actual[order], predicted[order]), rel=1e-12
            )

    @given(scale=st.floats(min_value=0.01, max_value=1e4))
    @settings(max_examples=40, deadline=None)
    def test_scaling_behaviour(self, scale):
        actual = np.array([10.0, 20.0, 30.0])
        predicted = np.array([12.0, 18.0, 33.0])
        assert mae(actual * scale, predicted * scale) == pytest.approx(scale * mae(actual, predicted), rel=1e-9)
        assert rmse(actual * scale, predicted * scale) == pytest.approx(scale * rmse(actual, predicted), rel=1e-9)
        assert r_squared(actual * scale, predicted * scale) == pytest.approx(r_squared(actual, predicted), rel=1e-9)
        assert mape(actual * scale, predicted * scale) == pytest.approx(mape(actual, predicted), rel=1e-9)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(5)
        actual = rng.normal(size=50) + 10
        predicted = actual + rng.normal(size=50)
        total = np.sum((actual - actual.mean()) ** 2)
        residual = np.sum((actual - predicted) ** 2)
        assert (1 - r_squared(actual, predicted)) * total == pytest.approx(residual, rel=1e-9)


class TestReport:
    def test_report_fields(self):
        report = evaluate_predictions("RF", ACTUAL, PREDICTED)
        assert report["model"] == "RF"
        assert report["n"] == 3
        assert report["rmse"] >= report["mae"] >= 0.0
        assert report["r_squared"] <= 1.0
        assert set(report) == {"model", "r_squared", "mae", "rmse", "mape", "n"}


class TestResidualDiagnostics:
    def test_perfect_predictions_rejected(self):
        with pytest.raises(NumericError):
            qq_points(ACTUAL, ACTUAL)

    def test_simple_standardization(self):
        # residuals [-1, 0, 1] are already standardized; the sample is them sorted
        _, sample = qq_points([2.0, 1.0, 0.0], [1.0, 1.0, 1.0])
        assert np.allclose(sample, [-1.0, 0.0, 1.0])

    def test_symmetric_residuals(self):
        actual = np.array([1.0, 2.0, 3.0, 4.0])
        predicted = actual - np.array([-2.0, -1.0, 1.0, 2.0])
        theoretical, sample = qq_points(actual, predicted)
        assert np.allclose(sample, -sample[::-1], atol=1e-12)
        assert np.allclose(theoretical, -theoretical[::-1], atol=1e-9)

    def test_qq_rank_points(self):
        theoretical, _ = qq_points([1.0, 2.0, 3.0, 10.0], [1.5, 1.5, 2.0, 4.0])
        expected = normal_quantile((np.arange(1, 5) - 0.5) / 4)
        assert np.array_equal(theoretical, expected)


class TestNormalQuantile:
    def test_against_scipy_oracle(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        p = np.linspace(1e-6, 1 - 1e-6, 2001)
        ours = normal_quantile(p)
        reference = scipy_stats.norm.ppf(p)
        mask = np.abs(reference) > 1e-8
        rel = np.abs(ours[mask] - reference[mask]) / np.abs(reference[mask])
        assert rel.max() < 1e-8

    def test_known_points(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-9)
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-8)
        assert normal_quantile(0.025) == pytest.approx(-1.959963984540054, abs=1e-8)

    def test_domain_guard(self):
        with pytest.raises(NumericError):
            normal_quantile(0.0)
        with pytest.raises(NumericError):
            normal_quantile(1.0)
