"""Regression evaluation metrics and the residual Q-Q points.

Each metric returns a float; `evaluate_predictions` returns them as one
dict, the body of a `metrics_<variant>.json`.
"""

import functools
import math

import numpy as np

from .errors import DataValidationError, NumericError


def _pair(actual, predicted, min_len=1):
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if actual.shape != predicted.shape:
        raise DataValidationError(
            f"length mismatch: {actual.shape[0]} actuals vs {predicted.shape[0]} predictions"
        )
    if actual.size < min_len:
        raise NumericError(f"need at least {min_len} samples, got {actual.size}")
    return actual, predicted


def _finite(metric):
    """`metric` computed with numpy's overflow and invalid warnings off;
    NumericError naming it when its value is NaN or infinite."""
    @functools.wraps(metric)
    def checked(actual, predicted) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            value = metric(actual, predicted)
        if not math.isfinite(value):
            raise NumericError(f"{metric.__name__} is {value}, not a finite number: "
                               "the values overflow float64 arithmetic")
        return value
    return checked


@_finite
def r_squared(actual, predicted) -> float:
    """1 - SSE/SST; 1.0 for perfect predictions, negative when worse than the mean."""
    actual, predicted = _pair(actual, predicted, min_len=2)
    total = np.sum((actual - actual.mean()) ** 2)
    if total == 0.0:
        raise NumericError("actuals are constant; R^2 undefined")
    residual = np.sum((actual - predicted) ** 2)
    return float(1.0 - residual / total)


@_finite
def mae(actual, predicted) -> float:
    actual, predicted = _pair(actual, predicted)
    return float(np.mean(np.abs(actual - predicted)))


@_finite
def rmse(actual, predicted) -> float:
    actual, predicted = _pair(actual, predicted)
    return float(math.sqrt(np.mean((actual - predicted) ** 2)))


@_finite
def mape(actual, predicted) -> float:
    """Mean absolute percentage error, in percent.  Zero actuals are an error."""
    actual, predicted = _pair(actual, predicted)
    if np.any(actual == 0.0):
        raise NumericError("actual contains zero; MAPE undefined")
    return float(100.0 * np.mean(np.abs((actual - predicted) / actual)))


def evaluate_predictions(model_name: str, actual, predicted) -> dict:
    """The body of `metrics_<variant>.json`: model, r_squared (a fraction;
    tables print it in percent), mae, rmse, mape and the row count n."""
    actual, predicted = _pair(actual, predicted, min_len=2)
    return {"model": model_name, "r_squared": r_squared(actual, predicted),
            "mae": mae(actual, predicted), "rmse": rmse(actual, predicted),
            "mape": mape(actual, predicted), "n": int(actual.size)}


def qq_points(actual, predicted):
    """(theoretical, sample): the normal quantiles at p_i = (i - 0.5)/n and
    the sorted standardized residuals."""
    actual, predicted = _pair(actual, predicted, min_len=3)
    residuals = actual - predicted
    spread = residuals.std(ddof=1)
    if spread == 0.0:
        raise NumericError("residuals have zero variance")
    n = residuals.size
    ranks = (np.arange(1, n + 1) - 0.5) / n
    return normal_quantile(ranks), np.sort((residuals - residuals.mean()) / spread)


def normal_quantile(p) -> np.ndarray:
    """Standard normal inverse CDF, elementwise over (0, 1), as an array of
    p's shape: the standard library's `NormalDist.inv_cdf`, Wichura's AS241
    (relative error near 1e-16)."""
    from statistics import NormalDist  # loaded only by commands that draw a Q-Q plot

    p = np.asarray(p, dtype=np.float64)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise NumericError("normal quantile requires probabilities strictly in (0, 1)")
    return np.array(list(map(NormalDist().inv_cdf, p.ravel().tolist()))).reshape(p.shape)
