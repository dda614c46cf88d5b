"""Regression evaluation metrics and the residual Q-Q points."""

import functools
import math
from dataclasses import asdict, dataclass

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


@dataclass
class MetricsReport:
    model: str
    r_squared: float  # stored as a fraction; report layers format as percent
    mae: float
    rmse: float
    mape: float
    n: int

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate_predictions(model_name: str, actual, predicted) -> MetricsReport:
    actual, predicted = _pair(actual, predicted, min_len=2)
    return MetricsReport(
        model=model_name,
        r_squared=r_squared(actual, predicted),
        mae=mae(actual, predicted),
        rmse=rmse(actual, predicted),
        mape=mape(actual, predicted),
        n=int(actual.size),
    )


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


# Inverse normal CDF: Acklam's rational approximation, peak relative
# error about 1.2e-9 over (0, 1).  Local so the Q-Q plot needs no scipy.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def normal_quantile(p):
    """Standard normal inverse CDF, elementwise over (0, 1)."""
    p = np.asarray(p, dtype=np.float64)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise NumericError("normal quantile requires probabilities strictly in (0, 1)")
    out = np.empty_like(p)

    low = p < _P_LOW
    high = p > 1.0 - _P_LOW
    mid = ~(low | high)

    if np.any(mid):
        q = p[mid] - 0.5
        r = q * q
        num = ((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]
        den = ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
        out[mid] = num * q / den
    if np.any(low):
        q = np.sqrt(-2.0 * np.log(p[low]))
        num = ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        den = (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
        out[low] = num / den
    if np.any(high):
        q = np.sqrt(-2.0 * np.log(1.0 - p[high]))
        num = ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        den = (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
        out[high] = -num / den

    return float(out[0]) if scalar else out
