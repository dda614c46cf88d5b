"""Model-agnostic explanations: exact Shapley values and ICE curves.

Everything here works against a bare prediction function (matrix in,
vector out), so it applies to any of the ensembles, whose predict takes
the raw feature matrix.

The value function is interventional: val(S) replaces the features
outside S with background rows and averages the predictions.  With p
features this costs 2^p value-function evaluations per explained row,
all batched into a single prediction call, which is exact and cheap for
small p.  A permutation-average implementation ships alongside as an
independent cross-check for tests.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError, NumericError

MAX_EXACT_FEATURES = 20
MAX_PERMUTATION_FEATURES = 8


@dataclass
class ValueFunctionConfig:
    background: np.ndarray  # reference rows drawn from the training matrix

    def __post_init__(self):
        self.background = np.atleast_2d(np.asarray(self.background, dtype=np.float64))
        if self.background.shape[0] < 1:
            raise DataValidationError("background must contain at least one row")


@dataclass
class ShapExplanation:
    base_value: float  # mean model prediction over the background
    phi: np.ndarray  # n_explained x p attribution matrix
    feature_values: np.ndarray  # raw values of the explained rows
    feature_names: list


@dataclass
class GlobalImportance:
    feature_names: list
    totals: np.ndarray  # sum of |phi| per feature
    order: list  # feature indices, descending importance


@dataclass
class IceCurveSet:
    feature_index: int
    feature_name: str
    grid: np.ndarray
    curves: np.ndarray  # n_rows x n_grid predictions, one curve per row
    pdp: np.ndarray  # pointwise mean of the curves
    variant: str  # "raw", "centered", or "derivative"
    anchor_index: int | None = None


def _hybrid_rows(row, mask_columns, background):
    hybrid = background.copy()
    hybrid[:, mask_columns] = row[mask_columns]
    return hybrid


def shap_value_function(predict_fn, row, subset, background: ValueFunctionConfig) -> float:
    """val(S): expected prediction with features in S pinned to the row."""
    row = np.asarray(row, dtype=np.float64)
    columns = np.zeros(row.size, dtype=bool)
    for j in subset:
        columns[j] = True
    return float(np.mean(predict_fn(_hybrid_rows(row, columns, background.background))))


def _subset_weights(p: int) -> np.ndarray:
    # weight of a coalition of size s when adding one more feature
    return np.array(
        [math.factorial(s) * math.factorial(p - s - 1) / math.factorial(p) for s in range(p)]
    )


def shap_exact(predict_fn, rows, background: ValueFunctionConfig, feature_names=None) -> ShapExplanation:
    """Exact Shapley attributions by full subset enumeration.

    For each explained row all 2^p hybrid batches are evaluated in one
    prediction call; val(S) is then a cached lookup, so each feature's
    sum over subsets costs nothing extra.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    p = rows.shape[1]
    if p > MAX_EXACT_FEATURES:
        raise DataValidationError(
            f"{p} features would need 2^{p} subsets; refusing beyond {MAX_EXACT_FEATURES}"
        )
    B = background.background
    if B.shape[1] != p:
        raise DataValidationError("background and explained rows differ in width")
    if feature_names is None:
        feature_names = [f"x{j}" for j in range(p)]

    n_subsets = 1 << p
    weights = _subset_weights(p)
    popcount = np.array([bin(mask).count("1") for mask in range(n_subsets)])
    mask_columns = np.array(
        [[(mask >> j) & 1 == 1 for j in range(p)] for mask in range(n_subsets)]
    )
    # masks that exclude feature j, paired with the mask that adds it
    without = [np.nonzero(~mask_columns[:, j])[0] for j in range(p)]

    phi = np.zeros((rows.shape[0], p))
    base_value = 0.0
    for i, row in enumerate(rows):
        batch = np.tile(B, (n_subsets, 1))
        for mask in range(1, n_subsets):
            block = batch[mask * B.shape[0] : (mask + 1) * B.shape[0]]
            block[:, mask_columns[mask]] = row[mask_columns[mask]]
        values = predict_fn(batch).reshape(n_subsets, B.shape[0]).mean(axis=1)
        if i == 0:
            base_value = float(values[0])
        for j in range(p):
            masks = without[j]
            gains = values[masks | (1 << j)] - values[masks]
            phi[i, j] = float(np.sum(weights[popcount[masks]] * gains))
    return ShapExplanation(
        base_value=base_value,
        phi=phi,
        feature_values=rows.copy(),
        feature_names=list(feature_names),
    )


def shap_permutation(predict_fn, row, background: ValueFunctionConfig) -> np.ndarray:
    """Shapley values as the average marginal contribution over all p!
    feature orderings.  Independent of shap_exact; used to cross-check it.
    """
    row = np.asarray(row, dtype=np.float64)
    p = row.size
    if p > MAX_PERMUTATION_FEATURES:
        raise DataValidationError(f"permutation oracle is limited to {MAX_PERMUTATION_FEATURES} features")
    B = background.background
    cache = {}

    def val(subset: frozenset) -> float:
        if subset not in cache:
            columns = np.zeros(p, dtype=bool)
            for j in subset:
                columns[j] = True
            cache[subset] = float(np.mean(predict_fn(_hybrid_rows(row, columns, B))))
        return cache[subset]

    phi = np.zeros(p)
    for permutation in itertools.permutations(range(p)):
        members = frozenset()
        current = val(members)
        for j in permutation:
            members = members | {j}
            following = val(members)
            phi[j] += following - current
            current = following
    return phi / math.factorial(p)


def global_importance(explanation: ShapExplanation) -> GlobalImportance:
    """Sum of absolute attributions per feature, ranked descending."""
    if explanation.phi.size == 0:
        raise DataValidationError("empty explanation")
    totals = np.abs(explanation.phi).sum(axis=0)
    order = sorted(range(totals.size), key=lambda j: (-totals[j], j))
    return GlobalImportance(
        feature_names=list(explanation.feature_names),
        totals=totals,
        order=order,
    )


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks from 1..n with ties sharing their average position."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


@dataclass
class BeeswarmData:
    feature_order: list  # feature indices, most important first
    feature_names: list  # names in plot order
    points: list  # per feature: (phi values, color scalars in [0, 1])


def beeswarm_data(explanation: ShapExplanation) -> BeeswarmData:
    """Plot-ready beeswarm rows: attributions plus rank-normalized colors."""
    importance = global_importance(explanation)
    n = explanation.phi.shape[0]
    points = []
    for j in importance.order:
        column = explanation.feature_values[:, j]
        if n == 1:
            colors = np.array([0.5])
        else:
            colors = (_average_ranks(column) - 1.0) / (n - 1.0)
        points.append((explanation.phi[:, j].copy(), colors))
    return BeeswarmData(
        feature_order=list(importance.order),
        feature_names=[explanation.feature_names[j] for j in importance.order],
        points=points,
    )


def make_grid(column: np.ndarray, n_points: int = 30, max_distinct: int = 10) -> np.ndarray:
    """Sorted unique values for low-cardinality features, else equispaced."""
    distinct = np.unique(column)
    if distinct.size <= max_distinct:
        return distinct
    return np.linspace(column.min(), column.max(), n_points)


def ice_curves(predict_fn, rows, feature_index: int, grid=None, n_points: int = 30,
               feature_name: str | None = None) -> IceCurveSet:
    """Raw ICE curves: one prediction trace per row as one feature sweeps."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if not 0 <= feature_index < rows.shape[1]:
        raise DataValidationError(f"feature index {feature_index} out of range")
    if grid is None:
        grid = make_grid(rows[:, feature_index], n_points=n_points)
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise DataValidationError("empty evaluation grid")
    curves = np.empty((rows.shape[0], grid.size))
    for g, value in enumerate(grid):
        swept = rows.copy()
        swept[:, feature_index] = value
        curves[:, g] = predict_fn(swept)
    return IceCurveSet(
        feature_index=feature_index,
        feature_name=feature_name or f"x{feature_index}",
        grid=grid,
        curves=curves,
        pdp=curves.mean(axis=0),
        variant="raw",
    )


def center_ice(curve_set: IceCurveSet, anchor_index: int = 0) -> IceCurveSet:
    """Shift each curve to zero at the anchor grid point (left edge default)."""
    if curve_set.variant != "raw":
        raise DataValidationError(f"can only center raw curves, got {curve_set.variant!r}")
    if not 0 <= anchor_index < curve_set.grid.size:
        raise DataValidationError(f"anchor index {anchor_index} outside the grid")
    centered = curve_set.curves - curve_set.curves[:, anchor_index : anchor_index + 1]
    return IceCurveSet(
        feature_index=curve_set.feature_index,
        feature_name=curve_set.feature_name,
        grid=curve_set.grid.copy(),
        curves=centered,
        pdp=centered.mean(axis=0),
        variant="centered",
        anchor_index=anchor_index,
    )


def derivative_ice(curve_set: IceCurveSet) -> IceCurveSet:
    """Numerical slope of each curve: central differences inside, one-sided ends."""
    grid, curves = curve_set.grid, curve_set.curves
    if grid.size < 3:
        raise NumericError("derivative curves need a grid of at least 3 points")
    slopes = np.empty_like(curves)
    slopes[:, 0] = (curves[:, 1] - curves[:, 0]) / (grid[1] - grid[0])
    slopes[:, -1] = (curves[:, -1] - curves[:, -2]) / (grid[-1] - grid[-2])
    span = grid[2:] - grid[:-2]
    slopes[:, 1:-1] = (curves[:, 2:] - curves[:, :-2]) / span
    return IceCurveSet(
        feature_index=curve_set.feature_index,
        feature_name=curve_set.feature_name,
        grid=grid.copy(),
        curves=slopes,
        pdp=slopes.mean(axis=0),
        variant="derivative",
        anchor_index=None,
    )

