"""k-fold cross-validation, exhaustive grid search, and learning curves.

Selection is always by mean R^2 across folds.  Models train on the raw
feature matrix: tree splits depend only on the order of each feature's
values, so no per-fold transform is fit.  Model streams derive from
(seed, "fold", i) alone, which makes a refit of the winning cell
reproduce its recorded score exactly.

Hyperparameters are plain dicts over the defaults in `ensemble.PUBLISHED`;
`ensemble.variant_config` checks their keys, types and ranges, for every
grid cell before the first fit.
"""

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, round_half_up
from .ensemble import fit_forest, fit_gbm, fit_models, fit_xgb, variant_config
from .errors import DataValidationError
from .metrics import r_squared
from .rng import derive_seed, stream

# Grids as published; the rf/xgb estimator lists are kept verbatim even
# though the source table's range notation is internally inconsistent.
DEFAULT_GRIDS = {
    "rf": {
        "n_estimators": [60, 220, 40],
        "max_depth": [7],
        "min_samples_split": [3],
        "max_features": [None],
    },
    "gbm": {
        "n_estimators": [10, 15, 19, 20, 21, 50, 100],
        "learning_rate": [0.1, 0.19, 0.2, 0.21, 0.8, 1],
    },
    "xgb": {
        "gamma": [0],
        "learning_rate": [0.1, 0.01, 0.05],
        "max_depth": [2, 3, 4, 5, 6, 7, 8, 9],
        "n_estimators": [60, 100, 140, 180],
        "subsample": [0.6, 0.7, 0.75, 0.8, 0.85, 0.9],
    },
}


def fit_variant(variant: str, data: Dataset, params: dict, seed: int):
    """Fit one of the three learners from a plain hyperparameter dict."""
    config = variant_config(variant, params, seed)
    return {"rf": fit_forest, "gbm": fit_gbm, "xgb": fit_xgb}[variant](data, config)


def kfold_indices(n: int, k: int, seed: int) -> list:
    """k disjoint validation index sets of at least 2 rows; sizes differ by at most one."""
    if not 2 <= k <= n // 2:
        raise DataValidationError(
            f"cannot split {n} rows into {k} folds of at least 2 rows; need 2..{n // 2} folds"
        )
    permutation = stream(seed, "kfold").permutation(n)
    base, extra = divmod(n, k)
    folds, start = [], 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(np.sort(permutation[start : start + size]))
        start += size
    return folds


def _fold_fits(data: Dataset, variant: str, params: dict, fractions, k: int, seed: int):
    """Fit nested prefixes of each fold's shuffled training rows.

    Returns the folds' validation rows, the training subsets (fold by
    fold, fraction by fraction) and an iterator over their models, in the
    subsets' order.  Fold i's model seed is (seed, "fold", i) at every
    fraction, so the fraction-1.0 models are plain k-fold CV.  The models
    grow together, in one `ensemble.fit_models` call, so a caller scores
    each model and drops it as it arrives.
    """
    folds = kfold_indices(data.n, k, seed)
    all_rows = np.arange(data.n)
    subsets, seeds = [], []  # fold by fold, fraction by fraction
    for i, val_rows in enumerate(folds):
        train_rows = np.setdiff1d(all_rows, val_rows)
        shuffled = stream(seed, "curve", i).permutation(train_rows)
        for fraction in fractions:
            size = round_half_up(fraction * train_rows.size)
            if size < 2:
                raise DataValidationError(
                    f"fraction {fraction} keeps {size} row(s); need at least 2"
                )
            subsets.append(np.sort(shuffled[:size]))
            seeds.append(derive_seed(seed, "fold", i))
    models = fit_models(variant, variant_config(variant, params, seed),
                        ((data.subset(rows), s) for rows, s in zip(subsets, seeds)))
    return folds, subsets, models


def _r_squared_on(data: Dataset, rows, model) -> float:
    """The model's R^2 on data's rows `rows`."""
    return r_squared(data.y[rows], model.predict(data.X[rows]))


def cross_val_score(data: Dataset, variant: str, params: dict, k: int, seed: int) -> list:
    """Per-fold held-out R^2; each fold's model is fit on the other folds."""
    folds, _, models = _fold_fits(data, variant, params, [1.0], k, seed)
    return [_r_squared_on(data, rows, model) for rows, model in zip(folds, models)]


@dataclass
class GridCell:
    params: dict
    fold_scores: list
    mean_score: float
    rank: int = 0


@dataclass
class CvResult:
    variant: str
    cells: list
    best_params: dict
    best_mean_score: float
    k: int
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def grid_cells(grid: dict) -> list:
    """Cartesian product in declared key order, values in declared order."""
    if not isinstance(grid, dict) or not grid:
        raise DataValidationError("a grid must be a non-empty object")
    keys = list(grid.keys())
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise DataValidationError(f"grid dimension {key!r} must be a non-empty list")
    return [dict(zip(keys, combo)) for combo in itertools.product(*grid.values())]


def grid_search(data: Dataset, variant: str, grid: dict, k: int, seed: int) -> CvResult:
    """Evaluate the full Cartesian product; ties go to the earliest cell."""
    all_cells = grid_cells(grid)
    for params in all_cells:
        try:
            variant_config(variant, params, seed).tree_config().validate(data.m)
        except DataValidationError as exc:
            raise DataValidationError(f"grid cell {params}: {exc}") from exc
    cells = []
    for params in all_cells:
        fold_scores = cross_val_score(data, variant, params, k, seed)
        cells.append(
            GridCell(
                params=params,
                fold_scores=fold_scores,
                mean_score=float(np.mean(fold_scores)),
            )
        )
    order = sorted(range(len(cells)), key=lambda i: (-cells[i].mean_score, i))
    for rank, i in enumerate(order, start=1):
        cells[i].rank = rank
    best = cells[order[0]]
    return CvResult(
        variant=variant,
        cells=cells,
        best_params=dict(best.params),
        best_mean_score=best.mean_score,
        k=k,
        seed=seed,
    )


@dataclass
class LearningCurve:
    fractions: list
    n_rows: list  # mean training-subset size per fraction
    train_scores: list  # mean train R^2 over folds
    val_scores: list  # mean held-out R^2 over folds


def learning_curve(data: Dataset, variant: str, params: dict, fractions, k: int, seed: int) -> LearningCurve:
    """Fit on nested prefixes of each fold's shuffled training rows.

    Nesting (one shuffle per fold, prefixes per fraction) keeps the curve
    monotone in data inclusion rather than resampling noise.
    """
    fractions = list(fractions)
    if not fractions or any(not 0.0 < f <= 1.0 for f in fractions):
        raise DataValidationError("fractions must lie in (0, 1]")
    if sorted(fractions) != fractions:
        raise DataValidationError("fractions must be increasing")
    folds, subsets, models = _fold_fits(data, variant, params, fractions, k, seed)
    sizes, train_scores, val_scores = (np.zeros((len(fractions), k)) for _ in range(3))
    for index, (subset, model) in enumerate(zip(subsets, models)):
        i, j = divmod(index, len(fractions))
        train_scores[j, i] = _r_squared_on(data, subset, model)
        val_scores[j, i] = _r_squared_on(data, folds[i], model)
        sizes[j, i] = subset.size
    return LearningCurve(
        fractions=fractions,
        n_rows=sizes.mean(axis=1).tolist(),
        train_scores=train_scores.mean(axis=1).tolist(),
        val_scores=val_scores.mean(axis=1).tolist(),
    )
