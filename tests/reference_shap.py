"""Shapley oracles by direct definition: the cross-checks for `premex.explain.shap_exact`.

`shap_value_function` evaluates val(S), the interventional value function,
with the features outside S taken from the background rows.
`shap_permutation` averages each feature's marginal contribution over all
p! feature orderings, independently of `shap_exact`'s subset enumeration.
"""

import itertools
import math

import numpy as np

from premex.errors import DataValidationError

MAX_PERMUTATION_FEATURES = 8


def _hybrid_rows(row, mask_columns, background):
    hybrid = background.copy()
    hybrid[:, mask_columns] = row[mask_columns]
    return hybrid


def shap_value_function(predict_fn, row, subset, background) -> float:
    """val(S): expected prediction with features in S pinned to the row."""
    row = np.asarray(row, dtype=np.float64)
    columns = np.zeros(row.size, dtype=bool)
    for j in subset:
        columns[j] = True
    return float(np.mean(predict_fn(_hybrid_rows(row, columns, np.asarray(background)))))


def shap_permutation(predict_fn, row, background) -> np.ndarray:
    """Shapley values as the average marginal contribution over all p!
    feature orderings.  Independent of shap_exact; used to cross-check it.
    """
    row = np.asarray(row, dtype=np.float64)
    p = row.size
    if p > MAX_PERMUTATION_FEATURES:
        raise DataValidationError(f"permutation oracle is limited to {MAX_PERMUTATION_FEATURES} features")
    B = np.asarray(background)
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
