"""`cross_val_score`: the per-fold held-out R^2 of one parameter set.

The pipeline scores folds only through `tuning.grid_search` and
`tuning.learning_curve`; tests use this one-cell run of the same fold
tasks as the reference those two are checked against, and to drive the
forked workers with a single call.
"""

from premex import tuning
from premex.ensemble import variant_config


def cross_val_score(data, variant: str, params: dict, k: int, seed: int) -> list:
    """Per-fold held-out R^2; each fold's model is fit on the other folds."""
    config = variant_config(variant, params, seed)
    return tuning._fold_fits(data, variant, tuning._cv_tasks(data.n, [config], k, seed)).tolist()
