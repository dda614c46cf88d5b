"""k-fold cross-validation, exhaustive grid search, and learning curves.

Selection is always by mean R^2 across folds.  Models train on the raw
feature matrix: tree splits depend only on the order of each feature's
values, so no per-fold transform is fit.  Model streams derive from
(seed, "fold", i) alone, which makes a refit of the winning cell
reproduce its recorded score exactly.  Results are what their readers
take: `grid_search` returns the document body of `cv_<variant>.json`,
and `learning_curve` arrays of row counts and mean train and validation
scores.

`grid_search` (every cell and fold in one call) and `learning_curve`
hand their fits to `_fold_fits` as a list of tasks.  It forks one child
per extra CPU in the process's affinity mask (none on one CPU, or where
`os.fork` is missing), gives each process a contiguous share of the
tasks of about equal cost, and returns their R^2 values in task order.
A task's model depends only on its config, rows and seed, so the scores,
and every artifact made from them, are the same floats for any number of
workers; `taskset -c 0` runs every fit in one process.

Hyperparameters are plain dicts over `ensemble.PUBLISHED`; each task carries
the config that `ensemble.variant_config` checked once per grid cell or call.
"""

import itertools
import os
import pickle

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


def _fold_subsets(n: int, fractions, k: int, seed: int):
    """Each fold's validation rows, and its nested training subsets.

    Fold i's training rows are shuffled once by (seed, "curve", i), and
    each fraction keeps a prefix of that shuffle, sorted.  With fractions
    [1.0] a fold's one subset is all its training rows.
    """
    folds = kfold_indices(n, k, seed)
    all_rows = np.arange(n)
    subsets = []  # per fold, its subsets fraction by fraction
    for i, val_rows in enumerate(folds):
        train_rows = np.setdiff1d(all_rows, val_rows)
        shuffled = stream(seed, "curve", i).permutation(train_rows)
        subsets.append([])
        for fraction in fractions:
            size = round_half_up(fraction * train_rows.size)
            if size < 2:
                raise DataValidationError(
                    f"fraction {fraction} keeps {size} row(s); need at least 2"
                )
            subsets[-1].append(np.sort(shuffled[:size]))
    return folds, subsets


def _cv_tasks(n: int, configs: list, k: int, seed: int) -> list:
    """One `_fold_fits` task per (config, fold): fit on the other folds, score on the fold."""
    folds, subsets = _fold_subsets(n, [1.0], k, seed)
    return [(config, train_rows, derive_seed(seed, "fold", i), [val_rows])
            for config in configs
            for i, (val_rows, [train_rows]) in enumerate(zip(folds, subsets))]


def _worker_count(tasks: int) -> int:
    """Processes to share `tasks` fits: one per CPU in this process's affinity mask."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), tasks))


def _fold_fits(data: Dataset, variant: str, tasks: list) -> np.ndarray:
    """R^2 of every task's model on each of its scored row sets, in task order.

    A task is (config, training rows, model seed, scored row sets).  Its
    model is `variant` at `config`, fit on data's training rows with
    (model seed, "forest_tree" or "stage", t) streams, so it depends on
    nothing but its task.  With W = `_worker_count(len(tasks))` above 1,
    forked children share the work.  The tasks are cut into at most W
    contiguous shares of about equal cost, a task costing its training
    rows times its trees or stages: share w ends with the first task
    whose running cost reaches w/W of the total.  This process scores
    the first share and one child each of the others.  Every process
    runs `_share_scores`, the same serial code, on its share, and a
    child sends its scores or its first error through a pipe.  Since a
    task's scores do not depend on which process fits it, or on which
    tasks it is fit next to, the result holds the same floats for every
    W.  A share stops at its first error, and the earliest share's error
    is raised, so it is the earliest task's error, as in a serial run.
    Every child is reaped before this returns or raises, and killed first
    if the result is no longer needed.
    """
    workers = _worker_count(len(tasks))
    # a task's cost: its training rows times its trees or stages
    running = np.cumsum([rows.size * max(config.n_estimators, 1) for config, rows, _, _ in tasks])
    # share w ends with the first task whose running cost reaches w/W of the total
    cuts = {int(np.searchsorted(running * workers, running[-1] * w)) + 1 for w in range(1, workers)}
    bounds = sorted({0, len(tasks)} | cuts)
    children = []  # (pid, read end of its pipe), in share order
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            children.append(_fork_share(data, variant, tasks[start:stop]))
        scores = _share_scores(data, variant, tasks[:bounds[1]])
        for pid, pipe in children:
            payload = pipe.read()
            if not payload:
                raise RuntimeError(f"tuning worker {pid} exited without a result")
            shared, error = pickle.loads(payload)
            if error is not None:
                raise error
            scores += shared
    except BaseException:
        import signal  # not loaded by a run that never gets here

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    return np.array(scores, dtype=np.float64)


def _share_scores(data: Dataset, variant: str, tasks: list) -> list:
    """`_fold_fits` in this process: consecutive equal-config tasks grow in one fit_models call.

    fit_models grows the models of one call together, so a caller scores
    each model and drops it as it arrives.
    """
    scores = []
    for config, group in itertools.groupby(tasks, key=lambda task: task[0]):
        group = list(group)
        models = fit_models(variant, config,
                            ((data.subset(rows), model_seed) for _, rows, model_seed, _ in group))
        for (*_, scored), model in zip(group, models):
            scores += [_r_squared_on(data, rows, model) for rows in scored]
    return scores


def _fork_share(data: Dataset, variant: str, tasks: list):
    """Score `tasks` in a forked child; returns its pid and the read end of its pipe.

    The child pickles (scores, None) or (None, its error) into the pipe
    and always leaves by os._exit, so it runs no exit handler and flushes
    no buffer it inherited.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            try:
                payload = pickle.dumps((_share_scores(data, variant, tasks), None))
            except BaseException as exc:
                payload = _pickled_error(exc)
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, os.fdopen(read_end, "rb")


def _pickled_error(exc: BaseException) -> bytes:
    """(None, exc) pickled; an error that does not survive pickling goes as a RuntimeError."""
    try:
        payload = pickle.dumps((None, exc))
        pickle.loads(payload)
        return payload
    except Exception:
        return pickle.dumps((None, RuntimeError(f"{type(exc).__name__}: {exc}")))


def _r_squared_on(data: Dataset, rows, model) -> float:
    """The model's R^2 on data's rows `rows`."""
    return r_squared(data.y[rows], model.predict(data.X[rows]))


def grid_cells(grid: dict) -> list:
    """Cartesian product in declared key order, values in declared order."""
    if not isinstance(grid, dict) or not grid:
        raise DataValidationError("a grid must be a non-empty object")
    keys = list(grid.keys())
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise DataValidationError(f"grid dimension {key!r} must be a non-empty list")
    return [dict(zip(keys, combo)) for combo in itertools.product(*grid.values())]


def grid_search(data: Dataset, variant: str, grid: dict, k: int, seed: int) -> dict:
    """Evaluate the full Cartesian product; ties go to the earliest cell.

    Returns the body of `cv_<variant>.json`: variant, k, best_params,
    best_mean_score, and cells, one {params, fold_scores, mean_score,
    rank} per grid cell in declared order, rank 1 the best.  Parameters
    are given as the cell's config holds them: a rate of 1 reads 1.0.
    """
    configs = []
    for cell in grid_cells(grid):
        try:
            config = variant_config(variant, cell, seed)
            config.validate(data.m)
        except DataValidationError as exc:
            raise DataValidationError(f"grid cell {cell}: {exc}") from exc
        configs.append(config)
    scores = _fold_fits(data, variant, _cv_tasks(data.n, configs, k, seed))
    cells = [{"params": {key: getattr(config, key) for key in grid},
              "fold_scores": row.tolist(), "mean_score": float(row.mean())}
             for config, row in zip(configs, scores.reshape(len(configs), k))]
    order = sorted(range(len(cells)), key=lambda i: (-cells[i]["mean_score"], i))
    for rank, i in enumerate(order, start=1):
        cells[i]["rank"] = rank
    best = cells[order[0]]
    return {"variant": variant, "cells": cells, "best_params": dict(best["params"]),
            "best_mean_score": best["mean_score"], "k": k}


def learning_curve(data: Dataset, variant: str, params: dict, fractions, k: int, seed: int):
    """(n_rows, train_scores, val_scores): per fraction, the mean training-subset
    size and the mean train and held-out R^2 over folds, as float arrays.

    Each fold's model is fit on a nested prefix of the fold's shuffled
    training rows.  Nesting (one shuffle per fold, prefixes per fraction)
    keeps the curve monotone in data inclusion rather than resampling noise.
    """
    fractions = list(fractions)
    if not fractions or any(not 0.0 < f <= 1.0 for f in fractions):
        raise DataValidationError("fractions must lie in (0, 1]")
    if sorted(fractions) != fractions:
        raise DataValidationError("fractions must be increasing")
    config = variant_config(variant, params, seed)
    folds, subsets = _fold_subsets(data.n, fractions, k, seed)
    tasks = [(config, rows, derive_seed(seed, "fold", i), [rows, folds[i]])
             for i in range(k) for rows in subsets[i]]
    scores = _fold_fits(data, variant, tasks).reshape(k, len(fractions), 2)
    # (fraction, fold) arrays, C-ordered, so each mean sums in fold order
    train_scores, val_scores = (np.ascontiguousarray(scores[:, :, s].T) for s in range(2))
    n_rows = np.mean([[rows.size for rows in fold] for fold in subsets], axis=0)
    return n_rows, train_scores.mean(axis=1), val_scores.mean(axis=1)
