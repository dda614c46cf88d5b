import json

import premex.tuning as tuning_mod

import numpy as np
import pytest

from premex.data import Dataset, round_half_up
from premex.cli import _collect_params
from premex.ensemble import PUBLISHED, variant_config
from premex.errors import DataValidationError
from premex.metrics import r_squared
from premex.rng import derive_seed, stream
from premex.tuning import (
    DEFAULT_GRIDS,
    CvResult,
    cross_val_score,
    fit_variant,
    grid_cells,
    grid_search,
    kfold_indices,
    learning_curve,
)


class TestKfold:
    def test_even_split(self):
        folds = kfold_indices(10, 5, seed=0)
        assert [f.size for f in folds] == [2, 2, 2, 2, 2]

    def test_remainder_goes_to_leading_folds(self):
        folds = kfold_indices(11, 5, seed=0)
        assert sorted((f.size for f in folds), reverse=True) == [3, 2, 2, 2, 2]
        assert folds[0].size == 3

    def test_partition(self):
        folds = kfold_indices(23, 4, seed=3)
        merged = np.concatenate(folds)
        assert np.array_equal(np.sort(merged), np.arange(23))

    def test_same_seed_identical(self):
        first = kfold_indices(30, 5, seed=9)
        second = kfold_indices(30, 5, seed=9)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_k_out_of_range(self):
        with pytest.raises(DataValidationError):
            kfold_indices(5, 6, seed=0)
        with pytest.raises(DataValidationError):
            kfold_indices(5, 1, seed=0)

    def test_folds_below_two_rows_rejected(self):
        # 3 folds of 5 rows leave a 1-row validation fold, where R^2 is undefined
        with pytest.raises(DataValidationError, match="2 rows"):
            kfold_indices(5, 3, seed=0)
        assert [f.size for f in kfold_indices(5, 2, seed=0)] == [3, 2]


class TestCrossValScore:
    def test_mean_baseline_never_beats_out_of_fold_mean(self, synth_dataset):
        scores = cross_val_score(synth_dataset, "gbm", {"n_estimators": 0}, 5, seed=1)
        assert len(scores) == 5
        assert all(s <= 0.0 for s in scores)

    def test_symmetric_duplicated_folds_score_equal(self):
        # build the data after the fold shuffle so fold 2's rows copy fold 1's
        n, seed = 20, 5
        folds = kfold_indices(n, 2, seed)
        rng = np.random.default_rng(0)
        X = np.empty((n, 2))
        y = np.empty(n)
        X[folds[0]] = rng.normal(size=(10, 2))
        y[folds[0]] = rng.normal(size=10)
        X[folds[1]] = X[folds[0]]
        y[folds[1]] = y[folds[0]]
        data = Dataset(["a", "b"], X, y)
        # subsample=1 and all features: no randomness left in the fit
        scores = cross_val_score(
            data, "gbm",
            {"n_estimators": 5, "learning_rate": 0.5, "max_depth": 2}, 2, seed,
        )
        assert scores[0] == scores[1]

    def test_invalid_params(self, synth_dataset):
        with pytest.raises(DataValidationError):
            cross_val_score(synth_dataset, "gbm", {"bogus": 1}, 3, seed=0)

    def test_too_many_folds(self, synth_dataset):
        with pytest.raises(DataValidationError):
            cross_val_score(synth_dataset.subset(np.arange(4)), "gbm", {}, 5, seed=0)

    def test_unknown_variant(self, synth_dataset):
        with pytest.raises(DataValidationError):
            cross_val_score(synth_dataset, "svm", {}, 3, seed=0)


class TestGridSearch:
    def test_single_cell(self, synth_dataset):
        grid = {"n_estimators": [5], "max_depth": [2]}
        result = grid_search(synth_dataset, "gbm", grid, 3, seed=2)
        assert result.best_params == {"n_estimators": 5, "max_depth": 2}
        assert len(result.cells) == 1
        assert result.cells[0].rank == 1

    def test_zero_stage_cell_loses(self, synth_dataset):
        result = grid_search(synth_dataset, "gbm", {"n_estimators": [0, 50]}, 3, seed=2)
        assert result.best_params == {"n_estimators": 50}
        by_params = {cell.params["n_estimators"]: cell for cell in result.cells}
        assert by_params[50].mean_score > by_params[0].mean_score

    def test_enumeration_order_is_declared_order(self):
        cells = grid_cells({"a": [1, 2], "b": ["x", "y"]})
        assert cells == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_dominated_cell_never_changes_winner(self, synth_dataset):
        base_grid = {"n_estimators": [10, 20], "max_depth": [2]}
        with_dud = {"n_estimators": [10, 20, 0], "max_depth": [2]}
        best_a = grid_search(synth_dataset, "gbm", base_grid, 3, seed=4).best_params
        best_b = grid_search(synth_dataset, "gbm", with_dud, 3, seed=4).best_params
        assert best_a == best_b

    def test_determinism(self, synth_dataset):
        grid = {"n_estimators": [5, 10], "learning_rate": [0.2, 0.5]}
        first = grid_search(synth_dataset, "gbm", grid, 3, seed=6)
        second = grid_search(synth_dataset, "gbm", grid, 3, seed=6)
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )

    def test_refit_of_best_cell_reproduces_score(self, synth_dataset):
        grid = {"n_estimators": [5, 15], "learning_rate": [0.3]}
        result = grid_search(synth_dataset, "gbm", grid, 4, seed=3)
        refit = cross_val_score(synth_dataset, "gbm", result.best_params, 4, seed=3)
        assert abs(float(np.mean(refit)) - result.best_mean_score) < 1e-12

    def test_mean_matches_folds(self, synth_dataset):
        result = grid_search(synth_dataset, "gbm", {"n_estimators": [5]}, 5, seed=8)
        cell = result.cells[0]
        assert cell.mean_score == pytest.approx(np.mean(cell.fold_scores), abs=1e-12)
        assert result.best_mean_score == max(c.mean_score for c in result.cells)

    def test_empty_grid_dimension(self, synth_dataset):
        with pytest.raises(DataValidationError):
            grid_search(synth_dataset, "gbm", {"n_estimators": []}, 3, seed=0)
        for grid in ({}, [], {"n_estimators": 5}):
            with pytest.raises(DataValidationError):
                grid_search(synth_dataset, "gbm", grid, 3, seed=0)

    def test_bad_cell_rejected_before_any_fit(self, synth_dataset, monkeypatch):
        def no_fit(*args):
            raise AssertionError("a cell was fit before the grid was checked")
        monkeypatch.setattr(tuning_mod, "fit_variant", no_fit)
        monkeypatch.setattr(tuning_mod, "fit_models", no_fit)
        for grid in ({"n_estimators": [5, "a"]}, {"max_features": [1, 10]},
                     {"learning_rate": [0.1], "n_estimators": [3, True]}):
            with pytest.raises(DataValidationError, match="grid cell"):
                grid_search(synth_dataset, "gbm", grid, 3, seed=0)


class TestLearningCurve:
    def test_shapes(self, synth_dataset):
        fractions = [0.2, 0.4, 0.6, 0.8, 1.0]
        curve = learning_curve(
            synth_dataset, "gbm", {"n_estimators": 5, "max_depth": 2}, fractions, 3, seed=5
        )
        assert len(curve.train_scores) == 5
        assert len(curve.val_scores) == 5
        assert len(curve.n_rows) == 5
        assert curve.n_rows == sorted(curve.n_rows)

    def test_full_fraction_equals_cross_val(self, synth_dataset):
        params = {"n_estimators": 5, "max_depth": 2}
        curve = learning_curve(synth_dataset, "gbm", params, [0.5, 1.0], 3, seed=7)
        scores = cross_val_score(synth_dataset, "gbm", params, 3, seed=7)
        assert curve.val_scores[-1] == float(np.mean(scores))

    def test_tiny_fraction_rejected(self, synth_dataset):
        with pytest.raises(DataValidationError):
            learning_curve(synth_dataset, "gbm", {"n_estimators": 2}, [0.001], 3, seed=0)

    def test_fraction_validation(self, synth_dataset):
        with pytest.raises(DataValidationError):
            learning_curve(synth_dataset, "gbm", {}, [0.5, 0.2], 3, seed=0)
        with pytest.raises(DataValidationError):
            learning_curve(synth_dataset, "gbm", {}, [1.5], 3, seed=0)


def fold_by_fold(data, variant, params, fractions, k, seed):
    """Train and held-out R^2 per (fraction, fold), one fit_variant call at a time."""
    train, val = np.zeros((len(fractions), k)), np.zeros((len(fractions), k))
    for i, val_rows in enumerate(kfold_indices(data.n, k, seed)):
        train_rows = np.setdiff1d(np.arange(data.n), val_rows)
        shuffled = stream(seed, "curve", i).permutation(train_rows)
        for j, fraction in enumerate(fractions):
            subset = np.sort(shuffled[:round_half_up(fraction * train_rows.size)])
            model = fit_variant(variant, data.subset(subset), params, derive_seed(seed, "fold", i))
            train[j, i] = r_squared(data.y[subset], model.predict(data.X[subset]))
            val[j, i] = r_squared(data.y[val_rows], model.predict(data.X[val_rows]))
    return train, val


class TestLockstepFits:
    """Models grown together score exactly as models fit one at a time."""

    @pytest.mark.parametrize("variant, params", [
        ("rf", {"n_estimators": 4, "max_depth": 4, "max_features": 3}),
        ("gbm", {"n_estimators": 6}),
        ("xgb", {"n_estimators": 6, "max_depth": 3, "subsample": 0.7}),
    ])
    def test_scores_equal_a_loop_of_fit_variant(self, synth_dataset, variant, params):
        fractions, k, seed = [0.3, 0.6, 1.0], 4, 13
        train, val = fold_by_fold(synth_dataset, variant, params, fractions, k, seed)
        assert cross_val_score(synth_dataset, variant, params, k, seed) == val[-1].tolist()
        curve = learning_curve(synth_dataset, variant, params, fractions, k, seed)
        assert curve.train_scores == train.mean(axis=1).tolist()
        assert curve.val_scores == val.mean(axis=1).tolist()


class TestDefaults:
    def test_default_params_match_published_best(self):
        assert PUBLISHED["rf"] == {
            "n_estimators": 220, "max_depth": 7, "min_samples_split": 3,
            "max_features": None,
        }
        gbm = PUBLISHED["gbm"]
        assert gbm["n_estimators"] == 19
        assert gbm["learning_rate"] == 0.19
        xgb = PUBLISHED["xgb"]
        assert xgb == {
            "n_estimators": 50, "learning_rate": 0.1, "max_depth": 5,
            "min_samples_split": 2, "max_features": None, "subsample": 0.9,
            "reg_lambda": 1.0, "gamma": 0.0,
        }

    def test_published_json_is_unchanged(self):
        # the run reports and cv_overview.csv hold these bytes
        assert json.dumps(PUBLISHED["gbm"], sort_keys=True) == (
            '{"learning_rate": 0.19, "max_depth": 3, "max_features": null, '
            '"min_samples_split": 2, "n_estimators": 19, "subsample": 1.0}'
        )
        # a flag over the published value leaves PUBLISHED as it is
        assert _collect_params("rf", {"n_estimators": 1})["n_estimators"] == 1
        assert PUBLISHED["rf"]["n_estimators"] == 220

    def test_shipped_grids_are_wellformed(self):
        for variant, grid in DEFAULT_GRIDS.items():
            cells = grid_cells(grid)
            assert cells, variant
            for params in cells:
                variant_config(variant, params, 0).tree_config().validate(9)

    def test_fit_variant_roundtrip(self, small_regression):
        model = fit_variant("rf", small_regression, {"n_estimators": 3, "max_depth": 2}, seed=1)
        assert len(model.trees) == 3
