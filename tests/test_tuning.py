import json
import os
import time

import premex.tuning as tuning_mod

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from premex.data import Dataset, round_half_up
from premex.cli import _collect_params, main
from premex.ensemble import PUBLISHED, variant_config
from premex.errors import DataValidationError, NumericError
from premex.metrics import r_squared
from premex.rng import derive_seed, stream
from premex.tuning import (
    DEFAULT_GRIDS,
    fit_variant,
    grid_cells,
    grid_search,
    kfold_indices,
    learning_curve,
)

from cv import cross_val_score


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

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_folds_are_sorted_consecutive_slices_of_the_permutation(self, data):
        n = data.draw(st.integers(4, 400))
        k = data.draw(st.integers(2, min(12, n // 2)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        permutation = stream(seed, "kfold").permutation(n)
        folds = kfold_indices(n, k, seed)
        assert len(folds) == k
        start = 0
        for i, fold in enumerate(folds):
            size = n // k + (i < n % k)
            assert np.array_equal(fold, np.sort(permutation[start : start + size]))
            start += size

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
        assert result["best_params"] == {"n_estimators": 5, "max_depth": 2}
        assert len(result["cells"]) == 1
        assert result["cells"][0]["rank"] == 1

    def test_zero_stage_cell_loses(self, synth_dataset):
        result = grid_search(synth_dataset, "gbm", {"n_estimators": [0, 50]}, 3, seed=2)
        assert result["best_params"] == {"n_estimators": 50}
        by_params = {cell["params"]["n_estimators"]: cell for cell in result["cells"]}
        assert by_params[50]["mean_score"] > by_params[0]["mean_score"]

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
        best_a = grid_search(synth_dataset, "gbm", base_grid, 3, seed=4)["best_params"]
        best_b = grid_search(synth_dataset, "gbm", with_dud, 3, seed=4)["best_params"]
        assert best_a == best_b

    def test_determinism(self, synth_dataset):
        grid = {"n_estimators": [5, 10], "learning_rate": [0.2, 0.5]}
        first = grid_search(synth_dataset, "gbm", grid, 3, seed=6)
        second = grid_search(synth_dataset, "gbm", grid, 3, seed=6)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_refit_of_best_cell_reproduces_score(self, synth_dataset):
        grid = {"n_estimators": [5, 15], "learning_rate": [0.3]}
        result = grid_search(synth_dataset, "gbm", grid, 4, seed=3)
        refit = cross_val_score(synth_dataset, "gbm", result["best_params"], 4, seed=3)
        assert abs(float(np.mean(refit)) - result["best_mean_score"]) < 1e-12

    def test_mean_matches_folds(self, synth_dataset):
        result = grid_search(synth_dataset, "gbm", {"n_estimators": [5]}, 5, seed=8)
        cell = result["cells"][0]
        assert cell["mean_score"] == pytest.approx(np.mean(cell["fold_scores"]), abs=1e-12)
        assert result["best_mean_score"] == max(c["mean_score"] for c in result["cells"])

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
        n_rows, train_scores, val_scores = learning_curve(
            synth_dataset, "gbm", {"n_estimators": 5, "max_depth": 2}, fractions, 3, seed=5
        )
        assert len(train_scores) == 5
        assert len(val_scores) == 5
        assert len(n_rows) == 5
        assert n_rows.tolist() == sorted(n_rows.tolist())

    def test_full_fraction_equals_cross_val(self, synth_dataset):
        params = {"n_estimators": 5, "max_depth": 2}
        _, _, val_scores = learning_curve(synth_dataset, "gbm", params, [0.5, 1.0], 3, seed=7)
        scores = cross_val_score(synth_dataset, "gbm", params, 3, seed=7)
        assert val_scores[-1] == float(np.mean(scores))

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
        _, train_scores, val_scores = learning_curve(synth_dataset, variant, params, fractions,
                                                     k, seed)
        assert train_scores.tolist() == train.mean(axis=1).tolist()
        assert val_scores.tolist() == val.mean(axis=1).tolist()


def with_workers(monkeypatch, workers):
    """Share every `_fold_fits` call among `workers` processes (fewer for fewer tasks)."""
    monkeypatch.setattr(tuning_mod, "_worker_count", lambda tasks: min(workers, tasks))


def fail_folds(monkeypatch, seed, folds, fail):
    """Call fail(i) where fold i's model is fit, for each i in folds, wherever that fit runs."""
    fold_of = {derive_seed(seed, "fold", i): i for i in folds}
    fit_models = tuning_mod.fit_models

    def failing_fit_models(variant, config, jobs):
        def checked():
            for rows, model_seed in jobs:
                if model_seed in fold_of:
                    fail(fold_of[model_seed])
                yield rows, model_seed
        return fit_models(variant, config, checked())

    monkeypatch.setattr(tuning_mod, "fit_models", failing_fit_models)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


WORKER_CASES = [
    ("rf", {"n_estimators": 4, "max_depth": 4, "max_features": 3},
     {"n_estimators": [3, 2], "max_features": [5, None]}),
    ("gbm", {"n_estimators": 6, "subsample": 0.8},
     {"n_estimators": [6, 2], "learning_rate": [0.3, 0.1], "subsample": [0.7, 1.0]}),
    ("xgb", {"n_estimators": 6, "max_depth": 3, "subsample": 0.7, "max_features": 5},
     {"max_depth": [2, 3], "subsample": [0.75], "max_features": [4, None]}),
]

GRID_VALUES = {
    "rf": {"n_estimators": [3, 1, 2], "max_features": [4, None], "max_depth": [3, 2]},
    "gbm": {"n_estimators": [4, 2], "learning_rate": [0.3, 0.1], "subsample": [0.8, 1.0]},
    "xgb": {"n_estimators": [3, 2], "subsample": [0.7, 1.0], "max_features": [5, None]},
}


class TestWorkers:
    """Fits shared among forked workers give the floats one process gives."""

    @pytest.mark.parametrize("variant, params, grid", WORKER_CASES)
    def test_same_floats_for_one_two_and_three_workers(self, synth_dataset, monkeypatch,
                                                       variant, params, grid):
        fractions, k, seed = [0.4, 0.7, 1.0], 4, 21
        results = []
        for workers in (1, 2, 3):
            with_workers(monkeypatch, workers)
            scores = cross_val_score(synth_dataset, variant, params, k, seed)
            curve = learning_curve(synth_dataset, variant, params, fractions, k, seed)
            search = grid_search(synth_dataset, variant, grid, k, seed)
            assert curve[2][-1] == float(np.mean(scores))
            results.append((scores, [part.tolist() for part in curve], search))
            assert_no_child_left()
        assert results[1] == results[0]
        assert results[2] == results[0]

    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_grid_search_equals_a_loop_of_cross_val_score(self, synth_dataset, data):
        variant = data.draw(st.sampled_from(sorted(GRID_VALUES)))
        keys = data.draw(st.permutations(sorted(GRID_VALUES[variant])))
        grid = {key: data.draw(st.permutations(GRID_VALUES[variant][key])) for key in keys}
        k, seed = 3, data.draw(st.integers(0, 2**32))
        result = grid_search(synth_dataset, variant, grid, k, seed)
        cells = result["cells"]
        assert [cell["params"] for cell in cells] == grid_cells(grid)
        for cell in cells:
            scores = cross_val_score(synth_dataset, variant, cell["params"], k, seed)
            assert cell["fold_scores"] == scores
            assert cell["mean_score"] == float(np.mean(scores))
        order = sorted(range(len(cells)), key=lambda i: (-cells[i]["mean_score"], i))
        assert [cells[i]["rank"] for i in order] == list(range(1, len(order) + 1))

    def test_shares_cut_by_rows_times_trees(self, synth_dataset, monkeypatch, tmp_path):
        # 12 fits of 150 rows: the first 4, of 6 stages each, reach half the cost
        # (24 of 42 stages), where half the count would be 6 fits
        log = tmp_path / "fits.txt"
        fit_models = tuning_mod.fit_models

        def logged_fit_models(variant, config, jobs):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()} {config.n_estimators}\n")
            return fit_models(variant, config, jobs)

        monkeypatch.setattr(tuning_mod, "fit_models", logged_fit_models)
        with_workers(monkeypatch, 2)
        grid = {"n_estimators": [6, 1], "learning_rate": [0.1, 0.2, 0.3]}
        grid_search(synth_dataset, "gbm", grid, 2, seed=3)
        fits = [line.split() for line in log.read_text().splitlines()]  # one per cell
        assert [n for pid, n in fits if int(pid) == os.getpid()] == ["6", "6"]
        assert [n for pid, n in fits if int(pid) != os.getpid()] == ["6", "1", "1", "1"]
        assert_no_child_left()

    @pytest.mark.parametrize("error", [DataValidationError, NumericError, ValueError])
    @pytest.mark.parametrize("failing", [(3, 4), (4,), (1, 3)])
    def test_earliest_error_reaches_the_caller(self, synth_dataset, monkeypatch, error, failing):
        # 5 folds among 3 processes: folds 0-1 here, 2-3 and 4 in the children
        k, seed = 5, 9

        def fail(i):
            raise error(f"fold {i} failed")

        fail_folds(monkeypatch, seed, failing, fail)
        raised = []
        for workers in (1, 3):
            with_workers(monkeypatch, workers)
            with pytest.raises(error) as info:
                cross_val_score(synth_dataset, "gbm", {"n_estimators": 3}, k, seed)
            raised.append(str(info.value))
            assert_no_child_left()
        assert raised == [f"fold {min(failing)} failed"] * 2

    def test_children_killed_when_this_share_fails(self, synth_dataset, monkeypatch):
        parent = os.getpid()

        def fail(i):
            if os.getpid() == parent:
                raise NumericError(f"fold {i} failed")
            time.sleep(60)

        fail_folds(monkeypatch, 4, range(5), fail)
        with_workers(monkeypatch, 3)
        started = time.monotonic()
        with pytest.raises(NumericError, match="fold 0 failed"):
            cross_val_score(synth_dataset, "gbm", {"n_estimators": 3}, 5, 4)
        assert time.monotonic() - started < 30
        assert_no_child_left()

    def test_child_without_a_result(self, synth_dataset, monkeypatch):
        parent = os.getpid()

        def fail(i):
            assert os.getpid() != parent, "fold 4 must be fit in a child"
            os._exit(7)

        fail_folds(monkeypatch, 4, [4], fail)
        with_workers(monkeypatch, 3)
        with pytest.raises(RuntimeError, match="exited without a result"):
            cross_val_score(synth_dataset, "gbm", {"n_estimators": 3}, 5, 4)
        assert_no_child_left()

    def test_unpicklable_error_named_in_a_runtime_error(self, synth_dataset, monkeypatch):
        class TwoPartError(Exception):  # pickles, but cannot be rebuilt from its args
            def __init__(self, a, b):
                super().__init__(f"{a} {b}")

        def fail(i):
            raise TwoPartError("fold", i)

        fail_folds(monkeypatch, 4, [4], fail)
        with_workers(monkeypatch, 3)
        with pytest.raises(RuntimeError, match="TwoPartError: fold 4"):
            cross_val_score(synth_dataset, "gbm", {"n_estimators": 3}, 5, 4)
        assert_no_child_left()

    @pytest.mark.parametrize("error, code", [(DataValidationError, 3), (NumericError, 5)])
    def test_tune_keeps_its_exit_code(self, synth_csv, tmp_path, monkeypatch, error, code):
        runner = CliRunner()
        out = tmp_path / "out"
        assert runner.invoke(main, ["ingest", synth_csv, "--out", str(out)]).exit_code == 0
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"n_estimators": [3]}))

        def fail(i):
            raise error(f"fold {i} failed")

        # 3 folds among 3 processes: fold 2 is fit in the second child
        fail_folds(monkeypatch, 42, [2], fail)
        with_workers(monkeypatch, 3)
        result = runner.invoke(main, ["tune", str(out / "dataset.json"), "--model", "gbm",
                                      "--grid", str(grid), "--folds", "3", "--out", str(out)])
        assert result.exit_code == code, result.output
        assert "error: fold 2 failed" in result.output
        assert not (out / "cv_gbm.json").exists()
        assert_no_child_left()


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
                variant_config(variant, params, 0).validate(9)

    def test_fit_variant_roundtrip(self, small_regression):
        model = fit_variant("rf", small_regression, {"n_estimators": 3, "max_depth": 2}, seed=1)
        assert len(model.trees) == 3
