from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from premex.data import derive_features, load_csv
from premex.ensemble import BoostConfig, fit_gbm
from premex.errors import DataValidationError, NumericError
from premex.explain import (
    _average_ranks,
    center_ice,
    derivative_ice,
    ice_curves,
    importance,
    make_grid,
    rank_colors,
    shap_exact,
    tree_shap,
)
from premex.rng import stream
from premex.tree import COLUMNS, TreeConfig, fit_tree
from premex.tuning import fit_variant
from reference_shap import shap_permutation, shap_value_function
from reference_tree import from_dicts

from conftest import FIXTURE20


def linear_model(weights, intercept=0.0):
    weights = np.asarray(weights, dtype=np.float64)

    def predict(X):
        return np.atleast_2d(X) @ weights + intercept

    return predict


@pytest.fixture
def background5():
    rng = np.random.default_rng(31)
    return rng.normal(size=(16, 5))


class TestValueFunction:
    def test_full_subset_returns_model_output(self, background5):
        f = linear_model([1.0, 2.0, 3.0, 4.0, 5.0], 7.0)
        row = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        value = shap_value_function(f, row, set(range(5)), background5)
        assert value == pytest.approx(f(row[None, :])[0], abs=1e-9)

    def test_empty_subset_returns_background_mean(self, background5):
        f = linear_model([1.0, -1.0, 0.5, 0.0, 2.0])
        row = np.zeros(5)
        value = shap_value_function(f, row, set(), background5)
        assert value == pytest.approx(float(np.mean(f(background5))), abs=1e-12)

    def test_single_background_row(self):
        f = linear_model([2.0, 0.0])
        background = np.array([[3.0, 1.0]])
        value = shap_value_function(f, np.array([9.0, 9.0]), set(), background)
        assert value == 6.0


class TestBackgroundChecks:
    @pytest.mark.parametrize("background", [
        pytest.param(np.empty((0, 3)), id="no-rows"),
        pytest.param(np.zeros(3), id="1-d"),
        pytest.param(np.zeros((4, 2)), id="wrong-width"),
    ])
    @pytest.mark.parametrize("explain", [
        pytest.param(lambda rows, background: shap_exact(
            lambda X: np.atleast_2d(X).sum(axis=1), rows, background), id="shap_exact"),
        pytest.param(lambda rows, background: tree_shap(
            table_of(TWICE), 1.0, 0.0, rows, background), id="tree_shap"),
    ])
    def test_rejected(self, explain, background):
        with pytest.raises(DataValidationError, match="background"):
            explain(np.zeros((2, 3)), background)


class TestShapExact:
    def test_constant_model_all_zero(self, background5):
        f = lambda X: np.full(np.atleast_2d(X).shape[0], 42.0)
        rows = np.random.default_rng(0).normal(size=(4, 5))
        base_value, phi = shap_exact(f, rows, background5)
        assert np.array_equal(phi, np.zeros((4, 5)))
        assert base_value == 42.0

    def test_additive_closed_form(self, background5):
        weights = [1.5, -2.0, 0.0, 0.7, 3.0]
        f = linear_model(weights, intercept=11.0)
        rows = np.random.default_rng(1).normal(size=(6, 5))
        _, phi = shap_exact(f, rows, background5)
        expected = np.asarray(weights) * (rows - background5.mean(axis=0))
        assert np.max(np.abs(phi - expected)) < 1e-9

    def test_matches_permutation_oracle_on_trees(self):
        rng = np.random.default_rng(7)
        for trial in range(4):
            p = [4, 5, 6, 6][trial]
            X = rng.normal(size=(60, p))
            y = rng.normal(size=60)
            tree = fit_tree(X, y, TreeConfig(max_depth=3), stream(trial, "t"))
            f = tree.predict_matrix
            background = X[:10]
            rows = X[10:13]
            _, phi = shap_exact(f, rows, background)
            for i, row in enumerate(rows):
                oracle = shap_permutation(f, row, background)
                assert np.max(np.abs(phi[i] - oracle)) < 1e-9

    def test_efficiency(self, background5):
        rng = np.random.default_rng(3)
        f = lambda X: np.sin(np.atleast_2d(X)).sum(axis=1) * 3.0
        rows = rng.normal(size=(5, 5))
        base_value, phi = shap_exact(f, rows, background5)
        for i, row in enumerate(rows):
            total = base_value + phi[i].sum()
            assert total == pytest.approx(f(row[None, :])[0], abs=1e-6)

    def test_dummy_feature_exactly_zero(self, background5):
        f = lambda X: np.atleast_2d(X)[:, 0] * 2.0  # ignores features 1..4
        rows = np.random.default_rng(2).normal(size=(3, 5))
        _, phi = shap_exact(f, rows, background5)
        assert np.array_equal(phi[:, 1:], np.zeros((3, 4)))

    def test_symmetric_features_get_equal_phi(self):
        f = lambda X: np.atleast_2d(X)[:, 0] + np.atleast_2d(X)[:, 1]
        # background symmetric under swapping the two features
        background = np.array([
            [1.0, 1.0, 0.0],
            [2.0, 3.0, 1.0],
            [3.0, 2.0, -1.0],
        ])
        row = np.array([5.0, 5.0, 9.0])
        _, phi = shap_exact(f, row[None, :], background)
        assert phi[0, 0] == pytest.approx(phi[0, 1], abs=1e-9)

    def test_feature_count_guard(self):
        f = lambda X: np.atleast_2d(X).sum(axis=1)
        wide = np.zeros((1, 21))
        with pytest.raises(DataValidationError):
            shap_exact(f, wide, wide)


class TestGlobalImportance:
    def test_zero_phi(self, background5):
        f = lambda X: np.zeros(np.atleast_2d(X).shape[0])
        _, phi = shap_exact(f, np.zeros((2, 5)), background5)
        totals, order = importance(phi)
        assert np.array_equal(totals, np.zeros(5))
        assert order == [0, 1, 2, 3, 4]  # ties break by index

    def test_absolute_sum(self):
        _, phi = shap_exact(
            linear_model([1.0, 0.0]),
            np.array([[0.0, 0.0], [3.0, 0.0]]),
            np.array([[1.0, 0.0], [1.0, 0.0]]),
        )
        totals, order = importance(phi)
        # phi column 0 is [-1, 2]; |.| sums to 3
        assert totals[0] == pytest.approx(3.0, abs=1e-9)
        assert order[0] == 0


class TestBeeswarm:
    def test_single_point_color_convention(self):
        assert rank_colors(np.array([[4.0, -1.0]])).tolist() == [[0.5, 0.5]]

    def test_order_matches_importance(self, background5):
        f = linear_model([0.1, 5.0, 0.0, 1.0, -2.0])
        rows = np.random.default_rng(4).normal(size=(8, 5))
        rows[:3, 1] = rows[3, 1]  # a tie
        _, phi = shap_exact(f, rows, background5)
        _, order = importance(phi)
        colors = rank_colors(rows[:, order])
        assert colors.shape == (8, 5)
        for k, j in enumerate(order):
            expected = (_average_ranks(rows[:, j]) - 1.0) / 7.0
            assert colors[:, k].tolist() == expected.tolist()

    def test_binary_column_two_color_levels(self, background5):
        f = linear_model([1.0, 1.0, 1.0, 1.0, 1.0])
        rows = np.random.default_rng(5).normal(size=(10, 5))
        rows[:, 2] = np.tile([0.0, 1.0], 5)
        _, phi = shap_exact(f, rows, background5)
        _, order = importance(phi)
        colors = rank_colors(rows[:, order])[:, order.index(2)]
        assert len(np.unique(colors)) == 2


class TestAverageRanks:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(-3, 3).map(float), max_size=30),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=30),
        st.lists(st.sampled_from([-0.0, 0.0, 1.0]), max_size=30),
    ))
    def test_rank_is_the_mean_sorted_position_of_equal_values(self, values):
        ranks = _average_ranks(np.array(values, dtype=np.float64))
        assert ranks.dtype == np.float64 and ranks.shape == (len(values),)
        ordered = sorted(values)
        for value, rank in zip(values, ranks.tolist()):
            positions = [i + 1 for i, v in enumerate(ordered) if v == value]
            assert rank == sum(positions) / len(positions)


class TestIceCurves:
    def test_model_ignoring_feature_gives_flat_curves(self):
        f = linear_model([1.0, 0.0])
        rows = np.random.default_rng(6).normal(size=(7, 2))
        _, curves = ice_curves(f, rows, [1], n_points=15)[0]
        assert np.max(np.ptp(curves, axis=1)) == 0.0
        assert np.max(np.ptp(curves.mean(axis=0))) == 0.0

    def test_additive_model_curves_are_vertical_shifts(self):
        f = lambda X: np.sin(np.atleast_2d(X)[:, 0]) + np.atleast_2d(X)[:, 1] * 2.0
        rows = np.random.default_rng(8).normal(size=(6, 2))
        _, curves = ice_curves(f, rows, [0], n_points=20)[0]
        shifted = curves - curves[:, :1]
        for i in range(1, 6):
            assert np.max(np.abs(shifted[i] - shifted[0])) < 1e-9

    def test_grid_uses_unique_values_for_low_cardinality(self):
        rows = np.zeros((30, 2))
        rows[:, 0] = np.tile([0.0, 1.0, 2.0], 10)
        grid = make_grid(rows[:, 0])
        assert np.array_equal(grid, [0.0, 1.0, 2.0])

    def test_grid_equispaced_for_continuous(self):
        values = np.linspace(0, 40, 200) ** 1.5
        grid = make_grid(values, n_points=30)
        assert grid.size == 30
        assert grid[0] == values.min()
        assert grid[-1] == values.max()

    def test_one_prediction_call_per_feature(self):
        calls = []

        def f(X):
            calls.append(X.shape[0])
            return np.atleast_2d(X) @ np.array([1.0, 2.0])

        rows = np.random.default_rng(18).normal(size=(12, 2))  # over 10 distinct values
        grid, curves = ice_curves(f, rows, [0], n_points=7)[0]
        assert np.array_equal(grid, np.linspace(rows[:, 0].min(), rows[:, 0].max(), 7))
        assert calls == [12 * 7]
        swept = np.column_stack([np.full(12, grid[3]), rows[:, 1]])
        assert np.array_equal(curves[:, 3], f(swept))

    def test_one_prediction_call_for_every_feature(self):
        calls = []

        def f(X):
            calls.append(X.shape[0])
            return np.atleast_2d(X) @ np.array([1.0, 2.0, -3.0])

        # grids of 7 equispaced points, one value and 4 distinct values
        rows = np.random.default_rng(19).normal(size=(12, 3))
        rows[:, 0] = 0.5
        rows[:, 1] = np.tile([0.0, 1.0, 2.0, 4.0], 3)
        grids = [np.linspace(rows[:, 2].min(), rows[:, 2].max(), 7), np.array([0.5]),
                 np.array([0.0, 1.0, 2.0, 4.0])]
        sweeps = ice_curves(f, rows, [2, 0, 1, 2], n_points=7)
        assert calls == [12 * (7 + 1 + 4 + 7)]
        for j, grid, (swept_grid, curves) in zip([2, 0, 1, 2], grids + grids[:1], sweeps):
            assert np.array_equal(swept_grid, grid)
            assert curves.shape == (12, grid.size) and curves.flags.c_contiguous
            for g, value in enumerate(grid):
                swept = rows.copy()
                swept[:, j] = value
                assert np.array_equal(curves[:, g], f(swept))

    @pytest.mark.parametrize("variant", ["rf", "gbm", "xgb"])
    def test_batched_curves_equal_each_feature_alone(self, synth_dataset, variant):
        model = fit_variant(variant, synth_dataset.subset(np.arange(200)), {"n_estimators": 12},
                            5)
        rows = synth_dataset.X[200:220]
        features = list(range(synth_dataset.m))
        batched = ice_curves(model.predict, rows, features, n_points=9)
        for j, (grid, curves) in zip(features, batched):
            [(alone_grid, alone)] = ice_curves(model.predict, rows, [j], n_points=9)
            assert np.array_equal(grid, alone_grid)
            assert np.array_equal(curves.view(np.int64), alone.view(np.int64))

    def test_zero_rows_rejected(self):
        # no rows is the one input whose make_grid is empty
        f = linear_model([1.0, 1.0])
        with pytest.raises(DataValidationError, match="non-empty evaluation grid"):
            ice_curves(f, np.zeros((0, 2)), [0, 1])

    def test_invalid_feature(self):
        f = linear_model([1.0, 1.0])
        with pytest.raises(DataValidationError):
            ice_curves(f, np.zeros((3, 2)), [5])


class TestCenteredIce:
    def test_zero_at_anchor(self):
        f = lambda X: np.exp(np.atleast_2d(X)[:, 0])
        rows = np.random.default_rng(9).normal(size=(5, 2))
        _, raw = ice_curves(f, rows, [0], n_points=10)[0]
        centered = center_ice(raw)
        assert np.array_equal(centered[:, 0], np.zeros(5))
        assert np.array_equal(centered, raw - raw[:, :1])

    def test_constant_curve_centers_to_zero(self):
        f = linear_model([0.0, 1.0])
        rows = np.random.default_rng(10).normal(size=(4, 2))
        centered = center_ice(ice_curves(f, rows, [0], n_points=8)[0][1])
        assert np.array_equal(centered, np.zeros_like(centered))

    def test_additive_model_centered_curves_coincide(self):
        f = lambda X: np.cos(np.atleast_2d(X)[:, 0]) * 3.0 + np.atleast_2d(X)[:, 1]
        rows = np.random.default_rng(11).normal(size=(8, 2))
        centered = center_ice(ice_curves(f, rows, [0], n_points=25)[0][1])
        spread = np.ptp(centered, axis=0)
        assert np.max(spread) < 1e-9

    def test_centering_commutes_with_averaging(self):
        f = lambda X: np.atleast_2d(X)[:, 0] * np.atleast_2d(X)[:, 1]
        rows = np.random.default_rng(12).normal(size=(6, 2))
        _, raw = ice_curves(f, rows, [0], n_points=10)[0]
        pdp = raw.mean(axis=0)
        assert np.max(np.abs(center_ice(raw).mean(axis=0) - (pdp - pdp[0]))) < 1e-9


class TestDerivativeIce:
    def test_linear_model_slope_everywhere(self):
        f = linear_model([4.0, 1.0])
        rows = np.random.default_rng(13).normal(size=(5, 2))
        derivative = derivative_ice(*ice_curves(f, rows, [0], n_points=12)[0])
        assert np.max(np.abs(derivative - 4.0)) < 1e-9

    def test_ignored_feature_zero_slope(self):
        f = linear_model([1.0, 0.0])
        rows = np.random.default_rng(14).normal(size=(5, 2))
        derivative = derivative_ice(*ice_curves(f, rows, [1], n_points=12)[0])
        assert np.max(np.abs(derivative)) < 1e-12

    def test_no_interaction_single_line(self):
        f = lambda X: np.atleast_2d(X)[:, 0] ** 2 + np.atleast_2d(X)[:, 1]
        rows = np.random.default_rng(15).normal(size=(7, 2))
        derivative = derivative_ice(*ice_curves(f, rows, [0], n_points=20)[0])
        assert np.max(np.ptp(derivative, axis=0)) < 1e-9

    def test_interaction_heterogeneous_lines(self):
        f = lambda X: np.atleast_2d(X)[:, 0] * np.atleast_2d(X)[:, 1]
        rows = np.random.default_rng(16).normal(size=(7, 2))
        derivative = derivative_ice(*ice_curves(f, rows, [0], n_points=20)[0])
        assert np.max(np.ptp(derivative, axis=0)) > 0.0

    def test_derivative_of_centered_equals_derivative_of_raw(self):
        f = lambda X: np.atleast_2d(X)[:, 0] * np.atleast_2d(X)[:, 1] ** 2
        rows = np.random.default_rng(17).normal(size=(6, 2))
        grid, raw = ice_curves(f, rows, [0], n_points=15)[0]
        from_raw = derivative_ice(grid, raw)
        from_centered = derivative_ice(grid, center_ice(raw))
        assert np.max(np.abs(from_raw - from_centered)) < 1e-9

    def test_two_point_grid_is_one_forward_difference(self):
        # a binary flag's grid: both ends get the same one-sided slope
        f = linear_model([3.0, 1.0])
        rows = np.random.default_rng(18).normal(size=(4, 2))
        rows[:, 0] = [0.0, 2.0, 2.0, 0.0]
        grid, raw = ice_curves(f, rows, [0])[0]
        assert grid.tolist() == [0.0, 2.0]
        derivative = derivative_ice(grid, raw)
        assert derivative.shape == (4, 2)
        assert np.max(np.abs(derivative - 3.0)) < 1e-12

    def test_small_grid_rejected(self):
        f = linear_model([1.0, 0.0])
        grid, raw = ice_curves(f, np.zeros((2, 2)), [0])[0]
        assert grid.tolist() == [0.0]
        with pytest.raises(NumericError):
            derivative_ice(grid, raw)


class TestOnFittedEnsemble:
    def test_shap_and_ice_run_on_boosted_model(self, synth_dataset):
        config = BoostConfig(n_estimators=8, max_depth=3, seed=6)
        model = fit_gbm(synth_dataset, config)
        rows = synth_dataset.X[:5]
        base_value, phi = shap_exact(model.predict, rows, synth_dataset.X[:40])
        for i in range(5):
            total = base_value + phi[i].sum()
            assert total == pytest.approx(model.predict(rows[i : i + 1])[0], abs=1e-6)
        age = synth_dataset.feature_index("Age")
        _, curves = ice_curves(model.predict, rows, [age])[0]
        assert curves.shape[0] == 5


def tree_terms(model):
    """(table, scale, offset) of a fitted ensemble, as the explain command passes them."""
    if model.variant == "rf":
        return model.trees, 1.0 / len(model.trees), 0.0
    return model.trees, model.config.learning_rate, model.base_score


def table_of(*documents):
    """The table of 3-feature trees given as dicts of columns."""
    return from_dicts(list(documents), 3)


def sum_of_trees(table, scale, offset):
    trees = list(table)

    def predict(X):
        X = np.atleast_2d(X)
        return offset + scale * sum((t.predict_matrix(X) for t in trees), np.zeros(X.shape[0]))

    return predict


def assert_matches_oracle(predict_fn, terms, rows, background_rows):
    """tree_shap equals shap_exact within 1e-9 relative.

    φ is compared relative to the largest |φ| of the oracle (at least 1e-9
    absolute), the base value relative to itself.
    """
    expected_base, expected_phi = shap_exact(predict_fn, rows, background_rows)
    base_value, phi = tree_shap(*terms, rows, background_rows)
    tolerance = 1e-9 * max(np.abs(expected_phi).max(), 1.0)
    assert np.abs(phi - expected_phi).max() <= tolerance
    assert abs(base_value - expected_base) <= 1e-9 * max(abs(expected_base), 1.0)
    return phi


def tree_columns(feature, threshold, value):
    """A tree's node table as a dict of columns."""
    return dict(zip(COLUMNS, (feature, threshold, value)))


# feature 0 splits twice on the path to leaves 3 and 4 (at 2 then 1) and to
# leaves 7 and 8 (at 2 then 5); feature 2 is never used
TWICE = tree_columns(  # nodes 0, 1, 2 and 6 split into 1-2, 3-4, 5-6 and 7-8
    feature=[0, 0, 1, -1, -1, -1, 0, -1, -1],
    threshold=[2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0],
    value=[0.0, 0.0, 0.0, 10.0, -4.0, 7.0, 0.0, 1.0, 20.0],
)


# a tree no data grows, but a model file may hold: feature 0's second split
# on each path is looser than its first, so leaves 4 and 5 are unreachable
LOOSE = tree_columns(  # nodes 0, 1 and 2 split into 1-2, 3-4 and 5-6
    feature=[0, 0, 0, -1, -1, -1, -1],
    threshold=[3.0, 5.0, 1.0, 0.0, 0.0, 0.0, 0.0],
    value=[0.0, 0.0, 0.0, 4.0, 9.0, -2.0, 6.0],
)


def grid_rows(f0_values, f1_values):
    return np.array([[a, b, 0.5] for a in f0_values for b in f1_values])


class TestTreeShap:
    @pytest.mark.parametrize("variant,params", [
        ("rf", {"n_estimators": 10, "max_depth": 5}),
        ("gbm", {"n_estimators": 8}),
        ("xgb", {"n_estimators": 8, "max_depth": 4}),
    ])
    def test_fitted_on_synth(self, synth_dataset, variant, params):
        model = fit_variant(variant, synth_dataset.subset(np.arange(200)), params, 11)
        X = synth_dataset.X
        assert_matches_oracle(model.predict, tree_terms(model), X[200:206], X[:30])

    @pytest.mark.parametrize("variant", ["rf", "gbm", "xgb"])
    def test_fitted_on_fixture20(self, variant):
        data = derive_features(load_csv(FIXTURE20))
        model = fit_variant(variant, data, {"n_estimators": 6}, 5)
        assert_matches_oracle(model.predict, tree_terms(model), data.X[:5], data.X[5:])

    def test_feature_split_twice_on_a_path(self):
        rows = grid_rows([0.5, 1.5, 2.5, 5.5], [-0.5, 0.5])
        background = grid_rows([0.5, 1.5, 3.5, 6.5], [-0.5, 0.5])
        terms = (table_of(TWICE, LOOSE), 1.0, 0.0)
        phi = assert_matches_oracle(sum_of_trees(*terms), terms, rows, background)
        assert np.array_equal(phi[:, 2], np.zeros(len(rows)))

    def test_rows_on_thresholds(self):
        # every value of feature 0 and 1 sits on a threshold; such a row goes left
        rows = grid_rows([1.0, 2.0, 5.0], [0.0])
        background = grid_rows([1.0, 2.0, 5.0], [0.0, 1.0])
        terms = (table_of(TWICE, TWICE), 0.5, 3.0)
        assert_matches_oracle(sum_of_trees(*terms), terms, rows, background)

    def test_single_leaf_trees(self):
        leaf = tree_columns([-1], [0.0], [6.0])
        rows, background = grid_rows([0.5, 5.5], [1.0]), grid_rows([1.0, 2.5], [-1.0])
        terms = (table_of(leaf, TWICE, leaf), 0.25, 0.0)
        assert_matches_oracle(sum_of_trees(*terms), terms, rows, background)
        base_value, phi = tree_shap(table_of(leaf, leaf), 0.5, 1.0, rows, background)
        assert np.array_equal(phi, np.zeros((2, 3)))
        assert base_value == 7.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, bad):
        rows, background = grid_rows([0.5, 5.5], [1.0]), grid_rows([1.0, 2.5], [-1.0])
        broken = rows.copy()
        broken[1, 0] = bad
        with pytest.raises(DataValidationError, match="background rows must be finite"):
            tree_shap(table_of(TWICE), 1.0, 0.0, broken, background)
        broken = background.copy()
        broken[0, 2] = bad  # a feature no split reads
        with pytest.raises(DataValidationError, match="background rows must be finite"):
            tree_shap(table_of(TWICE), 1.0, 0.0, rows, broken)

    def test_zero_stage_boosted_model(self, synth_dataset):
        model = fit_gbm(synth_dataset, BoostConfig(n_estimators=0, seed=1))
        rows, background = synth_dataset.X[:3], synth_dataset.X[3:20]
        base_value, phi = tree_shap(*tree_terms(model), rows, background)
        assert np.array_equal(phi, np.zeros((3, synth_dataset.m)))
        assert base_value == model.base_score
        assert_matches_oracle(model.predict, tree_terms(model), rows, background)

    def test_one_row_background(self, synth_dataset):
        model = fit_variant("rf", synth_dataset, {"n_estimators": 5, "max_depth": 6}, 2)
        X = synth_dataset.X
        assert_matches_oracle(model.predict, tree_terms(model), X[10:14], X[:1])

    def test_width_mismatch(self, synth_dataset):
        model = fit_variant("gbm", synth_dataset, {"n_estimators": 2}, 2)
        X = synth_dataset.X
        with pytest.raises(DataValidationError):
            tree_shap(*tree_terms(model), X[:2, :4], X[:5, :4])
        with pytest.raises(DataValidationError):
            tree_shap(*tree_terms(model), X[:2], X[:5, :4])

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_trees_on_tied_integer_data(self, data):
        p = data.draw(st.integers(1, 4))

        def grow():
            """A tree's columns, numbered in growth order."""
            columns = {name: [] for name in COLUMNS}
            open_nodes = deque([0])  # the depths of the nodes not yet numbered
            while open_nodes:
                depth = open_nodes.popleft()
                node = len(columns["feature"])
                for name, initial in zip(COLUMNS, (-1, 0.0, 0.0)):
                    columns[name].append(initial)
                if depth < 4 and data.draw(st.booleans()):
                    columns["feature"][node] = data.draw(st.integers(0, p - 1))
                    columns["threshold"][node] = float(data.draw(st.integers(0, 3)))
                    open_nodes.extend([depth + 1, depth + 1])
                else:
                    columns["value"][node] = float(data.draw(st.integers(-9, 9)))
            return columns

        documents = [grow() for _ in range(data.draw(st.integers(1, 3)))]
        values = st.integers(0, 4).map(float)
        rows = np.array(data.draw(st.lists(st.lists(values, min_size=p, max_size=p),
                                           min_size=1, max_size=4)))
        background = np.array(data.draw(st.lists(st.lists(values, min_size=p, max_size=p),
                                                 min_size=1, max_size=6)))
        terms = (from_dicts(documents, p), data.draw(st.sampled_from([1.0, 0.5, 0.1])),
                 2.0)
        assert_matches_oracle(sum_of_trees(*terms), terms, rows, background)
