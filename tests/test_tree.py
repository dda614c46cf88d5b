import numpy as np
import pytest

from premex.errors import DataValidationError
from premex.rng import stream
from premex.tree import (
    RegressionTree,
    TreeConfig,
    fit_tree,
    fit_tree_gradients,
)


def brute_force_best_split(x, y):
    """Exhaustive oracle: try every midpoint, return (gain, threshold)."""
    order = np.argsort(x)
    xs, ys = x[order], y[order]

    def sse(values):
        return float(np.sum((values - values.mean()) ** 2)) if values.size else 0.0

    best = (-np.inf, None)
    for i in range(len(xs) - 1):
        if xs[i] == xs[i + 1]:
            continue
        gain = sse(ys) - sse(ys[: i + 1]) - sse(ys[i + 1 :])
        if gain > best[0]:
            best = (gain, (xs[i] + xs[i + 1]) / 2.0)
    return best


class TestFitTree:
    def test_depth_one_example_matches_exhaustive_search(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([1.0, 1.0, 3.0, 3.0])
        oracle_gain, oracle_threshold = brute_force_best_split(X[:, 0], y)
        assert oracle_threshold == 2.5  # split between 2 and 3 zeroes the SSE

        tree = fit_tree(X, y, TreeConfig(max_depth=1), stream(0, "t"))
        assert tree.root.feature == 0
        assert tree.root.threshold == oracle_threshold
        assert tree.root.left.value == 1.0
        assert tree.root.right.value == 3.0

    def test_constant_targets_single_leaf(self):
        X = np.arange(8.0).reshape(-1, 1)
        y = np.full(8, 4.2)
        tree = fit_tree(X, y, TreeConfig(), stream(0, "t"))
        assert tree.root.is_leaf
        assert tree.root.value == 4.2
        assert tree.root.count == 8

    def test_depth_zero_predicts_mean(self):
        X = np.arange(6.0).reshape(-1, 1)
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        tree = fit_tree(X, y, TreeConfig(max_depth=0), stream(0, "t"))
        assert tree.root.is_leaf
        assert tree.root.value == y.mean()

    def test_unbounded_tree_zero_sse_on_distinct_rows(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        tree = fit_tree(X, y, TreeConfig(min_samples_split=2, min_gain=0.0), stream(0, "t"))
        assert np.max(np.abs(tree.predict_matrix(X) - y)) < 1e-9

    def test_training_sse_never_above_mean_predictor(self):
        rng = np.random.default_rng(9)
        for trial in range(5):
            X = rng.normal(size=(60, 4))
            y = rng.normal(size=60)
            tree = fit_tree(X, y, TreeConfig(max_depth=3), stream(trial, "t"))
            fitted = np.sum((y - tree.predict_matrix(X)) ** 2)
            baseline = np.sum((y - y.mean()) ** 2)
            assert fitted <= baseline + 1e-9

    def test_depth_respected_and_leaves_populated(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(200, 5))
        y = rng.normal(size=200)
        tree = fit_tree(X, y, TreeConfig(max_depth=4), stream(0, "t"))
        assert tree.depth() <= 4

        def check(node):
            if node.is_leaf:
                assert node.count >= 1
            else:
                assert node.left is not None and node.right is not None
                check(node.left)
                check(node.right)

        check(tree.root)

    def test_min_samples_split(self):
        X = np.arange(5.0).reshape(-1, 1)
        y = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        tree = fit_tree(X, y, TreeConfig(min_samples_split=6), stream(0, "t"))
        assert tree.root.is_leaf

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(80, 6))
        y = rng.normal(size=80)
        config = TreeConfig(max_depth=5, max_features=3)
        first = fit_tree(X, y, config, stream(1234, "fit"))
        second = fit_tree(X, y, config, stream(1234, "fit"))
        assert first.to_dict() == second.to_dict()

    def test_feature_subset_size_enforced(self):
        with pytest.raises(ValueError):
            fit_tree(np.ones((4, 2)), np.arange(4.0), TreeConfig(max_features=5), stream(0, "t"))

    def test_empty_input(self):
        with pytest.raises(DataValidationError):
            fit_tree(np.empty((0, 2)), np.empty(0), TreeConfig(), stream(0, "t"))

    def test_dimension_mismatch(self):
        with pytest.raises(DataValidationError):
            fit_tree(np.ones((4, 2)), np.arange(3.0), TreeConfig(), stream(0, "t"))


class TestPredict:
    def test_single_leaf_any_row(self):
        tree = fit_tree(np.ones((3, 2)), np.full(3, 7.5), TreeConfig(), stream(0, "t"))
        assert tree.predict_row([123.0, -5.0]) == 7.5

    def test_traversal_of_known_split(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([1.0, 1.0, 3.0, 3.0])
        tree = fit_tree(X, y, TreeConfig(max_depth=1), stream(0, "t"))
        assert tree.predict_row([1.5]) == 1.0

    def test_boundary_value_goes_left(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([1.0, 1.0, 3.0, 3.0])
        tree = fit_tree(X, y, TreeConfig(max_depth=1), stream(0, "t"))
        assert tree.predict_row([tree.root.threshold]) == 1.0

    def test_piecewise_constant_between_thresholds(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        tree = fit_tree(X, y, TreeConfig(max_depth=3), stream(0, "t"))

        def thresholds(node, feature, acc):
            if not node.is_leaf:
                if node.feature == feature:
                    acc.append(node.threshold)
                thresholds(node.left, feature, acc)
                thresholds(node.right, feature, acc)
            return acc

        cuts = sorted(thresholds(tree.root, 0, []))
        row = X[0].copy()
        base = tree.predict_row(row)
        # nudge feature 0 without crossing any cut
        nearest_above = min((c for c in cuts if c > row[0]), default=row[0] + 1.0)
        row[0] += (nearest_above - row[0]) * 0.5
        assert tree.predict_row(row) == base

    def test_matrix_and_row_predictions_agree(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        tree = fit_tree(X, y, TreeConfig(max_depth=4), stream(0, "t"))
        probe = rng.normal(size=(20, 3))
        batch = tree.predict_matrix(probe)
        rows = np.array([tree.predict_row(r) for r in probe])
        assert np.array_equal(batch, rows)

    def test_dimension_mismatch(self):
        tree = fit_tree(np.ones((3, 2)), np.arange(3.0), TreeConfig(), stream(0, "t"))
        with pytest.raises(DataValidationError):
            tree.predict_row([1.0])


class TestMidpointThresholds:
    def test_every_threshold_is_a_midpoint_of_node_rows(self):
        rng = np.random.default_rng(21)
        X = rng.integers(0, 10, size=(60, 3)).astype(float)
        y = rng.normal(size=60)
        tree = fit_tree(X, y, TreeConfig(max_depth=4), stream(0, "t"))

        def check(node, rows):
            if node.is_leaf:
                return
            values = np.unique(X[rows, node.feature])
            midpoints = (values[1:] + values[:-1]) / 2.0
            assert node.threshold in midpoints
            go_left = X[rows, node.feature] <= node.threshold
            check(node.left, rows[go_left])
            check(node.right, rows[~go_left])

        check(tree.root, np.arange(60))


class TestGradientTrees:
    def test_matches_sse_tree_for_unit_hessians(self):
        # g = -residual, h = 1, lambda 0: structure and leaf values coincide
        rng = np.random.default_rng(6)
        X = rng.normal(size=(70, 4))
        residual = rng.normal(size=70)
        config = TreeConfig(max_depth=3)
        sse_tree = fit_tree(X, residual, config, stream(5, "a"))
        gh_tree = fit_tree_gradients(
            X, -residual, np.ones(70), config, stream(5, "a"), reg_lambda=0.0, gamma=0.0
        )
        assert sse_tree.to_dict() == gh_tree.to_dict()
        assert np.allclose(sse_tree.predict_matrix(X), gh_tree.predict_matrix(X), atol=1e-9)

    def test_lambda_shrinks_leaf_values(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(50, 3))
        grad = rng.normal(size=50)
        hess = np.ones(50)

        def leaf_values(tree):
            acc = []

            def walk(node):
                if node.is_leaf:
                    acc.append(node.value)
                else:
                    walk(node.left)
                    walk(node.right)

            walk(tree.root)
            return np.array(acc)

        loose = fit_tree_gradients(X, grad, hess, TreeConfig(max_depth=0), stream(0, "t"),
                                   reg_lambda=0.0)
        tight = fit_tree_gradients(X, grad, hess, TreeConfig(max_depth=0), stream(0, "t"),
                                   reg_lambda=10.0)
        assert np.all(np.abs(leaf_values(tight)) <= np.abs(leaf_values(loose)) + 1e-12)

    def test_large_gamma_blocks_all_splits(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(50, 3))
        grad = rng.normal(size=50)
        tree = fit_tree_gradients(X, grad, np.ones(50), TreeConfig(max_depth=5),
                                  stream(0, "t"), reg_lambda=0.0, gamma=1e12)
        assert tree.root.is_leaf


class TestSerialization:
    def test_round_trip_preserves_predictions(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        config = TreeConfig(max_depth=4)
        tree = fit_tree(X, y, config, stream(0, "t"))
        clone = RegressionTree.from_dict(tree.to_dict(), 4, config)
        probe = rng.normal(size=(25, 4))
        assert np.array_equal(tree.predict_matrix(probe), clone.predict_matrix(probe))

    def test_dict_shape(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([1.0, 1.0, 3.0, 3.0])
        tree = fit_tree(X, y, TreeConfig(max_depth=1), stream(0, "t"))
        doc = tree.to_dict()
        assert set(doc) == {"feature", "threshold", "left", "right"}
        assert set(doc["left"]) == {"value", "count"}
