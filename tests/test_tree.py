from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import premex.tree as tree_mod
import reference_tree
from reference_predict import children, leaf_boxes
from reference_tree import five_columns, from_dicts, old_columns, seven_columns, to_dicts
from premex.errors import DataValidationError, NumericError
from premex.rng import stream
from premex.tree import (
    NodeTable,
    Presorted,
    TreeConfig,
    fit_tree,
    fit_tree_gradients,
    fit_trees,
    fit_trees_gradients,
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
        assert tree.feature[0] == 0
        assert tree.threshold[0] == oracle_threshold
        # the root's children are nodes 1 and 2
        assert tree.value[1] == 1.0
        assert tree.value[2] == 3.0

    def test_constant_targets_single_leaf(self):
        X = np.arange(8.0).reshape(-1, 1)
        y = np.full(8, 4.2)
        tree = fit_tree(X, y, TreeConfig(), stream(0, "t"))
        assert tree.feature.size == 1 and tree.feature[0] == -1
        assert tree.value[0] == 4.2

    def test_depth_zero_predicts_mean(self):
        X = np.arange(6.0).reshape(-1, 1)
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        tree = fit_tree(X, y, TreeConfig(max_depth=0), stream(0, "t"))
        assert tree.feature.size == 1 and tree.feature[0] == -1
        assert tree.value[0] == y.mean()

    def test_unbounded_tree_zero_sse_on_distinct_rows(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        tree = fit_tree(X, y, TreeConfig(min_samples_split=2), stream(0, "t"))
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
        assert tree.depths()[0] <= 4

    def test_min_samples_split(self):
        X = np.arange(5.0).reshape(-1, 1)
        y = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        tree = fit_tree(X, y, TreeConfig(min_samples_split=6), stream(0, "t"))
        assert tree.feature.size == 1

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(80, 6))
        y = rng.normal(size=80)
        config = TreeConfig(max_depth=5, max_features=3)
        first = fit_tree(X, y, config, stream(1234, "fit"))
        second = fit_tree(X, y, config, stream(1234, "fit"))
        assert to_dicts(first) == to_dicts(second)

    def test_feature_subset_size_enforced(self):
        with pytest.raises(DataValidationError):
            fit_tree(np.ones((4, 2)), np.arange(4.0), TreeConfig(max_features=5), stream(0, "t"))

    def test_empty_input(self):
        with pytest.raises(DataValidationError):
            fit_tree(np.empty((0, 2)), np.empty(0), TreeConfig(), stream(0, "t"))

    def test_no_feature_columns(self):
        with pytest.raises(DataValidationError):
            fit_tree(np.empty((4, 0)), np.arange(4.0), TreeConfig(), stream(0, "t"))

    def test_dimension_mismatch(self):
        with pytest.raises(DataValidationError):
            fit_tree(np.ones((4, 2)), np.arange(3.0), TreeConfig(), stream(0, "t"))


def predict_one(tree, row):
    """The tree's prediction for one row, as a one-row predict_matrix call."""
    return tree.predict_matrix(np.asarray(row, dtype=np.float64)[None, :])[0]


class TestPredict:
    def test_single_leaf_any_row(self):
        tree = fit_tree(np.ones((3, 2)), np.full(3, 7.5), TreeConfig(), stream(0, "t"))
        assert predict_one(tree, [123.0, -5.0]) == 7.5

    def test_traversal_of_known_split(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([1.0, 1.0, 3.0, 3.0])
        tree = fit_tree(X, y, TreeConfig(max_depth=1), stream(0, "t"))
        assert predict_one(tree, [1.5]) == 1.0

    def test_boundary_value_goes_left(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([1.0, 1.0, 3.0, 3.0])
        tree = fit_tree(X, y, TreeConfig(max_depth=1), stream(0, "t"))
        assert predict_one(tree, [tree.threshold[0]]) == 1.0

    def test_piecewise_constant_between_thresholds(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        tree = fit_tree(X, y, TreeConfig(max_depth=3), stream(0, "t"))
        cuts = sorted(tree.threshold[tree.feature == 0])
        row = X[0].copy()
        base = predict_one(tree, row)
        # nudge feature 0 without crossing any cut
        nearest_above = min((c for c in cuts if c > row[0]), default=row[0] + 1.0)
        row[0] += (nearest_above - row[0]) * 0.5
        assert predict_one(tree, row) == base

    def test_matrix_and_row_predictions_agree(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        tree = fit_tree(X, y, TreeConfig(max_depth=4), stream(0, "t"))
        probe = rng.normal(size=(20, 3))
        batch = tree.predict_matrix(probe)
        rows = np.array([predict_one(tree, r) for r in probe])
        assert np.array_equal(batch, rows)

    def test_dimension_mismatch(self):
        tree = fit_tree(np.ones((3, 2)), np.arange(3.0), TreeConfig(), stream(0, "t"))
        with pytest.raises(DataValidationError):
            predict_one(tree, [1.0])


class TestMidpointThresholds:
    def test_every_threshold_is_a_midpoint_of_node_rows(self):
        rng = np.random.default_rng(21)
        X = rng.integers(0, 10, size=(60, 3)).astype(float)
        y = rng.normal(size=60)
        tree = fit_tree(X, y, TreeConfig(max_depth=4), stream(0, "t"))

        node_rows = {0: np.arange(60)}
        left, right = children(tree.feature)
        for node in range(tree.feature.size):  # parents come before children
            rows, feature = node_rows.pop(node), tree.feature[node]
            if feature < 0:
                continue
            values = np.unique(X[rows, feature])
            midpoints = (values[1:] + values[:-1]) / 2.0
            assert tree.threshold[node] in midpoints
            go_left = X[rows, feature] <= tree.threshold[node]
            node_rows[left[node]] = rows[go_left]
            node_rows[right[node]] = rows[~go_left]
        assert not node_rows

    @pytest.mark.parametrize("low, high", [
        pytest.param(np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0),
                     id="midpoint-rounds-up"),
        pytest.param(1e308, 1.5e308, id="midpoint-overflows"),
    ])
    def test_lower_value_splits_where_the_midpoint_would_not(self, low, high):
        # at the midpoint every row went left: an empty right child, then
        # a division by zero, or with no depth bound a split without end
        X, y, config = np.array([[low], [high]]), np.array([0.0, 1.0]), TreeConfig(max_depth=2)
        sse = fit_tree(X, y, config, stream(0, "t"))
        gradient = fit_tree_gradients(X, y, config, stream(0, "t"), 0.0, 0.0)
        for tree, leaves in ((sse, y), (gradient, -y)):
            assert tree.threshold[0] == low
            assert np.array_equal(tree.predict_matrix(X), leaves)


class TestGradientTrees:
    def test_matches_sse_tree_for_unit_hessians(self):
        # g = -residual, lambda 0: structure and leaf values coincide
        rng = np.random.default_rng(6)
        X = rng.normal(size=(70, 4))
        residual = rng.normal(size=70)
        config = TreeConfig(max_depth=3)
        sse_tree = fit_tree(X, residual, config, stream(5, "a"))
        gh_tree = fit_tree_gradients(X, -residual, config, stream(5, "a"), reg_lambda=0.0,
                                     gamma=0.0)
        assert to_dicts(sse_tree) == to_dicts(gh_tree)
        assert np.allclose(sse_tree.predict_matrix(X), gh_tree.predict_matrix(X), atol=1e-9)

    def test_lambda_shrinks_leaf_values(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(50, 3))
        grad = rng.normal(size=50)

        def leaf_values(tree):
            return tree.value[tree.feature < 0]

        loose = fit_tree_gradients(X, grad, TreeConfig(max_depth=0), stream(0, "t"),
                                   reg_lambda=0.0)
        tight = fit_tree_gradients(X, grad, TreeConfig(max_depth=0), stream(0, "t"),
                                   reg_lambda=10.0)
        assert np.all(np.abs(leaf_values(tight)) <= np.abs(leaf_values(loose)) + 1e-12)

    def test_large_gamma_blocks_all_splits(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(50, 3))
        grad = rng.normal(size=50)
        tree = fit_tree_gradients(X, grad, TreeConfig(max_depth=5), stream(0, "t"),
                                  reg_lambda=0.0, gamma=1e12)
        assert tree.feature.size == 1

    @pytest.mark.parametrize("penalty, value", [
        ("reg_lambda", -1.0), ("reg_lambda", float("nan")), ("reg_lambda", float("inf")),
        ("gamma", -5.0), ("gamma", float("inf")),
    ])
    def test_bad_penalty_rejected(self, penalty, value):
        # BoostConfig's rule: a finite number >= 0, checked before any job is read
        X, grad = np.arange(3.0)[:, None], np.array([1.0, 2.0, 3.0])
        with pytest.raises(DataValidationError, match=penalty):
            fit_tree_gradients(X, grad, TreeConfig(), stream(0, "t"), **{penalty: value})
        with pytest.raises(DataValidationError, match=penalty):
            fit_trees_gradients([], TreeConfig(), **{penalty: value})


class TestLevelBlocks:
    def test_small_levels_scored_in_one_block(self):
        # 300 rows and 3 features: every padded level is under BLOCK_CELLS
        # cells, and some level has a node over twice its mean size
        rng = np.random.default_rng(0)
        X = rng.integers(0, 50, (300, 3)).astype(float)
        y = X[:, 0] ** 2 + rng.normal(0.0, 1.0, 300)
        score = tree_mod._SortedColumns._score
        with mock.patch.object(tree_mod._SortedColumns, "_score", autospec=True,
                               side_effect=score) as calls:
            tree = fit_tree(X, y, TreeConfig(max_depth=5), stream(0, "t"))
        assert int(tree.depths().max()) == 5
        assert calls.call_count == 5  # one per level that splits


INF, NAN = float("inf"), float("nan")


class TestNonFiniteInputs:
    """NaN or inf in any fit input is rejected before growth.

    Every fit here has a depth bound: without the check, an unbounded fit
    on an inf feature value splits the same node forever.
    """

    @pytest.mark.parametrize("X, y", [
        pytest.param([[-INF], [0.0], [INF]], [1.0, 2.0, 3.0], id="inf-feature"),
        pytest.param([[0.0], [NAN], [2.0]], [1.0, 2.0, 3.0], id="nan-feature"),
        pytest.param([[0.0], [1.0], [2.0]], [1.0, NAN, 3.0], id="nan-target"),
        pytest.param([[0.0], [1.0], [2.0]], [1.0, -INF, 3.0], id="inf-target"),
    ])
    def test_fit_tree(self, X, y):
        with pytest.raises(DataValidationError, match="finite"):
            fit_tree(X, y, TreeConfig(max_depth=3), stream(0, "t"))

    @pytest.mark.parametrize("X, grad", [
        pytest.param([[-INF], [0.0], [INF]], [1.0, 2.0, 3.0], id="inf-feature"),
        pytest.param([[0.0], [1.0], [2.0]], [1.0, NAN, 3.0], id="nan-gradient"),
    ])
    def test_fit_tree_gradients(self, X, grad):
        with pytest.raises(DataValidationError, match="finite"):
            fit_tree_gradients(X, grad, TreeConfig(max_depth=3), stream(0, "t"))


def known_split_tree():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([1.0, 1.0, 3.0, 3.0])
    return fit_tree(X, y, TreeConfig(max_depth=1), stream(0, "t"))


class TestTable:
    def test_depth_one_tree(self):
        tree = known_split_tree()
        assert tree.depths().tolist() == [1]
        assert tree.feature.size == 3
        assert to_dicts(tree) == [{
            "feature": [0, -1, -1],
            "threshold": [2.5, 0.0, 0.0],
            "value": [0.0, 1.0, 3.0],
        }]

    @pytest.mark.parametrize("batch", [False, True], ids=["one-tree", "batch"])
    def test_nodes_numbered_in_growth_order(self, batch):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(120, 4))
        config = TreeConfig(max_depth=5)
        if batch:
            # one level loop grows the trees together; each keeps its own order
            matrix = Presorted(X)
            rows = [np.sort(rng.choice(120, size=size, replace=False)) for size in (90, 4, 60)]
            table = fit_trees([(matrix, r, rng.normal(size=r.size), None, stream(j, "t"))
                               for j, r in enumerate(rows)], config)
        else:
            table = fit_tree(X, rng.normal(size=120), config, stream(0, "t"))
        for tree in table:
            # with the k-th split node's children nodes 2k + 1 and 2k + 2,
            # node ids follow the levels in turn
            left, right = children(tree.feature)
            level = np.zeros(tree.feature.size, dtype=np.int64)
            for node in np.flatnonzero(tree.feature >= 0):
                level[left[node]] = level[right[node]] = level[node] + 1
            assert (np.diff(level) >= 0).all() and level[-1] == tree.depths()[0]


class TestSerialization:
    def test_round_trip_preserves_predictions(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        tree = fit_tree(X, y, TreeConfig(max_depth=4), stream(0, "t"))
        clone = from_dicts(to_dicts(tree), 4)[0]
        assert to_dicts(clone) == to_dicts(tree)
        assert clone.depths().tolist() == tree.depths().tolist()
        probe = rng.normal(size=(25, 4))
        assert np.array_equal(tree.predict_matrix(probe), clone.predict_matrix(probe))

    def test_dict_shape(self):
        # a model file's `trees`: the tree starts and `feature` whole, one
        # threshold per split node and one value per leaf
        doc = known_split_tree().to_document()
        assert set(doc) == {"first", "feature", "threshold", "value"}
        assert doc == {"first": [0], "feature": [0, -1, -1], "threshold": [2.5],
                       "value": [1.0, 3.0]}

    @pytest.mark.parametrize("column, cells", [
        ("feature", [0, -1]),  # unequal length
        ("feature", [1, -1, -1]),  # feature outside -1..m-1
        ("feature", [0, -2, -1]),
        ("feature", [0.0, -1, -1]),  # non-integer index
        ("left", [1, 1, "2"]),  # the earlier layout, with child ids
        ("threshold", [float("nan")]),  # non-finite
        ("value", [float("inf"), 3.0]),
        ("count", [4, 2, 2]),  # the earlier five-column layout, with row counts
        ("count", [2**63, 2, 2]),  # refused by its keys, whatever its cells
        ("left", [1, 2, 2]),  # the earlier layout, leaf 1 pointing away
        ("left", [0, 1, 2]),  # the earlier layout, the root its own child
        ("right", [1, 1, 2]),  # the earlier layout, node 2 never reached
        ("feature", [[0], [-1], [-1]]),
        ("value", []),
        ("threshold", [True]),  # json's true, which numpy would take as 1
        ("count", [4, True, 2]),
    ])
    def test_malformed_table_rejected(self, column, cells):
        doc, match = known_split_tree().to_document(), None
        if column in ("left", "right"):
            # the earlier seven-column layout: `first` and the six columns whole
            doc = seven_columns([old_columns(tree) for tree in to_dicts(known_split_tree())])
        elif column == "count":
            doc = five_columns(known_split_tree())
        if column in ("left", "right", "count"):
            match = ("trees must be an object of exactly the columns "
                     "\\['feature', 'first', 'threshold', 'value'\\]")
        doc[column] = cells
        with pytest.raises(DataValidationError, match=match):
            NodeTable.from_document(doc, 1)

    @pytest.mark.parametrize("doc, message", [
        ({"first": [0], "feature": [0, -1], "threshold": [2.5], "value": [1.0]},
         "2s \\+ 1 nodes"),
        ({"first": [0], "feature": [-1, 0, -1], "threshold": [2.5], "value": [1.0, 3.0]},
         "k-th split node must come before node 2k \\+ 1"),
        ({"first": [0], "feature": [0, -1, -1], "threshold": [2.5, 1.0], "value": [1.0, 3.0]},
         "one threshold per split node"),
        ({"first": [0], "feature": [0, -1, -1], "threshold": [2.5], "value": [1.0]},
         "one value per leaf"),
    ])
    def test_growth_order_shape_checked(self, doc, message):
        with pytest.raises(DataValidationError, match=message):
            NodeTable.from_document(doc, 1)

    @pytest.mark.parametrize("doc", [
        {"value": 1.0, "count": 4},  # nested layout: a leaf root
        {"feature": 0, "threshold": 2.5, "left": {"value": 1.0, "count": 2},
         "right": {"value": 3.0, "count": 2}},
        [],
        # the earlier layout: one dict of six columns per tree
        {"feature": [0, -1, -1], "threshold": [2.5, 0.0, 0.0], "left": [1, 1, 2],
         "right": [2, 1, 2], "value": [0.0, 1.0, 3.0], "count": [4, 2, 2]},
    ])
    def test_nested_layout_rejected(self, doc):
        with pytest.raises(DataValidationError, match="trees must be an object"):
            NodeTable.from_document([doc], 1)


class TestReferenceEngine:
    """The level-wise engine grows the trees the node-at-a-time one grew."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_tables_equal_the_reference(self, data):
        def arrays(shape, elements, label):
            return data.draw(hnp.arrays(np.float64, shape, elements=elements), label=label)

        n = data.draw(st.integers(2, 30), label="n")
        X = arrays((n, data.draw(st.integers(1, 4))), st.integers(0, 3).map(float), "X")  # ties
        y = arrays(n, st.integers(0, 4).map(float), "y")
        config = TreeConfig(max_depth=data.draw(st.integers(1, 4)),
                            min_samples_split=data.draw(st.integers(2, 4)))
        # SSE mode, with and without a depth bound
        for mode in (config, TreeConfig(max_depth=None)):
            assert (to_dicts(fit_tree(X, y, mode, stream(0, "t")))
                    == to_dicts(reference_tree.fit_tree(X, y, mode, stream(0, "t"))))
        # float gradients, lambda > 0 and gamma > 0
        grad = arrays(n, st.floats(-10.0, 10.0), "grad")
        penalties = (data.draw(st.floats(0.1, 2.0), label="lambda"),
                     data.draw(st.floats(0.001, 0.1), label="gamma"))
        assert (to_dicts(fit_tree_gradients(X, grad, config, stream(0, "t"), *penalties))
                == to_dicts(reference_tree.fit_tree_gradients(X, grad, np.ones(n), config,
                                                              stream(0, "t"), *penalties)))
        # bootstrap weights against the same rows repeated, in drawn order
        weights = np.array(data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
        repeated = np.repeat(np.arange(n), weights)
        repeated = repeated[data.draw(st.permutations(range(repeated.size)), label="order")]
        assert (to_dicts(fit_tree(X, y, config, stream(0, "t"), weights=weights))
                == to_dicts(reference_tree.fit_tree(X[repeated], y[repeated], config,
                                                    stream(0, "t"))))

    @pytest.mark.parametrize("seed", range(5))
    def test_weights_on_float_targets_agree_to_rounding(self, seed):
        # weight * target sums a row once where the repeated rows add it
        # weight times, so only integer targets are bit-identical; generic
        # float targets keep the same splits and agree to rounding
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 4, size=(60, 3)).astype(float)
        y = rng.normal(1000.0, 300.0, size=60)
        weights = rng.integers(1, 4, size=60)
        repeated = rng.permutation(np.repeat(np.arange(60), weights))
        config = TreeConfig(max_depth=5)
        tree = fit_tree(X, y, config, stream(0, "t"), weights=weights)
        expected = reference_tree.fit_tree(X[repeated], y[repeated], config, stream(0, "t"))
        for name in ("feature", "threshold"):
            assert np.array_equal(getattr(tree, name), getattr(expected, name))
        assert np.allclose(tree.value, expected.value, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("weights",[[1, 1, 0, 1], [1, 2, 1], [1.0, 1.0, 1.0, 1.0]])
    def test_bad_weights_rejected(self, weights):
        with pytest.raises(DataValidationError):
            fit_tree(np.ones((4, 2)), np.arange(4.0), TreeConfig(), stream(0, "t"), weights=weights)


class TestBatchedGrowth:
    """A batch grows each job's tree exactly as the job grown alone."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_each_tree_equals_its_job_alone(self, data):
        def arrays(shape, elements, label):
            return data.draw(hnp.arrays(np.float64, shape, elements=elements), label=label)

        n_features = data.draw(st.integers(1, 4), label="features")
        config = TreeConfig(
            max_depth=data.draw(st.none() | st.integers(1, 4), label="max_depth"),
            min_samples_split=data.draw(st.integers(2, 4), label="min_samples_split"),
            max_features=data.draw(st.none() | st.integers(1, n_features), label="max_features"),
        )
        jobs = []
        for j in range(data.draw(st.integers(1, 6), label="jobs")):
            n = data.draw(st.integers(1, 30), label="n")
            X = arrays((n, n_features), st.integers(0, 3).map(float), "X")  # ties
            y = arrays(n, st.integers(0, 4).map(float), "y")
            weights = data.draw(st.none() | st.lists(st.integers(1, 3), min_size=n, max_size=n),
                                label="weights")
            grad = arrays(n, st.floats(-10.0, 10.0), "grad")
            jobs.append((X, y, None if weights is None else np.array(weights), grad, j))
        penalties = (data.draw(st.floats(0.1, 2.0), label="lambda"),
                     data.draw(st.floats(0.001, 0.1), label="gamma"))
        # a small chunk bound makes most batches span several chunks
        with mock.patch.object(tree_mod, "CHUNK_ROWS", data.draw(st.integers(1, 60))):
            sse = fit_trees([(Presorted(X), np.arange(X.shape[0]), y, w, stream(j, "t"))
                             for X, y, w, _, j in jobs], config)
            gradient = fit_trees_gradients(
                [(Presorted(X), np.arange(X.shape[0]), g, stream(j, "t"))
                 for X, _, _, g, j in jobs], config, *penalties)
        for (X, y, w, g, j), batched, batched_gh in zip(jobs, sse, gradient):
            alone = fit_tree(X, y, config, stream(j, "t"), weights=w)
            alone_gh = fit_tree_gradients(X, g, config, stream(j, "t"), *penalties)
            assert to_dicts(batched) == to_dicts(alone)
            assert to_dicts(batched_gh) == to_dicts(alone_gh)
            repeated = np.arange(X.shape[0]) if w is None else np.repeat(np.arange(X.shape[0]), w)
            assert to_dicts(batched) == to_dicts(reference_tree.fit_tree(
                X[repeated], y[repeated], config, stream(j, "t")))
            assert to_dicts(batched_gh) == to_dicts(reference_tree.fit_tree_gradients(
                X, g, np.ones(g.size), config, stream(j, "t"), *penalties))

    def test_empty_batch(self):
        assert len(fit_trees([], TreeConfig())) == 0

    def test_mixed_widths_rejected(self):
        jobs = [(Presorted(np.ones((3, 2))), np.arange(3), np.arange(3.0), None, stream(0, "t")),
                (Presorted(np.ones((3, 1))), np.arange(3), np.arange(3.0), None, stream(1, "t"))]
        with pytest.raises(DataValidationError, match="same features"):
            fit_trees(jobs, TreeConfig())


class TestPresorted:
    """Jobs on ascending rows of one Presorted matrix sort nothing, and grow the same trees."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_subset_jobs_equal_the_reference_on_their_rows(self, data):
        def arrays(shape, elements, label):
            return data.draw(hnp.arrays(np.float64, shape, elements=elements), label=label)

        n = data.draw(st.integers(2, 40), label="n")
        tied = [arrays(n, st.sampled_from(values), "tied")
                for values in data.draw(st.lists(st.sampled_from([(0.0, 1.0), (-1.0, 0.5, 2.0)]),
                                                 min_size=1, max_size=3), label="levels")]
        # eighths, so every midpoint is exact: the reference splits at the
        # raw midpoint, which for two adjacent floats sends every row left
        continuous = arrays(n, st.integers(-800, 800).map(lambda v: v / 8.0), "continuous")
        X = np.column_stack([*tied, continuous])
        y = arrays(n, st.integers(0, 4).map(float), "y")
        grad = arrays(n, st.floats(-10.0, 10.0), "grad")
        m = X.shape[1]
        max_features = data.draw(st.none() | st.integers(1, m - 1), label="max_features")
        config = TreeConfig(max_depth=data.draw(st.none() | st.integers(1, 4), label="max_depth"),
                            min_samples_split=data.draw(st.integers(2, 4), label="min_split"),
                            max_features=max_features)
        penalties = (data.draw(st.floats(0.1, 2.0), label="lambda"),
                     data.draw(st.floats(0.001, 0.1), label="gamma"))
        subsets = [np.array(sorted(rows)) for rows in data.draw(st.lists(
            st.sets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=4), label="rows")]
        weights = [np.array(data.draw(st.lists(st.integers(1, 3), min_size=r.size,
                                               max_size=r.size), label="weights"))
                   for r in subsets]

        matrix = Presorted(X)
        for rows in subsets:
            assert np.array_equal(matrix._order_of(rows, 0).T,
                                  np.argsort(X[rows], axis=0, kind="stable"))
        sse = fit_trees([(matrix, rows, y[rows], w, stream(j, "t"))
                         for j, (rows, w) in enumerate(zip(subsets, weights))], config)
        gradient = fit_trees_gradients([(matrix, rows, grad[rows], stream(j, "t"))
                                        for j, rows in enumerate(subsets)], config, *penalties)
        for j, (rows, w) in enumerate(zip(subsets, weights)):
            repeated = np.repeat(rows, w)
            assert to_dicts(sse[j]) == to_dicts(reference_tree.fit_tree(
                X[repeated], y[repeated], config, stream(j, "t")))
            assert to_dicts(gradient[j]) == to_dicts(reference_tree.fit_tree_gradients(
                X[rows], grad[rows], np.ones(rows.size), config, stream(j, "t"), *penalties))

    @pytest.mark.parametrize("rows", [[2, 1], [0, 0, 1], [1, 1], [-1, 0], [0, 4], [],
                                      [[0, 1]], [0.0, 1.0]])
    def test_rows_not_strictly_ascending_ids_rejected(self, rows):
        matrix = Presorted(np.arange(8.0).reshape(4, 2))
        rows = np.array(rows)
        targets = np.zeros(rows.shape[-1])
        with pytest.raises(DataValidationError, match="strictly ascending"):
            fit_trees([(matrix, rows, targets, None, stream(0, "t"))], TreeConfig())
        with pytest.raises(DataValidationError, match="strictly ascending"):
            fit_trees_gradients([(matrix, rows, targets, stream(0, "t"))], TreeConfig())

    def test_matrix_must_be_presorted(self):
        with pytest.raises(DataValidationError, match="Presorted"):
            fit_trees([(np.ones((3, 2)), np.arange(3), np.arange(3.0), None, stream(0, "t"))],
                      TreeConfig())


class TestFeatureSubsets:
    def test_each_node_splits_within_its_drawn_subset(self):
        # only feature 0 carries signal, so a node that did not draw it
        # splits on noise
        rng = np.random.default_rng(23)
        X = rng.integers(0, 6, size=(200, 3)).astype(float)
        y = 10.0 * X[:, 0]
        every = fit_tree(X, y, TreeConfig(max_depth=4), stream(3, "t"))
        assert set(every.feature[every.feature >= 0]) == {0}
        config = TreeConfig(max_depth=4, max_features=1)
        tree = fit_tree(X, y, config, stream(3, "t"))
        assert set(tree.feature[tree.feature >= 0]) - {0}
        assert to_dicts(tree) == to_dicts(fit_tree(X, y, config, stream(3, "t")))


def eighths_matrix(rng, n):
    """Features of 2, 12 and about 1,600 values; every midpoint is exact in eighths."""
    return np.column_stack([rng.integers(0, 2, n), rng.integers(0, 12, n),
                            rng.integers(-800, 800, n) / 8.0]).astype(float)


class TestLeafValues:
    """Leaves summed by size class keep each leaf's own pairwise sum, bit for bit."""

    def test_float_targets_equal_the_reference_across_leaf_sizes(self):
        # numpy sums pairwise in blocks of 8 and halves past 128 values, so
        # the leaves must span sizes on both sides of both boundaries
        sizes = []
        for n, max_depth in [(300, 2), (1000, 3), (1000, 9)]:
            rng = np.random.default_rng(n + max_depth)
            X = eighths_matrix(rng, n)
            y = rng.normal(1000.0, 300.0, n)
            weights = rng.integers(1, 4, n)
            config = TreeConfig(max_depth=max_depth)
            for w in (None, weights):
                tree = fit_tree(X, y, config, stream(0, "t"), weights=w)
                expected = reference_tree.fit_tree(X, y, config, stream(0, "t"), weights=w)
                assert to_dicts(tree) == to_dicts(expected)
                if w is None:  # the training rows inside each leaf's box
                    _, lo, hi = leaf_boxes(tree, X.shape[1])
                    inside = (lo[:, None] < X) & (X <= hi[:, None])
                    sizes.append(inside.all(axis=2).sum(axis=1))
        sizes = np.concatenate(sizes)
        assert sizes.min() == 1 and sizes.max() > 256
        assert ((sizes > 8) & (sizes <= 128)).any() and ((sizes > 128) & (sizes <= 256)).any()


class TestUnitStatistics:
    """b = 1 everywhere makes prefix sums counts; bootstrap weights are summed as floats."""

    # the oracle's hessians, by their numpy constructor: a gradient tree's
    # rows each weigh 1
    @pytest.mark.parametrize("hess", ["ones"])
    def test_gradient_trees_equal_the_reference(self, hess):
        rng = np.random.default_rng(8)
        n = 500
        X = eighths_matrix(rng, n)
        grad = rng.normal(size=n)
        for config in (TreeConfig(max_depth=5), TreeConfig(max_depth=None, min_samples_split=30)):
            for penalties in ((1.0, 0.0), (0.0, 0.0), (0.3, 0.01)):
                assert (to_dicts(fit_tree_gradients(X, grad, config, stream(1, "t"), *penalties))
                        == to_dicts(reference_tree.fit_tree_gradients(
                            X, grad, getattr(np, hess)(n), config, stream(1, "t"), *penalties)))

    def test_bootstrap_weighted_trees_equal_the_reference(self):
        rng = np.random.default_rng(9)
        n = 500
        X = eighths_matrix(rng, n)
        y = rng.normal(1000.0, 300.0, n)
        matrix = Presorted(X)
        config = TreeConfig(max_depth=7, min_samples_split=3)
        jobs, expected = [], []
        for k in range(4):
            drawn = np.bincount(rng.integers(0, n, n), minlength=n)
            rows = np.flatnonzero(drawn)
            jobs.append((matrix, rows, y[rows], drawn[rows], stream(k, "t")))
            expected.append(reference_tree.fit_tree(X[rows], y[rows], config, stream(k, "t"),
                                                    weights=drawn[rows]))
        for tree, reference in zip(fit_trees(jobs, config), expected):
            assert to_dicts(tree) == to_dicts(reference)

    def test_overflowing_leaf_sum_is_a_numeric_error(self):
        X = np.arange(4.0)[:, None]
        with pytest.raises(NumericError, match="leaf value is not finite"):
            fit_tree(X, np.full(4, 1e308), TreeConfig(max_depth=0), stream(0, "t"))
