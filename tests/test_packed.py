"""One node table per ensemble, against one tree at a time.

`tree.NodeTable` holds an ensemble's trees; prediction, leaf masks and
TreeSHAP run over all trees at once, in blocks of at most `BLOCK_CELLS`
cells.  Every result must equal, bit for bit, the tree-at-a-time oracles
of `tests/reference_predict.py`, which walk the table's one-tree views
table[t], whatever the block size.  The leaf masks come from one descent
of the rows through the table; the oracle compares each row with each
leaf's box, and TreeSHAP's oracle groups the background with np.unique
where TreeSHAP sorts each leaf's masks.
"""

import json
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_predict as oracle
from reference_tree import OLD_COLUMNS, from_dicts, old_columns, seven_columns, to_dicts
from premex import explain as explain_mod
from premex import tree as tree_mod
from premex.ensemble import (
    BoostConfig, BoostedModel, ForestConfig, ForestModel, fit_gbm, load_model, save_model,
)
from premex.errors import DataValidationError
from premex.rng import stream
from premex.tree import (
    COLUMNS, NodeTable, Presorted, RegressionTree, TreeConfig, fit_trees_gradients,
)
from premex.tuning import fit_variant

# thresholds and cell values share a small set, so rows often sit on a
# threshold; -0.0 and 0.0 both occur
CUTS = [-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.25]


def bits(array) -> np.ndarray:
    """The float64 bit patterns, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(array, dtype=np.float64).view(np.int64)


def assert_same_bits(actual, expected):
    assert np.asarray(actual).shape == np.asarray(expected).shape
    assert np.array_equal(bits(actual), bits(expected))


def random_tree(data, p: int, max_depth: int) -> dict:
    """The columns of a tree of depth at most max_depth, numbered in growth
    order (breadth-first, left child first), as grown and loaded trees are."""
    columns = {name: [] for name in COLUMNS}
    open_nodes = deque([0])  # the depths of the nodes not yet numbered
    while open_nodes:
        depth = open_nodes.popleft()
        node = len(columns["feature"])
        for name, initial in zip(COLUMNS, (-1, 0.0, 0.0, 1)):
            columns[name].append(initial)
        if depth < max_depth and data.draw(st.booleans()):
            columns["feature"][node] = data.draw(st.integers(0, p - 1))
            columns["threshold"][node] = data.draw(st.sampled_from(CUTS))
            open_nodes.extend([depth + 1, depth + 1])
        else:
            columns["value"][node] = data.draw(
                st.floats(-1e3, 1e3, allow_nan=False) | st.sampled_from([0.0, -0.0]))
    return columns


def depth_first(document: dict) -> dict:
    """A tree's dict of OLD_COLUMNS renumbered depth-first, left child
    first, as model files written before growth order numbered them."""
    order, stack = [], [0]  # the nodes' ids, in depth-first order
    while stack:
        node = stack.pop()
        order.append(node)
        if document["feature"][node] >= 0:
            stack += [document["right"][node], document["left"][node]]
    new_id = {node: i for i, node in enumerate(order)}
    renumbered = {name: [document[name][node] for node in order] for name in OLD_COLUMNS}
    for side in ("left", "right"):
        renumbered[side] = [new_id[child] for child in renumbered[side]]
    return renumbered


def random_matrix(data, p: int, max_rows: int) -> np.ndarray:
    cell = st.sampled_from(CUTS) | st.floats(-4.0, 4.0, allow_nan=False)
    rows = data.draw(st.lists(st.lists(cell, min_size=p, max_size=p),
                              min_size=1, max_size=max_rows))
    return np.array(rows, dtype=np.float64)


def random_ensemble(data):
    """(p, the table of 1 to 7 random trees)."""
    p = data.draw(st.integers(1, 5))
    documents = [random_tree(data, p, data.draw(st.integers(0, 6)))
                 for _ in range(data.draw(st.integers(1, 7)))]
    return p, from_dicts(documents, p)


def forest_and_boosted(table, p):
    names = [f"x{j}" for j in range(p)]
    forest = ForestModel(trees=table, config=ForestConfig(n_estimators=len(table)),
                         feature_names=names)
    boosted = BoostedModel(variant="xgb", base_score=3.7, trees=table,
                           config=BoostConfig(n_estimators=len(table), learning_rate=0.3),
                           feature_names=names)
    return forest, boosted


class TestPrediction:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_trees_equal_tree_at_a_time(self, data):
        p, table = random_ensemble(data)
        trees = list(table)
        X = random_matrix(data, p, 30)
        forest, boosted = forest_and_boosted(table, p)
        n_stages = data.draw(st.integers(0, len(trees)))
        block = data.draw(st.sampled_from([1, 5, 64, tree_mod.BLOCK_CELLS]))
        with mock.patch.object(tree_mod, "BLOCK_CELLS", block):
            assert_same_bits(forest.predict(X), oracle.forest_predict(trees, X))
            assert_same_bits(boosted.predict(X), oracle.boosted_predict(trees, 3.7, 0.3, X))
            assert_same_bits(boosted.predict(X, n_stages=n_stages),
                             oracle.boosted_predict(trees[:n_stages], 3.7, 0.3, X))
        for tree in trees:
            assert isinstance(tree, RegressionTree) and len(tree) == 1
            assert_same_bits(tree.predict_matrix(X), oracle.tree_predictions(tree, X))

    def test_single_leaf_trees(self):
        leaf = {"feature": [-1], "threshold": [0.0], "value": [2.5]}
        table = from_dicts([leaf] * 3, 2)
        forest, boosted = forest_and_boosted(table, 2)
        X = np.arange(8.0).reshape(4, 2)
        assert forest.trees.depths().tolist() == [0, 0, 0]
        assert_same_bits(forest.predict(X), oracle.forest_predict(list(table), X))
        assert_same_bits(boosted.predict(X), oracle.boosted_predict(list(table), 3.7, 0.3, X))

    def test_zero_stage_boosted_model(self, small_regression):
        model = fit_gbm(small_regression, BoostConfig(n_estimators=0, seed=1))
        assert len(model.trees) == 0
        X = small_regression.X
        assert_same_bits(model.predict(X), oracle.boosted_predict([], model.base_score, 0.1, X))

    @pytest.mark.parametrize("variant,params", [
        ("rf", {"n_estimators": 22}),
        ("gbm", {}),
        ("xgb", {}),
    ])
    @pytest.mark.parametrize("n_rows", [1, 7400])
    def test_fitted_models(self, synth_dataset, variant, params, n_rows):
        model = fit_variant(variant, synth_dataset, params, 3)
        rng = np.random.default_rng(n_rows)
        X = synth_dataset.X[rng.integers(0, synth_dataset.n, size=n_rows)]
        X[:, 0] += rng.integers(-3, 4, size=n_rows)  # other ages, some of them unseen
        if variant == "rf":
            expected = oracle.forest_predict(model.trees, X)
        else:
            expected = oracle.boosted_predict(model.trees, model.base_score,
                                              model.config.learning_rate, X)
        assert_same_bits(model.predict(X), expected)


class TestLeafMasks:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_trees_equal_the_box_masks(self, data):
        p, table = random_ensemble(data)
        trees = list(table)
        X = random_matrix(data, p, 30)
        start = data.draw(st.integers(0, len(trees) - 1))
        stop = data.draw(st.integers(start + 1, len(trees)))
        block = data.draw(st.sampled_from([1, 7, 100, tree_mod.BLOCK_CELLS]))
        with mock.patch.object(tree_mod, "BLOCK_CELLS", block):
            leaves, masks = table.leaf_masks(start, stop, X)
        expected_leaves, expected_masks = [], []
        for t in range(start, stop):
            tree_leaves, lo, hi = oracle.leaf_boxes(trees[t], p)
            expected_leaves.append(tree_leaves + table.first[t])
            expected_masks.append(oracle._leaf_masks(X, lo, hi).T)
        assert np.array_equal(leaves, np.concatenate(expected_leaves))
        assert masks.dtype == np.uint32 and masks.shape == (leaves.size, X.shape[0])
        assert np.array_equal(masks.astype(np.int64), np.concatenate(expected_masks))


class TestTreeShap:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_trees_equal_tree_at_a_time(self, data):
        p, table = random_ensemble(data)
        rows = random_matrix(data, p, 6)
        background = random_matrix(data, p, 9)
        scale = data.draw(st.sampled_from([1.0, 0.5, 0.1]))
        block = data.draw(st.sampled_from([1, 7, 100, explain_mod.BLOCK_CELLS]))
        with mock.patch.object(tree_mod, "BLOCK_CELLS", block), \
                mock.patch.object(explain_mod, "BLOCK_CELLS", block):
            base_value, phi = explain_mod.tree_shap(table, scale, 2.0, rows, background)
        expected_base, expected_phi = oracle.tree_shap(list(table), scale, 2.0, rows, background)
        assert_same_bits(base_value, expected_base)
        assert_same_bits(phi, expected_phi)

    @pytest.mark.parametrize("variant,params", [
        ("rf", {"n_estimators": 22}),
        ("gbm", {}),
        ("xgb", {}),
    ])
    def test_fitted_models(self, synth_dataset, variant, params):
        model = fit_variant(variant, synth_dataset.subset(np.arange(200)), params, 5)
        scale, offset = ((1.0 / len(model.trees), 0.0) if variant == "rf"
                         else (model.config.learning_rate, model.base_score))
        rows, background = synth_dataset.X[200:230], synth_dataset.X[:200]
        # 200 background rows: the rf's trees fall into several blocks
        got = explain_mod.tree_shap(model.trees, scale, offset, rows, background)
        expected = oracle.tree_shap(model.trees, scale, offset, rows, background)
        assert_same_bits(got[0], expected[0])
        assert_same_bits(got[1], expected[1])

    def test_one_descent_per_block_at_the_explain_size(self, synth_dataset):
        # the explain workload's 22-tree forest, 20 explained rows, 50 background rows
        model = fit_variant("rf", synth_dataset, {"n_estimators": 22}, 3)
        table = model.trees
        rows, background = synth_dataset.X[50:70], synth_dataset.X[:50]
        with mock.patch.object(table, "leaf_masks", wraps=table.leaf_masks) as leaf_masks:
            explain_mod.tree_shap(table, 1.0 / len(table), 0.0, rows, background)
        blocks = table.tree_blocks(70)
        assert len(blocks) > 1 and leaf_masks.call_count == len(blocks)


def two_stage_documents():
    """A root split and a lone leaf, as reference_tree.to_dicts() gives them."""
    split = {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "value": [0.0, 1.0, 2.0]}
    leaf = {"feature": [-1], "threshold": [0.0], "value": [4.0]}
    return [split, leaf]


class TestLoading:
    def test_round_trip(self):
        documents = two_stage_documents() * 3
        table = from_dicts(documents, 2)
        assert to_dicts(table) == documents
        assert [to_dicts(tree) for tree in table] == [[document] for document in documents]
        assert table.depths().tolist() == [1, 0] * 3
        assert table.first.tolist() == [0, 3, 4, 7, 8, 11]

    def test_first_malformed_tree_names_the_error(self):
        documents = two_stage_documents() * 2
        documents[1] = dict(documents[1], feature=[0])  # tree 1: a split node without children
        documents[3] = dict(documents[3], feature=[-2])  # tree 3: checked earlier
        with pytest.raises(DataValidationError, match="^tree 1: a tree of s split nodes"):
            from_dicts(documents, 2)
        documents[1], documents[3] = documents[3], documents[1]
        with pytest.raises(DataValidationError, match="^tree 1: tree feature index outside"):
            from_dicts(documents, 2)

    def test_each_tree_checked_as_a_table_of_its_own(self):
        # 4 nodes with 1 split node in 2 trees fit the whole table, but tree
        # 0's second child would be tree 1's root
        document = {"first": [0, 2], "feature": [0, -1, -1, -1], "threshold": [0.5],
                    "value": [1.0, 2.0, 4.0]}
        with pytest.raises(DataValidationError, match="^tree 0: a tree of s split nodes"):
            NodeTable.from_document(document, 2)

    def test_booleans_refused_in_every_column(self):
        # json reads true as a bool, which numpy would take as 1 in a column
        # of numbers; a model file's columns hold no booleans
        for name, cells in [("feature", [True, -1, -1]), ("threshold", [False, 0.0, 0.0]),
                            ("value", [0.0, True, 2.0])]:
            documents = two_stage_documents()
            documents[0] = dict(documents[0], **{name: cells})
            with pytest.raises(DataValidationError, match=f"'{name}' must be a list"):
                from_dicts(documents, 2)

    @pytest.mark.parametrize("first", [[], [1], [0, 0], [0, 4], [0, 3, 2]])
    def test_tree_starts_checked(self, first):
        document = from_dicts(two_stage_documents(), 2).to_document()
        with pytest.raises(DataValidationError, match="tree starts"):
            NodeTable.from_document(dict(document, first=first), 2)

    def test_saved_model_loads_packed(self, small_regression, tmp_path):
        model = fit_gbm(small_regression, BoostConfig(n_estimators=5, max_depth=3, seed=4))
        save_model(model, tmp_path / "gbm.json")
        clone = load_model(tmp_path / "gbm.json")
        saved = json.loads((tmp_path / "gbm.json").read_text())["trees"]
        assert saved == model.trees.to_document()
        assert saved["first"] == model.trees.first.tolist()
        internal = model.trees.feature >= 0
        assert saved["feature"] == model.trees.feature.tolist()
        assert saved["threshold"] == model.trees.threshold[internal].tolist()
        assert saved["value"] == model.trees.value[~internal].tolist()
        for name in COLUMNS:
            assert np.array_equal(getattr(clone.trees, name), getattr(model.trees, name))
        assert np.array_equal(clone.trees.depths(), model.trees.depths())
        assert [t.depths().tolist() for t in clone.trees] == [[d] for d in model.trees.depths()]

    @pytest.mark.parametrize("variant,params", [
        ("rf", {"n_estimators": 22}),
        ("gbm", {}),
        ("xgb", {}),
    ])
    def test_save_load_keeps_every_column(self, synth_dataset, tmp_path, variant, params):
        model = fit_variant(variant, synth_dataset, params, 5)
        save_model(model, tmp_path / "model.json")
        clone = load_model(tmp_path / "model.json")
        for name in (*COLUMNS, "first"):
            assert getattr(clone.trees, name).dtype == getattr(model.trees, name).dtype
            if name in ("threshold", "value"):
                assert_same_bits(getattr(clone.trees, name), getattr(model.trees, name))
            else:
                assert np.array_equal(getattr(clone.trees, name), getattr(model.trees, name))
        assert clone.trees.feature_count == model.trees.feature_count


class TestDepthFirstFiles:
    """Model files written before this layout hold child ids, with each
    tree's nodes numbered in growth order or, earlier, depth-first; none
    loads."""

    @pytest.mark.parametrize("variant,params", [
        ("rf", {"n_estimators": 22}),
        ("gbm", {}),
        ("xgb", {}),
    ])
    def test_refused_as_the_old_layout(self, synth_dataset, tmp_path, variant, params):
        model = fit_variant(variant, synth_dataset.subset(np.arange(200)), params, 5)
        save_model(model, tmp_path / "grown.json")
        document = json.loads((tmp_path / "grown.json").read_text())
        trees = [old_columns(tree) for tree in to_dicts(model.trees)]
        for old_trees in (trees, [depth_first(tree) for tree in trees]):
            document["trees"] = seven_columns(old_trees)
            (tmp_path / "old.json").write_text(json.dumps(document))
            with pytest.raises(DataValidationError,
                               match="trees must be an object of exactly the columns"):
                load_model(tmp_path / "old.json")


class TestJoin:
    def test_join_equals_the_table_of_all_documents(self):
        documents = two_stage_documents() * 3
        parts = [from_dicts(documents[:1], 2), from_dicts(documents[1:4], 2),
                 from_dicts([], 2), from_dicts(documents[4:], 2)]
        joined = NodeTable.join(parts, 2)
        whole = from_dicts(documents, 2)
        for name in (*COLUMNS, "first"):
            assert np.array_equal(getattr(joined, name), getattr(whole, name))
            assert getattr(joined, name).dtype == getattr(whole, name).dtype
        assert joined.depths().tolist() == whole.depths().tolist()
        # each part's column is dropped once copied
        assert all(getattr(part, name) is None for part in parts for name in COLUMNS)

    def test_views_join_back_into_their_table(self):
        documents = two_stage_documents() * 2
        table = from_dicts(documents, 2)
        assert to_dicts(NodeTable.join([table[t] for t in range(len(table))], 2)) == documents
        assert to_dicts(table) == documents  # spent views leave their table whole
        assert len(NodeTable.join([], 2)) == 0

    def test_indexing(self):
        documents = two_stage_documents() * 2
        table = from_dicts(documents, 2)
        assert len(table) == 4
        assert to_dicts(table[-1]) == to_dicts(table[3]) == [documents[3]]
        with pytest.raises(IndexError):
            table[4]
        assert [len(tree) for tree in table] == [1] * 4

    def test_width_mismatch_rejected(self):
        parts = [from_dicts(two_stage_documents(), 2),
                 from_dicts(two_stage_documents(), 3)]
        with pytest.raises(DataValidationError, match="same 2 features"):
            NodeTable.join(parts, 2)


def lockstep_tables(data, n_models: int, n_stages: int) -> list:
    """Boosted tables as ensemble._boost_lockstep builds them: stage t of
    every model is one fit_trees_gradients batch, and model i's table
    joins the i-th views of the stages."""
    matrix = Presorted(data.X)
    stages = []
    for t in range(n_stages):
        jobs = []
        for i in range(n_models):
            rng = stream(i, "stage", t)
            rows = np.sort(rng.choice(data.n, size=data.n - 10 * i, replace=False))
            jobs.append((matrix, rows, rng.normal(size=rows.size), np.ones(rows.size), rng))
        stages.append(fit_trees_gradients(jobs, TreeConfig(max_depth=4)))
    return [NodeTable.join([stage[i] for stage in stages], data.m) for i in range(n_models)]


class TestEveryProducer:
    """Every way a table comes about saves and loads back with each column
    identical bit for bit, and predicts the bits of the tree-at-a-time
    oracle, which finds each tree's children with its own loop."""

    @staticmethod
    def tables(producer, data, tmp_path) -> list:
        if producer == "joined-stage-views":
            return lockstep_tables(data, 3, 4)
        models = [fit_variant(variant, data, params, 5) for variant, params in
                  [("rf", {"n_estimators": 22}), ("gbm", {}), ("xgb", {})]]
        if producer == "fitted":
            return [model.trees for model in models]
        if producer == "views":
            return [tree for model in models for tree in model.trees]
        for model in models:
            save_model(model, tmp_path / f"{model.variant}.json")
        return [load_model(tmp_path / f"{model.variant}.json").trees for model in models]

    @pytest.mark.parametrize("producer", ["fitted", "joined-stage-views", "views", "loaded"])
    def test_round_trip_and_prediction(self, synth_dataset, tmp_path, producer):
        X = synth_dataset.X[::3].copy()
        X[:, 0] += 1.5  # half-integer ages, which grown thresholds can equal
        for table in self.tables(producer, synth_dataset, tmp_path):
            clone = NodeTable.from_document(table.to_document(), table.feature_count)
            assert type(clone) is NodeTable and clone.feature_count == table.feature_count
            for name in (*COLUMNS, "first"):
                got, expected = getattr(clone, name), getattr(table, name)
                assert got.dtype == expected.dtype and got.shape == expected.shape
                assert np.array_equal(got.view(np.int64), expected.view(np.int64))
            expected = np.full(X.shape[0], -0.0)
            for tree in table:
                expected += oracle.tree_predictions(tree, X)
            for predicting in (table, clone):
                out = np.full(X.shape[0], -0.0)
                predicting.add_predictions(X, out)
                assert_same_bits(out, expected)
