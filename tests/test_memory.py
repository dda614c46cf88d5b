"""Peak numpy allocation of batched growth and of node tables, measured with tracemalloc.

A batch of trees is grown in chunks of at most `tree.CHUNK_ROWS` rows,
whose tables are joined one column at a time, and a learning curve scores
and drops each model as it arrives.  At the chosen bound the forest fit
peaks near 4.3 MB, the curve near 4.0 MB and the xgb cross-validation near
4.4 MB.  With the whole forest in one chunk the fit peaks near 79 MB,
and with a bound 1.5 or 2 times as large the fit and the curve peak near
5.4 and 5.1 MB or 6.4 and 6.3 MB, so these limits fail either change.
The fit's table is the one the forest predicts with, so a first one-row
prediction leaves the fit's peak as it is; when prediction packed the
fitted trees into a second table, the two peaked at 5.8 MB.  The level
loop's work arrays are kept across calls, so each test passes only if it
also holds in a fresh process, where the fit allocates them.  The curve
and the cross-validation run with one worker: tracemalloc sees only this
process, and forked workers would each fit a share of the models out of
its sight.

An ensemble's table predicts and explains in blocks of at most
`tree.BLOCK_CELLS` (tree, row) or (leaf, row) cells.  The published
220-tree forest predicts 7,400 rows (the uncapped `reproduce`'s ICE rows)
at a peak of 2.0 MB (3.3 MB with twice the cells).  Its TreeSHAP of 10
and of all 740 rows against the 740-row background peaks at 0.87 and
1.14 MB: each block is one tree, and its rows descend in chunks of
BLOCK_CELLS // leaves.  Descending each block's rows in one chunk peaks at
1.38 and 2.93 MB, so only the 740-row test fails that change.  With all
trees and rows in one block, prediction peaks at 41 MB and the TreeSHAP
of 10 rows at 229 MB.

The model file holds each node's facts once: `first` and `feature`
whole, one threshold per split node and one value per leaf, and no child
ids or row counts.  Saving the published forest (40,892 nodes, 0.83 MB of
JSON) peaks at 4.3 MB, and loading it at 4.1 MB: the columns as Python
lists next to the file's text.  With each node's row count as well, the
file was 1.1 MB and its save and load peaked at 4.9 and 4.8 MB.  With
the child ids and zero fillers of the earlier layout, the file was 2.0
MB and its save and load peaked at 8.4 MB, so both limits fail that
layout; cut into one dict of columns per tree, it was 2.3 MB and peaked
at 8.5 MB; when json.dumps formatted every number in Python, because of
`indent`, the save peaked at 21.9 MB.
"""

import tracemalloc

import numpy as np
import pytest

import synth
from premex import data as data_mod
from premex import tuning
from premex.ensemble import PUBLISHED, ForestConfig, fit_forest, load_model, save_model
from premex.explain import tree_shap
from premex.tuning import learning_curve

from cv import cross_val_score

MB = 2**20


@pytest.fixture(scope="module")
def rows740(tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "premiums.csv"
    path.write_text(synth.make_csv_text(n=740, seed=7), encoding="utf-8")
    return data_mod.derive_features(data_mod.load_csv(str(path)))


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def published_forest(rows740):
    return fit_forest(rows740, ForestConfig(**PUBLISHED["rf"], seed=1))  # 220 trees


def test_published_forest_fit(rows740):
    config = ForestConfig(**PUBLISHED["rf"], seed=1)  # 220 trees
    assert peak_bytes(lambda: fit_forest(rows740, config)) < 5.0 * MB


def test_published_forest_fit_and_first_predict(rows740):
    # the fit's table is the one prediction reads: no second copy of the nodes
    config = ForestConfig(**PUBLISHED["rf"], seed=1)
    assert peak_bytes(lambda: fit_forest(rows740, config).predict(rows740.X[:1])) < 5.0 * MB


def test_rf_learning_curve(rows740, monkeypatch):
    # 5 folds x 5 fractions = 25 forests of the benchmark's 22 trees, all in this process
    monkeypatch.setattr(tuning, "_worker_count", lambda tasks: 1)
    fractions = [0.2, 0.4, 0.6, 0.8, 1.0]
    assert peak_bytes(lambda: learning_curve(
        rows740, "rf", {"n_estimators": 22}, fractions, 5, seed=3)) < 4.25 * MB


def test_xgb_cross_validation(rows740, monkeypatch):
    # 5 folds of the published 50-stage xgb model, grown in lockstep in this process
    monkeypatch.setattr(tuning, "_worker_count", lambda tasks: 1)
    assert peak_bytes(lambda: cross_val_score(rows740, "xgb", {}, 5, seed=3)) < 4.95 * MB


def test_published_forest_predicts_ice_rows(rows740, published_forest):
    X = np.repeat(rows740.X, 10, axis=0)  # 7,400 rows
    assert peak_bytes(lambda: published_forest.predict(X)) < 2.52 * MB


def test_published_forest_tree_shap(rows740, published_forest):
    scale = 1.0 / len(published_forest.trees)
    assert peak_bytes(lambda: tree_shap(
        published_forest.trees, scale, 0.0, rows740.X[:10], rows740.X)) < 1.76 * MB


def test_published_forest_tree_shap_740_rows(rows740, published_forest):
    # every row explained: a block's explained rows descend in chunks, so
    # the peak does not grow with their number
    scale = 1.0 / len(published_forest.trees)
    assert peak_bytes(lambda: tree_shap(
        published_forest.trees, scale, 0.0, rows740.X, rows740.X)) < 1.76 * MB


def test_published_forest_save(published_forest, tmp_path):
    path = tmp_path / "model_rf.json"
    assert peak_bytes(lambda: save_model(published_forest, str(path))) < 6.5 * MB


def test_published_forest_load(published_forest, tmp_path):
    path = tmp_path / "model_rf.json"
    save_model(published_forest, str(path))
    assert peak_bytes(lambda: load_model(str(path))) < 6.5 * MB
