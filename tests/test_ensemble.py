import json
from dataclasses import replace

import numpy as np
import pytest

from premex.data import Dataset
from premex.ensemble import (
    PUBLISHED,
    BoostConfig,
    BoostedModel,
    ForestConfig,
    ForestModel,
    fit_forest,
    fit_gbm,
    fit_models,
    fit_xgb,
    load_model,
    save_model,
    variant_config,
    _stage_rows,
)
from premex.errors import DataValidationError, FormatVersionError
from premex.rng import stream
from premex.tuning import fit_variant
from premex.tree import Presorted, TreeConfig, fit_tree, fit_trees, fit_trees_gradients
from reference_tree import from_dicts, to_dicts


def leaf_trees(*values, feature_count=2):
    """The table of one single-leaf tree per value."""
    return from_dicts([{"feature": [-1], "threshold": [0.0], "value": [value]}
                       for value in values], feature_count)


class TestConfigChecks:
    @pytest.mark.parametrize("make", [
        lambda: TreeConfig(max_depth=-1),
        lambda: TreeConfig(max_depth=2.0),
        lambda: TreeConfig(min_samples_split=1),
        lambda: TreeConfig(max_features=0),
        lambda: TreeConfig(max_features=True),
        lambda: ForestConfig(n_estimators=0),
        lambda: ForestConfig(n_estimators=True),
        lambda: ForestConfig(n_estimators="10"),
        lambda: ForestConfig(bootstrap=1),
        lambda: ForestConfig(seed="s"),
        lambda: ForestConfig(max_depth=-4),
        lambda: BoostConfig(n_estimators=-1),
        lambda: BoostConfig(learning_rate=7),
        lambda: BoostConfig(learning_rate=float("nan")),
        lambda: BoostConfig(learning_rate=True),
        lambda: BoostConfig(subsample=1.5),
        lambda: BoostConfig(reg_lambda=-1.0),
        lambda: BoostConfig(gamma=float("inf")),
        lambda: BoostConfig(gamma="0"),
        lambda: BoostConfig(seed=1.0),
        lambda: replace(BoostConfig(), min_samples_split=0),
    ])
    def test_bad_value_rejected(self, make):
        with pytest.raises(DataValidationError):
            make()

    def test_accepted_edges(self):
        BoostConfig(n_estimators=0, learning_rate=1, subsample=1, reg_lambda=0, max_depth=None)
        ForestConfig(n_estimators=1, max_depth=0, max_features=1, bootstrap=False, seed=-3)
        TreeConfig(max_depth=None, max_features=None)


class TestModelConfigsAreTreeConfigs:
    """The tree engine takes a model config as it takes the TreeConfig of its three tree fields."""

    @staticmethod
    def tree_fields(config):
        return TreeConfig(max_depth=config.max_depth, min_samples_split=config.min_samples_split,
                          max_features=config.max_features)

    @staticmethod
    def jobs(data, targets, second):
        """Three jobs on nested row prefixes, each with its own fresh stream."""
        matrix = Presorted(data.X)
        for j, n in enumerate((40, 80, 120)):
            rows = np.arange(n)
            yield (matrix, rows, targets[rows], np.ones(n) if second else None, stream(j, "t"))

    def test_fit_trees_takes_a_forest_config(self, small_regression):
        config = ForestConfig(n_estimators=3, max_depth=4, min_samples_split=5, max_features=2)
        assert isinstance(config, TreeConfig)
        grown = fit_trees(self.jobs(small_regression, small_regression.y, False), config)
        expected = fit_trees(self.jobs(small_regression, small_regression.y, False),
                             self.tree_fields(config))
        assert to_dicts(grown) == to_dicts(expected)

    def test_fit_trees_gradients_takes_a_boost_config(self, small_regression):
        config = BoostConfig(max_depth=3, min_samples_split=6, max_features=3, reg_lambda=0.5)
        assert isinstance(config, TreeConfig)
        grad = small_regression.y - small_regression.y.mean()
        grown = fit_trees_gradients(self.jobs(small_regression, grad, True), config,
                                    config.reg_lambda, config.gamma)
        expected = fit_trees_gradients(self.jobs(small_regression, grad, True),
                                       self.tree_fields(config), config.reg_lambda, config.gamma)
        assert to_dicts(grown) == to_dicts(expected)

    def test_validate_checks_max_features_against_the_data(self, small_regression):
        config = ForestConfig(max_features=5)
        with pytest.raises(DataValidationError, match="max_features"):
            config.validate(small_regression.m)
        with pytest.raises(DataValidationError, match="max_features"):
            fit_trees(self.jobs(small_regression, small_regression.y, False), config)


class TestVariantConfig:
    def test_published_defaults_with_params_over_them(self):
        config = variant_config("xgb", {"max_depth": 2}, 5)
        assert config == BoostConfig(**{**PUBLISHED["xgb"], "max_depth": 2, "seed": 5})
        assert variant_config("rf", {}, 1) == ForestConfig(**PUBLISHED["rf"], seed=1)

    def test_gbm_pins_penalties_to_zero(self, small_regression):
        # variant_config leaves the penalties at their defaults; fit_models pins them
        config = variant_config("gbm", {"learning_rate": 0.5, "n_estimators": 2}, 0)
        [model] = fit_models("gbm", config, [(small_regression, 0)])
        assert model.config.reg_lambda == 0.0 and model.config.gamma == 0.0
        assert BoostConfig().reg_lambda == 1.0  # the library default it overrides

    @pytest.mark.parametrize("variant, params", [
        ("gbm", {"reg_lambda": 1.0}),
        ("rf", {"bootstrap": False}),
        ("rf", {"seed": 3}),
        ("xgb", {"n_estimator": 5}),
        ("svm", {}),
    ])
    def test_unknown_key_or_variant_rejected(self, variant, params):
        with pytest.raises(DataValidationError):
            variant_config(variant, params, 0)

    def test_bad_value_rejected(self):
        with pytest.raises(DataValidationError, match="subsample"):
            variant_config("xgb", {"subsample": 0}, 0)


class TestForest:
    def test_mean_of_fixed_trees(self):
        model = ForestModel(
            trees=leaf_trees(10.0, 20.0, 30.0),
            config=ForestConfig(n_estimators=3),
            feature_names=["a", "b"],
        )
        assert model.predict([0.0, 0.0])[0] == 20.0

    def test_single_tree_degenerate_forest(self, small_regression):
        config = ForestConfig(n_estimators=1, bootstrap=False, max_depth=3,
                              min_samples_split=2, max_features=None, seed=9)
        forest = fit_forest(small_regression, config)
        lone = fit_tree(small_regression.X, small_regression.y,
                        config, stream(0, "unused"))
        assert to_dicts(forest.trees) == to_dicts(lone)
        probe = small_regression.X[:10]
        assert np.array_equal(forest.predict(probe), lone.predict_matrix(probe))

    def test_prediction_is_exact_mean_of_members(self, small_regression):
        forest = fit_forest(small_regression, ForestConfig(n_estimators=12, max_depth=4, seed=3))
        probe = small_regression.X[:25]
        stacked = np.stack([t.predict_matrix(probe) for t in forest.trees])
        assert np.array_equal(forest.predict(probe), stacked.mean(axis=0))
        row = small_regression.X[:1]
        assert [t.predict_matrix(row)[0] for t in forest.trees] == stacked[:, 0].tolist()

    def test_same_seed_bit_identical_files(self, small_regression, tmp_path):
        config = ForestConfig(n_estimators=5, max_depth=3, seed=77)
        for name in ("a.json", "b.json"):
            save_model(fit_forest(small_regression, config), tmp_path / name)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_bootstrap_varies_trees(self, small_regression):
        forest = fit_forest(small_regression, ForestConfig(n_estimators=4, max_depth=3, seed=1))
        docs = [json.dumps(to_dicts(t)) for t in forest.trees]
        assert len(set(docs)) > 1

    def test_empty_data(self):
        empty = Dataset(["a"], np.empty((1, 1)), np.zeros(1))
        with pytest.raises(DataValidationError):
            fit_forest(empty, ForestConfig(n_estimators=2))


class TestGbm:
    def test_zero_stages_predict_mean(self, small_regression):
        model = fit_gbm(small_regression, BoostConfig(n_estimators=0, seed=0))
        assert np.all(model.predict(small_regression.X) == small_regression.y.mean())

    def test_single_full_stage_fits_training_targets(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        data = Dataset(["a", "b", "c"], X, y)
        model = fit_gbm(data, BoostConfig(
            n_estimators=1, learning_rate=1.0, max_depth=None,
            min_samples_split=2, subsample=1.0, seed=0,
        ))
        assert np.max(np.abs(model.predict(X) - y)) < 1e-9

    def test_training_sse_non_increasing(self, small_regression):
        model = fit_gbm(small_regression, BoostConfig(
            n_estimators=25, learning_rate=0.3, max_depth=3, subsample=1.0, seed=4,
        ))
        previous = None
        for stages in range(26):
            sse = np.sum((small_regression.y - model.predict(small_regression.X, n_stages=stages)) ** 2)
            assert previous is None or sse <= previous + 1e-9
            previous = sse

    def test_truncation_reproduces_trajectory(self, small_regression):
        config = BoostConfig(n_estimators=10, learning_rate=0.5, max_depth=2, seed=2)
        model = fit_gbm(small_regression, config)
        # refit with fewer stages: identical prefix because stage streams
        # depend only on (seed, stage index)
        shorter = fit_gbm(small_regression, BoostConfig(
            n_estimators=4, learning_rate=0.5, max_depth=2, seed=2,
        ))
        assert np.array_equal(
            model.predict(small_regression.X, n_stages=4),
            shorter.predict(small_regression.X),
        )

    @pytest.mark.parametrize("n_stages", [-1, -2, 11, True, 2.0, "3"])
    def test_bad_stage_count_rejected(self, small_regression, n_stages):
        model = fit_gbm(small_regression, BoostConfig(n_estimators=10, max_depth=2, seed=2))
        with pytest.raises(DataValidationError, match="n_stages"):
            model.predict(small_regression.X, n_stages=n_stages)

    def test_stage_count_edges(self, small_regression):
        model = fit_gbm(small_regression, BoostConfig(n_estimators=10, max_depth=2, seed=2))
        X = small_regression.X
        assert np.all(model.predict(X, n_stages=0) == model.base_score)
        assert np.array_equal(model.predict(X, n_stages=10), model.predict(X))

    def test_width_checked_with_or_without_stages(self):
        X = np.zeros((4, 5))
        for trees in (leaf_trees(feature_count=3), leaf_trees(1.0, feature_count=3)):
            model = BoostedModel(
                variant="gbm", base_score=5.0, trees=trees,
                config=BoostConfig(), feature_names=["a", "b", "c"],
            )
            for n_stages in (None, 0):
                with pytest.raises(DataValidationError, match=r"model expects \(\*, 3\)"):
                    model.predict(X, n_stages=n_stages)

    def test_one_stage_arithmetic(self):
        model = BoostedModel(
            variant="gbm", base_score=5.0, trees=leaf_trees(10.0),
            config=BoostConfig(learning_rate=0.1), feature_names=["a", "b"],
        )
        assert model.predict([0.0, 0.0])[0] == 6.0

    def test_saved_config_records_zero_penalties(self, small_regression, tmp_path):
        # BoostConfig defaults reg_lambda to 1.0, which gbm does not apply
        model = fit_gbm(small_regression, BoostConfig(n_estimators=2, seed=0))
        save_model(model, tmp_path / "gbm.json")
        saved = json.loads((tmp_path / "gbm.json").read_text())["config"]
        assert saved["reg_lambda"] == 0.0 and saved["gamma"] == 0.0

    def test_learning_rate_bounds(self, small_regression):
        with pytest.raises(DataValidationError):
            fit_gbm(small_regression, BoostConfig(learning_rate=0.0))
        with pytest.raises(DataValidationError):
            fit_gbm(small_regression, BoostConfig(subsample=0.0))


@pytest.mark.parametrize("model", [
    ForestModel(trees=leaf_trees(1.0), config=ForestConfig(n_estimators=1),
                feature_names=["a", "b"]),
    BoostedModel(variant="xgb", base_score=0.0, trees=leaf_trees(1.0),
                 config=BoostConfig(n_estimators=1), feature_names=["a", "b"]),
], ids=["rf", "xgb"])
def test_predict_reports_input_shape(model):
    # a 3-d input has as many trailing columns as the model has features
    with pytest.raises(DataValidationError,
                       match=r"matrix has shape \(2, 3, 2\), model expects \(\*, 2\)"):
        model.predict(np.zeros((2, 3, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_rejects_non_finite_rows(bad):
    X = np.arange(30.0).reshape(10, 3) % 7.0
    data = Dataset(["a", "b", "c"], X, X @ np.array([1.0, -2.0, 0.5]))
    forest = fit_forest(data, ForestConfig(n_estimators=3, seed=0))
    xgb = fit_xgb(data, BoostConfig(n_estimators=3, seed=0))
    rows = np.zeros((2, 3))
    rows[1, 0] = bad
    for predict in (forest.predict, xgb.predict, lambda X: xgb.predict(X, n_stages=0),
                    forest.trees[0].predict_matrix):
        with pytest.raises(DataValidationError, match="rows to predict must be finite"):
            predict(rows)


def classic_residual_fit(data, config):
    """Textbook gradient boosting: each stage is an SSE tree on the residuals.

    Uses the library's stage streams and row subsets, so it must grow the
    same trees as the second-order loop at lambda = gamma = 0.
    """
    predictions = np.full(data.n, data.y.mean())
    stages = []
    for t in range(config.n_estimators):
        rng = stream(config.seed, "stage", t)
        rows = _stage_rows(rng, data.n, config.subsample)
        residuals = data.y - predictions
        tree = fit_tree(data.X[rows], residuals[rows], config, rng)
        stages.append(tree)
        predictions = predictions + config.learning_rate * tree.predict_matrix(data.X)
    return stages, predictions


def assert_matches_classic(data, shared):
    stages, predictions = classic_residual_fit(data, BoostConfig(**shared))
    gbm = fit_gbm(data, BoostConfig(**shared))
    xgb = fit_xgb(data, BoostConfig(reg_lambda=0.0, gamma=0.0, **shared))
    assert [to_dicts(t) for t in gbm.trees] == [to_dicts(t) for t in stages]
    for model in (gbm, xgb):
        assert np.max(np.abs(model.predict(data.X) - predictions)) < 1e-9


class TestXgb:
    def test_unregularized_matches_gbm(self, small_regression):
        assert_matches_classic(small_regression, dict(
            n_estimators=15, learning_rate=0.2, max_depth=3,
            min_samples_split=2, subsample=1.0, seed=8,
        ))

    def test_unregularized_matches_gbm_with_subsampling(self, small_regression):
        assert_matches_classic(small_regression, dict(
            n_estimators=10, learning_rate=0.2, max_depth=3,
            min_samples_split=2, subsample=0.7, seed=8,
        ))

    def test_huge_gamma_collapses_to_base(self, small_regression):
        model = fit_xgb(small_regression, BoostConfig(
            n_estimators=5, gamma=1e15, seed=0,
        ))
        assert np.all(model.predict(small_regression.X) == small_regression.y.mean())

    def test_lambda_shrinks_stage_contributions(self):
        # one dominant split keeps the stage-tree structure fixed across
        # lambda, so leaf weights are pointwise comparable
        X = np.arange(20.0).reshape(-1, 1)
        y = np.where(X[:, 0] < 10, -5.0, 5.0)
        data = Dataset(["a"], X, y)

        def stage_magnitudes(lam):
            model = fit_xgb(data, BoostConfig(
                n_estimators=1, learning_rate=1.0, max_depth=1,
                subsample=1.0, reg_lambda=lam, gamma=0.0, seed=0,
            ))
            return np.abs(model.predict(X) - model.base_score)

        magnitudes = [stage_magnitudes(lam) for lam in (0.0, 5.0, 50.0)]
        assert np.all(magnitudes[1] < magnitudes[0])
        assert np.all(magnitudes[2] < magnitudes[1])


def fold_jobs(data):
    """Three (dataset, seed) jobs on different rows, as a CV loop passes fit_models."""
    ids = np.arange(data.n)
    return [(data.subset(ids[ids % 3 != k]), 10 + k) for k in range(3)]


class TestPrefixes:
    """The first m trees of an N-tree model are the m-tree model, bit for bit.

    Forest tree k draws from stream(seed, "forest_tree", k) and boosting
    stage t from stream(seed, "stage", t), neither depending on
    n_estimators, and prediction adds trees in order.
    """

    @staticmethod
    def forest_prefix(model, X, m):
        out = np.zeros(X.shape[0])
        model.trees.add_predictions(X, out, n_trees=m)
        return out / m

    @pytest.mark.parametrize("together", [False, True])
    def test_forest(self, small_regression, together):
        config = ForestConfig(n_estimators=12, max_depth=4, seed=3)
        jobs = fold_jobs(small_regression) if together else [(small_regression, 3)]
        full = list(fit_models("rf", config, jobs))
        X = small_regression.X
        for m in (1, 7, 12):
            shorter = list(fit_models("rf", replace(config, n_estimators=m), jobs))
            for model, short in zip(full, shorter, strict=True):
                assert np.array_equal(self.forest_prefix(model, X, m), short.predict(X))

    @pytest.mark.parametrize("together", [False, True])
    def test_xgb_with_subsample(self, small_regression, together):
        config = BoostConfig(n_estimators=12, learning_rate=0.3, max_depth=3, subsample=0.75,
                             seed=5)
        jobs = fold_jobs(small_regression) if together else [(small_regression, 5)]
        full = list(fit_models("xgb", config, jobs))
        X = small_regression.X
        for m in (0, 1, 5, 12):
            shorter = list(fit_models("xgb", replace(config, n_estimators=m), jobs))
            for model, short in zip(full, shorter, strict=True):
                assert np.array_equal(model.predict(X, n_stages=m), short.predict(X))


class TestSerialization:
    @pytest.mark.parametrize("maker", ["rf", "gbm", "xgb"])
    def test_round_trip_predictions(self, small_regression, tmp_path, maker):
        if maker == "rf":
            model = fit_forest(small_regression, ForestConfig(n_estimators=6, max_depth=3, seed=1))
        elif maker == "gbm":
            model = fit_gbm(small_regression, BoostConfig(n_estimators=6, max_depth=3, seed=1))
        else:
            model = fit_xgb(small_regression, BoostConfig(n_estimators=6, max_depth=3, seed=1))
        path = tmp_path / "model.json"
        save_model(model, path)
        clone = load_model(path)
        probe = np.random.default_rng(0).normal(size=(100, small_regression.m))
        assert np.array_equal(model.predict(probe), clone.predict(probe))

    @pytest.mark.parametrize("maker", ["rf", "gbm", "xgb"])
    def test_save_load_save_identical_bytes(self, small_regression, tmp_path, maker):
        fitter = {"rf": fit_forest, "gbm": fit_gbm, "xgb": fit_xgb}[maker]
        config = (ForestConfig(n_estimators=4, max_depth=3, seed=2) if maker == "rf"
                  else BoostConfig(n_estimators=4, max_depth=3, subsample=0.8, seed=2))
        save_model(fitter(small_regression, config), tmp_path / "a.json")
        save_model(load_model(tmp_path / "a.json"), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["config"].pop("seed"),  # missing config key
        lambda doc: doc["config"].update(colsample=0.5),  # unknown config key
        lambda doc: doc.update(feature_names="abc"),
        lambda doc: doc.update(trees={}),
        lambda doc: doc.update(base_score=float("nan")),
        lambda doc: doc.pop("base_score"),
    ])
    def test_malformed_document_rejected(self, small_regression, tmp_path, edit):
        path = tmp_path / "model.json"
        save_model(fit_xgb(small_regression, BoostConfig(n_estimators=2, seed=1)), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataValidationError):
            load_model(path)

    @pytest.mark.parametrize("fitter", [fit_gbm, fit_xgb])
    def test_config_learning_rate_is_the_one_rate(self, small_regression, tmp_path, fitter):
        path = tmp_path / "model.json"
        model = fitter(small_regression, BoostConfig(n_estimators=3, max_depth=2, seed=1))
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert "learning_rate" not in doc
        doc["config"]["learning_rate"] = 0.25
        path.write_text(json.dumps(doc))
        X = small_regression.X
        expected = model.base_score + 0.25 * sum(tree.predict_matrix(X) for tree in model.trees)
        np.testing.assert_allclose(load_model(path).predict(X), expected, rtol=1e-12)

    def test_integer_rate_saves_as_its_float(self, small_regression, tmp_path):
        # a grid's learning_rate 1 and the flag's 1.0 give one model file
        texts = []
        for rate in (1, 1.0):
            path = tmp_path / type(rate).__name__ / "model_gbm.json"
            params = {"learning_rate": rate, "n_estimators": 3}
            save_model(fit_variant("gbm", small_regression, params, 4), path)
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]
        assert b'"learning_rate": 1.0' in texts[0]
        config = BoostConfig(learning_rate=1, subsample=1, reg_lambda=2, gamma=0)
        assert {type(getattr(config, name)) for name in
                ("learning_rate", "subsample", "reg_lambda", "gamma")} == {float}

    def test_stale_top_level_learning_rate_ignored(self, small_regression, tmp_path):
        path = tmp_path / "model.json"
        model = fit_xgb(small_regression, BoostConfig(n_estimators=3, max_depth=2, seed=1))
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["learning_rate"] = 0.5  # as older files hold it
        path.write_text(json.dumps(doc))
        loaded = load_model(path)
        assert loaded.config.learning_rate == 0.1
        assert np.array_equal(loaded.predict(small_regression.X), model.predict(small_regression.X))

    @pytest.mark.parametrize("names", ["abc", [], ["Age", 3], None])
    def test_feature_names_must_be_names(self, small_regression, tmp_path, names):
        path = tmp_path / "model.json"
        save_model(fit_gbm(small_regression, BoostConfig(n_estimators=2, seed=1)), path)
        doc = json.loads(path.read_text())
        doc["feature_names"] = names
        path.write_text(json.dumps(doc))
        with pytest.raises(DataValidationError,
                           match="feature_names must be a non-empty list of strings"):
            load_model(path)

    def test_forest_variant_is_not_a_field(self):
        with pytest.raises(TypeError):
            ForestModel(trees=leaf_trees(1.0), config=ForestConfig(n_estimators=1),
                        feature_names=["a", "b"], variant="xgb")

    def test_forest_without_trees_rejected(self, small_regression, tmp_path):
        path = tmp_path / "model.json"
        save_model(fit_forest(small_regression, ForestConfig(n_estimators=2, seed=1)), path)
        doc = json.loads(path.read_text())
        doc["trees"] = {name: [] for name in doc["trees"]}
        path.write_text(json.dumps(doc))
        with pytest.raises(DataValidationError, match="at least one tree"):
            load_model(path)

    def test_wrong_version_tag(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"kind": "model", "meta": {"format_version": 2}, "variant": "rf"}')
        with pytest.raises(FormatVersionError):
            load_model(path)

    def test_truncated_file(self, small_regression, tmp_path):
        path = tmp_path / "model.json"
        model = fit_gbm(small_regression, BoostConfig(n_estimators=2, seed=1))
        save_model(model, path)
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        with pytest.raises(DataValidationError):
            load_model(path)

    def test_unknown_variant(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "kind": "model",
            "meta": {"format_version": 1, "seed": 0, "config_hash": "x"},
            "variant": "mystery",
            "feature_names": ["a"],
        }))
        with pytest.raises(DataValidationError):
            load_model(path)
