"""The three tree-ensemble learners and their serialization.

* random forest: bootstrap rows per tree, unweighted prediction average
* xgb: stagewise trees on squared-loss gradients with L2 leaf penalty
  lambda and per-split penalty gamma, shrunk by the learning rate
* gbm: the same loop with lambda = gamma = 0, which fits squared-loss
  residuals

Each tree/stage draws from its own stream derived from (seed, index), so
fitting order never changes the result.

A model's `trees` is one `tree.NodeTable`, the table its fit grew or its
file held: len(model.trees) counts its trees and model.trees[i] is tree
i.  Prediction descends all trees at once, one gather per level, and adds
their leaf values in tree order, so it gives the bits a loop over the
trees gives.  A model file holds `variant`, `config`, `feature_names`,
`trees` and a boosted model's `base_score`.  `trees` holds each node's
facts once, as NodeTable.to_document writes them: the table's `first`
and `feature`, the split nodes' thresholds and the leaves' values.  The
table in memory holds the same facts, with zeros on the other nodes.
Neither holds child ids: growth order implies them, and
NodeTable.from_document checks every tree's growth-order shape.  Nor
does either hold the rows that reached a node: weighted node sizes are
internal to growth, which sums them for min_samples_split.

`PUBLISHED` is the one home of the published best hyperparameters;
`variant_config` lays a parameter dict over them.  Each model config is
a `tree.TreeConfig` with its learner's fields added, so the tree engine
takes it as it is.  Every config checks its fields' types and ranges
when built, `replace()` and `load_model` included, and raises
DataValidationError.
"""

from dataclasses import asdict, dataclass, fields, replace
from typing import ClassVar

import numpy as np

from .artifacts import json_names, read_json_artifact, write_json_artifact
from .data import Dataset, round_half_up
from .errors import DataValidationError
from .rng import stream
from .tree import (
    CHUNK_ROWS, NodeTable, Presorted, TreeConfig, check_count, check_number, finite_number,
    fit_trees, fit_trees_gradients,
)


# The defaults of `train` and `reproduce`, keyed by variant; per variant,
# the keys a grid or a flag may set (not the seed or gbm's penalties).
PUBLISHED = {
    "rf": {"n_estimators": 220, "max_depth": 7, "min_samples_split": 3, "max_features": None},
    "gbm": {"n_estimators": 19, "learning_rate": 0.19, "max_depth": 3, "min_samples_split": 2,
            "max_features": None, "subsample": 1.0},
    "xgb": {"n_estimators": 50, "learning_rate": 0.1, "max_depth": 5, "min_samples_split": 2,
            "max_features": None, "subsample": 0.9, "reg_lambda": 1.0, "gamma": 0.0},
}


@dataclass
class ForestConfig(TreeConfig):
    n_estimators: int = 220
    max_depth: int | None = 7
    min_samples_split: int = 3
    seed: int = 0

    def __post_init__(self):
        check_count("n_estimators", self.n_estimators, 1)
        super().__post_init__()  # the three tree fields
        check_count("seed", self.seed, None)


@dataclass
class BoostConfig(TreeConfig):
    n_estimators: int = 50
    learning_rate: float = 0.1
    max_depth: int | None = 3
    subsample: float = 1.0
    reg_lambda: float = 1.0  # xgb only
    gamma: float = 0.0  # xgb only
    seed: int = 0

    def __post_init__(self):
        check_count("n_estimators", self.n_estimators, 0)
        check_number("learning_rate", self.learning_rate, rate=True)
        super().__post_init__()  # the three tree fields
        check_number("subsample", self.subsample, rate=True)
        check_number("reg_lambda", self.reg_lambda, rate=False)
        check_number("gamma", self.gamma, rate=False)
        check_count("seed", self.seed, None)
        # held as floats, so a rate given as 1 is saved and hashed as 1.0 is
        for name in ("learning_rate", "subsample", "reg_lambda", "gamma"):
            setattr(self, name, float(getattr(self, name)))


def variant_config(variant: str, params: dict, seed: int):
    """The config of one learner: `params` over its PUBLISHED defaults.

    DataValidationError for an unknown variant or key, or a value of the
    wrong type or range.  gbm's reg_lambda and gamma are left at their
    defaults; `fit_models` pins them to 0.
    """
    if variant not in PUBLISHED:
        raise DataValidationError(
            f"unknown model variant {variant!r}; expected one of {list(PUBLISHED)}"
        )
    unknown = sorted(set(params) - set(PUBLISHED[variant]))
    if unknown:
        raise DataValidationError(
            f"{unknown[0]} does not apply to {variant}; "
            f"its hyperparameters are {sorted(PUBLISHED[variant])}"
        )
    merged = {**PUBLISHED[variant], **params, "seed": seed}
    return (ForestConfig if variant == "rf" else BoostConfig)(**merged)


@dataclass
class ForestModel:
    trees: NodeTable
    config: ForestConfig
    feature_names: list
    variant: ClassVar[str] = "rf"

    def predict(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = np.zeros(X.shape[0])
        self.trees.add_predictions(X, out)
        return out / len(self.trees)


@dataclass
class BoostedModel:
    variant: str  # "gbm" or "xgb"
    base_score: float
    trees: NodeTable  # the stages
    config: BoostConfig
    feature_names: list

    def predict(self, X, n_stages: int | None = None) -> np.ndarray:
        """The prediction of the first n_stages stages, or of all of them if None."""
        check_count("n_stages", n_stages, 0, nullable=True)
        if n_stages is not None and n_stages > len(self.trees):
            raise DataValidationError(
                f"n_stages must be at most the model's {len(self.trees)} stages, got {n_stages}"
            )
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = np.full(X.shape[0], self.base_score)
        self.trees.add_predictions(X, out, scale=self.config.learning_rate, n_trees=n_stages)
        return out


def fit_forest(data: Dataset, config: ForestConfig) -> ForestModel:
    """Fit n_estimators trees on bootstrap resamples (with replacement).

    A resample is passed as integer weights on its distinct rows: how
    often each row was drawn.  All the trees grow together, as one batch
    of `tree.fit_trees` on one `tree.Presorted` of the data.
    """
    [model] = fit_models("rf", config, [(data, config.seed)])
    return model


def fit_models(variant: str, config, jobs):
    """Fit one `variant` model per (dataset, seed) of `jobs`, with config at that seed.

    An iterator over the models, in order; each equals the one fit_forest,
    fit_gbm or fit_xgb fits on its dataset alone at
    replace(config, seed=seed).  Boosted models grow in lockstep groups:
    stage t of every model of a group is one `tree.fit_trees_gradients`
    batch.  A group holds consecutive models whose rows sum to at most
    CHUNK_ROWS, so its stage is one chunk, and only one group's models
    are held at a time.
    """
    if variant == "rf":
        return _fit_forests(config, jobs)
    if variant == "gbm":
        config = replace(config, reg_lambda=0.0, gamma=0.0)
    return _fit_boosted(config, jobs, variant)


def _fit_forests(config: ForestConfig, jobs):
    def tree_jobs(data, seed):
        matrix = Presorted(data.X)
        for k in range(config.n_estimators):
            rng = stream(seed, "forest_tree", k)
            drawn = np.bincount(rng.integers(0, data.n, size=data.n), minlength=data.n)
            rows = np.flatnonzero(drawn)
            yield matrix, rows, data.y[rows], drawn[rows], rng

    for data, seed in jobs:
        if data.n < 2:
            raise DataValidationError("need at least 2 rows to fit a forest")
        config.validate(data.m)
        yield ForestModel(trees=fit_trees(tree_jobs(data, seed), config),
                          config=replace(config, seed=seed),
                          feature_names=list(data.feature_names))


def _stage_rows(rng: np.random.Generator, n: int, subsample: float) -> np.ndarray:
    """Per-stage row subset, drawn without replacement; ascending, as a tree job's rows must be."""
    if subsample >= 1.0:
        return np.arange(n)
    size = max(2, min(n, round_half_up(subsample * n)))
    return np.sort(rng.choice(n, size=size, replace=False))


def _fit_boosted(config: BoostConfig, jobs, variant: str):
    """The models of fit_models, in lockstep groups of at most CHUNK_ROWS rows."""
    group, rows = [], 0
    for data, seed in jobs:
        if data.n < 2:
            raise DataValidationError("need at least 2 rows to fit a boosted model")
        config.validate(data.m)
        if group and rows + data.n > CHUNK_ROWS:
            yield from _boost_lockstep(config, group, variant)
            group, rows = [], 0
        group.append((data, seed))
        rows += data.n
    if group:
        yield from _boost_lockstep(config, group, variant)


def _boost_lockstep(config: BoostConfig, group, variant: str) -> list:
    """Stagewise boosting under squared loss: each stage grows on the
    gradients pred - y, each row of weight 1 (the hessian).

    Stage t of every model of the group is one batch, and each model's
    stages share one `tree.Presorted` of its data.  Model i's stages are
    the i-th trees of the stages' tables, joined into one at the end.
    """
    matrices = [Presorted(data.X) for data, _ in group]
    predictions = [np.full(data.n, float(data.y.mean())) for data, _ in group]
    stages = []  # one table per stage, its trees in group order

    def stage_jobs(t):
        for (data, seed), matrix, prediction in zip(group, matrices, predictions):
            rng = stream(seed, "stage", t)
            rows = _stage_rows(rng, data.n, config.subsample)
            grad = prediction - data.y
            yield matrix, rows, grad[rows], rng

    for t in range(config.n_estimators):
        stage = fit_trees_gradients(stage_jobs(t), config, config.reg_lambda, config.gamma)
        stages.append(stage)
        for i, (data, _) in enumerate(group):
            predictions[i] = predictions[i] + config.learning_rate * stage[i].predict_matrix(data.X)
    return [
        BoostedModel(
            variant=variant,
            base_score=float(data.y.mean()),
            trees=NodeTable.join([stage[i] for stage in stages], data.m),
            config=replace(config, seed=seed),
            feature_names=list(data.feature_names),
        )
        for i, (data, seed) in enumerate(group)
    ]


def fit_gbm(data: Dataset, config: BoostConfig) -> BoostedModel:
    """Classic gradient boosting under squared loss: stages fit residuals.

    With lambda = gamma = 0 each leaf -G/n is the mean residual of its n
    rows and each gain is half the SSE reduction, so the stages are the
    classic residual-fit trees.  config.reg_lambda and config.gamma
    are replaced by 0, and the model's config records the 0s.
    """
    [model] = fit_models("gbm", config, [(data, config.seed)])
    return model


def fit_xgb(data: Dataset, config: BoostConfig) -> BoostedModel:
    """Second-order boosting with L2 leaf penalty and per-split penalty."""
    [model] = fit_models("xgb", config, [(data, config.seed)])
    return model


# --- serialization ----------------------------------------------------------

def save_model(model, path) -> None:
    """Write variant, config, feature_names, trees and a boosted model's base_score;
    the config, which meta hashes, is the one home of the seed and learning rate."""
    payload = {
        "variant": model.variant,
        "config": asdict(model.config),
        "feature_names": model.feature_names,
        "trees": model.trees.to_document(),
    }
    if isinstance(model, BoostedModel):
        payload["base_score"] = model.base_score
    write_json_artifact(path, "model", payload, seed=model.config.seed, config=payload["config"])


def _config_from(document, config_type, path):
    config = document.get("config")
    expected = sorted(f.name for f in fields(config_type))
    if not isinstance(config, dict) or sorted(config) != expected:
        raise DataValidationError(f"{path}: model config must hold exactly the keys {expected}")
    try:
        return config_type(**config)
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: model config: {exc}") from exc


def load_model(path):
    document = read_json_artifact(path, "model")
    variant = document.get("variant")
    if variant not in PUBLISHED:
        raise DataValidationError(f"{path}: unknown model variant {variant!r}")
    names = json_names(document.get("feature_names"), f"{path}: feature_names")
    try:
        table = NodeTable.from_document(document.get("trees"), len(names))
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: {exc}") from exc
    if variant == "rf" and not len(table):
        raise DataValidationError(f"{path}: an rf model must hold at least one tree")
    if variant == "rf":
        config = _config_from(document, ForestConfig, path)
        return ForestModel(trees=table, config=config, feature_names=names)
    config = _config_from(document, BoostConfig, path)
    # a top-level learning_rate, which older files hold, is ignored
    base_score = document.get("base_score")
    if not finite_number(base_score):
        raise DataValidationError(f"{path}: base_score must be a finite number")
    return BoostedModel(
        variant=variant,
        base_score=float(base_score),
        trees=table,
        config=config,
        feature_names=names,
    )
