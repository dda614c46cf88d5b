"""The three tree-ensemble learners and their serialization.

* random forest: bootstrap rows per tree, unweighted prediction average
* xgb: stagewise trees on (gradient, hessian) with L2 leaf penalty lambda
  and per-split penalty gamma, shrunk by the learning rate
* gbm: the same loop with lambda = gamma = 0, which fits squared-loss
  residuals

Each tree/stage draws from its own stream derived from (seed, index), so
fitting order never changes the result.
"""

from dataclasses import dataclass, fields, replace

import numpy as np

from .artifacts import read_json_artifact, write_json_artifact
from .data import Dataset, round_half_up
from .errors import DataValidationError
from .rng import stream
from .tree import RegressionTree, TreeConfig, fit_tree, fit_tree_gradients


@dataclass
class ForestConfig:
    n_estimators: int = 220
    max_depth: int | None = 7
    min_samples_split: int = 3
    max_features: int | None = None  # None = all features
    bootstrap: bool = True
    seed: int = 0

    def tree_config(self) -> TreeConfig:
        return TreeConfig(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            max_features=self.max_features,
        )

    def to_dict(self) -> dict:
        return {
            "n_estimators": self.n_estimators,
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "max_features": self.max_features,
            "bootstrap": self.bootstrap,
            "seed": self.seed,
        }


@dataclass
class BoostConfig:
    n_estimators: int = 50
    learning_rate: float = 0.1
    max_depth: int | None = 3
    min_samples_split: int = 2
    max_features: int | None = None
    subsample: float = 1.0
    reg_lambda: float = 1.0  # xgb only
    gamma: float = 0.0  # xgb only
    seed: int = 0

    def validate(self) -> None:
        if self.n_estimators < 0:
            raise ValueError("n_estimators must be >= 0")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if self.reg_lambda < 0 or self.gamma < 0:
            raise ValueError("reg_lambda and gamma must be >= 0")

    def tree_config(self) -> TreeConfig:
        return TreeConfig(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            max_features=self.max_features,
        )

    def to_dict(self) -> dict:
        return {
            "n_estimators": self.n_estimators,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "max_features": self.max_features,
            "subsample": self.subsample,
            "reg_lambda": self.reg_lambda,
            "gamma": self.gamma,
            "seed": self.seed,
        }


@dataclass
class ForestModel:
    trees: list
    config: ForestConfig
    feature_names: list
    variant: str = "rf"

    @property
    def feature_count(self) -> int:
        return self.trees[0].feature_count

    def predict(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        # chunked so huge attribution batches never stack K full-size rows;
        # the per-column mean over trees is unchanged by row chunking
        out = np.empty(X.shape[0])
        for start in range(0, X.shape[0], 8192):
            block = X[start : start + 8192]
            stacked = np.stack([tree.predict_matrix(block) for tree in self.trees])
            out[start : start + 8192] = stacked.mean(axis=0)
        return out


@dataclass
class BoostedModel:
    variant: str  # "gbm" or "xgb"
    base_score: float
    learning_rate: float
    stages: list
    config: BoostConfig
    feature_names: list

    @property
    def feature_count(self) -> int:
        if self.stages:
            return self.stages[0].feature_count
        return len(self.feature_names)

    def predict(self, X, n_stages: int | None = None) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if self.stages and X.shape[1] != self.feature_count:
            raise DataValidationError(
                f"matrix has {X.shape[1]} columns, model expects {self.feature_count}"
            )
        use = self.stages if n_stages is None else self.stages[:n_stages]
        out = np.full(X.shape[0], self.base_score)
        for tree in use:
            out = out + self.learning_rate * tree.predict_matrix(X)
        return out


def fit_forest(data: Dataset, config: ForestConfig) -> ForestModel:
    """Fit n_estimators trees on bootstrap resamples (with replacement)."""
    if data.n < 2:
        raise DataValidationError("need at least 2 rows to fit a forest")
    if config.n_estimators < 1:
        raise ValueError("a forest needs at least one tree")
    tree_config = config.tree_config()
    tree_config.validate(data.m)
    trees = []
    for k in range(config.n_estimators):
        rng = stream(config.seed, "forest_tree", k)
        if config.bootstrap:
            rows = rng.integers(0, data.n, size=data.n)
            X, y = data.X[rows], data.y[rows]
        else:
            X, y = data.X, data.y
        trees.append(fit_tree(X, y, tree_config, rng))
    return ForestModel(trees=trees, config=config, feature_names=list(data.feature_names))


def _stage_rows(rng: np.random.Generator, n: int, subsample: float) -> np.ndarray:
    """Per-stage row subset, drawn without replacement; sorted for determinism."""
    if subsample >= 1.0:
        return np.arange(n)
    size = max(2, min(n, round_half_up(subsample * n)))
    return np.sort(rng.choice(n, size=size, replace=False))


def _fit_boosted(data: Dataset, config: BoostConfig, variant: str) -> BoostedModel:
    """Stagewise second-order boosting under squared loss: g = pred - y, h = 1."""
    config.validate()
    if data.n < 2:
        raise DataValidationError("need at least 2 rows to fit a boosted model")
    tree_config = config.tree_config()
    tree_config.validate(data.m)
    base = float(data.y.mean())
    predictions = np.full(data.n, base)
    ones = np.ones(data.n)
    stages = []
    for t in range(config.n_estimators):
        rng = stream(config.seed, "stage", t)
        rows = _stage_rows(rng, data.n, config.subsample)
        grad = predictions - data.y
        tree = fit_tree_gradients(
            data.X[rows], grad[rows], ones[rows], tree_config, rng,
            reg_lambda=config.reg_lambda, gamma=config.gamma,
        )
        stages.append(tree)
        predictions = predictions + config.learning_rate * tree.predict_matrix(data.X)
    return BoostedModel(
        variant=variant,
        base_score=base,
        learning_rate=config.learning_rate,
        stages=stages,
        config=config,
        feature_names=list(data.feature_names),
    )


def fit_gbm(data: Dataset, config: BoostConfig) -> BoostedModel:
    """Classic gradient boosting under squared loss: stages fit residuals.

    With lambda = gamma = 0 each second-order leaf -G/H is the mean residual
    of its rows and each gain is half the SSE reduction, so the stages are
    the classic residual-fit trees.  config.reg_lambda and config.gamma
    are replaced by 0, and the model's config records the 0s.
    """
    return _fit_boosted(data, replace(config, reg_lambda=0.0, gamma=0.0), "gbm")


def fit_xgb(data: Dataset, config: BoostConfig) -> BoostedModel:
    """Second-order boosting with L2 leaf penalty and per-split penalty."""
    return _fit_boosted(data, config, "xgb")


# --- serialization ----------------------------------------------------------

def _model_payload(model) -> tuple:
    if isinstance(model, ForestModel):
        return "rf", {
            "variant": "rf",
            "config": model.config.to_dict(),
            "feature_names": model.feature_names,
            "trees": [tree.to_dict() for tree in model.trees],
        }
    if isinstance(model, BoostedModel):
        return model.variant, {
            "variant": model.variant,
            "config": model.config.to_dict(),
            "feature_names": model.feature_names,
            "base_score": model.base_score,
            "learning_rate": model.learning_rate,
            "trees": [tree.to_dict() for tree in model.stages],
        }
    raise TypeError(f"not a model: {type(model)!r}")


def save_model(model, path) -> None:
    _, payload = _model_payload(model)
    write_json_artifact(path, "model", payload, seed=model.config.seed, config=payload["config"])


def _config_from(document, config_type, path):
    config = document.get("config")
    expected = sorted(f.name for f in fields(config_type))
    if not isinstance(config, dict) or sorted(config) != expected:
        raise DataValidationError(f"{path}: model config must hold exactly the keys {expected}")
    return config_type(**config)


def load_model(path):
    document = read_json_artifact(path, "model")
    variant = document.get("variant")
    if variant not in ("rf", "gbm", "xgb"):
        raise DataValidationError(f"{path}: unknown model variant {variant!r}")
    names = document.get("feature_names")
    if not (isinstance(names, list) and names and all(isinstance(n, str) for n in names)):
        raise DataValidationError(f"{path}: feature_names must be a non-empty list of names")
    if not isinstance(document.get("trees"), list) or (variant == "rf" and not document["trees"]):
        raise DataValidationError(f"{path}: trees must be a list, non-empty for rf")
    try:
        trees = [RegressionTree.from_dict(doc, len(names)) for doc in document["trees"]]
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: {exc}") from exc
    if variant == "rf":
        config = _config_from(document, ForestConfig, path)
        return ForestModel(trees=trees, config=config, feature_names=names)
    config = _config_from(document, BoostConfig, path)
    scalars = [document.get("base_score"), document.get("learning_rate")]
    if not all(type(v) in (int, float) and np.isfinite(v) for v in scalars):
        raise DataValidationError(f"{path}: base_score and learning_rate must be finite numbers")
    return BoostedModel(
        variant=variant,
        base_score=float(scalars[0]),
        learning_rate=float(scalars[1]),
        stages=trees,
        config=config,
        feature_names=names,
    )


# Published best parameters used as training defaults per variant.
def default_forest_config(seed: int = 0) -> ForestConfig:
    return ForestConfig(
        n_estimators=220,
        max_depth=7,
        min_samples_split=3,
        max_features=None,
        bootstrap=True,
        seed=seed,
    )


def default_gbm_config(seed: int = 0) -> BoostConfig:
    return BoostConfig(
        n_estimators=19,
        learning_rate=0.19,
        max_depth=3,
        min_samples_split=2,
        subsample=1.0,
        reg_lambda=0.0,
        gamma=0.0,
        seed=seed,
    )


def default_xgb_config(seed: int = 0) -> BoostConfig:
    return BoostConfig(
        n_estimators=50,
        learning_rate=0.1,
        max_depth=5,
        min_samples_split=2,
        subsample=0.9,
        reg_lambda=1.0,
        gamma=0.0,
        seed=seed,
    )
