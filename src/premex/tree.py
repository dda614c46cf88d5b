"""CART-style binary regression trees.

Split search is exact: every midpoint between adjacent distinct sorted
feature values is a candidate.  Two growth criteria share the engine:

* plain SSE reduction with leaf = mean target (forests)
* regularized second-order gain with leaf = -G/(H + lambda) (boosting
  stages; gbm's are the lambda = gamma = 0 case)

Ties are broken toward the lowest feature index, then the lowest
threshold, so identical inputs always grow identical trees.

A tree is one flat node table: the equal-length columns `feature`,
`threshold`, `left`, `right`, `value` and `count`, indexed by node id.
Node 0 is the root, and nodes are numbered depth-first, left child
first, so every child's id is greater than its parent's.  A row goes
left when row[feature] <= threshold.  A leaf has feature -1 and
threshold 0; its `left` and `right` point to the leaf itself, so a
batch of rows descends in exactly depth() gathers with no leaf test.
`value` is the leaf prediction (0 on internal nodes) and `count` the
number of training rows that reached the node.  The model JSON stores
the six columns as they are.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DataValidationError

COLUMNS = ("feature", "threshold", "left", "right", "value", "count")


def check_count(name: str, value, minimum: int | None, nullable: bool = False) -> None:
    """DataValidationError unless value is an int >= minimum, or None if nullable.

    bool is not a count, although Python makes it an int.
    """
    if value is None and nullable:
        return
    is_int = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not is_int or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise DataValidationError(
            f"{name} must be an integer{bound}{' or null' if nullable else ''}, got {value!r}"
        )


@dataclass
class TreeConfig:
    max_depth: int | None = None  # None = unbounded
    min_samples_split: int = 2
    max_features: int | None = None  # None = all features

    def __post_init__(self):
        check_count("max_depth", self.max_depth, 0, nullable=True)
        check_count("min_samples_split", self.min_samples_split, 2)
        check_count("max_features", self.max_features, 1, nullable=True)

    def validate(self, n_features: int) -> None:
        """The one data-dependent check: max_features <= n_features."""
        if self.max_features is not None and self.max_features > n_features:
            raise DataValidationError(
                f"max_features must be in 1..{n_features}, got {self.max_features}"
            )


@dataclass(eq=False)
class RegressionTree:
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    count: np.ndarray
    feature_count: int
    _depth: int = field(init=False, repr=False)

    def __post_init__(self):
        for name in COLUMNS:
            dtype = np.float64 if name in ("threshold", "value") else np.int64
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))
        # one step per level below the root; this loop ends only because
        # from_dict rejects tables whose child ids could form a cycle
        level = np.zeros(1, dtype=np.int64)
        self._depth = -1
        while level.size:
            self._depth += 1
            level = level[self.feature[level] >= 0]
            level = np.concatenate([self.left[level], self.right[level]])

    def depth(self) -> int:
        return self._depth

    def node_count(self) -> int:
        return int(self.feature.size)

    def predict_row(self, row) -> float:
        row = np.asarray(row, dtype=np.float64)
        if row.shape != (self.feature_count,):
            raise DataValidationError(
                f"row has {row.shape} values, tree expects {self.feature_count}"
            )
        node = 0
        while self.feature[node] >= 0:
            if row[self.feature[node]] <= self.threshold[node]:
                node = self.left[node]
            else:
                node = self.right[node]
        return float(self.value[node])

    def predict_matrix(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.feature_count:
            raise DataValidationError(
                f"matrix has shape {X.shape}, tree expects (*, {self.feature_count})"
            )
        # a leaf reads column -1 and steps to itself either way
        rows = np.arange(X.shape[0])
        node = np.zeros(X.shape[0], dtype=np.int64)
        for _ in range(self._depth):
            go_left = X[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return self.value[node]

    def to_dict(self) -> dict:
        return {name: getattr(self, name).tolist() for name in COLUMNS}

    @staticmethod
    def from_dict(document, feature_count: int) -> "RegressionTree":
        """Rebuild a tree from to_dict() output; DataValidationError if malformed."""
        if not isinstance(document, dict) or sorted(document) != sorted(COLUMNS):
            raise DataValidationError(f"a tree must hold exactly the columns {list(COLUMNS)}")
        table = {
            name: _column(document[name], name, "if" if name in ("threshold", "value") else "i")
            for name in COLUMNS
        }
        feature, left, right = table["feature"], table["left"], table["right"]
        n = feature.size
        if any(column.size != n for column in table.values()):
            raise DataValidationError("tree columns differ in length")
        if not (np.isfinite(table["threshold"]).all() and np.isfinite(table["value"]).all()):
            raise DataValidationError("tree thresholds and values must be finite")
        if feature.min() < -1 or feature.max() >= feature_count:
            raise DataValidationError(f"tree feature index outside -1..{feature_count - 1}")
        if table["count"].min() < 1:
            raise DataValidationError("tree row counts must be positive")
        ids = np.arange(n)
        leaf = feature < 0
        if (left[leaf] != ids[leaf]).any() or (right[leaf] != ids[leaf]).any():
            raise DataValidationError("a tree leaf must point to itself")
        parents = np.concatenate([ids[~leaf], ids[~leaf]])
        children = np.concatenate([left[~leaf], right[~leaf]])
        if (children <= parents).any() or not np.array_equal(np.sort(children), ids[1:]):
            raise DataValidationError(
                "tree child ids must exceed their parent's and cover 1..n-1 once"
            )
        return RegressionTree(**table, feature_count=feature_count)


def _column(values, name, kinds) -> np.ndarray:
    """One table column as a 1-d array whose dtype kind is in `kinds`."""
    try:
        array = np.asarray(values) if isinstance(values, list) and values else None
    except (ValueError, OverflowError):
        array = None
    if array is None or array.ndim != 1 or array.dtype.kind not in kinds:
        what = "integers" if kinds == "i" else "numbers"
        raise DataValidationError(f"tree column {name!r} must be a non-empty list of {what}")
    return array


def fit_tree(X, targets, config: TreeConfig, rng: np.random.Generator) -> RegressionTree:
    """Grow a tree greedily, maximizing SSE reduction; leaves predict means."""
    X, targets = _check_fit_inputs(X, targets, config)
    ones = np.ones_like(targets)
    return _grow(X, targets, ones, config, rng, reg_lambda=0.0, gamma=0.0, second_order=False)


def fit_tree_gradients(
    X,
    grad,
    hess,
    config: TreeConfig,
    rng: np.random.Generator,
    reg_lambda: float = 1.0,
    gamma: float = 0.0,
) -> RegressionTree:
    """Grow a tree on per-row (gradient, hessian) pairs.

    Split gain is 0.5*[G_L^2/(H_L+l) + G_R^2/(H_R+l) - G^2/(H+l)] - gamma
    and each leaf predicts -G/(H+l).
    """
    X, grad = _check_fit_inputs(X, grad, config)
    hess = np.ascontiguousarray(hess, dtype=np.float64)
    if hess.shape != grad.shape:
        raise DataValidationError("grad and hess must have equal length")
    return _grow(X, grad, hess, config, rng, reg_lambda=reg_lambda, gamma=gamma, second_order=True)


def _check_fit_inputs(X, targets, config):
    X = np.ascontiguousarray(X, dtype=np.float64)
    targets = np.ascontiguousarray(targets, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataValidationError("X must be a non-empty 2-d matrix")
    if targets.shape != (X.shape[0],):
        raise DataValidationError(
            f"{targets.shape[0]} targets for {X.shape[0]} rows"
        )
    config.validate(X.shape[1])
    return X, targets


def _grow(X, a, b, config, rng, *, reg_lambda, gamma, second_order) -> RegressionTree:
    """Shared growth engine over per-row statistics a (sums) and b (weights).

    SSE mode: a = targets, b = 1; node score is (sum a)^2 / n and the split
    gain is the exact SSE reduction.  Second-order mode: a = gradients,
    b = hessians; score is G^2/(H+lambda), gain is halved and gamma-penalized.
    Nodes are appended to the table in the order the stack pops them, which
    is depth-first with the left child first.
    """
    n_features = X.shape[1]
    k = config.max_features
    use_subsets = k is not None and k < n_features
    table = {name: [] for name in COLUMNS}

    # stack entries: (row indices, depth, parent id, child column)
    stack = [(np.arange(X.shape[0], dtype=np.int64), 0, -1, "left")]
    while stack:
        rows, depth, parent, side = stack.pop()
        node = len(table["feature"])
        if parent >= 0:
            table[side][parent] = node
        best_gain, best_feature, best_threshold = -np.inf, -1, 0.0
        depth_capped = config.max_depth is not None and depth >= config.max_depth
        if not (
            depth_capped
            or rows.size < config.min_samples_split
            or (not second_order and np.ptp(a[rows]) == 0.0)
        ):
            if use_subsets:
                candidates = np.sort(rng.choice(n_features, size=k, replace=False))
            else:
                candidates = np.arange(n_features)
            for f in candidates:
                gain, threshold = _best_split(
                    X[rows, f], a[rows], b[rows], reg_lambda, gamma, second_order
                )
                if gain > best_gain:
                    best_gain, best_feature, best_threshold = gain, int(f), threshold
        table["left"].append(node)
        table["right"].append(node)
        table["count"].append(rows.size)
        if best_gain <= 0.0:
            sa = float(a[rows].sum())
            sb = float(b[rows].sum())
            table["feature"].append(-1)
            table["threshold"].append(0.0)
            table["value"].append(-sa / (sb + reg_lambda) if second_order else sa / sb)
            continue
        table["feature"].append(best_feature)
        table["threshold"].append(best_threshold)
        table["value"].append(0.0)
        go_left = X[rows, best_feature] <= best_threshold
        stack.append((rows[~go_left], depth + 1, node, "right"))
        stack.append((rows[go_left], depth + 1, node, "left"))
    return RegressionTree(**table, feature_count=n_features)


def _best_split(column, a, b, reg_lambda, gamma, second_order):
    """Best (gain, threshold) for one feature; (-inf, 0) when unsplittable."""
    order = np.argsort(column, kind="stable")
    xs = column[order]
    if xs[0] == xs[-1]:
        return -np.inf, 0.0
    ca = np.cumsum(a[order])[:-1]
    cb = np.cumsum(b[order])[:-1]
    total_a, total_b = ca[-1] + a[order[-1]], cb[-1] + b[order[-1]]

    left_score = ca**2 / (cb + reg_lambda)
    right_score = (total_a - ca) ** 2 / (total_b - cb + reg_lambda)
    parent_score = total_a**2 / (total_b + reg_lambda)
    gains = left_score + right_score - parent_score
    if second_order:
        gains = 0.5 * gains - gamma

    splittable = xs[1:] > xs[:-1]
    gains[~splittable] = -np.inf
    best = int(np.argmax(gains))  # first max -> lowest threshold on ties
    if not np.isfinite(gains[best]):
        return -np.inf, 0.0
    threshold = (xs[best] + xs[best + 1]) / 2.0
    return float(gains[best]), float(threshold)
