"""CART-style binary regression trees.

Split search is exact: every midpoint between adjacent distinct sorted
feature values is a candidate.  Two growth criteria share the engine:

* plain SSE reduction with leaf = mean target (forests)
* regularized second-order gain with leaf = -G/(H + lambda) (boosting
  stages; gbm's are the lambda = gamma = 0 case)

Ties are broken toward the lowest feature index, then the lowest
threshold, so identical inputs always grow identical trees.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataValidationError


@dataclass
class TreeConfig:
    max_depth: int | None = None  # None = unbounded
    min_samples_split: int = 2
    max_features: int | None = None  # None = all features
    min_gain: float = 0.0

    def validate(self, n_features: int) -> None:
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.max_features is not None and not 1 <= self.max_features <= n_features:
            raise ValueError(
                f"max_features must be in 1..{n_features}, got {self.max_features}"
            )
        if self.min_gain < 0:
            raise ValueError("min_gain must be >= 0")

    def to_dict(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "max_features": self.max_features,
            "min_gain": self.min_gain,
        }


@dataclass
class TreeNode:
    # internal: feature/threshold/left/right set; leaf: value/count set
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0
    count: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass
class RegressionTree:
    root: TreeNode
    feature_count: int
    config: TreeConfig
    _flat: dict = field(default=None, repr=False, compare=False)

    def depth(self) -> int:
        def walk(node):
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)

    def predict_row(self, row) -> float:
        row = np.asarray(row, dtype=np.float64)
        if row.shape != (self.feature_count,):
            raise DataValidationError(
                f"row has {row.shape} values, tree expects {self.feature_count}"
            )
        node = self.root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value

    def predict_matrix(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.feature_count:
            raise DataValidationError(
                f"matrix has shape {X.shape}, tree expects (*, {self.feature_count})"
            )
        flat = self._flatten()
        idx = np.zeros(X.shape[0], dtype=np.int64)
        rows = np.arange(X.shape[0])
        for _ in range(flat["depth"]):
            feat = flat["feature"][idx]
            lookup = np.where(feat >= 0, feat, 0)
            go_left = X[rows, lookup] <= flat["threshold"][idx]
            step = np.where(go_left, flat["left"][idx], flat["right"][idx])
            idx = np.where(feat >= 0, step, idx)
        return flat["value"][idx]

    def _flatten(self) -> dict:
        # Arrays indexed by node id; leaves self-loop so the level
        # iteration in predict_matrix is a fixed-depth gather.
        if self._flat is not None:
            return self._flat
        feature, threshold, left, right, value = [], [], [], [], []

        def add(node) -> int:
            node_id = len(feature)
            feature.append(node.feature)
            threshold.append(node.threshold)
            left.append(node_id)
            right.append(node_id)
            value.append(node.value)
            if not node.is_leaf:
                left[node_id] = add(node.left)
                right[node_id] = add(node.right)
                value[node_id] = 0.0
            return node_id

        # children of the root get ids after it, so id 0 is always the root
        add(self.root)
        self._flat = {
            "feature": np.asarray(feature, dtype=np.int64),
            "threshold": np.asarray(threshold, dtype=np.float64),
            "left": np.asarray(left, dtype=np.int64),
            "right": np.asarray(right, dtype=np.int64),
            "value": np.asarray(value, dtype=np.float64),
            "depth": self.depth(),
        }
        return self._flat

    def node_count(self) -> int:
        def walk(node):
            if node.is_leaf:
                return 1
            return 1 + walk(node.left) + walk(node.right)

        return walk(self.root)

    def to_dict(self) -> dict:
        def encode(node):
            if node.is_leaf:
                return {"value": node.value, "count": node.count}
            return {
                "feature": node.feature,
                "threshold": node.threshold,
                "left": encode(node.left),
                "right": encode(node.right),
            }

        return encode(self.root)

    @staticmethod
    def from_dict(document, feature_count: int, config: TreeConfig) -> "RegressionTree":
        def decode(doc):
            if "value" in doc:
                return TreeNode(value=float(doc["value"]), count=int(doc["count"]))
            return TreeNode(
                feature=int(doc["feature"]),
                threshold=float(doc["threshold"]),
                left=decode(doc["left"]),
                right=decode(doc["right"]),
            )

        return RegressionTree(decode(document), feature_count, config)


def fit_tree(X, targets, config: TreeConfig, rng: np.random.Generator) -> RegressionTree:
    """Grow a tree greedily, maximizing SSE reduction; leaves predict means."""
    X, targets = _check_fit_inputs(X, targets, config)
    ones = np.ones_like(targets)
    root = _grow(X, targets, ones, config, rng, reg_lambda=0.0, gamma=0.0, second_order=False)
    return RegressionTree(root, X.shape[1], config)


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
    root = _grow(X, grad, hess, config, rng, reg_lambda=reg_lambda, gamma=gamma, second_order=True)
    return RegressionTree(root, X.shape[1], config)


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


def _grow(X, a, b, config, rng, *, reg_lambda, gamma, second_order) -> TreeNode:
    """Shared growth engine over per-row statistics a (sums) and b (weights).

    SSE mode: a = targets, b = 1; node score is (sum a)^2 / n and the split
    gain is the exact SSE reduction.  Second-order mode: a = gradients,
    b = hessians; score is G^2/(H+lambda), gain is halved and gamma-penalized.
    """
    n_features = X.shape[1]
    k = config.max_features
    use_subsets = k is not None and k < n_features

    def leaf_from(rows) -> TreeNode:
        sa = float(a[rows].sum())
        sb = float(b[rows].sum())
        if second_order:
            value = -sa / (sb + reg_lambda)
        else:
            value = sa / sb
        return TreeNode(value=value, count=int(rows.size))

    root_holder = [None]
    # stack entries: (row indices, depth, parent holder, child slot)
    stack = [(np.arange(X.shape[0], dtype=np.int64), 0, root_holder, 0)]
    while stack:
        rows, depth, holder, slot = stack.pop()
        node = None
        depth_capped = config.max_depth is not None and depth >= config.max_depth
        if depth_capped or rows.size < config.min_samples_split:
            node = leaf_from(rows)
        elif not second_order and np.ptp(a[rows]) == 0.0:
            node = leaf_from(rows)
        else:
            if use_subsets:
                candidates = np.sort(rng.choice(n_features, size=k, replace=False))
            else:
                candidates = np.arange(n_features)
            best_gain, best_feature, best_threshold = -np.inf, -1, 0.0
            for f in candidates:
                gain, threshold = _best_split(
                    X[rows, f], a[rows], b[rows], reg_lambda, gamma, second_order
                )
                if gain > best_gain:
                    best_gain, best_feature, best_threshold = gain, int(f), threshold
            if best_feature < 0 or best_gain <= config.min_gain:
                node = leaf_from(rows)
        if node is not None:
            holder[slot] = node
            continue
        node = TreeNode(feature=best_feature, threshold=best_threshold)
        holder[slot] = node
        go_left = X[rows, best_feature] <= best_threshold
        child_holder = _NodeChildren(node)
        stack.append((rows[~go_left], depth + 1, child_holder, 1))
        stack.append((rows[go_left], depth + 1, child_holder, 0))
    return root_holder[0]


class _NodeChildren:
    """Lets the growth stack assign node.left/right by slot index."""

    def __init__(self, node: TreeNode):
        self.node = node

    def __setitem__(self, slot: int, child: TreeNode) -> None:
        if slot == 0:
            self.node.left = child
        else:
            self.node.right = child


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
