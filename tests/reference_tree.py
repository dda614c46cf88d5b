"""A node-at-a-time tree growth engine: the oracle for `premex.tree`.

A first-in, first-out queue grows one node at a time, breadth-first with
the left child first, and every node sorts each candidate feature's
column afresh.  So nodes are numbered, and `max_features` subsets drawn,
in the order the level-wise engine in `premex.tree` makes them.  Tests
require that engine to grow the same node tables as `_grow` and
`_best_split` here, bit for bit.

`to_dicts` and `from_dicts` are the per-tree form that tests build and
compare trees in: one dict of the three columns per tree.  `from_dicts`
loads through `NodeTable.from_document`, the model file's reader, so a
table built in a test passes the checks a loaded model passes.
`old_columns` adds a tree's child ids and row counts, and
`seven_columns` and `five_columns` write such trees in the earlier model
file layouts, which loading refuses.
"""

from collections import deque

import numpy as np

from premex.tree import COLUMNS, NodeTable
from reference_predict import children

# a tree's columns in the earlier model file layouts, child ids and row
# counts included
OLD_COLUMNS = ("feature", "threshold", "left", "right", "value", "count")


def to_dicts(table) -> list:
    """Each tree of `table` as a dict of its three columns as lists, in tree order."""
    bounds = [*table.first.tolist(), table.feature.size]
    return [{name: getattr(table, name)[a:b].tolist() for name in COLUMNS}
            for a, b in zip(bounds, bounds[1:])]


def from_dicts(trees, feature_count: int) -> NodeTable:
    """The table of per-tree dicts of columns, checked as a model file's `trees` is.

    The file holds no child ids and no zero fillers, so the trees must be
    in growth order, with threshold 0 on leaves and value 0 on split
    nodes; ValueError if the loaded table is not the trees given.
    """
    sizes = [len(tree["feature"]) for tree in trees]
    cells = {name: [cell for tree in trees for cell in tree[name]] for name in COLUMNS}
    split = [type(f) is int and f >= 0 for f in cells["feature"]]
    document = {
        "first": np.cumsum([0, *sizes[:-1]]).tolist() if trees else [],
        "feature": cells["feature"],
        "threshold": [t for t, s in zip(cells["threshold"], split) if s],
        "value": [v for v, s in zip(cells["value"], split) if not s],
    }
    table = NodeTable.from_document(document, feature_count)
    if to_dicts(table) != [dict(tree) for tree in trees]:
        raise ValueError("the trees are not in growth order, or a leaf threshold or a split "
                         "node's value is not 0")
    return table


def old_columns(tree: dict) -> dict:
    """A tree's dict of columns with the rest of OLD_COLUMNS added: its
    growth-order `left` and `right`, and its `count` as if one training
    row reached each leaf."""
    left, right = (ids.tolist() for ids in children(tree["feature"]))
    count = [1] * len(left)
    for node in reversed(range(len(count))):  # children come after their parent
        if left[node] != node:
            count[node] = count[left[node]] + count[right[node]]
    return dict(tree, left=left, right=right, count=count)


def seven_columns(trees) -> dict:
    """Per-tree dicts of the six OLD_COLUMNS in the earlier seven-column
    model file layout: `first` and the six columns whole, child ids and
    zero fillers included."""
    sizes = [len(tree["feature"]) for tree in trees]
    document = {name: [cell for tree in trees for cell in tree[name]] for name in OLD_COLUMNS}
    document["first"] = np.cumsum([0, *sizes[:-1]]).tolist()
    return document


def five_columns(table) -> dict:
    """A table's `trees` object in the earlier five-column model file
    layout: the four columns of to_document() and `count` whole."""
    count = [cell for tree in to_dicts(table) for cell in old_columns(tree)["count"]]
    return dict(table.to_document(), count=count)


def fit_tree(X, targets, config, rng, weights=None):
    """An SSE tree; integer `weights` count each row that many times, as in premex.tree."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    targets = np.ascontiguousarray(targets, dtype=np.float64)
    counts = np.ones(targets.size, dtype=np.int64) if weights is None else np.asarray(weights)
    b = counts.astype(np.float64)
    return _grow(X, targets * b, b, counts, targets, config, rng,
                 reg_lambda=0.0, gamma=0.0, second_order=False)


def fit_tree_gradients(X, grad, hess, config, rng, reg_lambda=1.0, gamma=0.0):
    X = np.ascontiguousarray(X, dtype=np.float64)
    grad = np.ascontiguousarray(grad, dtype=np.float64)
    hess = np.ascontiguousarray(hess, dtype=np.float64)
    ones = np.ones(grad.size, dtype=np.int64)
    return _grow(X, grad, hess, ones, None, config, rng,
                 reg_lambda=reg_lambda, gamma=gamma, second_order=True)


def _grow(X, a, b, counts, targets, config, rng, *, reg_lambda, gamma,
          second_order) -> NodeTable:
    """Shared growth engine over per-row statistics a (sums) and b (weights).

    SSE mode: a = weight * target, b = weight; node score is
    (sum a)^2 / (sum b), the split gain is the exact SSE reduction, and a
    node whose targets are all equal is a leaf.  Second-order mode:
    a = gradients, b = hessians; score is G^2/(H+lambda), gain is halved
    and gamma-penalized.  `counts` are the integer row weights.  Nodes are
    appended to the table in the order the queue yields them, which is
    breadth-first with the left child first.
    """
    n_features = X.shape[1]
    k = config.max_features
    use_subsets = k is not None and k < n_features
    table = {name: [] for name in COLUMNS}

    # queue entries: (row indices, depth)
    queue = deque([(np.arange(X.shape[0], dtype=np.int64), 0)])
    while queue:
        rows, depth = queue.popleft()
        best_gain, best_feature, best_threshold = -np.inf, -1, 0.0
        depth_capped = config.max_depth is not None and depth >= config.max_depth
        if not (
            depth_capped
            or counts[rows].sum() < config.min_samples_split
            or (not second_order and np.ptp(targets[rows]) == 0.0)
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
        queue.append((rows[go_left], depth + 1))
        queue.append((rows[~go_left], depth + 1))
    return from_dicts([table], n_features)


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
