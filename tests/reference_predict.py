"""Tree-at-a-time prediction, leaf boxes and TreeSHAP: the oracles for `premex.tree.NodeTable`.

Each tree walks its own node table here, one tree after another (a
model's one-tree views table[t]), as the ensembles did before their trees
shared one table.  A tree's children come from a loop over its nodes in
growth order (`children`), not from `premex.tree`.  A row's leaf masks
come from comparing it with each leaf's box, and the background is
grouped with np.unique.  Tests require
the whole table to give the same predictions, leaf masks, base value and
φ as these, bit for bit.
"""

import numpy as np

from premex.explain import _leaf_weights


def children(feature) -> tuple:
    """(left, right): each node's children in one tree's growth order, a
    leaf pointing to itself.

    Node ids are handed out in turn, two to each split node in node order:
    the k-th split node's children are nodes 2k + 1 and 2k + 2.
    """
    left, right, handed_out = [], [], 0
    for node, f in enumerate(np.asarray(feature).tolist()):
        if f >= 0:
            left.append(handed_out + 1)
            right.append(handed_out + 2)
            handed_out += 2
        else:
            left.append(node)
            right.append(node)
    return np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)


def tree_predictions(tree, X) -> np.ndarray:
    """One tree's leaf value per row of X, gathered level by level with 2-d indexing."""
    X = np.asarray(X, dtype=np.float64)
    left, right = children(tree.feature)
    rows = np.arange(X.shape[0])
    node = np.zeros(X.shape[0], dtype=np.int64)
    while (tree.feature[node] >= 0).any():  # a leaf reads column -1 and steps to itself
        go_left = X[rows, tree.feature[node]] <= tree.threshold[node]
        node = np.where(go_left, left[node], right[node])
    return tree.value[node]


def forest_predict(trees, X) -> np.ndarray:
    out = np.zeros(X.shape[0])
    for tree in trees:
        out += tree_predictions(tree, X)
    return out / len(trees)


def boosted_predict(trees, base_score, learning_rate, X) -> np.ndarray:
    out = np.full(X.shape[0], base_score)
    for tree in trees:
        out = out + learning_rate * tree_predictions(tree, X)
    return out


def leaf_boxes(tree, p: int):
    """(leaf ids, lo, hi): a row reaches leaf k iff lo[k] < row <= hi[k] on every feature.

    One pass in id order; every parent's id is lower than its children's.
    """
    lo = np.full((tree.feature.size, p), -np.inf)
    hi = np.full((tree.feature.size, p), np.inf)
    lefts, rights = children(tree.feature)
    for node in np.flatnonzero(tree.feature >= 0):
        f, t = tree.feature[node], tree.threshold[node]
        left, right = lefts[node], rights[node]
        lo[left] = lo[right] = lo[node]
        hi[left] = hi[right] = hi[node]
        hi[left, f] = min(hi[node, f], t)
        lo[right, f] = max(lo[node, f], t)
    leaves = np.flatnonzero(tree.feature < 0)
    return leaves, lo[leaves], hi[leaves]


def _leaf_masks(X, lo, hi) -> np.ndarray:
    masks = np.zeros((X.shape[0], lo.shape[0]), dtype=np.int64)
    for j in range(X.shape[1]):
        column = X[:, j : j + 1]
        masks |= ((lo[:, j] < column) & (column <= hi[:, j])).astype(np.int64) << j
    return masks


def tree_shap(trees, scale, offset, rows, background):
    """`premex.explain.tree_shap`'s (base value, φ), one tree at a time."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    B = np.asarray(background, dtype=np.float64)
    n, p = rows.shape
    everything = (1 << p) - 1
    plus, minus = _leaf_weights(p)
    phi = np.zeros((n, p))
    base_value = 0.0
    for tree in trees:
        leaves, lo, hi = leaf_boxes(tree, p)
        keys = (np.arange(leaves.size, dtype=np.int64) << p) | _leaf_masks(B, lo, hi)
        keys, counts = np.unique(keys, return_counts=True)
        leaf, z_mask = keys >> p, keys & everything
        weight = scale * tree.value[leaves[leaf]] * counts / B.shape[0]
        base_value += float(weight[z_mask == everything].sum())

        x_mask = _leaf_masks(rows, lo, hi)[:, leaf]
        row, group = np.nonzero((x_mask | z_mask) == everything)
        x_mask, z_mask = x_mask[row, group], z_mask[group]
        x_only, z_only = x_mask & ~z_mask, z_mask & ~x_mask
        a, b = np.bitwise_count(x_only), np.bitwise_count(z_only)
        gain, loss = plus[a, b] * weight[group], minus[a, b] * weight[group]
        for j in range(p):
            bit = 1 << j
            for only, amount in ((x_only, gain), (z_only, loss)):
                take = (only & bit) != 0
                phi[:, j] += np.bincount(row[take], weights=amount[take], minlength=n)
    return offset + base_value, phi
