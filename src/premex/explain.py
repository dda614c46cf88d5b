"""Explanations: exact interventional Shapley values and ICE curves.

The Shapley value function is interventional: val(S) replaces the
features outside S with background rows and averages the predictions.

`tree_shap` computes these values for a tree ensemble in closed form from
its node table (`tree.NodeTable`).  For an explained row x and a
background row z, a leaf is reached by a hybrid row iff every feature of
its path takes its value from a row that meets the leaf's condition on
it.  With a features met only by x and b met only by z, the leaf's value
adds (a-1)!·b!/(a+b)! to each x-only feature and -a!·(b-1)!/(a+b)! to
each z-only feature (Lundberg et al. 2020, arXiv 1905.04610; Laberge &
Pequignot 2022, arXiv 2209.15123).  Background rows are grouped per leaf
by the features they meet, so the cost per tree is explained rows times
(leaf, mask) groups, with no model evaluation.  The leaf boxes, masks and
groups of a block of trees are found at once, level by level and with one
`np.unique`; each tree's sums are still formed alone and added in tree
order, so the results do not depend on the blocks.

`shap_exact` works against a bare prediction function (matrix in, vector
out) and enumerates all 2^p coalitions, 2^p x |background| model rows per
explained row.  It is the model-agnostic oracle the tests hold
`tree_shap` to.  Both take the background as a matrix and return
(base value, φ), φ an explained rows x p array; `importance` ranks the
features by sum of |φ|.  ICE curves also take a bare prediction function:
`ice_curves` returns (grid, curves), one row of curves per explained row,
and `center_ice` and `derivative_ice` map curves to curves.
"""

import math

import numpy as np

from .errors import DataValidationError, NumericError
from .tree import BLOCK_CELLS

MAX_EXACT_FEATURES = 20


def _subset_weights(p: int) -> np.ndarray:
    # weight of a coalition of size s when adding one more feature
    return np.array(
        [math.factorial(s) * math.factorial(p - s - 1) / math.factorial(p) for s in range(p)]
    )


def _background_matrix(background, p: int) -> np.ndarray:
    """The background as a float matrix of at least 1 row and p columns."""
    B = np.asarray(background, dtype=np.float64)
    if B.ndim != 2 or B.shape[0] < 1:
        raise DataValidationError("background must be a 2-d matrix with at least one row")
    if B.shape[1] != p:
        raise DataValidationError("background and explained rows differ in width")
    return B


def shap_exact(predict_fn, rows, background):
    """(base value, φ): exact Shapley attributions by full subset enumeration.

    For each explained row all 2^p hybrid batches are evaluated in one
    prediction call; val(S) is then a cached lookup, so each feature's
    sum over subsets costs nothing extra.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    p = rows.shape[1]
    if p > MAX_EXACT_FEATURES:
        raise DataValidationError(
            f"{p} features would need 2^{p} subsets; refusing beyond {MAX_EXACT_FEATURES}"
        )
    B = _background_matrix(background, p)

    n_subsets = 1 << p
    weights = _subset_weights(p)
    popcount = np.array([bin(mask).count("1") for mask in range(n_subsets)])
    mask_columns = np.array(
        [[(mask >> j) & 1 == 1 for j in range(p)] for mask in range(n_subsets)]
    )
    # masks that exclude feature j, paired with the mask that adds it
    without = [np.nonzero(~mask_columns[:, j])[0] for j in range(p)]

    phi = np.zeros((rows.shape[0], p))
    base_value = 0.0
    for i, row in enumerate(rows):
        batch = np.tile(B, (n_subsets, 1))
        for mask in range(1, n_subsets):
            block = batch[mask * B.shape[0] : (mask + 1) * B.shape[0]]
            block[:, mask_columns[mask]] = row[mask_columns[mask]]
        values = predict_fn(batch).reshape(n_subsets, B.shape[0]).mean(axis=1)
        if i == 0:
            base_value = float(values[0])
        for j in range(p):
            masks = without[j]
            gains = values[masks | (1 << j)] - values[masks]
            phi[i, j] = float(np.sum(weights[popcount[masks]] * gains))
    return base_value, phi


def _leaf_weights(p: int):
    """Shapley weights of a leaf game with a x-only and b z-only features.

    plus[a, b] = (a-1)!·b!/(a+b)! goes to each x-only feature and
    minus[a, b] = -a!·(b-1)!/(a+b)! to each z-only one.
    """
    plus = np.zeros((p + 1, p + 1))
    minus = np.zeros((p + 1, p + 1))
    for a in range(p + 1):
        for b in range(p + 1):
            if a:
                plus[a, b] = math.factorial(a - 1) * math.factorial(b) / math.factorial(a + b)
            if b:
                minus[a, b] = -math.factorial(a) * math.factorial(b - 1) / math.factorial(a + b)
    return plus, minus


def _leaf_masks(X, lo, hi) -> np.ndarray:
    """Per row and leaf, the bitmask of the features whose leaf condition the row meets."""
    shape = (X.shape[0], lo.shape[0])
    masks = np.zeros(shape, dtype=np.uint32)
    met, below = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
    for j, (lo_j, hi_j) in enumerate(zip(np.ascontiguousarray(lo.T), np.ascontiguousarray(hi.T))):
        column = X[:, j : j + 1]
        np.less(lo_j, column, out=met)
        np.less_equal(column, hi_j, out=below)
        met &= below
        masks |= met.astype(np.uint32) << np.uint32(j)
    return masks


def tree_shap(table, scale: float, offset: float, rows, background):
    """shap_exact's (base value, φ) for the model offset + scale * sum(trees),
    the trees of `table` (a tree.NodeTable).

    Per tree, background rows are counted by (leaf, mask of the features
    they meet there); each explained row then makes one pass over those
    groups.  A group adds nothing when some feature is met by neither row,
    and otherwise adds the leaf's value, weighted as in _leaf_weights, to
    the features met by only one of them.  The base value is the mean
    prediction over the background: the groups whose rows meet every
    feature, i.e. reach the leaf.

    The trees are taken in blocks whose leaves times background rows fit
    BLOCK_CELLS, and the explained rows in blocks whose rows times groups
    do.  Every tree's sums are still formed on their own and added in tree
    order, so φ and the base value do not depend on the blocks.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    n, p = rows.shape
    if p > MAX_EXACT_FEATURES:
        raise DataValidationError(
            f"{p} features do not fit the feature masks; refusing beyond {MAX_EXACT_FEATURES}"
        )
    B = _background_matrix(background, p)
    if table.feature_count != p:
        raise DataValidationError("trees and explained rows differ in width")
    # NaN meets no leaf condition, so φ and the base value would be numbers that mean nothing
    if not (np.isfinite(rows).all() and np.isfinite(B).all()):
        raise DataValidationError("explained and background rows must be finite (no NaN or inf)")

    everything = (1 << p) - 1
    plus, minus = _leaf_weights(p)
    phi = np.zeros((n, p))
    base_value = 0.0
    for start, stop in table.tree_blocks(B.shape[0]):
        leaves, lo, hi = table.leaf_boxes(start, stop)
        keys = (np.arange(leaves.size, dtype=np.int64) << p) | _leaf_masks(B, lo, hi)
        keys, counts = np.unique(keys, return_counts=True)
        leaf, z_mask = keys >> p, (keys & everything).astype(np.uint32)
        weight = scale * table.value[leaves[leaf]] * counts / B.shape[0]
        # each group's tree, counted from the block's first
        tree = np.searchsorted(table.first, leaves[leaf], side="right") - 1 - start
        # per tree, in tree order: its groups whose rows reach the leaf
        reaching = z_mask == everything
        cuts = np.searchsorted(tree[reaching], np.arange(1, stop - start))
        for part in np.split(weight[reaching], cuts):
            base_value += float(part.sum())

        step = max(1, BLOCK_CELLS // leaf.size)
        for r in range(0, n, step):
            _add_tree_shap(phi[r : r + step], _leaf_masks(rows[r : r + step], lo, hi)[:, leaf],
                           z_mask, weight, tree, stop - start, plus, minus)
    return offset + base_value, phi


def _add_tree_shap(phi, x_mask, z_mask, weight, tree, n_trees, plus, minus) -> None:
    """Add each tree's φ for the explained rows of x_mask to phi, tree by tree.

    x_mask is per explained row and group, z_mask, weight and tree per
    group.  For each (tree, row) a bincount sums the gains (and, apart,
    the losses) of the row's live groups in group order, as a bincount
    over that tree alone would.
    """
    n, p = phi.shape
    everything = (1 << p) - 1
    # the live (explained row, group) entries: each feature met by either row
    row, group = np.nonzero((x_mask | z_mask) == everything)
    x_mask, z_mask = x_mask[row, group], z_mask[group]
    x_only, z_only = x_mask & ~z_mask, z_mask & ~x_mask
    a, b = np.bitwise_count(x_only), np.bitwise_count(z_only)
    gain, loss = plus[a, b] * weight[group], minus[a, b] * weight[group]
    key = tree[group] * n + row
    sums = np.zeros((n_trees, 2, n, p))
    for j in range(p):
        bit = 1 << j
        for side, (only, amount) in enumerate(((x_only, gain), (z_only, loss))):
            take = (only & bit) != 0
            sums[:, side, :, j] = np.bincount(key[take], weights=amount[take],
                                              minlength=n_trees * n).reshape(n_trees, n)
    for tree_sums in sums.reshape(-1, n, p):
        phi += tree_sums


def importance(phi):
    """(totals, order): each feature's sum of |φ|, and the feature indices
    by descending total, ties by index."""
    if phi.size == 0:
        raise DataValidationError("empty explanation")
    totals = np.abs(phi).sum(axis=0)
    return totals, sorted(range(totals.size), key=lambda j: (-totals[j], j))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks from 1..n with ties sharing their average position."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    # a run of c equal values ending at sorted position e has mean position e - (c - 1) / 2
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def beeswarm_data(phi, rows, order) -> list:
    """The plot points of each feature in `order`: (its attributions,
    rank-normalized colors of its values in `rows`, in [0, 1])."""
    n = phi.shape[0]
    points = []
    for j in order:
        if n == 1:
            colors = np.array([0.5])
        else:
            colors = (_average_ranks(rows[:, j]) - 1.0) / (n - 1.0)
        points.append((phi[:, j].copy(), colors))
    return points


def make_grid(column: np.ndarray, n_points: int = 30, max_distinct: int = 10) -> np.ndarray:
    """Sorted unique values for low-cardinality features, else equispaced."""
    distinct = np.unique(column)
    if distinct.size <= max_distinct:
        return distinct
    return np.linspace(column.min(), column.max(), n_points)


def ice_curves(predict_fn, rows, feature_index: int, grid=None, n_points: int = 30):
    """(grid, curves): raw ICE curves, one prediction trace per row (a
    rows x grid points array) as one feature sweeps the grid."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if not 0 <= feature_index < rows.shape[1]:
        raise DataValidationError(f"feature index {feature_index} out of range")
    if grid is None:
        grid = make_grid(rows[:, feature_index], n_points=n_points)
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise DataValidationError("empty evaluation grid")
    # all grid points in one prediction call: block g holds every row at grid[g]
    swept = np.tile(rows, (grid.size, 1))
    swept[:, feature_index] = np.repeat(grid, rows.shape[0])
    return grid, np.ascontiguousarray(predict_fn(swept).reshape(grid.size, rows.shape[0]).T)


def center_ice(curves):
    """The curves shifted to zero at the first grid point."""
    return curves - curves[:, :1]


def derivative_ice(grid, curves):
    """Numerical slope of each curve over the grid: central differences
    inside, one-sided at the ends."""
    if grid.size < 2:
        raise NumericError("derivative curves need a grid of at least 2 points")
    slopes = np.empty_like(curves)
    slopes[:, 0] = (curves[:, 1] - curves[:, 0]) / (grid[1] - grid[0])
    slopes[:, -1] = (curves[:, -1] - curves[:, -2]) / (grid[-1] - grid[-2])
    span = grid[2:] - grid[:-2]
    slopes[:, 1:-1] = (curves[:, 2:] - curves[:, :-2]) / span
    return slopes
