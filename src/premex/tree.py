"""CART-style binary regression trees.

Split search is exact: every midpoint between adjacent distinct sorted
feature values is a candidate.  Where the midpoint rounds up to the upper
value or overflows, the lower value is the threshold.  Two growth
criteria share the engine:

* plain SSE reduction with leaf = mean target (forests)
* regularized second-order gain with leaf = -G/(H + lambda) (boosting
  stages; gbm's are the lambda = gamma = 0 case)

Growth is level-wise on presorted columns, the exact greedy method on
sorted column blocks of XGBoost (Chen & Guestrin 2016, arXiv 1603.02754):

* Each model matrix is ranked once: `Presorted` sorts every feature
  column stably, so equal values keep row order, and checks the matrix
  for finite values.  A job names strictly ascending row ids into it, and
  its order is the matrix's order with the other rows filtered out:
  for ascending rows, exactly a stable sort of the job's own rows.  So a
  forest's bootstrap trees and a boosted model's stages sort nothing.
* A node owns one range of positions, the same range in each feature's
  sorted order.
* A split partitions its node's range stably in every sorted order, left
  rows first, so no column is sorted again.  The threshold lies between
  the values at the chosen cut and the position after it, so the rows
  through the cut go left: a split sends cut + 1 rows left, uncounted.
  The rows after the cut in the split feature's order are marked in one
  lookup; each order then compresses its split nodes' keys, left rows and
  right rows apart, each in position order, into the nodes' left and
  right spans.
* One depth level at a time, all open nodes are scored together.  Their
  ranges are laid out as padded (feature, node, position) blocks of nodes
  of similar size, and a cumulative sum runs along each node's positions
  alone.  So every prefix sum restarts at its node and adds the node's
  rows in (value, row) order, exactly as sorting that node by itself
  would.  Gains are computed only between distinct values.
* Unit statistics are counts.  When every b of a chunk is 1 (a boosting
  stage's hessians, or a forest's weights without bootstrap), a prefix
  sum of b is its length and a node's total is its size: a sum of ones
  is exact, so these are the floats the sums would give.  Other b, such
  as bootstrap weights, are gathered and summed.
* Ties go to the first maximum: the lowest threshold within a feature,
  then the lowest feature index, so identical inputs always grow
  identical trees.
* A leaf's value sums its rows in ascending row order with numpy's
  pairwise sum at the leaf's own length, as a[rows].sum() does.  Leaves
  of equal size are gathered as one (leaves, size) array and summed along
  its rows, so a chunk takes one sum per distinct leaf size, not per leaf.
* With max_features, each level draws one feature subset per open node
  from the tree's generator, breadth-first, left child first.
* Nodes are made breadth-first and renumbered depth-first, left child
  first, when the table is built.
* Independent trees grow together: `fit_trees` and `fit_trees_gradients`
  stack the jobs' rows, each job's root owns its own segment of
  positions, and one level loop scores and partitions the open nodes of
  every tree.  No node's arithmetic depends on another node, so each
  tree is bit for bit the one its job grows alone; the batch only shares
  the fixed cost of each level's numpy calls.  A batch is grown in
  consecutive chunks of at most CHUNK_ROWS rows, which bounds its memory.
* A chunk's sorted columns and each level's padded blocks are written
  into work arrays kept across levels, chunks and calls (`_WorkArrays`).

Integer row weights stand for repeated rows, so a bootstrap resample is
its distinct rows weighted by their draw counts.

One representation serves growth, prediction, loading, saving and
TreeSHAP: a `NodeTable`, the flat node tables of one or more trees.  A
tree's table is the equal-length columns `feature`, `threshold`, `left`,
`right`, `value` and `count`, indexed by node id.  Node 0 is the root,
and nodes are numbered depth-first, left child first, so every child's id
is greater than its parent's.  A row goes left when row[feature] <=
threshold.  A leaf has feature -1 and threshold 0; its `left` and `right`
point to the leaf itself, so a batch of rows descends in exactly the
tree's depth in gathers with no leaf test.  `value` is the leaf
prediction (0 on internal nodes) and `count` the number of training rows,
weights counted, that reached the node.  The model JSON stores the six
columns as they are.

A table of several trees concatenates their columns, each tree's child
ids its own, and records each tree's first node and depth.  Each chunk of
growth builds its trees' table, and `fit_trees` joins the chunks' tables
into the one that a model holds; `table[i]` is tree i over views of its
part.  Prediction starts a (trees, rows) matrix of nodes at the roots and
takes max(depth) steps, each one flat gather of X and one gather of the
children.  Loading checks every tree of a file in one pass over the
concatenated columns, and TreeSHAP reads leaf boxes from the table level
by level.  Work on (tree, row) and (row, leaf) arrays goes in blocks of
at most BLOCK_CELLS cells.
"""

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError, NumericError

COLUMNS = ("feature", "threshold", "left", "right", "value", "count")

# The most rows, summed over its trees, that one level loop grows at once.
# A level's working memory is about 700 bytes per row.  3000 rows hold a
# 5-fold boosting stage (5 x 592 rows) and about 6 bootstrap trees.
# train-cv took 1.19 s at 3000 rows, 1.17 s at 4500 and 1.15 s at 6000,
# at a peak RSS of 46.2, 47.1 and 48.1 MB (one 50 s run each, seed 7);
# above 3000, tests/test_memory.py's forest and learning-curve bounds fail.
CHUNK_ROWS = 3000

# The most (tree, row) or (row, leaf) cells that one block of prediction
# or TreeSHAP works on at once (NodeTable.add_predictions,
# explain.tree_shap).  The published 220-tree forest predicts 7400 rows at
# a peak of 1.4, 2.0 and 3.3 MB with 2^14, 2^15 and 2^16 cells.  The
# explain workload's timed commands took 152 and 154 ms (best of 20; 2
# cores, numpy 2.4.6) with 2^15 and 2^16, and one explain iteration peaked
# at 45.2 and 45.6 MB RSS.  A level of growth whose padded (feature, node,
# width) block fits in BLOCK_CELLS cells is also scored in one block
# (_blocks): a 50-stage xgb fit on 740 rows then makes 269 _score calls for
# its 250 levels, where splitting every uneven level made 402, and grows
# the same trees.
BLOCK_CELLS = 2**15


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


_ROOT = np.zeros(1, dtype=np.int64)


def _descend(feature, threshold, children, roots, depth: int, X) -> np.ndarray:
    """The node that each row of X reaches in each tree rooted at `roots`,
    after `depth` levels: a (trees, rows) array.

    `children` holds each node's (left, right) pair, flat.  Every tree
    takes each level's step at once: one flat gather of X at
    row * n_features + feature, one comparison, and one gather of the
    child.  A leaf reads feature -1, some other cell, and steps to itself
    either way.
    """
    n, m = X.shape
    flat = np.ascontiguousarray(X).reshape(-1)
    at = np.arange(0, n * m, m)
    node = np.repeat(roots[:, None], n, axis=1)
    for _ in range(depth):
        go_left = flat.take(at + feature.take(node), mode="wrap") <= threshold.take(node)
        node *= 2
        node += ~go_left
        node = children.take(node)
    return node


def _depths(feature, left, right, roots) -> np.ndarray:
    """The depth of each tree rooted at `roots`, whose child ids are its own,
    found level by level for all trees at once.

    This loop ends only because every child id exceeds its parent's, as
    NodeTable.from_dicts checks.
    """
    depth = np.zeros(roots.size, dtype=np.int64)
    level, tree = roots, np.arange(roots.size)
    while level.size:
        split = feature[level] >= 0
        level, tree = level[split], tree[split]
        depth[tree] += 1
        offset = roots[tree]
        level = np.concatenate([offset + left[level], offset + right[level]])
        tree = np.concatenate([tree, tree])
    return depth


class NodeTable:
    """The node tables of one or more trees, concatenated: what growth
    returns and a model holds, predicts with, saves and explains.

    The six columns of every tree are concatenated in tree order, each
    tree's child ids its own.  Tree t's root is node first[t], its nodes
    run up to the next tree's root, and depth[t] is its depth.  len() is
    the number of trees, and table[t] is tree t as a one-tree table over
    views of its part.
    """

    def __init__(self, columns: dict, first, depth, feature_count: int):
        for name in COLUMNS:
            setattr(self, name, columns[name])
        self.first = first
        self.depth = depth
        self.feature_count = feature_count

    def __len__(self) -> int:
        return int(self.first.size)

    def __getitem__(self, t) -> "RegressionTree":
        t = range(len(self))[t]  # IndexError past the end, which also ends iteration
        a = int(self.first[t])
        b = int(self.first[t + 1]) if t + 1 < len(self) else self.feature.size
        return RegressionTree({name: getattr(self, name)[a:b] for name in COLUMNS}, _ROOT,
                              self.depth[t:t + 1], self.feature_count)

    @staticmethod
    def join(tables, feature_count: int) -> "NodeTable":
        """One table of the trees of `tables`, in order; each must read feature_count features.

        The columns are joined one at a time, and each table's column is
        dropped (set to None) once copied, so a join holds at most one
        column twice.  The tables are spent: pass ones nothing else reads,
        such as a table's [t] views.
        """
        tables = list(tables)
        if any(table.feature_count != feature_count for table in tables):
            raise DataValidationError(f"every tree must read the same {feature_count} features")
        offsets = np.cumsum([0] + [table.feature.size for table in tables])
        first = _joined([table.first + at for table, at in zip(tables, offsets)], "first")
        depth = _joined([table.depth for table in tables], "depth")
        columns = {}
        for name in COLUMNS:
            columns[name] = _joined([getattr(table, name) for table in tables], name)
            for table in tables:
                setattr(table, name, None)
        return NodeTable(columns, first, depth, feature_count)

    @staticmethod
    def from_dicts(documents, feature_count: int) -> "NodeTable":
        """The table of to_dicts() output; DataValidationError if a tree is malformed.

        One pass over the concatenated columns checks every tree as a table
        of its own.  Only a table that fails is checked again tree by tree,
        so the error names the first malformed tree's first fault.
        """
        try:
            return _checked_table(documents, feature_count)
        except DataValidationError:
            for document in documents:
                _checked_table([document], feature_count)
            raise

    def to_dicts(self) -> list:
        """Each tree's six columns as a dict of lists, in tree order."""
        cells = {name: getattr(self, name).tolist() for name in COLUMNS}
        starts = self.first.tolist()
        return [{name: cells[name][a:b] for name in COLUMNS}
                for a, b in zip(starts, starts[1:] + [self.feature.size])]

    def tree_blocks(self, rows: int) -> list:
        """(start, stop) runs of consecutive trees whose leaves times `rows`
        are at most BLOCK_CELLS; a run holds at least one tree."""
        leaves = np.flatnonzero(self.feature < 0)
        counts = np.bincount(np.searchsorted(self.first, leaves, side="right") - 1,
                             minlength=len(self))
        bounds, cells = [0], 0
        for t, tree_cells in enumerate((counts * rows).tolist()):
            if cells and cells + tree_cells > BLOCK_CELLS:
                bounds.append(t)
                cells = 0
            cells += tree_cells
        bounds.append(len(self))
        return [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]

    def add_predictions(self, X, out, scale=None, n_trees=None) -> None:
        """Add the predictions of the first n_trees trees (all if None) for the
        rows of X to `out`, times `scale` if given.

        The trees are added one after another in tree order, as a loop over
        the trees would add them, so every sum keeps its bits.  All trees
        descend together, in blocks of rows of at most BLOCK_CELLS (tree,
        row) cells.  This is the one prediction path of every model.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.feature_count:
            raise DataValidationError(
                f"matrix has shape {X.shape}, model expects (*, {self.feature_count})"
            )
        # a NaN row would go right at every split, an inf one to an edge leaf
        if not np.isfinite(X).all():
            raise DataValidationError("rows to predict must be finite (no NaN or inf)")
        roots = self.first[:n_trees]
        if not roots.size:
            return
        depth = int(self.depth[:n_trees].max())
        # each node's (left, right) as ids into the whole table: its own ids
        # plus its tree's first node, spread over the tree by the running max
        children = np.zeros((self.feature.size, 2), dtype=np.int64)
        children[self.first] = self.first[:, None]
        np.maximum.accumulate(children, out=children)
        children[:, 0] += self.left
        children[:, 1] += self.right
        children = children.reshape(-1)
        step = max(1, BLOCK_CELLS // roots.size)
        for lo in range(0, X.shape[0], step):
            leaves = _descend(self.feature, self.threshold, children, roots, depth,
                              X[lo:lo + step])
            values = self.value.take(leaves)
            if scale is not None:
                values *= scale
            part = out[lo:lo + step]
            for tree_values in values:
                part += tree_values

    def leaf_boxes(self, start: int, stop: int):
        """(leaf ids, lo, hi) of trees start..stop-1: a row reaches leaf k iff
        lo[k] < row <= hi[k] on every feature.

        Leaf ids are into the whole table, in order.  The boxes are built
        one level of every tree at a time, parents before children.
        """
        base = int(self.first[start]) if start < len(self) else self.feature.size
        end = int(self.first[stop]) if stop < len(self) else self.feature.size
        lo = np.full((end - base, self.feature_count), -np.inf)
        hi = np.full((end - base, self.feature_count), np.inf)
        # nodes as rows of lo and hi, each with its tree's first row
        level = offset = self.first[start:stop] - base
        while level.size:
            split = self.feature[base + level] >= 0
            level, offset = level[split], offset[split]
            f, t = self.feature[base + level], self.threshold[base + level]
            left = offset + self.left[base + level]
            right = offset + self.right[base + level]
            lo[left] = lo[right] = lo[level]
            hi[left] = hi[right] = hi[level]
            # as min(hi, t) and max(lo, t): the bound stays unless t is tighter
            bound = hi[level, f]
            hi[left, f] = np.where(t < bound, t, bound)
            bound = lo[level, f]
            lo[right, f] = np.where(t > bound, t, bound)
            level, offset = np.concatenate([left, right]), np.concatenate([offset, offset])
        leaves = np.flatnonzero(self.feature[base:end] < 0)
        return base + leaves, lo[leaves], hi[leaves]


class RegressionTree(NodeTable):
    """A table of one tree: what table[t], fit_tree and fit_tree_gradients give."""

    def predict_matrix(self, X) -> np.ndarray:
        """The tree's leaf value for each row of X."""
        # -0.0 + v is v exactly, so these are the leaf values' own bits
        out = np.full(np.shape(X)[:1], -0.0)
        self.add_predictions(X, out)
        return out


def _joined(arrays, name) -> np.ndarray:
    dtype = np.float64 if name in ("threshold", "value") else np.int64
    return np.concatenate([np.empty(0, dtype), *arrays]).astype(dtype, copy=False)


def _joined_column(lists, name) -> np.ndarray:
    """One column of every tree, concatenated; DataValidationError as _column would raise."""
    kinds = "if" if name in ("threshold", "value") else "i"
    if all(isinstance(values, list) and values for values in lists):
        cells = list(itertools.chain.from_iterable(lists))
        # the types numpy reads as the column's kind in any list
        if set(map(type, cells)) <= ({float} if kinds == "if" else {int}):
            try:
                return np.array(cells, dtype=np.float64 if kinds == "if" else np.int64)
            except OverflowError:
                pass  # an int beyond int64, which _column rejects
    return _joined([_column(values, name, kinds) for values in lists], name)


def _checked_table(documents, feature_count: int) -> NodeTable:
    """The table of `documents`, raising if any of them is malformed as a tree."""
    for document in documents:
        if not isinstance(document, dict) or document.keys() != _COLUMN_SET:
            raise DataValidationError(f"a tree must hold exactly the columns {list(COLUMNS)}")
    columns = {name: _joined_column([doc[name] for doc in documents], name) for name in COLUMNS}
    sizes = np.array([len(doc["feature"]) for doc in documents], dtype=np.int64)
    if any(len(doc[name]) != n for doc, n in zip(documents, sizes.tolist()) for name in COLUMNS):
        raise DataValidationError("tree columns differ in length")
    feature, left, right = columns["feature"], columns["left"], columns["right"]
    first = np.cumsum(sizes) - sizes
    tree = np.repeat(np.arange(sizes.size), sizes)  # each node's tree
    offset = first[tree]
    if not (np.isfinite(columns["threshold"]).all() and np.isfinite(columns["value"]).all()):
        raise DataValidationError("tree thresholds and values must be finite")
    if feature.size and (feature.min() < -1 or feature.max() >= feature_count):
        raise DataValidationError(f"tree feature index outside -1..{feature_count - 1}")
    if columns["count"].size and columns["count"].min() < 1:
        raise DataValidationError("tree row counts must be positive")
    ids = np.arange(feature.size) - offset  # each node's id in its tree
    leaf = feature < 0
    if (left[leaf] != ids[leaf]).any() or (right[leaf] != ids[leaf]).any():
        raise DataValidationError("a tree leaf must point to itself")
    # per tree: every child above its parent and inside the tree, and
    # n - 1 children, no two alike, so they cover 1..n-1 once
    split = ~leaf
    parents = np.concatenate([ids[split], ids[split]])
    children = np.concatenate([left[split], right[split]])
    owner = np.concatenate([tree[split], tree[split]])
    if ((children <= parents) | (children >= sizes[owner])).any() or (
            (np.bincount(owner, minlength=sizes.size) != sizes - 1).any()
            or (np.bincount(children + first[owner], minlength=feature.size) > 1).any()):
        raise DataValidationError(
            "tree child ids must exceed their parent's and cover 1..n-1 once"
        )
    return NodeTable(columns, first, _depths(feature, left, right, first), feature_count)


_COLUMN_SET = frozenset(COLUMNS)


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


class Presorted:
    """A model matrix, checked finite, with each column's stable sorted order.

    Build it once per matrix and name any strictly ascending subset of its
    rows in a fit_trees or fit_trees_gradients job; no job sorts again.
    """

    def __init__(self, X):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or 0 in X.shape:
            raise DataValidationError("X must be a 2-d matrix with at least one row and column")
        # an inf feature value makes an inf midpoint and an empty child
        if not np.isfinite(X).all():
            raise DataValidationError("X must be finite (no NaN or inf)")
        self.shape = X.shape
        self._columns = np.ascontiguousarray(X.T)
        self._order = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)

    def _check_rows(self, rows) -> np.ndarray:
        rows = np.asarray(rows)
        if (rows.ndim != 1 or rows.dtype.kind not in "iu" or not rows.size or rows[0] < 0
                or rows[-1] >= self.shape[0] or (rows[1:] <= rows[:-1]).any()):
            raise DataValidationError(
                f"rows must be strictly ascending row ids in 0..{self.shape[0] - 1}"
            )
        return rows

    def _order_of(self, rows, first) -> np.ndarray:
        """Each column's order of `rows`, row rows[i] written as first + i.

        The matrix's order with the other rows filtered out: since rows
        ascend, ties keep row order, as a stable sort of X[rows] would.
        """
        if rows.size == self.shape[0]:
            return self._order + first  # every row
        position = np.full(self.shape[0], -1)
        position[rows] = first + np.arange(rows.size)
        mapped = position[self._order]
        return mapped[mapped >= 0].reshape(-1, rows.size)


def fit_tree(X, targets, config: TreeConfig, rng: np.random.Generator, *,
             weights=None) -> RegressionTree:
    """Grow a tree greedily, maximizing SSE reduction; leaves predict means.

    `weights` are optional positive integer row multiplicities: row i
    counts as weights[i] copies of itself, in `count`, in
    `min_samples_split` and in every sum.  On integer targets every sum
    is exact, so the tree equals the one grown on the repeated rows; on
    other targets the sums can differ from the repeated rows' in the last
    bits.
    """
    matrix = Presorted(X)
    return fit_trees([(matrix, np.arange(matrix.shape[0]), targets, weights, rng)], config)[0]


def fit_trees(jobs, config: TreeConfig) -> NodeTable:
    """fit_tree on each job (matrix, rows, targets, weights or None, rng), grown together.

    `matrix` is a Presorted and `rows` strictly ascending row ids into it;
    targets and weights hold one value per id.  The table holds one tree
    per job, in job order, and each is the one fit_tree grows on matrix's
    rows `rows` alone.  `jobs` may be any iterable; it is read one chunk
    at a time (see CHUNK_ROWS).
    """
    return _grow((_sse_job(*job, config) for job in jobs), config, 0.0, 0.0)


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
    matrix = Presorted(X)
    return fit_trees_gradients([(matrix, np.arange(matrix.shape[0]), grad, hess, rng)],
                               config, reg_lambda, gamma)[0]


def fit_trees_gradients(jobs, config: TreeConfig, reg_lambda: float = 1.0,
                        gamma: float = 0.0) -> NodeTable:
    """fit_tree_gradients on each job (matrix, rows, grad, hess, rng), grown together.

    `matrix` and `rows` are as in fit_trees.  The table holds one tree per
    job, in job order, and each is the one fit_tree_gradients grows on
    matrix's rows `rows` alone.  `jobs` may be any iterable; it is read one
    chunk at a time.
    """
    return _grow((_gradient_job(*job, config) for job in jobs), config, reg_lambda, gamma)


def _sse_job(matrix, rows, targets, weights, rng, config):
    rows, targets = _check_fit_inputs(matrix, rows, targets, config)
    if weights is None:
        counts = np.ones(rows.size, dtype=np.int64)
    else:
        counts = np.asarray(weights)
        if counts.shape != targets.shape or counts.dtype.kind not in "iu" or counts.min() < 1:
            raise DataValidationError("weights must be one positive integer per row")
        counts = counts.astype(np.int64)
    b = counts.astype(np.float64)
    return matrix, rows, targets * b, b, counts, targets, rng


def _gradient_job(matrix, rows, grad, hess, rng, config):
    rows, grad = _check_fit_inputs(matrix, rows, grad, config)
    hess = np.ascontiguousarray(hess, dtype=np.float64)
    if hess.shape != grad.shape:
        raise DataValidationError("grad and hess must have equal length")
    if not np.isfinite(hess).all():
        raise DataValidationError("hessians must be finite (no NaN or inf)")
    return matrix, rows, grad, hess, np.ones(rows.size, dtype=np.int64), None, rng


def _check_fit_inputs(matrix, rows, targets, config):
    if not isinstance(matrix, Presorted):
        raise DataValidationError("a job's matrix must be a tree.Presorted")
    rows = matrix._check_rows(rows)
    targets = np.ascontiguousarray(targets, dtype=np.float64)
    if targets.shape != rows.shape:
        raise DataValidationError(f"{targets.size} targets for {rows.size} rows")
    if not np.isfinite(targets).all():
        raise DataValidationError("targets must be finite (no NaN or inf)")
    config.validate(matrix.shape[1])
    return rows, targets


def _grow(jobs, config, reg_lambda, gamma) -> NodeTable:
    """One tree per job, grown in consecutive chunks of at most CHUNK_ROWS rows.

    A job larger than CHUNK_ROWS is a chunk of its own.  A lone chunk's
    table, such as every boosting stage's, is returned as it is.
    """
    tables, chunk, rows = [], [], 0
    for job in jobs:
        if chunk and rows + job[1].size > CHUNK_ROWS:
            tables.append(_grow_chunk(chunk, config, reg_lambda, gamma))
            chunk, rows = [], 0
        chunk.append(job)
        rows += job[1].size
    if chunk:
        tables.append(_grow_chunk(chunk, config, reg_lambda, gamma))
    if len(tables) == 1:
        return tables[0]
    return NodeTable.join(tables, tables[0].feature_count if tables else 0)


def _grow_chunk(jobs, config, reg_lambda, gamma) -> NodeTable:
    """The level-wise engine over a batch of jobs (matrix, rows, a, b, counts, targets, rng).

    SSE mode (targets given): a = weight * target, b = weight; node score
    is (sum a)^2 / (sum b), the gain is the exact SSE reduction, and a node
    whose targets are all equal is a leaf.  Second-order mode (targets
    None): a = gradients, b = hessians; score is G^2/(H+lambda), the gain
    is halved and gamma-penalized.  `counts` are the integer row weights.

    The jobs' rows are stacked, and each job's root owns its own segment
    of positions, so a level scores and partitions the open nodes of every
    tree at once.  Nothing a node computes depends on the other nodes, so
    each tree is the one its job grows alone.
    """
    second_order = jobs[0][5] is None
    n_features = jobs[0][0].shape[1]
    if any(job[0].shape[1] != n_features for job in jobs):
        raise DataValidationError("every tree of a batch must have the same features")
    a, b, counts = (np.concatenate([job[i] for job in jobs]) for i in (2, 3, 4))
    rngs = [job[6] for job in jobs]
    k = config.max_features
    subset_size = k if k is not None and k < n_features else None
    size = np.array([job[1].size for job in jobs])
    start = np.cumsum(size) - size
    columns = _SortedColumns([job[:2] for job in jobs], a, b)
    if not second_order:
        counts = np.append(counts, 0)
        targets = np.append(np.concatenate([job[5] for job in jobs]), 0.0)

    levels = []  # per level: the open nodes' (tree, start, size, count, feature, threshold)
    tree = np.arange(len(jobs))  # the job each open node belongs to
    depth = 0
    # gains and leaf values may divide by zero and midpoints overflow; a
    # lane that does scores -inf, a midpoint falls back to its lower value,
    # and a leaf value that is not finite is rejected below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            # every count is 1 in a second-order job, and in an SSE job
            # whose b = weight is unit
            count = size
            if not second_order:
                bounds = np.column_stack([start, start + size]).ravel()
                rows = columns.rows()
                if not columns.unit_b:
                    count = np.add.reduceat(counts[rows], bounds)[::2]
                values = targets[rows]
                spread = (np.maximum.reduceat(values, bounds)
                          - np.minimum.reduceat(values, bounds))[::2]
            feature = np.full(start.size, -1, dtype=np.int64)
            threshold = np.zeros(start.size)
            split = np.zeros(0, dtype=np.int64)
            if depth != config.max_depth:
                splittable = count >= config.min_samples_split
                if not second_order:
                    splittable &= spread != 0.0
                split = np.flatnonzero(splittable)
            if split.size:
                node_rngs = (None if subset_size is None
                             else [rngs[t] for t in tree[split].tolist()])
                gainful, best_feature, best_threshold, n_left = columns.best_splits(
                    start[split], size[split], node_rngs, subset_size, reg_lambda, gamma,
                    second_order
                )
                split, n_left = split[gainful], n_left[gainful]
                feature[split], threshold[split] = best_feature[gainful], best_threshold[gainful]
            levels.append((tree, start, size, count, feature, threshold))
            if not split.size:
                break
            # children at the depth bound are leaves: only the row order matters
            parent_start, parent_size = start[split], size[split]
            columns.partition(parent_start, parent_size, n_left, feature[split],
                              depth + 1 == config.max_depth)
            start = parent_start.repeat(2)
            start[1::2] += n_left
            size = n_left.repeat(2)
            size[1::2] = parent_size - n_left
            tree = tree[split].repeat(2)
            depth += 1
        tree, start, size, count, feature, threshold = (np.concatenate(c) for c in zip(*levels))
        value = np.zeros(feature.size)
        leaf = np.flatnonzero(feature < 0)
        value[leaf] = columns.leaf_values(start[leaf], size[leaf], reg_lambda, second_order)
    if not np.isfinite(value).all():
        raise NumericError("a leaf value is not finite: its hessians sum to -reg_lambda, "
                           "or a sum overflowed")
    return _depth_first_table([level[0].size for level in levels], tree, feature, threshold,
                               value, count, len(jobs), n_features)


def _spans(start, size):
    """The positions of each range start[j] .. start[j] + size[j] - 1, range by range."""
    return np.arange(size.sum()) + (start - size.cumsum() + size).repeat(size)


def _blocks(size, n_features):
    """The nodes in blocks of similar size, largest first.

    Padding a block to its largest node at most doubles it, so the padded
    work and memory stay within twice the rows, however uneven the nodes.
    A level whose whole padded (feature, node, width) block fits in
    BLOCK_CELLS cells is one block, however much of it is padding.
    """
    if (size.max() * size.size <= 2 * size.sum()  # the largest node is at most twice the mean
            or n_features * size.size * max(int(size.max()), 2) <= BLOCK_CELLS):
        return [slice(None)]
    order = np.argsort(-size, kind="stable")
    held = np.cumsum(size[order])
    blocks, first = [], 0
    while first < order.size:
        largest = size[order[first]]
        fits = largest * np.arange(1, order.size - first + 1) <= 2 * (
            held[first:] - held[first] + largest)
        stop = first + (fits.size if fits.all() else int(np.argmin(fits)))
        blocks.append(order[first:stop])
        first = stop
    return blocks


class _WorkArrays:
    """Named grow-only buffers, each lent out as an exactly sized array.

    A chunk's sorted columns and each level's padded blocks are a few
    hundred KB each.  Allocated afresh, they pass glibc's mmap and trim
    thresholds, so every level faulted their pages in again: about 65k
    minor page faults per train-cv iteration, nearly all in the level
    loop.  Lent from here, they are faulted in once per process, and an
    iteration takes about 2k.  A boosting stage is one fit_trees_gradients
    call, so the buffers outlive calls, not only levels and chunks, and
    one store serves the module: no cell is read before the chunk that
    lent it writes it, so nothing carries from one fit to the next.  An
    array lent from a name is valid until that name is lent again; there
    are no threads to share them.
    """

    def __init__(self):
        self._buffers = {}

    def get(self, name, shape, dtype) -> np.ndarray:
        """An uninitialized `shape` array of `dtype` over the buffer `name`."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < nbytes:
            buffer = self._buffers[name] = np.empty(nbytes, dtype=np.uint8)
        return buffer[:nbytes].view(dtype).reshape(shape)


_WORK = _WorkArrays()


class _SortedColumns:
    """Each feature's rows in sorted order, cut into node ranges as trees grow.

    A node owns one range of positions, the same in every feature's order,
    and a split partitions its range stably, so each order stays sorted
    within every node.  x[f, row] is a feature value, and a[f, row] and
    b[f, row] are the row's statistics, the same for every f.  keys[f, p]
    is the flat index into x, a and b of (f, the row at position p of
    feature f's order), so one gather reads all three; keys[-1] holds the
    plain rows in row order.  Row n and position n are padding, with
    x = -inf and a = b = -0.0.  keys, x, a and b are the work arrays of
    those names; a level's temporaries are the work arrays 0 and 1, of
    8-byte items, and 2 and 3, of 1-byte items: _score uses 0, 1 and 2,
    and partition takes its keys into 0, their rows' goes-right marks
    into 2, and marks the rows that go right in 3.
    """

    def __init__(self, jobs, a, b):
        """jobs: each tree's (Presorted matrix, ascending rows); a and b per stacked row."""
        n, n_features = a.size, jobs[0][0].shape[1]
        # a chunk past CHUNK_ROWS rows (one large job) keeps no memory
        self.work = _WORK if n <= CHUNK_ROWS else _WorkArrays()
        shape = (n_features, n + 1)
        self.keys = self.work.get("keys", (n_features + 1, n + 1), np.int64)
        self.keys[:-1, n] = n
        self.keys[-1] = np.arange(n + 1)
        self.x = self.work.get("x", shape, np.float64)
        self.x[:, n] = -np.inf
        # each tree's rows are stacked in turn, in their matrix's order
        lo = 0
        for matrix, rows in jobs:
            hi = lo + rows.size
            self.keys[:-1, lo:hi] = matrix._order_of(rows, lo)
            self.x[:, lo:hi] = matrix._columns[:, rows]
            lo = hi
        self.keys[:-1] += (n + 1) * np.arange(n_features)[:, None]
        # a sum of ones is exact, so unit b's prefix sums are counts
        self.unit_b = bool((b == 1.0).all())
        self.a = self.work.get("a", shape, np.float64)
        self.a[:] = np.append(a, -0.0)
        self.b = None
        if not self.unit_b:
            self.b = self.work.get("b", shape, np.float64)
            self.b[:] = np.append(b, -0.0)

    def rows(self):
        """The row at each position, ascending within every node."""
        return self.keys[-1]

    def best_splits(self, start, size, rngs, subset_size, reg_lambda, gamma, second_order):
        """Per node: (gain > 0, feature, threshold, rows going left) of its best split.

        Ties go to the first maximum: the lowest threshold within a
        feature, then the lowest feature.  With subset_size, rngs holds
        the generator of each node's tree.
        """
        n_features, n_nodes = self.x.shape[0], start.size
        best_gain = np.empty((n_nodes, n_features))
        best_cut = np.empty((n_nodes, n_features), dtype=np.int64)
        for nodes in _blocks(size, n_features):
            best_gain[nodes], best_cut[nodes] = self._score(start[nodes], size[nodes], reg_lambda,
                                                            gamma, second_order)
        if subset_size is not None:
            # one subset per node, drawn breadth-first, left child first
            drawn = np.zeros(best_gain.shape, dtype=bool)
            for j, rng in enumerate(rngs):
                drawn[j, rng.choice(n_features, size=subset_size, replace=False)] = True
            best_gain[~drawn] = -np.inf
        nodes = np.arange(n_nodes)
        chosen = np.argmax(best_gain, axis=1)  # first max -> lowest feature on ties
        cut = best_cut[nodes, chosen]
        at = start + cut
        below = self.x.take(self.keys[chosen, at])
        above = self.x.take(self.keys[chosen, at + 1])
        # the midpoint of two adjacent floats can round up to the upper
        # one, and that of two huge ones overflow to inf; either would send
        # every row left, so the lower value splits the rows instead
        threshold = (below + above) / 2.0
        threshold = np.where(threshold < above, threshold, below)
        # below <= threshold < above, so the rows through the cut go left
        return best_gain[nodes, chosen] > 0.0, chosen, threshold, cut + 1

    def _score(self, start, size, reg_lambda, gamma, second_order):
        """Each (node, feature) lane's best gain and cut, as two (node, feature) arrays.

        The nodes' ranges are laid out as a padded (feature, node,
        position) block, so each prefix sum runs along one node's range
        alone and adds its rows in the order a stable sort of that node
        would.  Gains are scored only where a split can fall, between
        distinct values; a split at cut falls after the node's cut-th
        position.  A lane with no finite gain scores -inf at cut 0.
        """
        n_features, n_nodes, width = self.x.shape[0], start.size, max(int(size.max()), 2)
        shape = (n_features, n_nodes, width)
        offset = np.arange(width)
        # np.take: a faster gather than fancy indexing.  mode="wrap" writes
        # straight into out, where "raise" copies through a temporary; it
        # sends the -1 padding to position n
        keys = self.keys[:-1].take(np.where(offset < size[:, None], start[:, None] + offset, -1),
                                   axis=1, out=self.work.get(0, shape, np.int64), mode="wrap")
        xs = self.x.take(keys, out=self.work.get(1, shape, np.float64), mode="wrap")
        # padding reads x = -inf, so no step leads into it
        step = np.greater(xs[..., 1:], xs[..., :-1],
                          out=self.work.get(2, (n_features, n_nodes, width - 1), bool))
        # lane = feature * n_nodes + node; np.nonzero of a 2-d array is slower
        lane, cut = np.divmod(np.flatnonzero(step), width - 1)
        best_gain = np.full(n_features * n_nodes, -np.inf)
        best_cut = np.zeros(n_features * n_nodes, dtype=np.int64)
        if lane.size:
            sums = []
            for stat in (self.a,) if self.unit_b else (self.a, self.b):
                # in xs's storage, in place: the same sequential sums as np.cumsum
                c = stat.take(keys, out=self.work.get(1, shape, np.float64), mode="wrap")
                c = c.cumsum(axis=2, out=c).reshape(-1, width)
                # padding adds -0.0, which leaves every sum as it is, so a
                # lane's last column holds its node's total
                sums += [c.take(lane * width + cut), c[:, -1].copy()]
            if self.unit_b:
                sums += [cut + 1.0, np.concatenate([size] * n_features) + 0.0]
            left_a, lane_a, left_b, lane_b = sums
            # a node score squares with C pow, as a float64 scalar's ** 2
            # does; an array's ** 2 and np.power round a few squares
            # differently, np.float_power calls pow
            parent_score = np.float_power(lane_a, 2) / (lane_b + reg_lambda)
            gains = left_a**2 / (left_b + reg_lambda)
            total_a, total_b = lane_a[lane], lane_b[lane]
            total_a -= left_a
            total_b -= left_b
            total_b += reg_lambda
            gains += total_a**2 / total_b  # the right child's score
            gains -= parent_score[lane]
            if second_order:
                gains *= 0.5
                gains -= gamma
            # first maximum per lane; a lane holding nan or inf scores
            # -inf, as np.argmax followed by a finiteness check would
            np.maximum.at(best_gain, lane, gains)
            hit = np.flatnonzero(gains == best_gain[lane])
            first_hit = np.full(best_gain.size, lane.size)
            np.minimum.at(first_hit, lane[hit], hit)
            scored = np.isfinite(best_gain)
            best_gain[~scored] = -np.inf
            best_cut[scored] = cut[first_hit[scored]]
        return best_gain.reshape(n_features, n_nodes).T, best_cut.reshape(n_features, n_nodes).T

    def leaf_values(self, start, size, reg_lambda, second_order):
        """Each leaf's value from the statistics of its range's rows.

        A leaf keeps its range once made, so its rows sit there in
        ascending order.  Leaves of equal size are summed together, one per
        row of a C-contiguous array: each row is reduced pairwise at its
        own length, in the same order as a[rows].sum().
        """
        order = size.argsort(kind="stable")
        start, size = start[order], size[order]
        a = self.a[0, self.rows()]
        b = None if self.unit_b else self.b[0, self.rows()]
        sum_a = np.empty(size.size)
        sum_b = size + 0.0 if b is None else np.empty(size.size)
        offset = np.arange(size[-1])
        bounds = np.flatnonzero(np.diff(size, prepend=-1, append=-1)).tolist()
        for i, j in zip(bounds[:-1], bounds[1:]):
            at = start[i:j, None] + offset[:size[i]]
            sum_a[i:j] = a[at].sum(axis=1)
            if b is not None:
                sum_b[i:j] = b[at].sum(axis=1)
        value = np.empty(size.size)
        value[order] = -sum_a / (sum_b + reg_lambda) if second_order else sum_a / sum_b
        return value

    def partition(self, start, size, n_left, feature, row_order_only=False):
        """Stably move each split node's left rows to the front of its range.

        Sorted by its split feature, a node's first n_left rows go left;
        every row of keys, or only keys[-1], is partitioned by that one set.
        So every row of keys holds each node's left rows in the same number:
        its left keys, taken in position order, fill the nodes' left spans,
        and its right keys their right spans.
        """
        right_at = _spans(start + n_left, size - n_left)
        split_feature = feature.repeat(size - n_left)
        right = self.keys[split_feature, right_at] - self.x.shape[1] * split_feature
        # by key, flat as in x; keys[-1]'s plain rows read goes_right[0]
        keys = self.keys[-1:] if row_order_only else self.keys
        goes_right = self.work.get(3, (min(keys.shape[0], self.x.shape[0]), self.x.shape[1]), bool)
        goes_right[:] = False
        goes_right[:, right] = True
        at = _spans(start, size)
        shape = (keys.shape[0], at.size)
        taken = keys.take(at, axis=1, out=self.work.get(0, shape, np.int64), mode="wrap")
        moves = goes_right.take(taken, out=self.work.get(2, shape, bool), mode="wrap")
        keys[:, right_at] = taken.take(np.flatnonzero(moves)).reshape(shape[0], -1)
        np.logical_not(moves, out=moves)
        keys[:, _spans(start, n_left)] = taken.take(np.flatnonzero(moves)).reshape(shape[0], -1)


def _depth_first_table(level_sizes, tree, feature, threshold, value, count, n_trees,
                        n_features) -> NodeTable:
    """The breadth-first nodes as the trees' table, numbered depth-first, left child first.

    Nodes are given level by level; the children of a level's k-th split
    node are the next level's nodes 2k and 2k + 1.
    """
    internal = feature >= 0
    ids = np.arange(feature.size)
    # the roots come first, then each split node's two children in turn
    left = ids.copy()
    left[internal] = n_trees + 2 * np.arange(np.count_nonzero(internal))
    right = left + internal
    bounds = np.cumsum(level_sizes) - level_sizes
    split_nodes = [lo + np.flatnonzero(internal[lo:lo + n])
                   for lo, n in zip(bounds.tolist(), level_sizes)]
    subtree = np.ones(ids.size, dtype=np.int64)
    for nodes in reversed(split_nodes):
        subtree[nodes] += subtree[left[nodes]] + subtree[right[nodes]]
    order = np.zeros(ids.size, dtype=np.int64)  # within its tree
    depth = np.zeros(n_trees, dtype=np.int64)
    for level, nodes in enumerate(split_nodes):
        order[left[nodes]] = order[nodes] + 1
        order[right[nodes]] = order[nodes] + 1 + subtree[left[nodes]]
        depth[tree[nodes]] = level + 1
    # tree t's table fills positions first[t] .. first[t] + subtree[t] - 1
    first = np.cumsum(subtree[:n_trees]) - subtree[:n_trees]
    at = first[tree] + order
    table = {}
    for name, column in zip(COLUMNS, (feature, threshold, order[left], order[right], value, count)):
        table[name] = np.empty_like(column)
        table[name][at] = column
    return NodeTable(table, first, depth, n_features)
