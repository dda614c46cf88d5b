"""CART-style binary regression trees.

Split search is exact: every midpoint between adjacent distinct sorted
feature values is a candidate.  Two growth criteria share the engine:

* plain SSE reduction with leaf = mean target (forests)
* regularized second-order gain with leaf = -G/(H + lambda) (boosting
  stages; gbm's are the lambda = gamma = 0 case)

Growth is level-wise on presorted columns, the exact greedy method on
sorted column blocks of XGBoost (Chen & Guestrin 2016, arXiv 1603.02754):

* Each fit sorts every feature column once, stably, so equal values keep
  row order.  A node owns one range of positions, the same range in each
  feature's sorted order.
* A split partitions its node's range stably in every sorted order, left
  rows first, so no column is sorted again.
* One depth level at a time, all open nodes are scored together.  Their
  ranges are laid out as padded (feature, node, position) blocks of nodes
  of similar size, and a cumulative sum runs along each node's positions
  alone.  So every prefix sum restarts at its node and adds the node's
  rows in (value, row) order, exactly as sorting that node by itself
  would.  Gains are computed only between distinct values.
* Ties go to the first maximum: the lowest threshold within a feature,
  then the lowest feature index, so identical inputs always grow
  identical trees.  A leaf's value sums its rows in ascending row order.
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

Integer row weights stand for repeated rows, so a bootstrap resample is
its distinct rows weighted by their draw counts.

A tree is one flat node table: the equal-length columns `feature`,
`threshold`, `left`, `right`, `value` and `count`, indexed by node id.
Node 0 is the root, and nodes are numbered depth-first, left child
first, so every child's id is greater than its parent's.  A row goes
left when row[feature] <= threshold.  A leaf has feature -1 and
threshold 0; its `left` and `right` point to the leaf itself, so a
batch of rows descends in exactly depth() gathers with no leaf test.
`value` is the leaf prediction (0 on internal nodes) and `count` the
number of training rows, weights counted, that reached the node.  The
model JSON stores the six columns as they are.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DataValidationError

COLUMNS = ("feature", "threshold", "left", "right", "value", "count")

# The most rows, summed over its trees, that one level loop grows at once.
# A level's working memory is about 600 bytes per row.  3000 rows hold a
# 5-fold boosting stage (5 x 592 rows) and about 6 bootstrap trees; on
# train-cv, peak RSS rose 0.45 MB at 2000 rows, 0.9 MB at 3000, 1.8 MB at
# 4500 and 2.9 MB at 6000 over one tree at a time (44.2 MB).
CHUNK_ROWS = 3000


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
    return fit_trees([(X, targets, weights, rng)], config)[0]


def fit_trees(jobs, config: TreeConfig) -> list:
    """fit_tree on each job (X, targets, weights or None, rng), grown together.

    Every tree is the one fit_tree grows on its job alone.  `jobs` may be
    any iterable; it is read one chunk at a time (see CHUNK_ROWS).
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
    return fit_trees_gradients([(X, grad, hess, rng)], config, reg_lambda, gamma)[0]


def fit_trees_gradients(jobs, config: TreeConfig, reg_lambda: float = 1.0,
                        gamma: float = 0.0) -> list:
    """fit_tree_gradients on each job (X, grad, hess, rng), grown together.

    Every tree is the one fit_tree_gradients grows on its job alone.
    `jobs` may be any iterable; it is read one chunk at a time.
    """
    return _grow((_gradient_job(*job, config) for job in jobs), config, reg_lambda, gamma)


def _sse_job(X, targets, weights, rng, config):
    X, targets = _check_fit_inputs(X, targets, config)
    if weights is None:
        counts = np.ones(X.shape[0], dtype=np.int64)
    else:
        counts = np.asarray(weights)
        if counts.shape != targets.shape or counts.dtype.kind not in "iu" or counts.min() < 1:
            raise DataValidationError("weights must be one positive integer per row")
        counts = counts.astype(np.int64)
    b = counts.astype(np.float64)
    return X, targets * b, b, counts, targets, rng


def _gradient_job(X, grad, hess, rng, config):
    X, grad = _check_fit_inputs(X, grad, config)
    hess = np.ascontiguousarray(hess, dtype=np.float64)
    if hess.shape != grad.shape:
        raise DataValidationError("grad and hess must have equal length")
    if not np.isfinite(hess).all():
        raise DataValidationError("hessians must be finite (no NaN or inf)")
    return X, grad, hess, np.ones(X.shape[0], dtype=np.int64), None, rng


def _check_fit_inputs(X, targets, config):
    X = np.ascontiguousarray(X, dtype=np.float64)
    targets = np.ascontiguousarray(targets, dtype=np.float64)
    if X.ndim != 2 or 0 in X.shape:
        raise DataValidationError("X must be a 2-d matrix with at least one row and column")
    if targets.shape != (X.shape[0],):
        raise DataValidationError(
            f"{targets.shape[0]} targets for {X.shape[0]} rows"
        )
    # an inf feature value makes an inf midpoint and an empty child
    if not (np.isfinite(X).all() and np.isfinite(targets).all()):
        raise DataValidationError("X and targets must be finite (no NaN or inf)")
    config.validate(X.shape[1])
    return X, targets


def _grow(jobs, config, reg_lambda, gamma) -> list:
    """One tree per job, grown in consecutive chunks of at most CHUNK_ROWS rows.

    A job larger than CHUNK_ROWS is a chunk of its own.
    """
    trees, chunk, rows = [], [], 0
    for job in jobs:
        if chunk and rows + job[0].shape[0] > CHUNK_ROWS:
            trees += _grow_chunk(chunk, config, reg_lambda, gamma)
            chunk, rows = [], 0
        chunk.append(job)
        rows += job[0].shape[0]
    if chunk:
        trees += _grow_chunk(chunk, config, reg_lambda, gamma)
    return trees


def _grow_chunk(jobs, config, reg_lambda, gamma) -> list:
    """The level-wise engine over a batch of jobs (X, a, b, counts, targets, rng).

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
    second_order = jobs[0][4] is None
    n_features = jobs[0][0].shape[1]
    if any(job[0].shape[1] != n_features for job in jobs):
        raise DataValidationError("every tree of a batch must have the same features")
    a, b, counts = (np.concatenate([job[i] for job in jobs]) for i in (1, 2, 3))
    rngs = [job[5] for job in jobs]
    k = config.max_features
    subset_size = k if k is not None and k < n_features else None
    size = np.array([job[0].shape[0] for job in jobs])
    start = np.cumsum(size) - size
    columns = _SortedColumns([job[0] for job in jobs], a, b)
    counts = np.append(counts, 0)
    if not second_order:
        targets = np.append(np.concatenate([job[4] for job in jobs]), 0.0)

    levels, leaves = [], []
    tree = np.arange(len(jobs))  # the job each open node belongs to
    depth = first_id = 0
    while True:
        bounds = np.column_stack([start, start + size]).ravel()
        rows = columns.rows()
        count = np.add.reduceat(counts[rows], bounds)[::2]
        splittable = count >= config.min_samples_split
        if config.max_depth is not None and depth >= config.max_depth:
            splittable[:] = False
        if not second_order:
            values = targets[rows]
            spread = np.maximum.reduceat(values, bounds) - np.minimum.reduceat(values, bounds)
            splittable &= ~(spread[::2] == 0.0)
        feature = np.full(start.size, -1, dtype=np.int64)
        threshold = np.zeros(start.size)
        split = np.flatnonzero(splittable)
        if split.size:
            node_rngs = None if subset_size is None else [rngs[t] for t in tree[split].tolist()]
            gainful, best_feature, best_threshold, n_left = columns.best_splits(
                start[split], size[split], node_rngs, subset_size, reg_lambda, gamma,
                second_order
            )
            split, n_left = split[gainful], n_left[gainful]
            feature[split], threshold[split] = best_feature[gainful], best_threshold[gainful]
        if split.size:
            # children at the depth bound are leaves: only the row order matters
            last = config.max_depth is not None and depth + 1 >= config.max_depth
            columns.partition(start[split], size[split], n_left, feature[split], last)

        ids = first_id + np.arange(start.size)
        left, right = ids.copy(), ids.copy()
        left[split] = first_id + start.size + 2 * np.arange(split.size)
        right[split] = left[split] + 1
        levels.append((ids, tree, feature, threshold, left, right, count))
        leaf = feature < 0
        leaves.append(np.column_stack([ids[leaf], start[leaf], start[leaf] + size[leaf]]))
        first_id += start.size
        if not split.size:
            break
        start = np.column_stack([start[split], start[split] + n_left]).ravel()
        size = np.column_stack([n_left, size[split] - n_left]).ravel()
        tree = np.repeat(tree[split], 2)
        depth += 1

    # a leaf keeps its range once made, so its rows sit there in ascending
    # order; a row of a C-contiguous 2-row array sums in the same pairwise
    # order as a[rows].sum()
    sums = np.vstack([columns.a[columns.rows()], columns.b[columns.rows()]])
    value = np.zeros(first_id)
    for node, lo, hi in np.concatenate(leaves).tolist():
        sa, sb = np.add.reduce(sums[:, lo:hi], axis=1).tolist()
        value[node] = -sa / (sb + reg_lambda) if second_order else sa / sb
    return _depth_first_tables(levels, value, len(jobs), n_features)


def _spans(start, size):
    """The positions of each range start[j] .. start[j] + size[j] - 1, range by range."""
    return np.arange(size.sum()) + np.repeat(start - np.cumsum(size) + size, size)


def _blocks(size):
    """The nodes in blocks of similar size, largest first.

    Padding a block to its largest node at most doubles it, so the padded
    work and memory stay within twice the rows, however uneven the nodes.
    """
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


class _SortedColumns:
    """Each feature's rows in sorted order, cut into node ranges as trees grow.

    A node owns one range of positions, the same in every feature's order,
    and a split partitions its range stably, so each order stays sorted
    within every node.  keys[f, p] is the row at position p of feature f's
    order, and keys[-1] holds the rows in row order.  x[f, row] is a
    feature value and a[row], b[row] the row's statistics.  Row n and
    position n are padding, with x = a = b = 0.
    """

    def __init__(self, matrices, a, b):
        n, n_features = a.size, matrices[0].shape[1]
        self.keys = np.full((n_features + 1, n + 1), n, dtype=np.int64)
        self.keys[-1, :n] = np.arange(n)
        self.x = np.zeros((n_features, n + 1))
        # each tree's rows are stacked in turn and sorted on their own
        lo = 0
        for X in matrices:
            hi = lo + X.shape[0]
            self.keys[:-1, lo:hi] = lo + np.argsort(X, axis=0, kind="stable").T
            self.x[:, lo:hi] = X.T
            lo = hi
        # x's flat index of (f, row) is x_offset[f] + row
        self.x_offset = (n + 1) * np.arange(n_features)[:, None, None]
        self.a, self.b = np.append(a, 0.0), np.append(b, 0.0)

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
        best_gain = np.full((n_nodes, n_features), -np.inf)
        best_cut = np.zeros((n_nodes, n_features), dtype=np.int64)
        for nodes in _blocks(size):
            self._score(start, size, nodes, best_gain, best_cut, reg_lambda, gamma, second_order)
        if subset_size is not None:
            # one subset per node, drawn breadth-first, left child first
            drawn = np.zeros(best_gain.shape, dtype=bool)
            for j, rng in enumerate(rngs):
                drawn[j, rng.choice(n_features, size=subset_size, replace=False)] = True
            best_gain[~drawn] = -np.inf
        nodes = np.arange(n_nodes)
        chosen = np.argmax(best_gain, axis=1)  # first max -> lowest feature on ties
        at = start + best_cut[nodes, chosen]
        threshold = (self.x[chosen, self.keys[chosen, at]]
                     + self.x[chosen, self.keys[chosen, at + 1]]) / 2.0
        # sorted by its split feature, a node's left rows come first
        split_feature = np.repeat(chosen, size)
        xs = self.x[split_feature, self.keys[split_feature, _spans(start, size)]]
        n_left = np.add.reduceat(xs <= np.repeat(threshold, size), np.cumsum(size) - size,
                                 dtype=np.int64)
        return best_gain[nodes, chosen] > 0.0, chosen, threshold, n_left

    def _score(self, start, size, nodes, best_gain, best_cut, reg_lambda, gamma, second_order):
        """Record each (node, feature) lane's best gain and cut, for the given nodes.

        The nodes' ranges are laid out as a padded (feature, node,
        position) block, so each prefix sum runs along one node's range
        alone and adds its rows in the order a stable sort of that node
        would.  Gains are scored only where a split can fall, between
        distinct values; a split at cut falls after the node's cut-th
        position.  Unset lanes keep gain -inf.
        """
        width = max(int(size[nodes].max()), 2)
        offset = np.arange(width)
        inside = offset < size[nodes, None]
        # np.take: a faster gather than fancy indexing
        rows = np.take(self.keys[:-1], np.where(inside, start[nodes, None] + offset, -1), axis=1)
        rows += self.x_offset  # flat indices into x, undone below
        xs = np.take(self.x, rows)
        rows -= self.x_offset
        at = np.flatnonzero((xs[..., 1:] > xs[..., :-1]) & inside[:, 1:])
        del xs
        if not at.size:
            return
        ca, cb = np.take(self.a, rows), np.take(self.b, rows)
        del rows
        # in place, the same sequential sums as np.cumsum
        ca, cb = (np.cumsum(c, axis=2, out=c).reshape(-1, width) for c in (ca, cb))
        lane, cut = np.divmod(at, width - 1)  # lane = feature * nodes.size + node
        left_a, left_b = ca[lane, cut], cb[lane, cut]
        last = np.tile(size[nodes] - 1, ca.shape[0] // nodes.size)
        lane_a, lane_b = ca[np.arange(ca.shape[0]), last], cb[np.arange(ca.shape[0]), last]
        del ca, cb
        total_a, total_b = lane_a[lane], lane_b[lane]

        new_lane = np.ones(lane.size, dtype=bool)
        np.not_equal(lane[1:], lane[:-1], out=new_lane[1:])
        first = np.flatnonzero(new_lane)
        index = np.cumsum(new_lane) - 1  # of the candidate's lane in first
        # a Python float's ** 2 is C pow, which rounds a few squares
        # differently from an array's ** 2; a node score keeps pow's
        squares = np.array([t**2 for t in lane_a[lane[first]].tolist()])
        parent_score = squares / (lane_b[lane[first]] + reg_lambda)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gains = left_a**2 / (left_b + reg_lambda)
            total_a -= left_a
            total_b -= left_b
            total_b += reg_lambda
            gains += total_a**2 / total_b  # the right child's score
            gains -= parent_score[index]
            if second_order:
                gains *= 0.5
                gains -= gamma
        # first maximum per lane; a lane holding nan or inf scores -inf,
        # as np.argmax followed by a finiteness check would
        hit = np.flatnonzero(gains == np.maximum.reduceat(gains, first)[index])
        first_hit = np.ones(hit.size, dtype=bool)
        np.not_equal(index[hit][1:], index[hit][:-1], out=first_hit[1:])
        hit = hit[first_hit]
        hit = hit[np.isfinite(gains[hit])]
        feature, node = np.divmod(lane[hit], nodes.size)
        best_gain[nodes[node], feature] = gains[hit]
        best_cut[nodes[node], feature] = cut[hit]

    def partition(self, start, size, n_left, feature, row_order_only=False):
        """Stably move each split node's left rows to the front of its range.

        Sorted by its split feature, a node's first n_left rows go left;
        every row of keys, or only keys[-1], is partitioned by that one set.
        """
        at = _spans(start, size)  # node by node
        within = at - np.repeat(start, size)
        goes_right = within >= np.repeat(n_left, size)
        goes_left = np.ones(self.keys.shape[1], dtype=bool)  # by row
        goes_left[self.keys[np.repeat(feature, size)[goes_right], at[goes_right]]] = False
        moved = slice(-1, None) if row_order_only else slice(None)
        taken = np.take(self.keys[moved], at, axis=1)
        flags = np.take(goes_left, taken)
        # every row of keys holds each node's left rows in the same number,
        # so its lefts and its rights each fill a fixed width
        lefts = int(n_left.sum())
        grouped = np.empty_like(taken)
        grouped[:, :lefts] = taken[flags].reshape(taken.shape[0], -1)
        grouped[:, lefts:] = taken[~flags].reshape(taken.shape[0], -1)
        source = np.where(goes_right,
                          lefts + np.repeat(np.cumsum(size - n_left) - size, size),
                          np.repeat(np.cumsum(n_left) - n_left, size)) + within
        self.keys[moved, at] = np.take(grouped, source, axis=1, out=taken)


def _depth_first_tables(levels, value, n_trees, n_features) -> list:
    """The breadth-first levels as one table per tree, numbered depth-first, left child first."""
    ids, tree, feature, threshold, left, right, count = (np.concatenate(c) for c in zip(*levels))
    internal = [level[0][level[2] >= 0] for level in levels]
    subtree = np.ones(ids.size, dtype=np.int64)
    for nodes in reversed(internal):
        subtree[nodes] += subtree[left[nodes]] + subtree[right[nodes]]
    order = np.zeros(ids.size, dtype=np.int64)  # within its tree
    for nodes in internal:
        order[left[nodes]] = order[nodes] + 1
        order[right[nodes]] = order[nodes] + 1 + subtree[left[nodes]]
    # tree t's table fills positions first[t] .. first[t] + subtree[t] - 1
    first = np.cumsum(subtree[:n_trees]) - subtree[:n_trees]
    at = first[tree] + order
    table = {}
    for name, column in zip(COLUMNS, (feature, threshold, order[left], order[right], value, count)):
        table[name] = np.empty_like(column)
        table[name][at] = column
    return [RegressionTree(**{name: column[lo:lo + n] for name, column in table.items()},
                           feature_count=n_features)
            for lo, n in zip(first.tolist(), subtree[:n_trees].tolist())]
