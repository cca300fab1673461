"""Random-forest detector built from CART trees with Gini impurity.

The detector's input is one feature table: a Dataset whose matrix X has 17
columns per block, the latency in microseconds followed by the 16 bytes the
pipeline saw (post-fault plaintext by default, or ciphertext), and whose
vector y holds the boolean truth labels. Trees grow greedily: at each node a
without-replacement sample of candidate features is scored over thresholds
midway between consecutive distinct values the node holds (the lower value
itself where the midpoint rounds up to the upper one), and the split with
the highest Gini gain wins. Ties resolve to the lowest feature index, then
the lowest threshold; a node with no strictly positive gain becomes a leaf.

Each training column is ranked once, replacing every value by its position
among the column's sorted distinct values. Trees grow in batches, one depth
at a time: every node of the batch's trees that must be searched at that
depth is scored by one per-class histogram over the ranks of its candidate
columns, the latency and the bytes alike. A node whose columns hold many
more values than it holds rows sorts its keys instead, which gives the same
counts in time bounded by its rows. This is exact histogram split finding,
so the counts, thresholds and gains are those of a sorted scan.
Each tree is stored as three pre-order lists; building one checks its shape
and derives its right-child links and depth, whether it was grown or loaded.
Prediction partitions the row numbers down each tree in turn, smallest tree
first, so a row is compared only at the nodes on its path, and stops walking
a row once its majority is settled.

Everything is deterministic given (hyperparams, training data): each tree
draws its bootstrap sample, then the feature subsets of each level's nodes,
left to right, from a generator derived from the forest seed and the tree
index. A tree is the same whichever trees grow beside it.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, TypeVar

import numpy as np

from .files import atomic_write, cell_texts, digit_runs
from .workload import _STREAM_SPLIT, _STREAM_TREE, _check_integers, _rng

N_FEATURES = 17

_T = TypeVar("_T")


class ByteSource(enum.Enum):
    PLAINTEXT = "plaintext"
    CIPHERTEXT = "ciphertext"


@dataclass(frozen=True)
class Dataset:
    """Feature matrix X (float64, one row per block) and labels y (bool)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "X", np.asarray(self.X, dtype=np.float64))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=bool))
        if self.X.ndim != 2:
            raise ValueError(f"feature matrix must be 2-D, got shape {self.X.shape}")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError(f"{self.y.shape} labels for {self.X.shape[0]} feature rows")
        if not np.isfinite(self.X).all():
            raise ValueError("feature matrix holds a non-finite value")

    def __len__(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True)
class ForestHyperparams:
    """How a forest is grown. Building one, dataclasses.replace included, checks
    every field, the integer fields' types too, and raises ValueError on a bad
    value, so one that exists is valid."""

    n_trees: int = 101
    max_depth: Optional[int] = 16
    min_samples_split: int = 2
    features_per_split: int = 5  # ceil(sqrt(17))
    seed: int = 1
    train_fraction: float = 0.7

    def __post_init__(self) -> None:
        _check_integers(self, "n_trees", "min_samples_split", "features_per_split", "seed")
        if self.n_trees < 1:
            raise ValueError("n_trees must be at least 1")
        if self.max_depth is not None:
            _check_integers(self, "max_depth")
            if self.max_depth < 0:
                raise ValueError("max_depth must be None or non-negative")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be at least 2")
        if self.features_per_split < 1:
            raise ValueError("features_per_split must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a non-negative 64-bit integer")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly between 0 and 1")


@dataclass(frozen=True)
class Tree:
    """One CART tree as three lists with one entry per node, in pre-order.

    Node 0 is the root and a split node's left child is the node after it.
    A split sends rows with X[:, feature] <= threshold left, the rest right.
    A leaf has feature -1 and holds its (benign, anomalous) training counts;
    split nodes hold zero counts. Building a tree checks that the lists are
    one complete pre-order tree and derives, in one walk, right, which holds
    each split node's right child and -1 at a leaf, and depth, the most
    splits on any path from the root to a leaf (0 for a lone leaf).
    """

    feature: List[int]
    threshold: List[float]
    counts: List[Tuple[int, int]]
    right: List[int] = field(init=False)
    depth: int = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.feature)
        if n < 1 or len(self.threshold) != n or len(self.counts) != n:
            raise ValueError("tree lists must hold the same number (at least 1) of nodes")
        right = [-1] * n
        awaiting_right = []  # (split node, its children's depth) whose right child is to come
        depth = deepest = 0  # of the current node, and of the deepest node so far
        after_leaf = False  # a node after a leaf is a right child
        for node, f in enumerate(self.feature):
            if after_leaf:
                if not awaiting_right:
                    raise ValueError(f"tree is complete before node {node}")
                split, depth = awaiting_right.pop()
                right[split] = node
            after_leaf = f < 0
            if not after_leaf:
                depth += 1
                if depth > deepest:
                    deepest = depth
                awaiting_right.append((node, depth))
        if awaiting_right:
            raise ValueError(f"split node {awaiting_right[-1][0]} has no right subtree")
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "depth", deepest)


def _trees(feature: np.ndarray, cut: Sequence[float], leaf0: Sequence[int], leaf1: Sequence[int],
           bounds: Sequence[int]) -> List[Tree]:
    """The trees whose pre-order nodes lie end to end, tree i from bounds[i] to bounds[i + 1].

    feature holds -1 at a leaf; cut holds the split nodes' thresholds, and
    leaf0 and leaf1 the leaves' counts, in node order. Object arrays place the
    Python numbers, and let the leaves share one 0.0 and the split nodes one
    (0, 0), as the line pass of load_model does. Building each Tree checks
    its shape, and raises ValueError for one that is not a complete tree.
    """
    split = feature >= 0
    threshold = np.full(feature.size, 0.0, dtype=object)
    threshold[split] = cut
    counts = np.full(feature.size, None, dtype=object)
    counts.fill((0, 0))
    counts[~split] = np.fromiter(zip(leaf0, leaf1), object, len(leaf0))
    feature, threshold, counts = feature.tolist(), threshold.tolist(), counts.tolist()
    return [Tree(feature[a:b], threshold[a:b], counts[a:b]) for a, b in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class ForestModel:
    trees: Tuple[Tree, ...]
    hyper: ForestHyperparams
    n_features: int


@dataclass(frozen=True)
class SplitResult:
    """Stratified partition with the source row indices of each side (ascending)."""

    train: Dataset
    test: Dataset
    train_indices: np.ndarray
    test_indices: np.ndarray


def split_train_test(data: Dataset, train_fraction: float, seed: int) -> SplitResult:
    """Shuffle each class separately and cut it at round(fraction * count).

    The per-class train count is clamped to [1, count - 1] so every class
    present lands in both partitions. A class with fewer than 2 samples
    cannot be stratified and raises.
    """
    if not len(data):
        raise ValueError("cannot split an empty dataset")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    rng = _rng(seed, _STREAM_SPLIT)
    train_parts = []
    test_parts = []
    for cls in (False, True):
        idx = np.flatnonzero(data.y == cls)
        if not idx.size:
            continue
        if idx.size < 2:
            raise ValueError(f"stratified split needs at least 2 samples of class {cls}")
        perm = rng.permutation(idx)
        n_train = min(max(round(train_fraction * idx.size), 1), idx.size - 1)
        train_parts.append(perm[:n_train])
        test_parts.append(perm[n_train:])
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))
    return SplitResult(
        Dataset(data.X[train_idx], data.y[train_idx]),
        Dataset(data.X[test_idx], data.y[test_idx]),
        train_idx,
        test_idx,
    )


def _gini_vec(c0: np.ndarray, c1: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Gini impurity 1 - sum(p^2) of each node of total >= 1 samples, c0 and c1 of each class."""
    p0 = c0 / total
    p0 *= p0
    p1 = c1 / total
    p1 *= p1
    p0 += p1
    return 1.0 - p0


def _gains(n_left: np.ndarray, left1: np.ndarray, n: np.ndarray, total0: np.ndarray,
           total1: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Gini gain of each cut with n_left of the n samples, left1 of them anomalous, on the left.

    Every argument holds one entry per cut: the class totals and impurity of
    a cut's node repeat along its cuts. A count is a float64 holding an
    integer, so each step before the impurities is exact.
    """
    left0 = n_left - left1
    right1 = total1 - left1
    right0 = total0 - left0
    n_right = n - n_left
    child = _gini_vec(left0, left1, n_left)
    child *= n_left
    right = _gini_vec(right0, right1, n_right)
    right *= n_right
    child += right
    child /= n
    return parent - child


class _Columns(NamedTuple):
    """The ranked training columns that fit searches; see _rank_columns."""

    keys: np.ndarray  # keys[f, i]: 2 * the rank of row i's value in column f, plus row i's class
    values: np.ndarray  # each column's sorted distinct values, column after column
    first: np.ndarray  # the position in values of each column's first value
    widths: np.ndarray  # each column's number of distinct values


def _rank_columns(X: np.ndarray, y: np.ndarray, features: Sequence[int]) -> _Columns:
    """The listed columns of X with the 0/1 labels y, each ranked once.

    Row j of keys and the j-th run of values describe column features[j] of
    X: keys[j, i] is 2 * (the position among that column's sorted distinct
    values of row i's entry) + y[i], row i's (rank, class) bin.
    """
    if not len(features):
        raise ValueError("cannot fit on a feature matrix with no columns")
    ranked = [np.unique(X[:, f], return_inverse=True) for f in features]
    widths = np.array([v.size for v, _ in ranked])
    return _Columns(np.array([2 * rank + y for _, rank in ranked], dtype=np.intp),
                    np.concatenate([v for v, _ in ranked]), np.cumsum(widths) - widths, widths)


_MAX_GROWING_TREES = 16  # trees grown together; bounds fit's memory
_SCAN_CHUNK = 1 << 16  # (row, column) pairs plus histogram bins one _scan_batch call may hold
_SPARSE_RATIO = 4  # rank bins per (row, column) pair above which a node is scored by sorting


def _sparse(cols: _Columns, sizes: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """Whether each node of sizes[i] rows and candidate columns feats[i] is scored by sorting.

    A node whose columns hold more than _SPARSE_RATIO distinct values per
    (row, column) pair would spend its histogram mostly on empty bins.
    """
    return cols.widths.take(feats).sum(axis=1) > _SPARSE_RATIO * feats.shape[1] * sizes


def _held(cols: _Columns, rows: np.ndarray, sizes: np.ndarray, feats: np.ndarray,
          shift: np.ndarray, sparse: bool) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(held, n_held, held1): the held bins, ascending, and the rows and anomalous rows of each.

    The nodes are laid out as in _scan_batch, and shift[i, j] is twice the
    first bin of node i's segment for column feats[i, j]: adding it to a
    (row, column) pair's key gives the pair's (bin, class). One histogram
    counts the shifted keys, or where sparse one sort lines them up in runs
    of one bin: the same counts, in time bounded by the bins or by the pairs.
    """
    at = (feats.T * cols.keys.shape[1]).repeat(sizes, axis=1)  # (column, pair): each key's index
    at += rows
    bins = cols.keys.take(at).ravel()
    del at
    bins += shift.T.repeat(sizes, axis=1).ravel()
    if sparse:
        bins.sort()
        pair_bin = bins >> 1  # a shifted key is 2 * its bin + its class
        last = np.empty(bins.size, dtype=bool)  # whether a pair ends its run of one bin
        last[-1] = True
        np.not_equal(pair_bin[1:], pair_bin[:-1], out=last[:-1])
        end = last.nonzero()[0] + 1
        n_held = end.copy()
        n_held[1:] -= end[:-1]
        return pair_bin[end - 1], n_held, np.add.reduceat(bins & 1, end - n_held)
    hist = np.bincount(bins, minlength=int(shift[-1, -1]) + 2 * int(cols.widths[feats[-1, -1]]))
    held1 = hist[1::2]
    n_held = hist[0::2] + held1
    held = (n_held > 0).nonzero()[0]
    return held, n_held[held], held1[held]


def _scan_batch(cols: _Columns, rows: np.ndarray, sizes: np.ndarray, feats: np.ndarray,
                stats: np.ndarray, n_dense: int) -> Tuple[np.ndarray, ...]:
    """(node, gain, j, rank, above, n_left, left1) of each node whose best cut has gain above zero.

    Node i holds sizes[i] rows, which follow those of node i - 1 in rows
    (repeats allowed), and its candidate columns feats[i] ascend; stats[:, i]
    holds its rows, benign rows and anomalous rows as floats, and its Gini
    impurity. Each (node, column) is a segment as wide as the column's
    values, laid end to end. _held counts the first n_dense nodes by
    histogram and the rest by sorting. A cumulative sum over the held bins,
    restarted at each segment, gives the class counts left of a cut after
    each; gains are computed at held bins only, and the first maximum wins
    (lowest column, then threshold). The cut of column feats[node, j] sends
    the n_left rows of rank at most rank left, left1 of them anomalous; above
    is the next rank held.
    """
    m, k = feats.shape
    wide = cols.widths.take(feats)
    starts = wide.cumsum() - wide.ravel()  # first bins; segment s: node s // k, column feats.flat[s]
    shift = 2 * starts.reshape(m, k)
    split = sizes[:n_dense].sum()
    parts = []  # (held, n_held, held1) of the nodes counted by histogram, then of the rest
    if n_dense:
        parts.append(_held(cols, rows[:split], sizes[:n_dense], feats[:n_dense], shift[:n_dense],
                           sparse=False))
    if n_dense < m:
        parts.append(_held(cols, rows[split:], sizes[n_dense:], feats[n_dense:], shift[n_dense:],
                           sparse=True))
    held, n_held, held1 = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    n, total0, total1, parent = stats
    first = held.searchsorted(starts)  # every segment holds its node's rows
    n_left = n_held.astype(np.float64)  # exact: counts stay far below 2**53
    left1 = held1.astype(np.float64)
    n_left[first[1:]] -= n.repeat(k)[:-1]  # each segment restarts the sums
    left1[first[1:]] -= total1.repeat(k)[:-1]
    n_left.cumsum(out=n_left)
    left1.cumsum(out=left1)
    bounds = np.concatenate((first, [held.size]))
    node_first = first[::k]
    per_node = bounds[k::k] - node_first
    with np.errstate(invalid="ignore"):  # a segment's last held rank leaves no row right: 0 / 0
        gains = _gains(n_left, left1, *stats.repeat(per_node, axis=1))
    gains[bounds[1:] - 1] = -np.inf
    best = np.maximum.reduceat(gains, node_first)
    node = (best > 0.0).nonzero()[0]
    top = (gains == best.repeat(per_node)).nonzero()[0]
    pick = top[top.searchsorted(node_first[node])]  # each node's first maximum
    seg = first.searchsorted(pick, side="right") - 1
    base = starts[seg]
    return (node, best[node], seg - k * node, held[pick] - base, held[pick + 1] - base,
            n_left[pick], left1[pick])


class _Cuts(NamedTuple):
    """The cuts of a depth's nodes that have one; each field holds one entry per cut."""

    node: np.ndarray  # the node's position among the depth's nodes
    gain: np.ndarray
    feature: np.ndarray  # the column of keys cut
    rank: np.ndarray  # the rows of rank at most rank in that column go left
    threshold: np.ndarray  # ... which are the rows at or below threshold
    left0: np.ndarray  # the class counts of the rows going left
    left1: np.ndarray


def _split_level(cols: _Columns, rows: np.ndarray, sizes: np.ndarray, feats: np.ndarray,
                 c1: np.ndarray, n_dense: int) -> _Cuts:
    """The best cut of each node (see _scan_batch); the first n_dense are counted by histogram.

    Nodes are scored in chunks of consecutive nodes, each of at most
    _SCAN_CHUNK (row, column) pairs plus histogram bins, or one larger node.
    The threshold is the midpoint between the cut's value and the next one
    held, or the value itself where the midpoint rounds up to the next, so
    exactly the rows of rank at most the cut's lie at or below it.
    """
    k = feats.shape[1]
    n = sizes.astype(np.float64)
    total1 = c1.astype(np.float64)
    total0 = n - total1
    stats = np.stack((n, total0, total1, _gini_vec(total0, total1, n)))
    cost = 2 * k * sizes  # a node scored by sorting holds its sorted pairs in place of bins
    cost[:n_dense] = k * sizes[:n_dense] + cols.widths.take(feats[:n_dense]).sum(axis=1)
    cost = cost.cumsum()
    row_end = sizes.cumsum()
    parts = []
    a = 0
    while a < sizes.size:
        b = max(int(cost.searchsorted((cost[a - 1] if a else 0) + _SCAN_CHUNK, side="right")), a + 1)
        node, *found = _scan_batch(cols, rows[row_end[a] - sizes[a]:row_end[b - 1]], sizes[a:b],
                                   feats[a:b], stats[:, a:b], min(max(n_dense - a, 0), b - a))
        parts.append((node + a, *found))
        a = b
    node, gain, j, rank, above, n_left, left1 = (np.concatenate(part) for part in zip(*parts))
    feature = feats[node, j]
    lo, hi = cols.values[cols.first[feature] + rank], cols.values[cols.first[feature] + above]
    mid = (lo + hi) / 2.0
    return _Cuts(node, gain, feature, rank, np.where(mid < hi, mid, lo),
                 (n_left - left1).astype(np.intp), left1.astype(np.intp))


def _grow_levels(cols: _Columns, hyper: ForestHyperparams,
                 starts: Iterable[Tuple[np.random.Generator, np.ndarray]]) -> List[Tree]:
    """One tree per (rng, rows) of starts; rows are columns of cols.keys, repeats allowed.

    The trees grow in batches of _MAX_GROWING_TREES; see _grow_batch.
    """
    # glibc hands freed heap memory back to the OS once more than twice the
    # largest mmap-ed block freed so far lies unused at the heap's top, and the
    # next chunk's arrays then fault it back in, zero-filled: some 25k page
    # faults per sim-ascii fit. Freeing one untouched block of 4 chunks' worth
    # of float64 first raises that mark above a chunk's working set.
    np.empty(4 * _SCAN_CHUNK)
    trees: List[Tree] = []
    starts = iter(starts)
    while batch := list(itertools.islice(starts, _MAX_GROWING_TREES)):
        trees += _grow_batch(cols, hyper, batch)
    return trees


def _pairs(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left[0], right[0], left[1], right[1], ..."""
    both = np.empty(2 * left.size, dtype=left.dtype)
    both[0::2] = left
    both[1::2] = right
    return both


def _partition(cols: _Columns, rows: np.ndarray, sizes: np.ndarray, node: np.ndarray,
               feature: np.ndarray, rank: np.ndarray, n_left: np.ndarray,
               children: np.ndarray, child_sizes: np.ndarray) -> np.ndarray:
    """The rows of the listed children of a depth's split nodes, child after child.

    The depth's nodes hold sizes[i] rows each, one after another in rows.
    Split node node[i] was cut at rank[i] of column feature[i], sending
    n_left[i] rows left, and its children are 2 * i (left) and 2 * i + 1.
    One pass puts the rows left of each cut first, node by node, and every
    other row after them; each listed child's run of child_sizes rows is
    then copied out.
    """
    key_at, cut, lefts = (np.zeros(sizes.size, dtype=np.intp) for _ in range(3))
    key_at[node] = feature * cols.keys.shape[1]
    cut[node] = 2 * rank + 2  # the keys of ranks up to rank lie below
    lefts[node] = n_left
    goes_left = cols.keys.take(key_at.repeat(sizes) + rows) < cut.repeat(sizes)
    parted = np.empty_like(rows)
    n_lefts = int(lefts.sum())  # as many as go left: compress checks it
    np.compress(goes_left, rows, out=parted[:n_lefts])
    np.compress(~goes_left, rows, out=parted[n_lefts:])
    rights = sizes - lefts
    start = _pairs((lefts.cumsum() - lefts)[node], (rights.cumsum() - rights + n_lefts)[node])
    return parted.take(np.arange(child_sizes.sum())
                       + (start[children] - child_sizes.cumsum() + child_sizes).repeat(child_sizes))


def _grow_batch(cols: _Columns, hyper: ForestHyperparams,
                batch: Sequence[Tuple[np.random.Generator, np.ndarray]]) -> List[Tree]:
    """The trees of one batch, grown together one depth at a time.

    At each depth a tree draws rng.random((m, d)) for the m nodes it must
    search, left to right: a node's candidate columns are the first
    features_per_split of its row's stable argsort, ascending. The depth's
    nodes of every tree are scored by one _split_level call, with the nodes
    to count by histogram first. A child's class counts come from the cut,
    and one _partition of the depth's rows gives the rows of the children to
    search. Nodes are numbered by depth, and within a depth tree by tree,
    left to right; _grown_trees lays the trees out.
    """
    d = cols.keys.shape[0]
    k = min(hyper.features_per_split, d)
    rngs = [rng for rng, _ in batch]
    # of the newest depth's nodes, in id order from base: their tree and class counts
    tree = np.arange(len(batch))
    c1 = np.array([np.count_nonzero(cols.keys[0].take(rows) & 1) for _, rows in batch])
    c0 = np.array([rows.size for _, rows in batch]) - c1
    nodes = [(tree, c0, c1)]
    splits = []  # per depth: (ids, features, thresholds, left children) of its split nodes
    base, depth = 0, 0
    while hyper.max_depth is None or depth < hyper.max_depth:
        level = ((c0 > 0) & (c1 > 0) & (c0 + c1 >= hyper.min_samples_split)).nonzero()[0]
        if not level.size:
            break
        drawn = np.bincount(tree[level], minlength=len(rngs)).tolist()
        draws = np.concatenate([rng.random((m, d)) for rng, m in zip(rngs, drawn) if m])
        feats = np.sort(draws.argsort(axis=1, kind="stable")[:, :k], axis=1)
        del draws  # (m, d) floats the scan has no use for
        sizes = c0[level] + c1[level]
        sparse = _sparse(cols, sizes, feats)
        order = sparse.argsort(kind="stable")  # the depth's nodes in their rows' order
        level, feats, sizes = level[order], feats[order], sizes[order]
        if depth:
            rows = _partition(cols, rows, *splitting, level, sizes)
        else:
            rows = np.concatenate([batch[t][1] for t in level.tolist()])
        cuts = _split_level(cols, rows, sizes, feats, c1[level], sizes.size - int(sparse.sum()))
        found = level[cuts.node].argsort()  # the split nodes in id order
        node = cuts.node[found]
        parent = level[node]
        left0, left1 = cuts.left0[found], cuts.left1[found]
        base, ids = base + c0.size, base + parent
        left = base + 2 * np.arange(node.size)
        splits.append((ids, cuts.feature[found], cuts.threshold[found], left))
        splitting = (sizes, node, cuts.feature[found], cuts.rank[found], left0 + left1)
        tree = tree[parent].repeat(2)
        c0 = _pairs(left0, c0[parent] - left0)
        c1 = _pairs(left1, c1[parent] - left1)
        nodes.append((tree, c0, c1))
        depth += 1
    return _grown_trees(nodes, splits)


def _grown_trees(nodes: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
                    splits: Sequence[Tuple[np.ndarray, ...]]) -> List[Tree]:
    """The trees of _grow_batch's nodes and splits, in pre-order.

    Subtree sizes, summed from the deepest split nodes up, place every node
    in its tree: a left child follows its parent, and the right child
    follows the left child's subtree.
    """
    tree, c0, c1 = (np.concatenate(part) for part in zip(*nodes))
    feature = np.full(tree.size, -1)
    threshold = np.zeros(tree.size)
    size = np.ones(tree.size, dtype=np.intp)  # of each node's subtree
    for ids, f, t, left in reversed(splits):
        feature[ids], threshold[ids] = f, t
        size[ids] += size[left] + size[left + 1]
    at = np.zeros(tree.size, dtype=np.intp)  # each node's pre-order position in its tree
    for ids, _, _, left in splits:
        at[left] = at[ids] + 1
        at[left + 1] = at[left] + size[left]
    n_trees = nodes[0][0].size
    bounds = np.concatenate(([0], np.cumsum(size[:n_trees])))
    order = np.empty(tree.size, dtype=np.intp)
    order[bounds[tree] + at] = np.arange(tree.size)
    feature = feature[order]
    split, leaf = order[feature >= 0], order[feature < 0]
    return _trees(feature, threshold[split].tolist(), c0[leaf].tolist(), c1[leaf].tolist(),
                  bounds.tolist())


def fit_forest(train: Dataset, hyper: ForestHyperparams) -> ForestModel:
    """Fit n_trees trees, each on its own bootstrap resample of train."""
    if not len(train):
        raise ValueError("cannot fit a forest on an empty training set")
    if train.y.all() or not train.y.any():
        raise ValueError("training set must contain both classes")
    n = len(train)
    cols = _rank_columns(train.X, train.y, range(train.X.shape[1]))
    rngs = [_rng(hyper.seed, _STREAM_TREE, t) for t in range(hyper.n_trees)]
    starts = ((rng, rng.integers(0, n, size=n)) for rng in rngs)  # bootstraps drawn as batches start
    return ForestModel(tuple(_grow_levels(cols, hyper, starts)), hyper, train.X.shape[1])


def predict_all(model: ForestModel, X: np.ndarray) -> List[bool]:
    """Majority vote over all trees for each row of X; an exact tie stays benign.

    Each tree partitions the row numbers down from its root: a split node
    sends its rows' feature values through one comparison and hands each
    side to its child, so a row is touched only at the nodes on its path. A
    leaf adds a vote to its rows if it holds more anomalous than benign
    counts. Once half the trees have voted, a row whose vote no remaining
    tree can change is settled: later trees walk only the open rows, and the
    walk ends when none are left. The trees are walked smallest first, in
    ascending node count with ties in index order, so the rows that settle
    do so before the deep trees, which cost the most per row. A vote count
    does not depend on the order its trees are added in, and the settle test
    reads only how many trees are left, so the result is that of every tree
    voting, in any order.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected rows of {model.n_features} features, got shape {X.shape}")
    by_feature = np.ascontiguousarray(X.T)  # row f holds feature f of every sample
    votes = np.zeros(X.shape[0], dtype=np.int64)
    open_rows = np.arange(X.shape[0])
    n_trees = len(model.trees)
    for t, tree in enumerate(sorted(model.trees, key=lambda tree: len(tree.feature))):
        if 2 * t >= n_trees:  # before that, no row can be settled
            # settled anomalous once 2 * held > n_trees, benign once 2 * (held + rest) <= n_trees
            held, rest = votes.take(open_rows), n_trees - t
            open_rows = open_rows.compress((2 * held <= n_trees) & (2 * (held + rest) > n_trees))
            if not open_rows.size:
                break
        feature, threshold, right = tree.feature, tree.threshold, tree.right
        anomalous = [c1 > c0 for c0, c1 in tree.counts]  # ties vote benign
        pending = [(0, open_rows)]  # (node, the rows that reach it), next on top
        while pending:
            node, rows = pending.pop()
            if not rows.size:
                continue
            f = feature[node]
            if f < 0:
                if anomalous[node]:
                    votes[rows] += 1
                continue
            goes_left = by_feature[f].take(rows) <= threshold[node]
            pending.append((right[node], rows.compress(~goes_left)))
            pending.append((node + 1, rows.compress(goes_left)))
    return (2 * votes > n_trees).tolist()


MODEL_MAGIC = "aeslab-forest"
MODEL_VERSION = 1


class ModelFormatError(ValueError):
    """Model file is missing, malformed, or from an unsupported version."""


def save_model(model: ForestModel, path: str) -> None:
    """Write a versioned line-oriented text dump (pre-order trees).

    Every number is written with str, which for an int or float, numpy's
    too, is its shortest round trip. The dump replaces an earlier file at
    path only once it is complete.
    """
    with atomic_write(path, encoding="ascii") as out:
        out.write(_header_text(model.n_features, model.hyper))
        for i, tree in enumerate(model.trees):
            out.write(f"tree {i}\n")
            for f, t, (c0, c1) in zip(tree.feature, tree.threshold, tree.counts):
                out.write(f"l {c0} {c1}\n" if f < 0 else f"i {f} {t}\n")
        out.write("end\n")


def _header_text(n_features: int, hyper: ForestHyperparams) -> str:
    """The magic line and the header lines of a save_model dump."""
    header = {"n_features": n_features, **vars(hyper)}
    return f"{MODEL_MAGIC} {MODEL_VERSION}\n" + "".join(
        f"{name} {'none' if header[name] is None else header[name]}\n" for name, _ in _HEADER_FIELDS
    )


def _read_tree(lines: Iterator[str], hyper: ForestHyperparams, n_features: int) -> Tree:
    """Read one pre-order tree with an explicit stack, so depth is not bound by recursion."""
    feature: List[int] = []
    threshold: List[float] = []
    counts: List[Tuple[int, int]] = []
    pending = [0]  # depths of the nodes whose lines come next, next on top
    while pending:
        depth = pending.pop()
        try:
            parts = next(lines).split()
        except StopIteration:
            raise ModelFormatError("model file ended inside a tree") from None
        line = " ".join(parts)
        if len(parts) != 3 or parts[0] not in ("i", "l"):
            raise ModelFormatError(f"unrecognized node line: {line!r}")
        try:
            a, b = _int(parts[1]), (_int if parts[0] == "l" else _float)(parts[2])
        except ValueError:
            raise ModelFormatError(f"unparsable node line: {line!r}") from None
        if parts[0] == "l":
            if min(a, b) < 0:
                raise ModelFormatError(f"negative class count in leaf: {line!r}")
            if a == b == 0:
                raise ModelFormatError(f"leaf holds no training samples: {line!r}")
            feature.append(-1)
            threshold.append(0.0)
            counts.append((a, b))
        elif not 0 <= a < n_features:
            raise ModelFormatError(f"feature index outside [0, {n_features}): {line!r}")
        elif not math.isfinite(b):
            raise ModelFormatError(f"split threshold is not a finite number: {line!r}")
        elif hyper.max_depth is not None and depth >= hyper.max_depth:
            raise ModelFormatError(f"tree grows deeper than max_depth {hyper.max_depth}")
        else:
            feature.append(a)
            threshold.append(b)
            counts.append((0, 0))
            pending += [depth + 1, depth + 1]
    return Tree(feature, threshold, counts)


def _int(text: str) -> int:
    """int() of text as save_model writes it; int() alone also takes "+", "_" and leading zeros."""
    value = int(text)
    if str(value) != text:
        raise ValueError(text)
    return value


def _float(text: str) -> float:
    """float() of text without "_", which float() takes between digits but str never writes."""
    if "_" in text:
        raise ValueError(text)
    return float(text)


def _optional_int(text: str) -> Optional[int]:
    return None if text == "none" else _int(text)


# the model header's fields in file order, each with the parser of its value:
# n_features is the model's, the rest are its ForestHyperparams
_HEADER_FIELDS = (
    ("n_features", _int), ("n_trees", _int), ("max_depth", _optional_int),
    ("min_samples_split", _int), ("features_per_split", _int), ("seed", _int),
    ("train_fraction", _float),
)


def _parse_header_field(lines: Iterator[str], name: str, kind: Callable[[str], _T]) -> _T:
    try:
        parts = next(lines).split()
    except StopIteration:
        raise ModelFormatError("model file ended inside the header") from None
    if len(parts) != 2 or parts[0] != name:
        raise ModelFormatError(f"expected header field {name!r}, got {' '.join(parts)!r}")
    try:
        return kind(parts[1])
    except ValueError:
        raise ModelFormatError(f"unparsable value of header field {name!r}: {parts[1]!r}") from None


def _read_header(lines: Iterator[str]) -> Tuple[int, ForestHyperparams]:
    """n_features and the hyperparameters from the magic line and header lines."""
    try:
        first = next(lines).split()
    except StopIteration:
        raise ModelFormatError("model file is empty") from None
    if len(first) != 2 or first[0] != MODEL_MAGIC:
        raise ModelFormatError("not a forest model file")
    if first[1] != str(MODEL_VERSION):
        raise ModelFormatError(f"unsupported model format version {first[1]}")
    fields = {name: _parse_header_field(lines, name, parse) for name, parse in _HEADER_FIELDS}
    n_features = fields.pop("n_features")
    try:
        hyper = ForestHyperparams(**fields)
    except ValueError as exc:
        raise ModelFormatError(f"invalid model header: {exc}") from None
    if n_features < 1:
        raise ModelFormatError("invalid model header: n_features must be at least 1")
    return n_features, hyper


def _read_lines(data: bytes) -> ForestModel:
    """The line pass: the model of any file load_model accepts, else a
    ModelFormatError naming the first fault. Lines are split as
    str.splitlines and str.split split them."""
    try:
        lines = iter(data.decode("ascii").splitlines())
    except UnicodeDecodeError as exc:
        raise ModelFormatError(
            f"model file is not ASCII: byte {data[exc.start]:#04x} at offset {exc.start}"
        ) from None
    n_features, hyper = _read_header(lines)
    trees = []
    for i in range(hyper.n_trees):
        marker = next(lines, "end").split()
        if marker == ["end"]:
            raise ModelFormatError(f"model file ended before tree {i} of {hyper.n_trees}")
        if marker != ["tree", str(i)]:
            raise ModelFormatError(f"expected tree {i}, got {' '.join(marker)!r}")
        trees.append(_read_tree(lines, hyper, n_features))
    tail = list(lines)
    if tail != ["end"]:
        raise ModelFormatError("model file has trailing garbage or a missing end marker")
    return ForestModel(tuple(trees), hyper, n_features)


# the bytes of the trees as save_model writes them: the words tree and end,
# the node kinds i and l, and the digits, signs, points and exponents of
# numbers; with no other whitespace, lines end at b"\n" and cells at b" " only
_TREE_BYTES = b"treendil0123456789+-. \n"
_SPACE, _LINE_END, _SPLIT_NODE, _LEAF, _MARKER, _ZERO = b" \nilt0"


def _read_exact(data: bytes) -> Optional[ForestModel]:
    """The bulk pass: the model of a file laid out as save_model writes it, else None.

    The header must be the text save_model writes for the values it holds.
    Every later line ends in b"\n" and is "tree i" for the next i, a node
    line or the final "end". A node line is its kind, a space, a feature
    index or count, a space and a count or a threshold. Each integer is
    canonical (no sign, no leading zero, at most 18 digits); a threshold is
    any text of digits, signs, points and e that float() takes, as in the
    line pass. Lines and cells are found by the offsets of their line ends
    and spaces, and the integers are decoded as digit runs; only the
    thresholds pass through Python one by one. Building each Tree checks its
    shape and gives its depth, which max_depth bounds. None means the line
    pass gives the result, or names the fault.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == _LINE_END)
    n_head = len(_HEADER_FIELDS) + 1  # with the magic line
    if ends.size < n_head + 3 or ends[-1] != buf.size - 1:  # a tree marker, a node and end
        return None
    head = int(ends[n_head - 1]) + 1
    try:
        text = data[:head].decode("ascii")
        n_features, hyper = _read_header(iter(text.splitlines()))
    except (UnicodeDecodeError, ModelFormatError):
        return None
    if text != _header_text(n_features, hyper) or data[head:].translate(None, _TREE_BYTES):
        return None
    ends = ends[n_head:]
    starts = np.concatenate(([head], ends[:-1] + 1))
    if data[starts[-1]:] != b"end\n":
        return None
    starts, ends = starts[:-1], ends[:-1]  # the lines of the trees
    kind = buf[starts]  # a blank line's is its line end
    marked = np.flatnonzero(kind == _MARKER)
    if marked.size != hyper.n_trees or marked[0] != 0 or b"".join(
        data[a:b + 1] for a, b in zip(starts[marked].tolist(), ends[marked].tolist())
    ) != b"".join(b"tree %d\n" % i for i in range(marked.size)):
        return None
    is_node = np.ones(kind.size, dtype=bool)
    is_node[marked] = False
    nodes = np.diff(np.append(marked, kind.size)) - 1  # of each tree

    # A marker line holds one space and a node line two. With that many in
    # all, each line holds its own iff its last lies before its line end and
    # the next line's first after it.
    spaces = np.flatnonzero(buf[head:] == _SPACE) + head  # none on the end line
    held = np.cumsum(is_node + 1)  # spaces up to the end of each line
    if spaces.size != held[-1] or (spaces[held - 1] > ends).any() or (
        spaces[held[:-1]] < ends[:-1]
    ).any():
        return None
    first, second = spaces[held[is_node] - 2], spaces[held[is_node] - 1]
    starts, ends, kind = starts[is_node], ends[is_node], kind[is_node]
    split, leaf = kind == _SPLIT_NODE, kind == _LEAF
    if not (split | leaf).all() or (first != starts + 1).any():
        return None
    # the first number of each node line, a feature index or a benign count,
    # then the second of each leaf line, its anomalous count; as str writes
    # them, with no leading zero but in 0 itself
    lo, hi = np.append(first, second[leaf]) + 1, np.append(second, ends[leaf])
    ints = digit_runs(buf, lo, hi)
    if ints is None or ((buf[lo] == _ZERO) & (hi - lo > 1)).any():
        return None
    number, anomalous = ints[:kind.size], ints[kind.size:]
    if ((number[leaf] == 0) & (anomalous == 0)).any():  # a leaf holds no training samples
        return None
    if split.any() and int(number[split].max()) >= n_features:
        return None
    try:  # each threshold runs from after the second space to its line end
        values = list(map(float, cell_texts(buf, second[split] + 1, ends[split])))
    except ValueError:
        return None
    if not all(map(math.isfinite, values)):
        return None

    try:
        trees = tuple(_trees(np.where(split, number, -1), values, number[leaf].tolist(),
                             anomalous.tolist(), np.append(0, np.cumsum(nodes)).tolist()))
    except ValueError:
        return None
    if hyper.max_depth is not None and max(tree.depth for tree in trees) > hyper.max_depth:
        return None
    return ForestModel(trees, hyper, n_features)


def load_model(path: str) -> ForestModel:
    """Re-read a save_model dump; refuses other versions or malformed files.

    A file laid out as save_model writes it is read in bulk by _read_exact;
    any other file, or one with a fault, is read line by line, which names
    the first fault. Both give the same model, or refuse with the same
    message.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    model = _read_exact(data)
    return _read_lines(data) if model is None else model
