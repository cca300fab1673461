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
columns, the latency and the bytes alike. This is exact histogram split
finding, so the counts, thresholds and gains are those of a sorted scan.
Each tree is stored as three pre-order lists. Prediction partitions the row
numbers down each tree in turn, so a row is compared only at the nodes on
its path, and stops walking a row once its majority is settled.

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
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from .files import atomic_write
from .workload import _STREAM_SPLIT, _STREAM_TREE, _rng

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
    n_trees: int = 101
    max_depth: Optional[int] = 16
    min_samples_split: int = 2
    features_per_split: int = 5  # ceil(sqrt(17))
    seed: int = 1
    train_fraction: float = 0.7

    def validate(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be at least 1")
        if self.max_depth is not None and self.max_depth < 0:
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
    split nodes hold zero counts. right, derived from the pre-order, holds
    each split node's right child and -1 at a leaf.
    """

    feature: List[int]
    threshold: List[float]
    counts: List[Tuple[int, int]]
    right: List[int] = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.feature)
        if n < 1 or len(self.threshold) != n or len(self.counts) != n:
            raise ValueError("tree lists must hold the same number (at least 1) of nodes")
        right = [-1] * n
        awaiting_right = []  # split nodes whose right child is still to come
        for node, f in enumerate(self.feature):
            if node and self.feature[node - 1] < 0:  # a node after a leaf is a right child
                if not awaiting_right:
                    raise ValueError(f"tree is complete before node {node}")
                right[awaiting_right.pop()] = node
            if f >= 0:
                awaiting_right.append(node)
        if awaiting_right:
            raise ValueError(f"split node {awaiting_right[-1]} has no right subtree")
        object.__setattr__(self, "right", right)


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


def gini(class_counts: Tuple[int, int]) -> float:
    """Gini impurity 1 - sum(p^2); an empty node counts as pure."""
    c0, c1 = class_counts
    total = c0 + c1
    if total == 0:
        return 0.0
    p0 = c0 / total
    p1 = c1 / total
    return 1.0 - (p0 * p0 + p1 * p1)


@dataclass(frozen=True)
class Split:
    feature_index: int
    threshold: float
    gain: float


def _gini_vec(c0: np.ndarray, c1: np.ndarray, total: np.ndarray) -> np.ndarray:
    p0 = c0 / total
    p1 = c1 / total
    return 1.0 - (p0 * p0 + p1 * p1)


def _gains(n_left, left1, n: int, total0: int, total1: int, parent: float) -> np.ndarray:
    """Gini gain of each cut with n_left of the n samples, left1 of them anomalous, on the left."""
    left0 = n_left - left1
    right1 = total1 - left1
    right0 = total0 - left0
    n_right = n - n_left
    child = n_left * _gini_vec(left0, left1, n_left) + n_right * _gini_vec(right0, right1, n_right)
    return parent - child / n


def _rank_columns(
    X: np.ndarray, y: np.ndarray, features: Sequence[int]
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """(keys, values) of the listed columns of X with the 0/1 labels y.

    values[j] holds the sorted distinct values of column features[j], and keys[j, i]
    is 2 * (the position in values[j] of row i's entry) + y[i]: its (rank, class) bin.
    """
    if not len(features):
        raise ValueError("cannot fit on a feature matrix with no columns")
    ranked = [np.unique(X[:, f], return_inverse=True) for f in features]
    return np.array([2 * rank + y for _, rank in ranked], dtype=np.intp), [v for v, _ in ranked]


_Node = Tuple[np.ndarray, np.ndarray, int, int]  # rows, candidate columns, class totals
_Cut = Tuple[float, int, int, float, int, int]  # gain, j, rank, threshold, left class counts


def _scan_batch(
    keys: np.ndarray, values: Sequence[np.ndarray], nodes: Sequence[_Node]
) -> List[Optional[_Cut]]:
    """The best cut of each node (rows, feats, total0, total1), or None where no gain is above zero.

    rows are columns of keys (repeats allowed); feats, as many for every node,
    ascend. Each (node, column) is a histogram segment as wide as the column's
    values, and one np.bincount counts every (segment, rank, class). A cumulative
    sum over the held ranks' bins, restarted at each segment, gives the class
    counts left of a cut after each; the first maximum gain wins (lowest column,
    then threshold). The threshold is the midpoint between the held value and
    the next held one, or the value itself where the midpoint rounds up to the
    next, so exactly the rows of rank at most the cut's lie at or below it. A cut
    is (gain, j, rank, threshold, left0, left1) for column feats[j].
    """
    n, k = keys.shape[1], len(nodes[0][1])
    feats = np.concatenate([f for _, f, _, _ in nodes])  # segment s: node s // k, column feats[s]
    widths = np.array([v.size for v in values])[feats]
    starts = np.cumsum(widths) - widths  # each segment's first rank bin
    gather, shift = (feats * n).reshape(-1, k, 1), (2 * starts).reshape(-1, k, 1)
    bins = np.concatenate([keys.take(g + r) + h for (r, *_), g, h in zip(nodes, gather, shift)], None)
    hist = np.bincount(bins, minlength=2 * int(widths.sum()))
    held = np.flatnonzero(np.logical_or(hist[0::2], hist[1::2]))
    first = np.searchsorted(held, starts)  # every segment holds its node's rows
    totals = np.array([(t0, t1) for _, _, t0, t1 in nodes]).repeat(k, axis=0)  # per segment
    h0, h1 = hist[0::2][held], hist[1::2][held]
    h0[first[1:]] -= totals[:-1, 0]  # each segment restarts the sums
    h1[first[1:]] -= totals[:-1, 1]
    left0, left1 = h0.cumsum(), h1.cumsum()
    n_cand = np.diff(first, append=held.size) - 1  # a segment's last held rank leaves no row right
    cand = np.ones(held.size, dtype=bool)
    cand[first + n_cand] = False
    size = totals.sum(axis=1)
    parent = _gini_vec(totals[:, 0], totals[:, 1], size)  # as gini does it, one per segment
    per_cand = np.column_stack([size, totals, parent]).repeat(n_cand, axis=0)
    size, total0, total1, parent = per_cand.T  # float64, like every count below
    gains = _gains(np.add(left0, left1, dtype=np.float64).compress(cand),
                   left1.compress(cand).astype(np.float64), size, total0, total1, parent)
    node_cand = n_cand.reshape(-1, k).sum(axis=1)
    node_first = (np.cumsum(node_cand) - node_cand)[node_cand > 0]
    best = np.maximum.reduceat(gains, node_first)
    top = np.flatnonzero(gains == best.repeat(node_cand[node_cand > 0]))
    pick = np.flatnonzero(cand)[top[np.searchsorted(top, node_first)]]  # each node's first maximum
    seg = np.searchsorted(first, pick, side="right") - 1
    found: List[Optional[_Cut]] = [None] * len(nodes)
    for gain, s, rank, above, l0, l1 in zip(  # pick + 1 is the next rank held
        best.tolist(), seg.tolist(), (held[pick] - starts[seg]).tolist(),
        (held[pick + 1] - starts[seg]).tolist(), left0[pick].tolist(), left1[pick].tolist(),
    ):
        if gain > 0.0:
            lo, hi = float(values[feats[s]][rank]), float(values[feats[s]][above])
            mid = (lo + hi) / 2.0
            found[s // k] = (gain, s % k, rank, mid if mid < hi else lo, l0, l1)
    return found


def best_split(X: np.ndarray, y: np.ndarray, features: Sequence[int]) -> Optional[Split]:
    """Highest-gain (feature, threshold) over the candidate features, or None.

    y holds one 0/1 label per row of X. Ties break to the lowest feature
    index, then the lowest threshold. Returns None when no candidate split
    has gain strictly above zero.
    """
    if y.size == 0:
        raise ValueError("cannot split an empty sample set")
    feats = sorted({int(f) for f in features})
    if not feats:
        raise ValueError("candidate features must not be empty")
    if feats[0] < 0 or feats[-1] >= X.shape[1]:
        raise ValueError("candidate feature index out of range")
    y = np.asarray(y, dtype=bool)
    c1 = int(np.count_nonzero(y))
    node = (np.arange(y.size), np.arange(len(feats)), y.size - c1, c1)
    found = _scan_batch(*_rank_columns(X, y, feats), [node])[0]
    return None if found is None else Split(feats[found[1]], found[3], found[0])


def fit_tree(X: np.ndarray, y: np.ndarray, hyper: ForestHyperparams, rng: np.random.Generator) -> Tree:
    """Grow one CART tree on (X, y), drawing each level's candidate features from rng."""
    hyper.validate()
    if y.size == 0:
        raise ValueError("cannot fit a tree on an empty sample set")
    keys, values = _rank_columns(X, np.asarray(y, dtype=bool), range(X.shape[1]))
    return _grow_levels(keys, values, hyper, [(rng, np.arange(y.size))])[0]


_MAX_GROWING_TREES = 16  # trees grown together; bounds fit's memory
_SCAN_CHUNK = 1 << 16  # (row, column) pairs plus histogram bins one _scan_batch call may hold


def _grow_levels(keys: np.ndarray, values: Sequence[np.ndarray], hyper: ForestHyperparams,
                 starts: Iterable[Tuple[np.random.Generator, np.ndarray]]) -> List[Tree]:
    """One tree per (rng, rows) of starts; rows are columns of keys, repeats allowed.

    The trees grow in batches of _MAX_GROWING_TREES, each batch one depth at
    a time. At each depth a tree draws rng.random((m, d)) for the m nodes it
    must search, left to right: a node's candidate columns are the first
    features_per_split of its row's stable argsort, ascending. _scan_batch
    scores the nodes of every tree in chunks of at most _SCAN_CHUNK (row,
    column) pairs plus bins, or one larger node. A child's class counts come
    from the cut; only a child that will be searched keeps rows.
    """
    d, k = keys.shape[0], min(hyper.features_per_split, keys.shape[0])
    widths = np.array([v.size for v in values])

    def searched(c0: int, c1: int, depth: int) -> bool:  # whether a node gets a split search
        deep = hyper.max_depth is not None and depth >= hyper.max_depth
        return bool(c0 and c1 and c0 + c1 >= hyper.min_samples_split and not deep)

    trees: List[Tree] = []
    starts = iter(starts)
    while batch := list(itertools.islice(starts, _MAX_GROWING_TREES)):
        grown = []  # per tree: class counts by node id, and {node: (feature, threshold, left child)}
        frontiers = []  # per tree: (node, rows) of the nodes to search at this depth, left to right
        for _, rows in batch:
            c1 = int(np.count_nonzero(keys[0].take(rows) & 1))  # a key's low bit is its row's class
            grown.append(([(rows.size - c1, c1)], {}))
            frontiers.append([(0, rows)] if searched(rows.size - c1, c1, 0) else [])
        depth = 0
        while any(frontiers):
            depth += 1
            level = []  # (tree, node, (rows, feats, c0, c1)) of every node searched at this depth
            for t, ((rng, _), frontier) in enumerate(zip(batch, frontiers)):
                if frontier:
                    order = np.argsort(rng.random((len(frontier), d)), axis=1, kind="stable")
                    draws, counts = np.sort(order[:, :k], axis=1), grown[t][0]
                    level += [(t, node, (rows, feats, *counts[node]))
                              for (node, rows), feats in zip(frontier, draws)]
            chunks, size = [[]], 0
            for _, _, node in level:
                rows, feats, _, _ = node
                cost = k * rows.size + int(widths[feats].sum())
                if chunks[-1] and size + cost > _SCAN_CHUNK:
                    chunks.append([])
                    size = 0
                chunks[-1].append(node)
                size += cost
            found = [cut for chunk in chunks for cut in _scan_batch(keys, values, chunk)]
            frontiers = [[] for _ in batch]
            for (t, node, (rows, feats, c0, c1)), cut in zip(level, found):
                if cut is None:
                    continue  # the node stays a leaf
                counts, splits = grown[t]
                _, j, rank, threshold, left0, left1 = cut
                child = len(counts)  # the left child; the right one is child + 1
                splits[node] = (int(feats[j]), threshold, child)
                counts += [(left0, left1), (c0 - left0, c1 - left1)]
                sides = [s for s in (0, 1) if searched(*counts[child + s], depth)]
                if sides:
                    goes_left = keys[feats[j]].take(rows) < 2 * rank + 2
                    keep = (goes_left, ~goes_left)
                    frontiers[t] += [(child + s, rows.compress(keep[s])) for s in sides]
        trees += [_preorder(counts, splits) for counts, splits in grown]
    return trees


def _preorder(counts: List[Tuple[int, int]], splits: Dict[int, Tuple[int, float, int]]) -> Tree:
    """The tree of counts and splits (see _grow_levels) as its pre-order lists."""
    feature: List[int] = []
    threshold: List[float] = []
    leaf_counts: List[Tuple[int, int]] = []
    pending = [0]  # next on top
    while pending:
        node = pending.pop()
        f, cut, left = splits.get(node, (-1, 0.0, -1))
        feature.append(f)
        threshold.append(cut)
        leaf_counts.append(counts[node] if f < 0 else (0, 0))
        if f >= 0:
            pending += [left + 1, left]
    return Tree(feature, threshold, leaf_counts)


def fit_forest(train: Dataset, hyper: ForestHyperparams) -> ForestModel:
    """Fit n_trees trees, each on its own bootstrap resample of train."""
    hyper.validate()
    if not len(train):
        raise ValueError("cannot fit a forest on an empty training set")
    if train.y.all() or not train.y.any():
        raise ValueError("training set must contain both classes")
    n = len(train)
    keys, values = _rank_columns(train.X, train.y, range(train.X.shape[1]))
    rngs = [_rng(hyper.seed, _STREAM_TREE, t) for t in range(hyper.n_trees)]
    starts = ((rng, rng.integers(0, n, size=n)) for rng in rngs)  # bootstraps drawn as batches start
    return ForestModel(tuple(_grow_levels(keys, values, hyper, starts)), hyper, train.X.shape[1])


def predict_all(model: ForestModel, X: np.ndarray) -> List[bool]:
    """Majority vote over all trees for each row of X; an exact tie stays benign.

    Each tree partitions the row numbers down from its root: a split node
    sends its rows' feature values through one comparison and hands each
    side to its child, so a row is touched only at the nodes on its path. A
    leaf adds a vote to its rows if it holds more anomalous than benign
    counts. Once half the trees have voted, a row whose vote no remaining
    tree can change is settled: later trees walk only the open rows, and the
    walk ends when none are left. The result is that of every tree voting.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected rows of {model.n_features} features, got shape {X.shape}")
    by_feature = np.ascontiguousarray(X.T)  # row f holds feature f of every sample
    votes = np.zeros(X.shape[0], dtype=np.int64)
    open_rows = np.arange(X.shape[0])
    n_trees = len(model.trees)
    for t, tree in enumerate(model.trees):
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
    header = {"n_features": model.n_features, **vars(model.hyper)}
    with atomic_write(path, encoding="ascii") as out:
        out.write(f"{MODEL_MAGIC} {MODEL_VERSION}\n")
        for name, _ in _HEADER_FIELDS:
            value = header[name]
            out.write(f"{name} {'none' if value is None else value}\n")
        for i, tree in enumerate(model.trees):
            out.write(f"tree {i}\n")
            for f, t, (c0, c1) in zip(tree.feature, tree.threshold, tree.counts):
                out.write(f"l {c0} {c1}\n" if f < 0 else f"i {f} {t}\n")
        out.write("end\n")


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


def load_model(path: str) -> ForestModel:
    """Re-read a save_model dump; refuses other versions or malformed files."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        lines = iter(data.decode("ascii").splitlines())
    except UnicodeDecodeError as exc:
        raise ModelFormatError(
            f"model file is not ASCII: byte {data[exc.start]:#04x} at offset {exc.start}"
        ) from None
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
    hyper = ForestHyperparams(**fields)
    try:
        hyper.validate()
    except ValueError as exc:
        raise ModelFormatError(f"invalid model header: {exc}") from None
    if n_features < 1:
        raise ModelFormatError("invalid model header: n_features must be at least 1")
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
