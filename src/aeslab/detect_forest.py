"""Random-forest detector built from CART trees with Gini impurity.

The detector's input is one feature table: a Dataset whose matrix X has 17
columns per block, the latency in microseconds followed by the 16 bytes the
pipeline saw (post-fault plaintext by default, or ciphertext), and whose
vector y holds the boolean truth labels. Trees grow greedily: at each node a
without-replacement sample of candidate features is scored over midpoint
thresholds between consecutive distinct sorted values, and the split with
the highest Gini gain wins. Ties resolve to the lowest feature index, then
the lowest threshold; a node with no strictly positive gain becomes a leaf.

Columns whose values are all integers in [0, 255] (the 16 byte features) are
scored from per-class value histograms, every such column in one pass; this
yields the same integer counts, and so the same thresholds and gains, as the
sorted scan that other columns (the latency) get. Each tree is stored as
flat pre-order arrays. Prediction partitions the row numbers down each tree
in turn, so a row is compared only at the nodes on its path.

Everything is deterministic given (hyperparams, training data): each tree
draws its bootstrap sample and feature subsets from a generator derived
from the forest seed and the tree index.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .cipher import BlockRecord
from .files import atomic_write

N_FEATURES = 17

_STREAM_SPLIT = 3
_STREAM_TREE = 4


class ByteSource(enum.Enum):
    PLAINTEXT = "plaintext"
    CIPHERTEXT = "ciphertext"

    def of(self, record: BlockRecord) -> bytes:
        """The 16 bytes of record this source feeds to the detector."""
        return record.plaintext if self is ByteSource.PLAINTEXT else record.ciphertext


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
    """One CART tree as flat arrays with one entry per node, in pre-order.

    Node 0 is the root and a split node's left child is the node after it.
    A split sends rows with X[:, feature] <= threshold left, the rest right.
    A leaf has feature -1, is its own left and right child (so a descent that
    reaches it stays there) and holds its (benign, anomalous) training counts;
    split nodes hold zero counts.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("feature", np.intp), ("threshold", np.float64), ("left", np.intp),
                            ("right", np.intp), ("counts", np.int64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        n = self.feature.size
        if n < 1 or self.counts.shape != (n, 2) or any(
            a.shape != (n,) for a in (self.feature, self.threshold, self.left, self.right)
        ):
            raise ValueError("tree arrays must hold the same number (at least 1) of nodes")


def _preorder_tree(
    feature: List[int], threshold: List[float], counts: List[Tuple[int, int]]
) -> Tree:
    """Link a complete pre-order node sequence (feature -1 marks a leaf) into a Tree."""
    left = list(range(len(feature)))
    right = list(range(len(feature)))
    awaiting_right = []  # split nodes whose right child is still to come
    for node, f in enumerate(feature):
        if node:
            if feature[node - 1] >= 0:
                left[node - 1] = node
            else:
                right[awaiting_right.pop()] = node
        if f >= 0:
            awaiting_right.append(node)
    return Tree(feature, threshold, left, right, counts)


@dataclass(frozen=True)
class ForestModel:
    trees: Tuple[Tree, ...]
    hyper: ForestHyperparams
    n_features: int


def feature_dataset(
    times_us: Sequence[float], payloads: np.ndarray, labels: Sequence[bool]
) -> Dataset:
    """The 17-column table: latency, then the 16 payload bytes (uint8[n, 16]) of each block.

    X is stored column by column (Fortran order), the layout predict_all reads.
    """
    X = np.empty((len(times_us), N_FEATURES), dtype=np.float64, order="F")
    X[:, 0] = times_us
    X[:, 1:] = payloads
    return Dataset(X, labels)


def build_dataset(
    records: Sequence[BlockRecord],
    byte_source: ByteSource = ByteSource.PLAINTEXT,
) -> Dataset:
    """One feature row per record, ordered by block index."""
    if not records:
        raise ValueError("cannot build features from an empty run")
    ordered = sorted(records, key=lambda r: r.index)
    payloads = b"".join(byte_source.of(r) for r in ordered)
    return feature_dataset(
        [r.time_us for r in ordered],
        np.frombuffer(payloads, dtype=np.uint8).reshape(-1, N_FEATURES - 1),
        [r.truth_label for r in ordered],
    )


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
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_STREAM_SPLIT,)))
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


def _sorted_scan(col: np.ndarray, y: np.ndarray, total0: int, total1: int, parent: float):
    """(gain, threshold) of the best midpoint split of one column, or None if it is constant."""
    n = y.size
    order = np.argsort(col, kind="stable")
    v = col[order]
    lab = y[order]
    boundary = np.nonzero(v[:-1] < v[1:])[0]
    if boundary.size == 0:
        return None
    mids = (v[boundary] + v[boundary + 1]) / 2.0
    # left set is {value <= mid}; duplicates and midpoint rounding are
    # absorbed by counting against the sorted column itself
    n_left = np.searchsorted(v, mids, side="right")
    keep = (n_left > 0) & (n_left < n)
    if not keep.any():
        return None
    mids = mids[keep]
    n_left = n_left[keep]
    cum1 = np.cumsum(lab, dtype=np.int64)
    left1 = cum1[n_left - 1]
    gains = _gains(n_left, left1, n, total0, total1, parent)
    pick = int(np.argmax(gains))
    return float(gains[pick]), float(mids[pick])


def _byte_valued(rows: np.ndarray) -> np.ndarray:
    """Whether each row of a 2-D array holds only integers in [0, 255]."""
    return (rows.min(axis=1) >= 0) & (rows.max(axis=1) <= 255) & (np.floor(rows) == rows).all(axis=1)


def _byte_scan(cols: np.ndarray, y: np.ndarray, total0: int, total1: int, parent: float):
    """(gain, row, threshold) of the best split over rows of cols holding integers in [0, 255].

    cols has one row per candidate column. One histogram over bins
    (class, row, value) gives, by cumulative sum, the same integer left-side
    counts at each value the sorted scan would cut after, so the gains match
    it bit for bit. None if every row is constant.
    """
    k, n = cols.shape
    bins = 256 * k
    codes = (cols + 256 * np.arange(k)[:, None] + bins * y).astype(np.intp).ravel()
    left = np.bincount(codes, minlength=2 * bins).reshape(2, k, 256).cumsum(axis=2)
    n_left_all = (left[0] + left[1]).ravel()
    # Cutting after a value that no row holds repeats the counts of the last
    # value held below it, which comes first in (row, value) order; so the
    # first maximum lands on a held value: the lowest row, then the lowest
    # threshold, as in the sorted scan.
    cand = np.flatnonzero((n_left_all > 0) & (n_left_all < n))
    if cand.size == 0:
        return None
    n_left = n_left_all[cand]
    left1 = left[1].ravel()[cand]
    gains = _gains(n_left, left1, n, total0, total1, parent)
    pick = int(np.argmax(gains))
    j, lo = divmod(int(cand[pick]), 256)
    row = n_left_all[256 * j:256 * (j + 1)]
    hi = int(np.searchsorted(row, row[lo], side="right"))  # the next value held
    return float(gains[pick]), j, (lo + hi) / 2.0


def _split_columns(
    cols: np.ndarray, y: np.ndarray, feats: np.ndarray, is_byte: np.ndarray
) -> Optional[Split]:
    """best_split over cols, whose row j holds feature feats[j] (ascending) for every sample.

    Rows flagged in is_byte hold only integers in [0, 255] and are scored
    together from histograms; the others get the sorted scan.
    """
    n = y.size
    total1 = int(np.count_nonzero(y))
    total0 = n - total1
    parent = gini((total0, total1))
    found = []  # (feature, gain, threshold) of each scan's best
    if is_byte.any():
        byte_feats = feats[is_byte]
        hit = _byte_scan(cols[is_byte], y, total0, total1, parent)
        if hit is not None:
            found.append((int(byte_feats[hit[1]]), hit[0], hit[2]))
    for j in np.flatnonzero(~is_byte):
        hit = _sorted_scan(cols[j], y, total0, total1, parent)
        if hit is not None:
            found.append((int(feats[j]), *hit))
    best: Optional[Split] = None
    for f, gain, threshold in sorted(found):
        if best is None or gain > best.gain:
            best = Split(f, threshold, gain)
    if best is None or not best.gain > 0.0:
        return None
    return best


def best_split(X: np.ndarray, y: np.ndarray, features: Sequence[int]) -> Optional[Split]:
    """Highest-gain (feature, threshold) over the candidate features, or None.

    y holds one 0/1 label per row of X. Ties break to the lowest feature
    index, then the lowest threshold. Returns None when no candidate split
    has gain strictly above zero.
    """
    if y.size == 0:
        raise ValueError("cannot split an empty sample set")
    feats = np.asarray(sorted({int(f) for f in features}), dtype=np.intp)
    if not feats.size:
        raise ValueError("candidate features must not be empty")
    if feats[0] < 0 or feats[-1] >= X.shape[1]:
        raise ValueError("candidate feature index out of range")
    cols = X[:, feats].T
    return _split_columns(cols, np.asarray(y, dtype=bool), feats, _byte_valued(cols))


def fit_tree(X: np.ndarray, y: np.ndarray, hyper: ForestHyperparams, rng: np.random.Generator) -> Tree:
    """Grow one CART tree on (X, y), drawing each node's candidate features from rng.

    Nodes are grown in pre-order (a node, its left subtree, its right
    subtree) from an explicit stack, which fixes the order of rng draws.
    """
    if y.size == 0:
        raise ValueError("cannot fit a tree on an empty sample set")
    n, d = X.shape
    k = min(hyper.features_per_split, d)
    y = np.asarray(y, dtype=bool)
    by_feature = np.ascontiguousarray(X.T).ravel()  # feature f of row i at f * n + i
    # a column byte-valued over all rows is byte-valued in every node; one that
    # is not may still be within a node, but the sorted scan scores it the same
    is_byte = _byte_valued(by_feature.reshape(d, n))
    feature: List[int] = []
    threshold: List[float] = []
    counts: List[Tuple[int, int]] = []
    pending = [(np.arange(n), 0)]  # subtrees still to grow: row indices, depth; next on top
    while pending:
        rows, depth = pending.pop()
        yn = y[rows]
        c1 = int(np.count_nonzero(yn))
        c0 = rows.size - c1
        split = None
        if (
            c0
            and c1
            and rows.size >= hyper.min_samples_split
            and (hyper.max_depth is None or depth < hyper.max_depth)
        ):
            feats = np.sort(rng.choice(d, size=k, replace=False))
            cols = by_feature.take(feats[:, None] * n + rows)
            split = _split_columns(cols, yn, feats, is_byte[feats])
        if split is None:
            feature.append(-1)
            threshold.append(0.0)
            counts.append((c0, c1))
            continue
        feature.append(split.feature_index)
        threshold.append(split.threshold)
        counts.append((0, 0))
        mask = by_feature.take(split.feature_index * n + rows) <= split.threshold
        pending.append((rows[~mask], depth + 1))
        pending.append((rows[mask], depth + 1))
    return _preorder_tree(feature, threshold, counts)


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_STREAM_TREE, tree_index)))


def fit_forest(train: Dataset, hyper: ForestHyperparams) -> ForestModel:
    """Fit n_trees trees, each on its own bootstrap resample of train."""
    hyper.validate()
    if not len(train):
        raise ValueError("cannot fit a forest on an empty training set")
    if train.y.all() or not train.y.any():
        raise ValueError("training set must contain both classes")
    n = len(train)
    trees = []
    for t in range(hyper.n_trees):
        rng = _tree_rng(hyper.seed, t)
        boot = rng.integers(0, n, size=n)
        trees.append(fit_tree(train.X[boot], train.y[boot], hyper, rng))
    return ForestModel(tuple(trees), hyper, train.X.shape[1])


def predict_all(model: ForestModel, X: np.ndarray) -> List[bool]:
    """Majority vote over all trees for each row of X; an exact tie stays benign.

    Each tree partitions the row numbers down from its root: a split node
    sends its rows' feature values through one comparison and hands each
    side to its child, so a row is touched only at the nodes on its path. A
    leaf adds a vote to its rows if it holds more anomalous than benign
    counts.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected rows of {model.n_features} features, got shape {X.shape}")
    by_feature = np.ascontiguousarray(X.T)  # row f holds feature f of every sample
    votes = np.zeros(X.shape[0], dtype=np.int64)
    all_rows = np.arange(X.shape[0])
    for tree in model.trees:
        feature = tree.feature.tolist()
        threshold = tree.threshold.tolist()
        left = tree.left.tolist()
        right = tree.right.tolist()
        anomalous = (tree.counts[:, 1] > tree.counts[:, 0]).tolist()  # ties vote benign
        pending = [(0, all_rows)]  # (node, the rows that reach it), next on top
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
            pending.append((left[node], rows.compress(goes_left)))
    return (2 * votes > len(model.trees)).tolist()


MODEL_MAGIC = "aeslab-forest"
MODEL_VERSION = 1


class ModelFormatError(ValueError):
    """Model file is missing, malformed, or from an unsupported version."""


def save_model(model: ForestModel, path: str) -> None:
    """Write a versioned line-oriented text dump (floats via repr, pre-order trees).

    The dump replaces an earlier file at path only once it is complete.
    """
    hyper = model.hyper
    with atomic_write(path, encoding="ascii") as out:
        out.write(f"{MODEL_MAGIC} {MODEL_VERSION}\n")
        out.write(f"n_features {model.n_features}\n")
        out.write(f"n_trees {hyper.n_trees}\n")
        out.write(f"max_depth {'none' if hyper.max_depth is None else hyper.max_depth}\n")
        out.write(f"min_samples_split {hyper.min_samples_split}\n")
        out.write(f"features_per_split {hyper.features_per_split}\n")
        out.write(f"seed {hyper.seed}\n")
        out.write(f"train_fraction {hyper.train_fraction!r}\n")
        for i, tree in enumerate(model.trees):
            out.write(f"tree {i}\n")
            nodes = zip(tree.feature.tolist(), tree.threshold.tolist(), tree.counts.tolist())
            for f, t, (c0, c1) in nodes:
                out.write(f"l {c0} {c1}\n" if f < 0 else f"i {f} {t!r}\n")
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
            a, b = int(parts[1]), (int if parts[0] == "l" else float)(parts[2])
        except ValueError:
            raise ModelFormatError(f"unparsable node line: {line!r}") from None
        if parts[0] == "l":
            if min(a, b) < 0:
                raise ModelFormatError(f"negative class count in leaf: {line!r}")
            if max(a, b) >= 2**63:
                raise ModelFormatError(f"class count beyond 64 bits in leaf: {line!r}")
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
    return _preorder_tree(feature, threshold, counts)


def _parse_header_field(lines: Iterator[str], name: str) -> str:
    try:
        parts = next(lines).split()
    except StopIteration:
        raise ModelFormatError("model file ended inside the header") from None
    if len(parts) != 2 or parts[0] != name:
        raise ModelFormatError(f"expected header field {name!r}, got {' '.join(parts)!r}")
    return parts[1]


def load_model(path: str) -> ForestModel:
    """Re-read a save_model dump; refuses other versions or malformed files."""
    with open(path, "r", encoding="ascii") as handle:
        lines = iter(handle.read().splitlines())
    try:
        first = next(lines).split()
    except StopIteration:
        raise ModelFormatError("model file is empty") from None
    if len(first) != 2 or first[0] != MODEL_MAGIC:
        raise ModelFormatError("not a forest model file")
    if first[1] != str(MODEL_VERSION):
        raise ModelFormatError(f"unsupported model format version {first[1]}")
    n_features = int(_parse_header_field(lines, "n_features"))
    n_trees = int(_parse_header_field(lines, "n_trees"))
    raw_depth = _parse_header_field(lines, "max_depth")
    max_depth = None if raw_depth == "none" else int(raw_depth)
    min_split = int(_parse_header_field(lines, "min_samples_split"))
    per_split = int(_parse_header_field(lines, "features_per_split"))
    seed = int(_parse_header_field(lines, "seed"))
    train_fraction = float(_parse_header_field(lines, "train_fraction"))
    hyper = ForestHyperparams(n_trees, max_depth, min_split, per_split, seed, train_fraction)
    try:
        hyper.validate()
    except ValueError as exc:
        raise ModelFormatError(f"invalid model header: {exc}") from None
    if not 1 <= n_features < 2**63:
        raise ModelFormatError("invalid model header: n_features must lie in [1, 2**63)")
    trees = []
    for i in range(n_trees):
        marker = _parse_header_field(lines, "tree")
        if marker != str(i):
            raise ModelFormatError(f"expected tree {i}, got {marker!r}")
        trees.append(_read_tree(lines, hyper, n_features))
    tail = list(lines)
    if tail != ["end"]:
        raise ModelFormatError("model file has trailing garbage or a missing end marker")
    return ForestModel(tuple(trees), hyper, n_features)
