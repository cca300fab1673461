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
among the column's sorted distinct values. A node then scores all its
candidate columns, the latency and the bytes alike, from one per-class
histogram over their ranks: exact histogram split finding with one bin per
distinct value, so the counts, thresholds and gains are those of a sorted
scan. Each tree is stored as flat pre-order arrays. Prediction partitions
the row numbers down each tree in turn, so a row is compared only at the
nodes on its path.

Everything is deterministic given (hyperparams, training data): each tree
draws its bootstrap sample and feature subsets from a generator derived
from the forest seed and the tree index.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from .cipher import BlockRecord
from .files import atomic_write

N_FEATURES = 17

_T = TypeVar("_T")

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


def _rank_columns(X: np.ndarray, features: Sequence[int]) -> Tuple[np.ndarray, List[np.ndarray]]:
    """(codes, values) of the listed columns of X.

    values[j] holds the sorted distinct values of column features[j], and
    codes[j, i] the position in values[j] of that column's entry in row i.
    """
    codes = np.empty((len(features), X.shape[0]), dtype=np.intp)
    values = []
    for j, f in enumerate(features):
        distinct, codes[j] = np.unique(X[:, f], return_inverse=True)
        values.append(distinct)
    return codes, values


def _scan(cols: np.ndarray, values: Sequence[np.ndarray], y: np.ndarray):
    """(gain, column, rank, threshold) of the best cut over the rows of cols, or None.

    cols[j] holds each sample's rank in the sorted distinct values[j]. The
    columns lie end to end, each as wide as its values, and one histogram
    over bins (class, column, rank) gives by one cumulative sum, restarted
    at each column's first bin, the exact class counts left of a cut after
    every rank. Cutting after a rank no sample holds repeats the counts of
    the rank held below it, which comes first, so the first maximum lands on
    a held rank: the lowest column, then the lowest threshold. The threshold
    is the midpoint between that value and the next one held, or the value
    itself where the midpoint rounds up to the next, so that exactly the
    samples of rank at most the returned one lie at or below it. None if no
    cut has gain strictly above zero.
    """
    n = y.size
    total1 = int(np.count_nonzero(y))
    total0 = n - total1
    widths = np.array([v.size for v in values])
    starts = np.concatenate(([0], np.cumsum(widths[:-1])))
    bins = int(starts[-1] + widths[-1])
    hist = np.bincount((cols + starts[:, None] + bins * y).ravel(), minlength=2 * bins)
    hist = hist.reshape(2, bins)
    hist[:, starts[1:]] -= np.array([[total0], [total1]])  # each column restarts the sums
    left = hist.cumsum(axis=1)
    n_left_all = left[0] + left[1]
    cand = np.flatnonzero((n_left_all > 0) & (n_left_all < n))
    if cand.size == 0:
        return None
    gains = _gains(n_left_all[cand], left[1][cand], n, total0, total1, gini((total0, total1)))
    pick = int(np.argmax(gains))
    if not gains[pick] > 0.0:
        return None
    at = int(cand[pick])
    j = int(np.searchsorted(starts, at, side="right")) - 1
    column = n_left_all[starts[j]:starts[j] + widths[j]]
    rank = at - int(starts[j])
    above = int(np.searchsorted(column, column[rank], side="right"))  # the next rank held
    lo, hi = float(values[j][rank]), float(values[j][above])
    mid = (lo + hi) / 2.0
    return float(gains[pick]), j, rank, mid if mid < hi else lo


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
    found = _scan(*_rank_columns(X, feats), np.asarray(y, dtype=bool))
    if found is None:
        return None
    gain, j, _, threshold = found
    return Split(feats[j], threshold, gain)


def fit_tree(X: np.ndarray, y: np.ndarray, hyper: ForestHyperparams, rng: np.random.Generator) -> Tree:
    """Grow one CART tree on (X, y), drawing each node's candidate features from rng."""
    if y.size == 0:
        raise ValueError("cannot fit a tree on an empty sample set")
    codes, values = _rank_columns(X, range(X.shape[1]))
    return _grow(codes, values, np.asarray(y, dtype=bool), hyper, rng)


def _grow(
    codes: np.ndarray, values: Sequence[np.ndarray], y: np.ndarray,
    hyper: ForestHyperparams, rng: np.random.Generator,
) -> Tree:
    """fit_tree on ranked columns: codes[f, i] is row i's rank in values[f].

    Nodes are grown in pre-order (a node, its left subtree, its right
    subtree) from an explicit stack, which fixes the order of rng draws.
    """
    d, n = codes.shape
    k = min(hyper.features_per_split, d)
    flat = codes.ravel()  # feature f of row i at f * n + i
    feature: List[int] = []
    threshold: List[float] = []
    counts: List[Tuple[int, int]] = []
    pending = [(np.arange(n), 0)]  # subtrees still to grow: row indices, depth; next on top
    while pending:
        rows, depth = pending.pop()
        yn = y[rows]
        c1 = int(np.count_nonzero(yn))
        c0 = rows.size - c1
        found = None
        if (
            c0
            and c1
            and rows.size >= hyper.min_samples_split
            and (hyper.max_depth is None or depth < hyper.max_depth)
        ):
            feats = np.sort(rng.choice(d, size=k, replace=False))
            cols = flat.take(feats[:, None] * n + rows)
            found = _scan(cols, [values[f] for f in feats], yn)
        if found is None:
            feature.append(-1)
            threshold.append(0.0)
            counts.append((c0, c1))
            continue
        _, j, rank, cut = found
        feature.append(int(feats[j]))
        threshold.append(cut)
        counts.append((0, 0))
        mask = cols[j] <= rank
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
    codes, values = _rank_columns(train.X, range(train.X.shape[1]))
    trees = []
    for t in range(hyper.n_trees):
        rng = _tree_rng(hyper.seed, t)
        boot = rng.integers(0, n, size=n)
        trees.append(_grow(codes[:, boot], values, train.y[boot], hyper, rng))
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
            a, b = _int(parts[1]), (_int if parts[0] == "l" else _float)(parts[2])
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


def _int(text: str) -> int:
    """int() of text as save_model writes it; int() alone also takes "+", "_" and leading zeros."""
    value = int(text)
    if str(value) != text:
        raise ValueError(text)
    return value


def _float(text: str) -> float:
    """float() of text without "_", which float() takes between digits but repr never writes."""
    if "_" in text:
        raise ValueError(text)
    return float(text)


def _optional_int(text: str) -> Optional[int]:
    return None if text == "none" else _int(text)


def _parse_header_field(lines: Iterator[str], name: str, kind: Callable[[str], _T] = str) -> _T:
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
    n_features = _parse_header_field(lines, "n_features", _int)
    n_trees = _parse_header_field(lines, "n_trees", _int)
    max_depth = _parse_header_field(lines, "max_depth", _optional_int)
    min_split = _parse_header_field(lines, "min_samples_split", _int)
    per_split = _parse_header_field(lines, "features_per_split", _int)
    seed = _parse_header_field(lines, "seed", _int)
    train_fraction = _parse_header_field(lines, "train_fraction", _float)
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
