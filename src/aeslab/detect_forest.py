"""Random-forest detector built from CART trees with Gini impurity.

The detector's input is one feature table: a Dataset whose matrix X has 17
columns per block, the latency in microseconds followed by the 16 bytes the
pipeline saw (post-fault plaintext by default, or ciphertext), and whose
vector y holds the boolean truth labels. Trees grow greedily: at each node a
without-replacement sample of candidate features is scored over midpoint
thresholds between consecutive distinct sorted values, and the split with
the highest Gini gain wins. Ties resolve to the lowest feature index, then
the lowest threshold; a node with no strictly positive gain becomes a leaf.

Everything is deterministic given (hyperparams, training data): each tree
draws its bootstrap sample and feature subsets from a generator derived
from the forest seed and the tree index.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import IO, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .cipher import BlockRecord

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


@dataclass
class TreeNode:
    """Internal node (feature_index/threshold/children) or leaf (class_counts)."""

    feature_index: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    class_counts: Optional[Tuple[int, int]] = None

    @property
    def is_leaf(self) -> bool:
        return self.class_counts is not None


@dataclass(frozen=True)
class ForestModel:
    trees: Tuple[TreeNode, ...]
    hyper: ForestHyperparams
    n_features: int


def feature_dataset(
    times_us: Sequence[float], payloads: Sequence[bytes], labels: Sequence[bool]
) -> Dataset:
    """The 17-column table: latency, then the 16 payload bytes of each block."""
    X = np.empty((len(times_us), N_FEATURES), dtype=np.float64)
    X[:, 0] = times_us
    X[:, 1:] = np.frombuffer(b"".join(payloads), dtype=np.uint8).reshape(-1, N_FEATURES - 1)
    return Dataset(X, labels)


def build_dataset(
    records: Sequence[BlockRecord],
    byte_source: ByteSource = ByteSource.PLAINTEXT,
) -> Dataset:
    """One feature row per record, ordered by block index."""
    if not records:
        raise ValueError("cannot build features from an empty run")
    ordered = sorted(records, key=lambda r: r.index)
    return feature_dataset(
        [r.time_us for r in ordered],
        [byte_source.of(r) for r in ordered],
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


def best_split(X: np.ndarray, y: np.ndarray, features: Sequence[int]) -> Optional[Split]:
    """Highest-gain (feature, threshold) over the candidate features, or None.

    y holds one 0/1 label per row of X. Ties break to the lowest feature
    index, then the lowest threshold. Returns None when no candidate split
    has gain strictly above zero.
    """
    n = y.size
    if n == 0:
        raise ValueError("cannot split an empty sample set")
    feats = sorted({int(f) for f in features})
    if not feats:
        raise ValueError("candidate features must not be empty")
    if feats[0] < 0 or feats[-1] >= X.shape[1]:
        raise ValueError("candidate feature index out of range")
    total1 = int(y.sum())
    total0 = n - total1
    parent = gini((total0, total1))
    best: Optional[Split] = None
    for f in feats:
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        v = col[order]
        lab = y[order]
        boundary = np.nonzero(v[:-1] < v[1:])[0]
        if boundary.size == 0:
            continue
        mids = (v[boundary] + v[boundary + 1]) / 2.0
        # left set is {value <= mid}; duplicates and midpoint rounding are
        # absorbed by counting against the sorted column itself
        n_left = np.searchsorted(v, mids, side="right")
        keep = (n_left > 0) & (n_left < n)
        if not keep.any():
            continue
        mids = mids[keep]
        n_left = n_left[keep]
        cum1 = np.cumsum(lab, dtype=np.int64)
        left1 = cum1[n_left - 1]
        left0 = n_left - left1
        right1 = total1 - left1
        right0 = total0 - left0
        n_right = n - n_left
        child = n_left * _gini_vec(left0, left1, n_left) + n_right * _gini_vec(right0, right1, n_right)
        gains = parent - child / n
        pick = int(np.argmax(gains))
        gain = float(gains[pick])
        if best is None or gain > best.gain:
            best = Split(f, float(mids[pick]), gain)
    if best is None or not best.gain > 0.0:
        return None
    return best


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    hyper: ForestHyperparams,
    rng: np.random.Generator,
    depth: int = 0,
) -> TreeNode:
    """Grow one CART tree (rooted at depth) on (X, y), drawing features from rng."""
    if y.size == 0:
        raise ValueError("cannot fit a tree on an empty sample set")
    c1 = int(y.sum())
    c0 = y.size - c1
    if (
        c0 == 0
        or c1 == 0
        or y.size < hyper.min_samples_split
        or (hyper.max_depth is not None and depth >= hyper.max_depth)
    ):
        return TreeNode(class_counts=(c0, c1))
    d = X.shape[1]
    k = min(hyper.features_per_split, d)
    split = best_split(X, y, np.sort(rng.choice(d, size=k, replace=False)))
    if split is None:
        return TreeNode(class_counts=(c0, c1))
    mask = X[:, split.feature_index] <= split.threshold
    left = fit_tree(X[mask], y[mask], hyper, rng, depth + 1)
    right = fit_tree(X[~mask], y[~mask], hyper, rng, depth + 1)
    return TreeNode(feature_index=split.feature_index, threshold=split.threshold, left=left, right=right)


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


def _tree_vote(root: TreeNode, values: Sequence[float]) -> bool:
    node = root
    while not node.is_leaf:
        node = node.left if values[node.feature_index] <= node.threshold else node.right
    c0, c1 = node.class_counts
    return c1 > c0  # ties vote benign


def predict_all(model: ForestModel, X: np.ndarray) -> List[bool]:
    """Majority vote over all trees for each row of X; an exact tie stays benign."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected rows of {model.n_features} features, got shape {X.shape}")
    preds = []
    for row in X:
        values = row.tolist()  # plain floats: cheaper to index than numpy scalars
        votes = sum(_tree_vote(root, values) for root in model.trees)
        preds.append(2 * votes > len(model.trees))
    return preds


MODEL_MAGIC = "aeslab-forest"
MODEL_VERSION = 1


class ModelFormatError(ValueError):
    """Model file is missing, malformed, or from an unsupported version."""


def _write_tree(root: TreeNode, out: IO[str]) -> None:
    """Pre-order dump: a node's line, then its left subtree, then its right."""
    pending = [root]
    while pending:
        node = pending.pop()
        if node.is_leaf:
            c0, c1 = node.class_counts
            out.write(f"l {c0} {c1}\n")
        else:
            out.write(f"i {node.feature_index} {node.threshold!r}\n")
            pending += [node.right, node.left]


def save_model(model: ForestModel, path: str) -> None:
    """Write a versioned line-oriented text dump (floats via repr, pre-order trees)."""
    hyper = model.hyper
    with open(path, "w", encoding="ascii") as out:
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
            _write_tree(tree, out)
        out.write("end\n")


def _read_tree(lines: Iterator[str], hyper: ForestHyperparams, n_features: int) -> TreeNode:
    """Rebuild one pre-order tree with an explicit stack, so depth is not bound by recursion."""
    root = TreeNode()
    pending = [(root, 0)]  # nodes whose line comes next, in pre-order, with their depth
    while pending:
        node, depth = pending.pop()
        try:
            parts = next(lines).split()
        except StopIteration:
            raise ModelFormatError("model file ended inside a tree") from None
        line = " ".join(parts)
        if len(parts) != 3 or parts[0] not in ("i", "l"):
            raise ModelFormatError(f"unrecognized node line: {line!r}")
        try:
            if parts[0] == "l":
                node.class_counts = (int(parts[1]), int(parts[2]))
            else:
                node.feature_index, node.threshold = int(parts[1]), float(parts[2])
        except ValueError:
            raise ModelFormatError(f"unparsable node line: {line!r}") from None
        if node.is_leaf:
            if min(node.class_counts) < 0:
                raise ModelFormatError(f"negative class count in leaf: {line!r}")
        elif not 0 <= node.feature_index < n_features:
            raise ModelFormatError(f"feature index outside [0, {n_features}): {line!r}")
        elif hyper.max_depth is not None and depth >= hyper.max_depth:
            raise ModelFormatError(f"tree grows deeper than max_depth {hyper.max_depth}")
        else:
            node.left, node.right = TreeNode(), TreeNode()
            pending += [(node.right, depth + 1), (node.left, depth + 1)]
    return root


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
    if n_features < 1:
        raise ModelFormatError("invalid model header: n_features must be at least 1")
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
