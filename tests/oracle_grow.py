"""The one-tree-at-a-time pre-order grower that fit_tree and fit_forest must match.

_rank_columns, _scan and _grow are the grower fit_forest used before trees
grew in lock-step, kept as they were: each node of each tree is scored on
its own, by one histogram over its candidate columns and a cumulative sum
over every bin. fit_tree and fit_forest here wrap them as the library's
functions of the same names did; the Gini arithmetic, the tree and model
types and the seeded streams come from the library.
"""

from typing import List, Sequence, Tuple

import numpy as np

from aeslab.detect_forest import (
    Dataset,
    ForestHyperparams,
    ForestModel,
    Tree,
    _gains,
    gini,
)
from aeslab.workload import _STREAM_TREE, _rng


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
    return Tree(feature, threshold, counts)


def fit_tree(X: np.ndarray, y: np.ndarray, hyper: ForestHyperparams, rng: np.random.Generator) -> Tree:
    codes, values = _rank_columns(X, range(X.shape[1]))
    return _grow(codes, values, np.asarray(y, dtype=bool), hyper, rng)


def fit_forest(train: Dataset, hyper: ForestHyperparams) -> ForestModel:
    n = len(train)
    codes, values = _rank_columns(train.X, range(train.X.shape[1]))
    trees = []
    for t in range(hyper.n_trees):
        rng = _rng(hyper.seed, _STREAM_TREE, t)
        boot = rng.integers(0, n, size=n)
        trees.append(_grow(codes[:, boot], values, train.y[boot], hyper, rng))
    return ForestModel(tuple(trees), hyper, train.X.shape[1])
