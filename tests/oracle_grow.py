"""The one-tree-at-a-time level-wise grower that fit_tree and fit_forest must match.

_rank_columns, _scan and _grow grow each tree alone, one depth at a time,
and score each node on its own, by one histogram over its candidate columns
and a cumulative sum over every bin. fit_tree and fit_forest here wrap them
as tree_helpers.fit_tree and the library's fit_forest do. A node's own
impurity is oracle_split's; the gain arithmetic, the tree and model types
and the seeded streams come from the library.
"""

from typing import List, Sequence, Tuple

import numpy as np

from aeslab.detect_forest import (
    Dataset,
    ForestHyperparams,
    ForestModel,
    Tree,
    _gains,
)
from aeslab.workload import _STREAM_TREE, _rng
from oracle_split import gini_counts


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
    gains = _gains(n_left_all[cand], left[1][cand], n, total0, total1, gini_counts(total0, total1))
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

    The tree grows one depth at a time. The m nodes of a depth that get a
    split search draw one rng.random((m, d)) between them, left to right,
    and each takes the first k of its row's stable argsort as its candidate
    columns. Each node is a dict; a split node's "children" are its left and
    right nodes.
    """
    d, n = codes.shape
    k = min(hyper.features_per_split, d)
    flat = codes.ravel()  # feature f of row i at f * n + i
    root = {"rows": np.arange(n), "depth": 0}
    level = [root]
    while level:
        searched = []
        for node in level:
            c1 = int(np.count_nonzero(y[node["rows"]]))
            node.update(counts=(node["rows"].size - c1, c1), feature=-1, threshold=0.0)
            if (
                c1
                and node["rows"].size > c1
                and node["rows"].size >= hyper.min_samples_split
                and (hyper.max_depth is None or node["depth"] < hyper.max_depth)
            ):
                searched.append(node)
        level = []
        for node, draw in zip(searched, rng.random((len(searched), d))):
            feats = np.sort(np.argsort(draw, kind="stable")[:k])
            rows = node["rows"]
            cols = flat.take(feats[:, None] * n + rows)
            found = _scan(cols, [values[f] for f in feats], y[rows])
            if found is None:
                continue
            _, j, rank, cut = found
            mask = cols[j] <= rank
            node.update(feature=int(feats[j]), threshold=cut, children=(
                {"rows": rows[mask], "depth": node["depth"] + 1},
                {"rows": rows[~mask], "depth": node["depth"] + 1},
            ))
            level += node["children"]
    feature: List[int] = []
    threshold: List[float] = []
    counts: List[Tuple[int, int]] = []
    pending = [root]  # next on top
    while pending:
        node = pending.pop()
        feature.append(node["feature"])
        threshold.append(node["threshold"])
        counts.append(node["counts"] if node["feature"] < 0 else (0, 0))
        pending += reversed(node.get("children", ()))
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
