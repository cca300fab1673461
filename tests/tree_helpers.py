"""One-node and one-tree entry points over the library's batched grower.

best_split scores one node with _split_level, by histogram or by sorting as
_sparse chooses, and fit_tree grows one tree with _grow_levels, each on
columns ranked by _rank_columns. fit_forest runs the same functions, so
criterion 6's brute-force split oracle and the one-tree grow oracle gate the
code that fits every forest.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from aeslab.detect_forest import ForestHyperparams, Tree, _grow_levels, _rank_columns, _sparse, _split_level


@dataclass(frozen=True)
class Split:
    feature_index: int
    threshold: float
    gain: float


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
    cols = _rank_columns(X, y, feats)
    sizes, candidates = np.array([y.size]), np.arange(len(feats))[None, :]
    cuts = _split_level(cols, np.arange(y.size), sizes, candidates, np.array([np.count_nonzero(y)]),
                        int(not _sparse(cols, sizes, candidates)[0]))
    if not cuts.node.size:
        return None
    return Split(feats[cuts.feature[0]], float(cuts.threshold[0]), float(cuts.gain[0]))


def fit_tree(X: np.ndarray, y: np.ndarray, hyper: ForestHyperparams, rng: np.random.Generator) -> Tree:
    """Grow one CART tree on (X, y), drawing each level's candidate features from rng."""
    if y.size == 0:
        raise ValueError("cannot fit a tree on an empty sample set")
    cols = _rank_columns(X, np.asarray(y, dtype=bool), range(X.shape[1]))
    return _grow_levels(cols, hyper, [(rng, np.arange(y.size))])[0]
