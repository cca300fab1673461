import dataclasses
import random
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aeslab.detect_forest as detect_forest
from aeslab.cipher import Key128, run_pipeline
from aeslab.detect_forest import (
    N_FEATURES,
    ByteSource,
    Dataset,
    ForestHyperparams,
    ForestModel,
    ModelFormatError,
    Tree,
    _gini_vec,
    fit_forest,
    load_model,
    predict_all,
    save_model,
    split_train_test,
)
from aeslab.metrics_report import build_dataset, rows_to_vectors
from aeslab.workload import AnomalyKind, Mode, RunConfig

import oracle_grow
import oracle_model
from oracle_split import brute_force_best_split, gini_counts
from tree_helpers import best_split, fit_tree


def _dataset(X, y):
    return Dataset(np.asarray(X, dtype=np.float64), np.asarray(y, dtype=bool))


def _best_split(data, features):
    return best_split(data.X, data.y, features)


# ---------------------------------------------------------------- gini


def test_gini_known_values():
    # _scan_batch scores only nodes that hold a sample, so no count pair is (0, 0)
    c0, c1 = np.array([3, 1, 5, 4]), np.array([1, 3, 0, 4])
    assert _gini_vec(c0, c1, c0 + c1).tolist() == [0.375, 0.375, 0.0, 0.5]


@given(st.integers(0, 10_000), st.integers(1, 10_000))
def test_gini_bounds(c0, c1):
    value = _gini_vec(np.array(c0), np.array(c1), np.array(c0 + c1))
    assert 0.0 <= value <= 0.5
    assert value == _gini_vec(np.array(c1), np.array(c0), np.array(c0 + c1))


# ---------------------------------------------------------------- best_split


def test_best_split_hand_example():
    samples = _dataset([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1])
    split = _best_split(samples, [0])
    assert split is not None
    assert split.feature_index == 0
    assert split.threshold == 2.5
    assert split.gain == 0.5


def test_best_split_pure_node_absent():
    samples = _dataset([[1.0], [2.0], [3.0]], [1, 1, 1])
    assert _best_split(samples, [0]) is None


def test_best_split_constant_features_absent():
    samples = _dataset([[7.0, 3.0]] * 6, [0, 1, 0, 1, 0, 1])
    assert _best_split(samples, [0, 1]) is None


def test_best_split_tie_prefers_lowest_feature():
    # feature 1 mirrors feature 0, so both reach gain 0.5
    samples = _dataset([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]], [0, 0, 1, 1])
    split = _best_split(samples, [1, 0])
    assert split is not None
    assert split.feature_index == 0
    assert split.threshold == 2.5


def test_best_split_tie_prefers_lowest_threshold():
    # symmetric labels: cutting after the first or before the last sample
    # scores the same gain, so the earlier midpoint must win
    samples = _dataset([[1.0], [2.0], [3.0], [4.0]], [1, 0, 0, 1])
    split = _best_split(samples, [0])
    assert split is not None
    assert split.threshold == 1.5


def test_best_split_validates_inputs():
    samples = _dataset([[1.0], [2.0]], [0, 1])
    with pytest.raises(ValueError):
        best_split(np.empty((0, 1)), np.empty(0, dtype=bool), [0])
    with pytest.raises(ValueError):
        _best_split(samples, [])
    with pytest.raises(ValueError):
        _best_split(samples, [3])


def test_best_split_handles_duplicate_values():
    samples = _dataset([[1.0], [1.0], [1.0], [5.0], [5.0]], [0, 0, 0, 1, 1])
    split = _best_split(samples, [0])
    assert split is not None
    assert split.threshold == 3.0
    assert split.gain == pytest.approx(gini_counts(3, 2), rel=1e-12)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_best_split_matches_brute_force(data):
    n = data.draw(st.integers(2, 24))
    d = data.draw(st.integers(1, 3))
    seed = data.draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    X = np.where(
        rng.random((n, d)) < 0.5,
        rng.integers(0, 4, size=(n, d)).astype(np.float64),
        rng.random((n, d)),
    )
    y = rng.integers(0, 2, size=n)
    samples = _dataset(X, y)
    with mock.patch.object(detect_forest, "_SPARSE_RATIO", data.draw(st.sampled_from([0, 4]))):
        mine = _best_split(samples, range(d))
    reference = brute_force_best_split(X, y, range(d))
    if reference is None:
        assert mine is None
        return
    assert mine is not None
    ref_feature, ref_threshold, ref_gain = reference
    assert mine.feature_index == ref_feature
    assert np.array_equal(
        X[:, mine.feature_index] <= mine.threshold,
        X[:, ref_feature] <= ref_threshold,
    )
    assert abs(mine.gain - ref_gain) <= 1e-9


def _mixed_columns(rng, n):
    """Columns of unlike widths and spacings, laid end to end by the ranked scan.

    1 spans the byte range 0-255, 3 has few values and many ties, 6 copies 1,
    2 is continuous, 4 holds integers including -1 and 256, and 0 and 5 are
    order-preserving twins of 3 and 1 on other scales. Twins tie on gain,
    and the lower feature index must win wherever it sits in the histogram.
    """
    full = rng.integers(0, 256, size=n)
    full[:2] = (0, 255)
    narrow = rng.integers(0, 4, size=n)
    outside = rng.choice([-1, 0, 7, 255, 256], size=n)
    outside[:2] = (-1, 256)
    return np.column_stack(
        [narrow + 1000, full, rng.random(n) * 300.0, narrow, outside, full * 2 + 300, full]
    ).astype(np.float64)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_best_split_matches_brute_force_on_byte_and_other_columns(data):
    n = data.draw(st.integers(2, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    X = _mixed_columns(rng, n)
    y = rng.integers(0, 2, size=n)
    features = data.draw(st.sets(st.integers(0, X.shape[1] - 1), min_size=1))
    with mock.patch.object(detect_forest, "_SPARSE_RATIO", data.draw(st.sampled_from([0, 4]))):
        mine = _best_split(_dataset(X, y), features)
    reference = brute_force_best_split(X, y, features)
    if reference is None:
        assert mine is None
        return
    assert mine is not None
    ref_feature, ref_threshold, ref_gain = reference
    assert mine.feature_index == ref_feature
    assert np.array_equal(X[:, mine.feature_index] <= mine.threshold, X[:, ref_feature] <= ref_threshold)
    assert mine.threshold == ref_threshold
    assert abs(mine.gain - ref_gain) <= 1e-9


def test_best_split_partition_invariant_under_monotone_renumbering():
    rng = np.random.default_rng(99)
    X = rng.random((40, 3))
    y = rng.integers(0, 2, size=40)
    base = _best_split(_dataset(X, y), [0, 1, 2])
    assert base is not None
    base_mask = X[:, base.feature_index] <= base.threshold
    for f in range(3):
        warped = X.copy()
        warped[:, f] = warped[:, f] ** 3 + 2.0  # strictly increasing map
        moved = _best_split(_dataset(warped, y), [0, 1, 2])
        assert moved is not None
        assert moved.feature_index == base.feature_index
        assert np.array_equal(warped[:, moved.feature_index] <= moved.threshold, base_mask)


# ---------------------------------------------------------------- split_train_test


def test_split_stratifies_exactly():
    X = [[float(i)] for i in range(20)]
    y = [1] * 10 + [0] * 10
    result = split_train_test(_dataset(X, y), 0.7, seed=5)
    train, test = result.train, result.test
    assert train.y.sum() == 7 and len(train) == 14
    assert test.y.sum() == 3 and len(test) == 6
    assert np.array_equal(train.X[:, 0], result.train_indices)
    assert np.array_equal(test.X[:, 0], result.test_indices)


def test_split_is_deterministic_and_exhaustive():
    data = _dataset([[float(i), float(i % 3)] for i in range(30)], [i % 2 for i in range(30)])
    a = split_train_test(data, 0.6, seed=8)
    b = split_train_test(data, 0.6, seed=8)
    assert a.train_indices.tolist() == b.train_indices.tolist()
    assert a.test_indices.tolist() == b.test_indices.tolist()
    assert sorted(a.train_indices.tolist() + a.test_indices.tolist()) == list(range(30))
    assert not set(a.train_indices) & set(a.test_indices)


def test_split_clamps_tiny_classes():
    data = _dataset([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1])
    result = split_train_test(data, 0.9, seed=1)
    # round(0.9*2)=2 would starve the test side; clamping keeps 1 each
    assert result.train.y.sum() == 1
    assert result.test.y.sum() == 1


def test_split_of_one_class_data_stratifies_that_class():
    data = _dataset([[float(i)] for i in range(10)], [0] * 10)
    result = split_train_test(data, 0.7, seed=1)
    assert (len(result.train), len(result.test)) == (7, 3)
    assert not result.train.y.any() and not result.test.y.any()
    assert sorted(result.train_indices.tolist() + result.test_indices.tolist()) == list(range(10))


def test_split_rejects_singleton_class():
    data = _dataset([[1.0], [2.0], [3.0]], [0, 0, 1])
    with pytest.raises(ValueError):
        split_train_test(data, 0.7, seed=1)


def test_split_rejects_bad_fraction_and_empty_input():
    data = _dataset([[1.0], [2.0]], [0, 1])
    with pytest.raises(ValueError):
        split_train_test(data, 1.0, seed=1)
    with pytest.raises(ValueError):
        split_train_test(_dataset(np.empty((0, 1)), []), 0.5, seed=1)


@given(st.integers(2, 40), st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_split_partitions_every_mix(npos, nneg, seed):
    values = [[float(i)] for i in range(npos + nneg)]
    labels = [1] * npos + [0] * nneg
    result = split_train_test(_dataset(values, labels), 0.7, seed)
    assert sorted(result.train_indices.tolist() + result.test_indices.tolist()) == list(range(npos + nneg))
    for subset in (result.train, result.test):
        assert subset.y.any()
        assert not subset.y.all()


# ---------------------------------------------------------------- fit_tree


def _rng_stream(seed=0):
    return np.random.default_rng(seed)


def _walk(tree, values):
    """Scalar reference descent: follow one row from the root to its leaf's vote."""
    node = 0
    while not _is_leaf(tree, node):
        go_left = values[tree.feature[node]] <= tree.threshold[node]
        node = node + 1 if go_left else tree.right[node]  # the left child follows its parent
    c0, c1 = _class_counts(tree, node)
    return c1 > c0


def _is_leaf(tree, node=0):
    return tree.feature[node] < 0


def _class_counts(tree, node=0):
    return tuple(tree.counts[node])


def test_fit_tree_pure_input_is_single_leaf():
    data = _dataset([[1.0], [2.0], [3.0]], [1, 1, 1])
    root = fit_tree(data.X, data.y, ForestHyperparams(), _rng_stream())
    assert _is_leaf(root)
    assert _class_counts(root) == (0, 3)


def test_fit_tree_respects_max_depth():
    rng = np.random.default_rng(3)
    data = _dataset(rng.random((64, 2)), rng.integers(0, 2, size=64))
    root = fit_tree(data.X, data.y, ForestHyperparams(max_depth=1, features_per_split=2), _rng_stream())

    def depth(node):
        if _is_leaf(root, node):
            return 0
        return 1 + max(depth(node + 1), depth(root.right[node]))

    assert depth(0) <= 1


def test_fit_tree_respects_min_samples_split():
    data = _dataset([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1])
    root = fit_tree(data.X, data.y, ForestHyperparams(min_samples_split=5, features_per_split=1),
                    _rng_stream())
    assert _is_leaf(root)
    assert _class_counts(root) == (2, 2)


def test_fit_tree_fits_distinct_valued_data_perfectly():
    rng = np.random.default_rng(17)
    X = rng.random((64, 3))  # continuous draws: all columns distinct w.p. 1
    y = rng.integers(0, 2, size=64)
    data = _dataset(X, y)
    root = fit_tree(data.X, data.y, ForestHyperparams(max_depth=None, features_per_split=3), _rng_stream())
    assert [_walk(root, row) for row in X] == [bool(v) for v in y]


def test_fit_tree_separates_adjacent_doubles():
    a = np.nextafter(1.0, 2.0)
    b = np.nextafter(a, 2.0)
    assert (a + b) / 2.0 == b  # the midpoint rounds up to the upper value
    X = np.asarray([[1.0], [a], [a], [b], [b], [2.0]])
    y = np.asarray([0, 0, 0, 1, 1, 1], dtype=bool)
    split = best_split(X, y, [0])
    assert split is not None and split.threshold == a
    tree = fit_tree(X, y, ForestHyperparams(features_per_split=1), _rng_stream())
    model = ForestModel((tree,), ForestHyperparams(n_trees=1), 1)
    assert predict_all(model, X) == y.tolist()


def test_fit_tree_rejects_empty_input():
    with pytest.raises(ValueError):
        fit_tree(np.empty((0, 1)), np.empty(0, dtype=bool), ForestHyperparams(), _rng_stream())


@pytest.mark.parametrize("field, value, message", [
    ("max_depth", -1, "max_depth"),  # was accepted and gave a 1-node tree
    ("min_samples_split", 0, "min_samples_split"),  # was accepted silently
    ("features_per_split", 0, "features_per_split"),  # failed inside numpy's reshape
])
def test_fit_tree_validates_its_hyperparameters(field, value, message):
    # the hyperparameters refuse the value as they are built, before fit_tree sees them
    X = np.asarray([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0], [3.0, 0.0]])
    y = np.asarray([False, False, True, True])
    with pytest.raises(ValueError, match=message):
        fit_tree(X, y, ForestHyperparams(**{field: value}), _rng_stream())


# ---------------------------------------------------------------- fit_forest / predict


def _separable_training_set(n=120, seed=23):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 2)) * 10.0
    y = (X[:, 0] > 5.0).astype(int)
    if y.sum() in (0, n):  # keep both classes present
        y[0] = 1 - y[0]
    return _dataset(X, y)


def test_fit_forest_deterministic_per_seed():
    train = _separable_training_set()
    hyper = ForestHyperparams(n_trees=9, features_per_split=2, seed=77)
    model_a = fit_forest(train, hyper)
    model_b = fit_forest(train, hyper)
    probe = np.random.default_rng(1).random((50, 2)) * 10.0
    assert predict_all(model_a, probe) == predict_all(model_b, probe)


def test_fit_forest_single_tree_learns_separable_rule():
    train = _separable_training_set()
    hyper = ForestHyperparams(n_trees=1, features_per_split=2, seed=5)
    model = fit_forest(train, hyper)
    assert len(model.trees) == 1
    assert predict_all(model, np.asarray([[9.5, 3.0], [0.5, 3.0]])) == [True, False]


def test_fit_forest_training_accuracy_on_separable_data():
    train = _separable_training_set(n=400, seed=29)
    model = fit_forest(train, ForestHyperparams(n_trees=21, features_per_split=2, seed=3))
    preds = predict_all(model, train.X)
    agree = sum(p == label for p, label in zip(preds, train.y))
    assert agree / len(train) >= 0.99


def test_fit_forest_rejects_degenerate_training_sets():
    with pytest.raises(ValueError):
        fit_forest(_dataset(np.empty((0, 1)), []), ForestHyperparams())
    single = _dataset([[1.0], [2.0]], [1, 1])
    with pytest.raises(ValueError):
        fit_forest(single, ForestHyperparams())
    with pytest.raises(ValueError):
        Dataset(np.asarray([1.0, 2.0]), np.asarray([True, False]))  # not a matrix
    with pytest.raises(ValueError):
        Dataset(np.ones((2, 2)), np.asarray([True]))  # one label for two rows


def test_fit_rejects_a_matrix_without_feature_columns():
    data = _dataset(np.empty((4, 0)), [0, 1, 0, 1])
    with pytest.raises(ValueError, match="no columns"):
        fit_forest(data, ForestHyperparams(n_trees=3))
    with pytest.raises(ValueError, match="no columns"):
        fit_tree(data.X, data.y, ForestHyperparams(), _rng_stream())


_A = float(np.nextafter(1.0, 2.0))
_COLUMN_KINDS = {
    "byte": lambda rng, n: rng.integers(0, 256, size=n),
    "continuous": lambda rng, n: rng.random(n) * 300.0,
    "tied": lambda rng, n: rng.integers(0, 3, size=n),
    # consecutive doubles: the midpoint of the last two rounds up to the upper one
    "adjacent": lambda rng, n: rng.choice([1.0, _A, float(np.nextafter(_A, 2.0)), 2.0], size=n),
}


def _assert_same_trees(mine, reference):
    assert len(mine) == len(reference)
    for got, want in zip(mine, reference):
        for name in ("feature", "threshold", "right", "counts"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_level_wise_fit_equals_the_one_tree_oracle(data):
    n = data.draw(st.integers(2, 40), label="n")
    kinds = data.draw(st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), min_size=1, max_size=5),
                      label="column kinds")
    d = len(kinds)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="data seed"))
    X = np.column_stack([_COLUMN_KINDS[kind](rng, n) for kind in kinds]).astype(np.float64)
    y = rng.random(n) < data.draw(st.sampled_from([0.1, 0.5, 0.9]), label="anomalous share")
    y[:2] = (False, True)
    hyper = ForestHyperparams(
        n_trees=data.draw(st.integers(1, 7), label="n_trees"),
        max_depth=data.draw(st.sampled_from([None, 0, 1, 16]), label="max_depth"),
        min_samples_split=data.draw(st.integers(2, 5), label="min_samples_split"),
        features_per_split=data.draw(st.integers(1, d + 1), label="features_per_split"),
        seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
    )
    # a small pool and small chunks make trees grow in several batches and split every level's scan;
    # the sparse ratio sends every node (0), none (2**30) or the nodes of few rows to the sorting scan
    pool = data.draw(st.integers(1, 3), label="growing trees")
    chunk = data.draw(st.sampled_from([1, 40, 1 << 16]), label="scan chunk")
    ratio = data.draw(st.sampled_from([0, 1, 4, 1 << 30]), label="sparse ratio")
    tree_seed = data.draw(st.integers(0, 2**32 - 1), label="tree seed")
    with mock.patch.object(detect_forest, "_MAX_GROWING_TREES", pool), \
            mock.patch.object(detect_forest, "_SCAN_CHUNK", chunk), \
            mock.patch.object(detect_forest, "_SPARSE_RATIO", ratio):
        model = fit_forest(_dataset(X, y), hyper)
        tree = fit_tree(X, y, hyper, _rng_stream(tree_seed))
    _assert_same_trees(model.trees, oracle_grow.fit_forest(_dataset(X, y), hyper).trees)
    _assert_same_trees([tree], [oracle_grow.fit_tree(X, y, hyper, _rng_stream(tree_seed))])


def _sim_ascii_training_set():
    cfg = RunConfig(n_blocks=4096, inject_pct=20.0, seed=7, mode=Mode.SIMULATED)
    data, _ = rows_to_vectors(build_dataset(run_pipeline(cfg, Key128(bytes(range(16))))))
    return split_train_test(data, 0.7, 7).train


def test_fit_forest_memory_stays_bounded():
    # trees grown level by level, 16 at a time, peak at 2.8 MiB; the peak follows
    # _SCAN_CHUNK: 2.7 MiB at 2**14 and 8.5 MiB at 2**18 against 2**16, most of
    # it then the untouched block of 4 * _SCAN_CHUNK float64 that fit frees first
    train = _sim_ascii_training_set()
    assert train.X.shape == (2867, N_FEATURES)
    tracemalloc.start()
    try:
        fit_forest(train, ForestHyperparams(seed=7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("bad", [-np.inf, np.inf, np.nan])
def test_dataset_rejects_non_finite_features(bad):
    # a forest fit on it could save a threshold that load_model refuses
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(np.asarray([[bad], [1.0], [2.0]]), np.asarray([False, True, True]))


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        ForestHyperparams(n_trees=0)
    with pytest.raises(ValueError):
        ForestHyperparams(min_samples_split=1)
    with pytest.raises(ValueError):
        ForestHyperparams(features_per_split=0)
    with pytest.raises(ValueError):
        ForestHyperparams(train_fraction=1.5)
    with pytest.raises(ValueError):
        ForestHyperparams(max_depth=-1)
    with pytest.raises(ValueError, match="64-bit"):
        ForestHyperparams(seed=2**64)
    with pytest.raises(ValueError, match="train_fraction"):
        dataclasses.replace(ForestHyperparams(), train_fraction=float("nan"))
    ForestHyperparams()
    ForestHyperparams(seed=2**64 - 1)


@pytest.mark.parametrize("field, value", [
    # each of these was accepted
    ("n_trees", 2.5),
    ("n_trees", 3.0),
    ("max_depth", 3.5),
    ("seed", 1.5),
    ("min_samples_split", 2.5),
    ("features_per_split", True),
    ("n_trees", True),
    ("seed", "1"),
])
def test_hyperparams_refuse_non_integers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ForestHyperparams(**{field: value})
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        dataclasses.replace(ForestHyperparams(), **{field: value})


def _leaf(c0, c1):
    return Tree(feature=[-1], threshold=[0.0], counts=[(c0, c1)])


def test_forest_vote_tie_stays_benign():
    always_true = _leaf(0, 5)
    always_false = _leaf(5, 0)
    model = ForestModel((always_true, always_false), ForestHyperparams(n_trees=2), 2)
    assert predict_all(model, np.asarray([[1.0, 2.0]])) == [False]


def test_leaf_tie_votes_benign():
    tied_leaf = _leaf(3, 3)
    model = ForestModel((tied_leaf,), ForestHyperparams(n_trees=1), 1)
    assert predict_all(model, np.asarray([[0.0]])) == [False]


# (benign, anomalous) counts of a hand-made leaf: unanimous either way, split either way, tied
_LEAF_COUNTS = st.sampled_from([(0, 4), (4, 0), (1, 3), (3, 1), (2, 2)])


@st.composite
def _hand_trees(draw):
    """A tree of depth at most 2 over two features whose values are 0 to 4."""
    feature, threshold, counts = [], [], []

    def grow(depth):
        if depth == 2 or draw(st.booleans()):
            feature.append(-1)
            threshold.append(0.0)
            counts.append(draw(_LEAF_COUNTS))
        else:
            feature.append(draw(st.integers(0, 1)))
            threshold.append(draw(st.sampled_from([0.5, 1.5, 2.5, 3.5])))
            counts.append((0, 0))
            grow(depth + 1)
            grow(depth + 1)

    grow(0)
    return Tree(feature, threshold, counts)


@settings(max_examples=300, deadline=None)
@given(st.lists(_hand_trees(), min_size=1, max_size=12))
def test_settled_vote_equals_every_tree_voting(trees):
    # every row of the 5 x 5 grid, so rows reach a majority after different numbers of trees
    grid = np.array([[a, b] for a in range(5) for b in range(5)], dtype=np.float64)
    model = ForestModel(tuple(trees), ForestHyperparams(n_trees=len(trees)), 2)
    every_tree = [2 * sum(_walk(tree, row) for tree in trees) > len(trees) for row in grid]
    assert predict_all(model, grid) == every_tree


@settings(max_examples=200, deadline=None)
@given(st.lists(_hand_trees(), min_size=1, max_size=12), st.randoms(use_true_random=False))
def test_settled_vote_does_not_depend_on_tree_order(trees, rnd):
    grid = np.array([[a, b] for a in range(5) for b in range(5)], dtype=np.float64)
    every_tree = [2 * sum(_walk(tree, row) for tree in trees) > len(trees) for row in grid]
    shuffled = list(trees)
    rnd.shuffle(shuffled)
    for order in (trees, trees[::-1], shuffled):
        model = ForestModel(tuple(order), ForestHyperparams(n_trees=len(order)), 2)
        assert predict_all(model, grid) == every_tree


class _CountingTree:
    """A stand-in for a tree that counts the reads of its threshold and counts.
    Reads of its feature list are not counted: the walk's sort key reads it."""

    def __init__(self, tree):
        self._tree, self.reads = tree, 0
        self.feature, self.right = tree.feature, tree.right

    @property
    def threshold(self):
        self.reads += 1
        return self._tree.threshold

    @property
    def counts(self):
        self.reads += 1
        return self._tree.counts


def test_the_small_trees_settle_the_vote_before_a_large_tree_is_walked():
    split = Tree([0, -1, -1], [0.5, 0.0, 0.0], [(0, 0), (3, 0), (0, 3)])
    rows = np.array([[0.0], [1.0]])
    # first in index order, but the two one-leaf trees settle every row before it
    large = _CountingTree(split)
    model = ForestModel((large, _leaf(0, 2), _leaf(0, 2)), ForestHyperparams(n_trees=3), 1)
    assert predict_all(model, rows) == [True, True]
    assert large.reads == 0
    # where the leaves disagree, every row stays open and the stand-in is walked
    large = _CountingTree(split)
    model = ForestModel((large, _leaf(0, 2), _leaf(2, 0)), ForestHyperparams(n_trees=3), 1)
    assert predict_all(model, rows) == [False, True]
    assert large.reads > 0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(4, 60),
    st.integers(1, 4),
    st.integers(1, 5),
    st.one_of(st.none(), st.integers(0, 6)),
    st.integers(0, 2**32 - 1),
)
def test_forest_round_trips_and_predicts_like_a_scalar_walk(n, d, n_trees, max_depth, seed):
    rng = np.random.default_rng(seed)
    X = np.where(rng.random(d) < 0.5, rng.integers(0, 256, size=(n, d)), rng.random((n, d)) * 300.0)
    y = rng.integers(0, 2, size=n)
    y[:2] = (0, 1)
    hyper = ForestHyperparams(n_trees=n_trees, max_depth=max_depth,
                              features_per_split=int(rng.integers(1, d + 1)), seed=seed)
    model = fit_forest(_dataset(X, y), hyper)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.txt", Path(tmp) / "second.txt"
        save_model(model, str(first))
        loaded = load_model(str(first))
        save_model(loaded, str(second))
        assert second.read_bytes() == first.read_bytes()
    probe = np.vstack([X, rng.random((20, d)) * 300.0, rng.integers(0, 256, size=(20, d))])
    scalar = [2 * sum(_walk(tree, row) for tree in model.trees) > n_trees for row in probe]
    assert predict_all(model, probe) == scalar
    assert predict_all(loaded, probe) == scalar


def test_predict_rejects_wrong_shape():
    model = fit_forest(_separable_training_set(), ForestHyperparams(n_trees=3, features_per_split=2))
    with pytest.raises(ValueError):
        predict_all(model, np.asarray([[1.0, 2.0, 3.0]]))
    with pytest.raises(ValueError):
        predict_all(model, np.asarray([1.0, 2.0]))


# ---------------------------------------------------------------- build_dataset


def _tiny_run(byte_source=ByteSource.PLAINTEXT):
    cfg = RunConfig(n_blocks=48, inject_pct=40.0, seed=19, mode=Mode.SIMULATED)
    records = run_pipeline(cfg, Key128(bytes(16)))
    return records, rows_to_vectors(build_dataset(records, byte_source))[0]


def test_build_dataset_layout():
    records, data = _tiny_run()
    assert len(data) == len(records)
    assert data.X.shape == (len(records), N_FEATURES)
    for rec, row, label in zip(records, data.X, data.y):
        assert row[0] == rec.time_us
        assert bytes(int(b) for b in row[1:]) == rec.plaintext
        assert label == (rec.tag.kind is not AnomalyKind.NONE)


def test_build_dataset_orders_by_index_and_supports_ciphertext():
    records, _ = _tiny_run()
    shuffled = list(reversed(records))
    table = build_dataset(shuffled, ByteSource.CIPHERTEXT)
    assert table.index.tolist() == [rec.index for rec in records]
    data, _ = rows_to_vectors(table)
    for rec, row in zip(records, data.X):
        assert bytes(int(b) for b in row[1:]) == rec.ciphertext


def test_build_dataset_rejects_empty_input():
    with pytest.raises(ValueError):
        build_dataset([])


# ---------------------------------------------------------------- Tree

# a complete binary tree's shape: a leaf is None, a split the pair of its subtrees
_TREE_SHAPES = st.recursive(st.none(), lambda subtrees: st.tuples(subtrees, subtrees), max_leaves=40)


def _reference_preorder(shape):
    """(feature, right, depth) of a shape in pre-order, by recursion; splits use feature 0."""
    feature, right = [], []

    def visit(node):  # the depth of node's subtree
        at = len(feature)
        feature.append(-1 if node is None else 0)
        right.append(-1)
        if node is None:
            return 0
        left = visit(node[0])
        right[at] = len(feature)
        return 1 + max(left, visit(node[1]))

    depth = visit(shape)
    return feature, right, depth


@given(_TREE_SHAPES)
def test_tree_derives_the_right_links_of_its_preorder(shape):
    feature, right, depth = _reference_preorder(shape)
    n = len(feature)
    tree = Tree(feature, [0.5] * n, [(1, 0)] * n)
    assert tree.right == right
    assert tree.depth == depth


@pytest.mark.parametrize("feature, threshold, counts", [
    ([], [], []),
    ([-1], [0.0, 0.0], [(1, 0)]),
    ([-1, -1], [0.0], [(1, 0), (0, 1)]),
    ([-1, -1], [0.0, 0.0], [(1, 0), (0, 1)]),  # a node after a complete tree
    ([0, -1], [0.5, 0.0], [(0, 0), (1, 0)]),  # a split without its right subtree
    ([0], [0.5], [(0, 0)]),
])
def test_tree_rejects_lists_that_are_not_one_complete_tree(feature, threshold, counts):
    with pytest.raises(ValueError):
        Tree(feature, threshold, counts)


def test_a_tree_of_numpy_numbers_dumps_as_one_of_python_numbers(tmp_path):
    feature, threshold, counts = [2, -1, -1], [0.1 + 0.2, 0.0, 0.0], [(0, 0), (3, 1), (0, 4)]
    as_numpy = Tree(list(np.array(feature)), list(np.array(threshold)),
                    [tuple(pair) for pair in np.array(counts)])
    assert isinstance(as_numpy.threshold[0], np.float64)
    paths = []
    for tree in (Tree(feature, threshold, counts), as_numpy):
        paths.append(tmp_path / f"model{len(paths)}.txt")
        save_model(ForestModel((tree,), ForestHyperparams(n_trees=1), 17), str(paths[-1]))
    assert paths[1].read_bytes() == paths[0].read_bytes()
    assert load_model(str(paths[1])).trees == (Tree(feature, threshold, counts),)


# ---------------------------------------------------------------- serialization


def test_model_round_trip_preserves_predictions(tmp_path):
    train = _separable_training_set(n=80, seed=41)
    hyper = ForestHyperparams(n_trees=7, max_depth=None, features_per_split=2, seed=11)
    model = fit_forest(train, hyper)
    path = tmp_path / "model.txt"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.hyper == hyper
    assert loaded.n_features == model.n_features
    probe = np.random.default_rng(2).random((64, 2)) * 10.0
    assert predict_all(loaded, probe) == predict_all(model, probe)


def test_model_header_keeps_its_extreme_values_and_text(tmp_path):
    split = Tree(feature=[2, -1, -1], threshold=[0.1 + 0.2, 0.0, 0.0],
                 counts=[(0, 0), (3, 1), (0, 4)])
    hyper = ForestHyperparams(n_trees=1, max_depth=None, seed=2**64 - 1, train_fraction=0.1 + 0.2)
    path = tmp_path / "model.txt"
    save_model(ForestModel((split,), hyper, 17), str(path))
    assert path.read_text(encoding="ascii") == (
        "aeslab-forest 1\nn_features 17\nn_trees 1\nmax_depth none\nmin_samples_split 2\n"
        "features_per_split 5\nseed 18446744073709551615\ntrain_fraction 0.30000000000000004\n"
        "tree 0\ni 2 0.30000000000000004\nl 3 1\nl 0 4\nend\n"
    )
    loaded = load_model(str(path))
    assert loaded.hyper == hyper and loaded.n_features == 17
    assert loaded.hyper.max_depth is None and loaded.hyper.seed == 2**64 - 1
    assert loaded.hyper.train_fraction == 0.1 + 0.2
    for name in ("feature", "threshold", "right", "counts"):
        assert np.array_equal(getattr(loaded.trees[0], name), getattr(split, name)), name
    numpy_hyper = ForestHyperparams(n_trees=np.int64(1), max_depth=None, seed=np.uint64(2**64 - 1),
                                    train_fraction=np.float64(0.1 + 0.2))
    again = tmp_path / "numpy.txt"
    save_model(ForestModel((split,), numpy_hyper, np.int64(17)), str(again))
    assert again.read_bytes() == path.read_bytes()


def test_model_file_is_reproducible(tmp_path):
    train = _separable_training_set()
    hyper = ForestHyperparams(n_trees=5, features_per_split=2, seed=13)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_model(fit_forest(train, hyper), str(p1))
    save_model(fit_forest(train, hyper), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_version_mismatch(tmp_path):
    train = _separable_training_set(n=40)
    model = fit_forest(train, ForestHyperparams(n_trees=3, features_per_split=2))
    path = tmp_path / "model.txt"
    save_model(model, str(path))
    lines = path.read_text(encoding="ascii").splitlines()
    lines[0] = "aeslab-forest 2"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    with pytest.raises(ModelFormatError):
        load_model(str(path))


@pytest.mark.parametrize(
    "content",
    [
        "",
        "something-else 1\n",
        "aeslab-forest 1\nn_features 17\n",  # truncated header
        "aeslab-forest 1\nbogus 17\n",
        "aeslab-forest 1\nn_features 17\nn_trees 0\nmax_depth 16\nmin_samples_split 2\n"
        "features_per_split 5\nseed 1\ntrain_fraction 0.7\nend\n",  # header ForestHyperparams refuses
        "aeslab-forest 1\nn_features 0\nn_trees 1\nmax_depth 16\nmin_samples_split 2\n"
        "features_per_split 5\nseed 1\ntrain_fraction 0.7\ntree 0\nl 1 0\nend\n",
    ],
)
def test_load_rejects_malformed_files(tmp_path, content):
    path = tmp_path / "model.txt"
    path.write_text(content, encoding="ascii")
    with pytest.raises(ModelFormatError):
        load_model(str(path))


def test_load_rejects_truncated_tree_and_trailing_garbage(tmp_path):
    train = _separable_training_set(n=40)
    model = fit_forest(train, ForestHyperparams(n_trees=2, features_per_split=2))
    path = tmp_path / "model.txt"
    save_model(model, str(path))
    text = path.read_text(encoding="ascii")
    lines = text.splitlines()
    truncated = tmp_path / "cut.txt"
    truncated.write_text("\n".join(lines[:-3]) + "\n", encoding="ascii")
    with pytest.raises(ModelFormatError, match="ended inside a tree"):
        load_model(str(truncated))
    second = lines.index("tree 1")
    for name, tail, message in (("one_tree.txt", [], "ended before tree 1 of 2"),
                                ("early_end.txt", ["end"], "ended before tree 1 of 2"),
                                ("renumbered.txt", ["tree 5", *lines[second + 1:]],
                                 "expected tree 1, got 'tree 5'")):
        path = tmp_path / name
        path.write_text("\n".join(lines[:second] + tail) + "\n", encoding="ascii")
        with pytest.raises(ModelFormatError, match=message):
            load_model(str(path))
    padded = tmp_path / "padded.txt"
    padded.write_text(text + "extra stuff\n", encoding="ascii")
    with pytest.raises(ModelFormatError, match="trailing garbage"):
        load_model(str(padded))


@pytest.mark.parametrize(
    "model_text",
    [
        "aeslab-forest 1\nn_features 9223372036854775808\nn_trees 1\nmax_depth 16\n"
        "min_samples_split 2\nfeatures_per_split 5\nseed 1\ntrain_fraction 0.7\ntree 0\n"
        "i 9223372036854775807 1.0\nl 1 0\nl 0 1\nend\n",
        "aeslab-forest 1\nn_features 1\nn_trees 1\nmax_depth 16\nmin_samples_split 2\n"
        "features_per_split 1\nseed 1\ntrain_fraction 0.7\ntree 0\n"
        "i 0 1.0\nl 9223372036854775808 1\nl 0 1\nend\n",
    ],
    ids=["feature index beyond 64 bits", "leaf count beyond 64 bits"],
)
def test_load_keeps_numbers_beyond_64_bits(tmp_path, model_text):
    # trees are Python lists, so an index or count needs no fixed-width bound
    path = tmp_path / "model.txt"
    path.write_text(model_text, encoding="ascii")
    again = tmp_path / "again.txt"
    save_model(load_model(str(path)), str(again))
    assert again.read_text(encoding="ascii") == model_text


def _model_text(tmp_path):
    model = fit_forest(_separable_training_set(n=40), ForestHyperparams(n_trees=2, features_per_split=2))
    path = tmp_path / "model.txt"
    save_model(model, str(path))
    return path.read_text(encoding="ascii").splitlines()


@pytest.mark.parametrize(
    "bad_line",
    ["i 2 1.0", "i -1 1.0", "l -5 3", "i x 1.0", "l 1", "i 1 nan", "i 0 -inf", "l 0 0",
     # int() and float() take these, but save_model never writes them
     "l 0_0 3", "l +1 3", "l 01 3", "i 0_0 1.0", "i 0 1_0.5"],
)
def test_load_rejects_bad_node_lines(tmp_path, bad_line):
    lines = _model_text(tmp_path)
    # the first node line of the same kind, so a split stays a split and a leaf a leaf
    first_node = next(k for k in range(lines.index("tree 0") + 1, len(lines))
                      if lines[k][:2] == bad_line[:2])
    lines[first_node] = bad_line
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    with pytest.raises(ModelFormatError):
        load_model(str(path))


@pytest.mark.parametrize(
    "field, value",
    [("n_features", "x"), ("n_trees", "x"), ("max_depth", "1.5"), ("min_samples_split", "two"),
     ("features_per_split", "5.0"), ("seed", "-"), ("train_fraction", "0.7.1"),
     ("seed", "0_1"), ("seed", "007"), ("max_depth", "1_6"), ("n_trees", "+2"),
     ("train_fraction", "0_0.7")],
)
def test_load_names_an_unparsable_header_field(tmp_path, field, value):
    lines = _model_text(tmp_path)
    at = next(k for k, line in enumerate(lines) if line.split()[0] == field)
    lines[at] = f"{field} {value}"
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    with pytest.raises(ModelFormatError, match=field):
        load_model(str(path))


def test_load_rejects_non_ascii_bytes(tmp_path):
    text = "\n".join(_model_text(tmp_path)) + "\n"
    path = tmp_path / "bad.txt"
    path.write_bytes(text.encode().replace(b"tree 0", b"tree \xc3\xa9"))
    with pytest.raises(ModelFormatError, match="not ASCII"):
        load_model(str(path))


def _deep_model(max_depth, levels, leaves=True):
    header = ["aeslab-forest 1", "n_features 1", "n_trees 1", f"max_depth {max_depth}",
              "min_samples_split 2", "features_per_split 1", "seed 1", "train_fraction 0.7"]
    body = [f"i 0 {float(k)}" for k in range(levels)]
    if leaves:
        body += ["l 0 1"] * (levels + 1)
    return "\n".join(header + ["tree 0"] + body + ["end"]) + "\n"


def test_load_reads_deep_trees_without_recursion(tmp_path):
    path = tmp_path / "deep.txt"
    path.write_text(_deep_model("none", 5000), encoding="ascii")
    model = load_model(str(path))
    assert predict_all(model, np.asarray([[-1.0], [1e9]])) == [True, True]
    again = tmp_path / "again.txt"
    save_model(model, str(again))
    assert again.read_text(encoding="ascii") == path.read_text(encoding="ascii")

    for name, text in (("truncated.txt", _deep_model("none", 5000, leaves=False)),
                       ("too_deep.txt", _deep_model(16, 5000))):
        path = tmp_path / name
        path.write_text(text, encoding="ascii")
        with pytest.raises(ModelFormatError):
            load_model(str(path))


# ---------------------------------------------------------------- loader against the oracle


def _load_outcome(load, path):
    """repr of what load gives for path, or the message of its ModelFormatError: repr
    tells -0.0 from 0.0 and a numpy number from a Python one."""
    error = ValueError if load is oracle_model.load else ModelFormatError
    try:
        model = load(str(path))
    except error as exc:
        return str(exc)
    return repr(model if load is oracle_model.load else oracle_model.plain(model))


def _assert_loads_as_the_oracle(path):
    """load_model gives what the oracle gives, and so does the bulk pass
    where it takes the file; returns the bulk pass's model or None."""
    want = _load_outcome(oracle_model.load, path)
    assert _load_outcome(load_model, path) == want
    exact = detect_forest._read_exact(Path(path).read_bytes())
    assert exact is None or repr(oracle_model.plain(exact)) == want
    return exact


# thresholds save_model writes in every form str gives a float: subnormal,
# signed zero, huge, exponent and 17-digit forms among them
_ODD_THRESHOLDS = [5e-324, 2.5e-310, -0.0, 0.0, 1e308, -1.7976931348623157e308, 1e-05, 1e16,
                   0.1 + 0.2, 64.5, 255.5]
_THRESHOLDS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from(_ODD_THRESHOLDS))
_COUNTS = st.one_of(
    st.tuples(st.integers(0, 40), st.integers(0, 40)).filter(any),
    st.integers(1, 40).map(lambda c: (c, c)),  # tied
    st.tuples(st.integers(0, 10**18 - 1), st.integers(1, 10**18 - 1)),
    st.tuples(st.integers(0, 2**70), st.integers(1, 2**70)),  # 19 digits and more
)


@st.composite
def _random_trees(draw, n_features):
    """A tree of a random shape, or a chain of 1,001 to 1,100 splits, each
    with one leaf child, whose numbers come from a seeded generator."""
    if draw(st.integers(0, 9)):
        feature, threshold, counts = [], [], []
        for split in _split_flags(draw(_TREE_SHAPES)):
            feature.append(draw(st.integers(0, n_features)) if split else -1)  # n_features is out
            threshold.append(draw(_THRESHOLDS) if split else 0.0)
            counts.append((0, 0) if split else draw(_COUNTS))
        return Tree(feature, threshold, counts)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kinds = []
    goes_left = [rng.random() < 0.5 for _ in range(rng.randint(1001, 1100))]
    for left in goes_left:
        kinds += [True] if left else [True, False]  # a split, and a leaf left of the chain
    kinds += [False] + [False for left in reversed(goes_left) if left]
    feature = [rng.randrange(min(n_features, 17)) if split else -1 for split in kinds]
    threshold = [rng.choice(_ODD_THRESHOLDS) if rng.random() < 0.2 else rng.uniform(-1e3, 1e3)
                 if split else 0.0 for split in kinds]
    counts = [(0, 0) if split else (rng.randint(0, 9), rng.randint(1, 9)) for split in kinds]
    return Tree(feature, threshold, counts)


def _split_flags(shape):
    """Whether each node of a shape (see _TREE_SHAPES) splits, in pre-order."""
    flags, pending = [], [shape]
    while pending:
        node = pending.pop()
        flags.append(node is not None)
        if node is not None:
            pending += [node[1], node[0]]
    return flags


def _depth(tree):
    """The depth of the deepest leaf of a tree."""
    depth, deepest = [0] * len(tree.feature), 0
    for node, f in enumerate(tree.feature):
        if f >= 0:
            depth[node + 1] = depth[tree.right[node]] = depth[node] + 1
            deepest = max(deepest, depth[node] + 1)
    return deepest


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_load_model_agrees_with_the_line_reader(data):
    n_features = data.draw(st.sampled_from([1, 2, 17, 2**63, 2**64 + 5]))
    trees = data.draw(st.lists(_random_trees(n_features), min_size=1, max_size=4))
    deepest = max(map(_depth, trees))
    hyper = ForestHyperparams(
        n_trees=len(trees) + data.draw(st.sampled_from([0, 0, 0, -1, 1])) or 1,
        max_depth=data.draw(st.one_of(st.none(), st.integers(max(deepest - 1, 0), deepest + 1))),
        seed=data.draw(st.integers(0, 2**64 - 1)),
        train_fraction=data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "model.txt", Path(tmp) / "again.txt"
        save_model(ForestModel(tuple(trees), hyper, n_features), str(path))
        exact = _assert_loads_as_the_oracle(path)
        try:
            save_model(load_model(str(path)), str(again))
        except ModelFormatError:
            pass  # the oracle refuses it too
        else:
            assert again.read_bytes() == path.read_bytes()
    small = all(f < 10**18 and max(c) < 10**18 for tree in trees
                for f, c in zip(tree.feature, tree.counts))
    fits = (hyper.n_trees == len(trees) and all(f < n_features for tree in trees for f in tree.feature)
            and (hyper.max_depth is None or deepest <= hyper.max_depth))
    assert (exact is not None) == (small and fits)


_ONE_TREE = ("aeslab-forest 1\nn_features 1\nn_trees 1\nmax_depth none\nmin_samples_split 2\n"
             "features_per_split 1\nseed 1\ntrain_fraction 0.7\ntree 0\ni 0 1.0\nl 1 0\nl 0 1\nend\n")


@pytest.mark.parametrize("edit", [
    ("i 0 ", "i\t0 "), ("i 0 ", "i  0 "), ("i 0 ", "i 0  "), ("l ", " l "), ("\n", "\r\n"),
    ("l 0 1\n", "l 0 1 \n"), ("i 0 ", "i\x0b0 "), ("i 0 ", "i 0\x0c "), ("l 0 1", "l 0\x1c 1"),
    ("l 0 1", "l +0 1"), ("l 0 1", "l 00 1"), ("l 0 1", "l 0 01"), ("l 0 1", "l 0 1_0"),
    ("l 0 1", "l -0 1"), ("i 0 1.0", "i 0 1E0"), ("i 0 1.0", "i 0 1_0.0"), ("i 0 1.0", "i 0 inf"),
    ("i 0 1.0", "i 0 nan"), ("i 0 1.0", "i 0 1e999"), ("i 0 1.0", "i 0 1.0.0"), ("i 0 1.0", "i 0 "),
    ("i 0 ", "i 1 "), ("i 0 ", "i 01 "), ("i 0 ", "i -0 "), ("i 0 ", f"i {2**63} "),
    ("l 0 1", f"l 0 {2**63}"), ("l 0 1", f"l {2**64} 1"), ("l 0 1", "l 0 1000000000000000000"),
    ("tree 0", "tree 00"), ("tree 0", "tree  0"), ("end\n", "end"), ("end\n", "end\n\n"),
    ("end\n", "end \n"), ("l 0 1", "l 0 0"), ("max_depth none", "max_depth 0"),
    ("i 0 1.0\nl 1 0\n", "l 1 0\ni 0 1.0\n"),  # the tree is complete before its last node
    ("l 0 1\n", "l 0 1\nl 0 1\n"), ("l 1 0\n", ""),  # a node too many, one too few
    ("l 1 0", "e 2124 0"), ("i 0 1.0", "ii 0 1.5"),  # a node line of no kind
    # two trees, the first or both with no node
    (_ONE_TREE, _ONE_TREE.replace("n_trees 1", "n_trees 2").replace("tree 0\n", "tree 0\ntree 1\n")),
    (_ONE_TREE, _ONE_TREE.replace("n_trees 1", "n_trees 2").replace(
        "tree 0\ni 0 1.0\nl 1 0\nl 0 1\n", "tree 0\ntree 1\n")),
])
def test_load_sends_files_save_model_never_writes_to_the_line_reader(tmp_path, edit):
    path = tmp_path / "model.txt"
    path.write_text(_ONE_TREE, encoding="ascii")
    assert _assert_loads_as_the_oracle(path) is not None
    path.write_bytes(_ONE_TREE.replace(*edit, 1).encode("ascii"))
    assert _assert_loads_as_the_oracle(path) is None


@pytest.mark.parametrize("edit", [
    *(("i 0 1.0", f"i 0 {spelling}")
      for spelling in ["1.00", "+1.0", "1e0", "01.0", "1.", "10e-1", "-0.0", "-1e+300"]),
    ("l 0 1", "l 0 999999999999999999"), ("l 1 0", "l 999999999999999999 0"),
])
def test_load_reads_the_largest_counts_and_any_threshold_spelling_in_bulk(tmp_path, edit):
    # as in the line pass, a threshold is float() of its text, however it is spelled
    path = tmp_path / "model.txt"
    path.write_text(_ONE_TREE.replace(*edit, 1), encoding="ascii")
    assert _assert_loads_as_the_oracle(path) is not None


@pytest.mark.parametrize("levels", [1000])
def test_load_checks_max_depth_on_deep_trees_as_the_line_reader(tmp_path, levels):
    left_chain = "".join(f"i 0 {k}.5\n" for k in range(levels)) + "l 0 1\n" * (levels + 1)
    right_chain = "".join(f"i 0 {k}.5\nl 1 0\n" for k in range(levels)) + "l 0 1\n"
    for chain in (left_chain, right_chain):
        # the chain alone, and as the last of five trees after shallower ones
        for trees in ([chain], ["l 1 1\n"] * 3 + ["i 0 2.5\n" * 2 + "l 0 1\n" * 3, chain]):
            for max_depth in ("none", levels - 1, levels, levels + 1):
                path = tmp_path / "deep.txt"
                path.write_text(
                    f"aeslab-forest 1\nn_features 1\nn_trees {len(trees)}\nmax_depth {max_depth}\n"
                    "min_samples_split 2\nfeatures_per_split 1\nseed 1\ntrain_fraction 0.7\n"
                    + "".join(f"tree {i}\n{tree}" for i, tree in enumerate(trees)) + "end\n",
                    encoding="ascii")
                exact = _assert_loads_as_the_oracle(path)
                assert (exact is None) == (max_depth == levels - 1)


def test_save_model_failing_midway_keeps_the_earlier_file(tmp_path):
    hyper = ForestHyperparams(n_trees=2, features_per_split=2)
    model = fit_forest(_separable_training_set(n=40), hyper)
    path = tmp_path / "model.txt"
    save_model(model, str(path))
    before = path.read_bytes()
    broken = ForestModel((model.trees[0], object()), model.hyper, model.n_features)
    with pytest.raises(AttributeError):
        save_model(broken, str(path))  # fails after writing tree 0
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.txt"]
