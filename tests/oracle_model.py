"""Scalar reference reader for model files, kept independent of the library.

This is the line-at-a-time logic of load_model before it gained a bulk
pass, which reads a file in the exact form save_model writes by the byte
offsets of its line ends and spaces, kept so load_model can be compared
with it on any input. It returns plain data, (n_features, header, trees):
header maps each hyperparameter to its value and each tree is its three
pre-order lists (feature, threshold, counts). A file it refuses raises
ValueError with the message load_model's ModelFormatError must carry.
"""

import math
from typing import Dict, Iterator, List, Optional, Tuple

MAGIC, VERSION = "aeslab-forest", 1

Trees = List[Tuple[List[int], List[float], List[Tuple[int, int]]]]


def _int(text: str) -> int:
    value = int(text)
    if str(value) != text:  # int() alone also takes "+", "_" and leading zeros
        raise ValueError(text)
    return value


def _float(text: str) -> float:
    if "_" in text:
        raise ValueError(text)
    return float(text)


def _optional_int(text: str) -> Optional[int]:
    return None if text == "none" else _int(text)


_FIELDS = (
    ("n_features", _int), ("n_trees", _int), ("max_depth", _optional_int),
    ("min_samples_split", _int), ("features_per_split", _int), ("seed", _int),
    ("train_fraction", _float),
)


def _validate(h: Dict[str, object]) -> None:
    """The checks of ForestHyperparams.__post_init__, in its order and words."""
    if h["n_trees"] < 1:
        raise ValueError("n_trees must be at least 1")
    if h["max_depth"] is not None and h["max_depth"] < 0:
        raise ValueError("max_depth must be None or non-negative")
    if h["min_samples_split"] < 2:
        raise ValueError("min_samples_split must be at least 2")
    if h["features_per_split"] < 1:
        raise ValueError("features_per_split must be at least 1")
    if not 0 <= h["seed"] < 2**64:
        raise ValueError("seed must be a non-negative 64-bit integer")
    if not 0.0 < h["train_fraction"] < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")


def _header_field(lines: Iterator[str], name: str, kind):
    try:
        parts = next(lines).split()
    except StopIteration:
        raise ValueError("model file ended inside the header") from None
    if len(parts) != 2 or parts[0] != name:
        raise ValueError(f"expected header field {name!r}, got {' '.join(parts)!r}")
    try:
        return kind(parts[1])
    except ValueError:
        raise ValueError(f"unparsable value of header field {name!r}: {parts[1]!r}") from None


def _read_tree(lines: Iterator[str], max_depth: Optional[int], n_features: int):
    feature: List[int] = []
    threshold: List[float] = []
    counts: List[Tuple[int, int]] = []
    pending = [0]  # depths of the nodes whose lines come next, next on top
    while pending:
        depth = pending.pop()
        try:
            parts = next(lines).split()
        except StopIteration:
            raise ValueError("model file ended inside a tree") from None
        line = " ".join(parts)
        if len(parts) != 3 or parts[0] not in ("i", "l"):
            raise ValueError(f"unrecognized node line: {line!r}")
        try:
            a, b = _int(parts[1]), (_int if parts[0] == "l" else _float)(parts[2])
        except ValueError:
            raise ValueError(f"unparsable node line: {line!r}") from None
        if parts[0] == "l":
            if min(a, b) < 0:
                raise ValueError(f"negative class count in leaf: {line!r}")
            if a == b == 0:
                raise ValueError(f"leaf holds no training samples: {line!r}")
            feature.append(-1)
            threshold.append(0.0)
            counts.append((a, b))
        elif not 0 <= a < n_features:
            raise ValueError(f"feature index outside [0, {n_features}): {line!r}")
        elif not math.isfinite(b):
            raise ValueError(f"split threshold is not a finite number: {line!r}")
        elif max_depth is not None and depth >= max_depth:
            raise ValueError(f"tree grows deeper than max_depth {max_depth}")
        else:
            feature.append(a)
            threshold.append(b)
            counts.append((0, 0))
            pending += [depth + 1, depth + 1]
    return feature, threshold, counts


def load(path) -> Tuple[int, Dict[str, object], Trees]:
    """(n_features, header, trees) of a model file; ValueError for a bad one."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        lines = iter(data.decode("ascii").splitlines())
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"model file is not ASCII: byte {data[exc.start]:#04x} at offset {exc.start}"
        ) from None
    try:
        first = next(lines).split()
    except StopIteration:
        raise ValueError("model file is empty") from None
    if len(first) != 2 or first[0] != MAGIC:
        raise ValueError("not a forest model file")
    if first[1] != str(VERSION):
        raise ValueError(f"unsupported model format version {first[1]}")
    header = {name: _header_field(lines, name, kind) for name, kind in _FIELDS}
    n_features = header.pop("n_features")
    try:
        _validate(header)
    except ValueError as exc:
        raise ValueError(f"invalid model header: {exc}") from None
    if n_features < 1:
        raise ValueError("invalid model header: n_features must be at least 1")
    trees: Trees = []
    for i in range(header["n_trees"]):
        marker = next(lines, "end").split()
        if marker == ["end"]:
            raise ValueError(f"model file ended before tree {i} of {header['n_trees']}")
        if marker != ["tree", str(i)]:
            raise ValueError(f"expected tree {i}, got {' '.join(marker)!r}")
        trees.append(_read_tree(lines, header["max_depth"], n_features))
    if list(lines) != ["end"]:
        raise ValueError("model file has trailing garbage or a missing end marker")
    return n_features, header, trees


def plain(model) -> Tuple[int, Dict[str, object], Trees]:
    """A ForestModel as the plain data load returns, read by attribute only."""
    return (model.n_features, dict(vars(model.hyper)),
            [(tree.feature, tree.threshold, tree.counts) for tree in model.trees])
