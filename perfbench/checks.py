"""Output checks, run by run.py after the timed loop has ended.

Each check reads the outputs that runner.py saved from the first completed
operation and returns a list of problems (empty when the outputs are
right) and, where the workload detects anything, its detection quality.
"""

from __future__ import annotations

import csv
from pathlib import Path
from statistics import fmean
from typing import Dict, List, Sequence, Tuple

import numpy as np

Quality = Dict[str, float]


def _ciphertext_problems(rec, key_hex: str) -> List[str]:
    """Every ciphertext must equal the cryptography package's AES-128-ECB."""
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    enc = Cipher(algorithms.AES(bytes.fromhex(key_hex)), modes.ECB()).encryptor()
    expected = enc.update(rec["plaintext"].tobytes()) + enc.finalize()
    expected = np.frombuffer(expected, np.uint8).reshape(-1, 16)
    bad = np.nonzero(np.any(expected != rec["ciphertext"], axis=1))[0]
    if bad.size:
        return [f"{bad.size} ciphertexts differ from the reference AES, first at block {bad[0]}"]
    return []


def _record_problems(rec, n: int, real: bool) -> List[str]:
    problems = []
    if not np.array_equal(rec["index"], np.arange(n)):
        problems.append(f"records are not blocks 0..{n - 1} in order")
    times = rec["time_us"]
    if not (np.all(np.isfinite(times)) and np.all(times > 0)):
        problems.append("a block latency is not a positive finite number")
    if real and np.any(rec["kind"] != "none"):
        problems.append("a block was tagged anomalous with injection at 0%")
    return problems


def _counts(preds: Sequence[bool], truths: Sequence[bool]) -> Tuple[int, int, int, int]:
    p = np.asarray(preds, dtype=bool)
    t = np.asarray(truths, dtype=bool)
    return (int(np.sum(p & t)), int(np.sum(p & ~t)), int(np.sum(~p & t)), int(np.sum(~p & ~t)))


def _f1(tp: int, fp: int, fn: int) -> float:
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def _recall(preds, kinds, kind: str) -> float:
    mask = np.asarray(kinds) == kind
    return float(np.mean(np.asarray(preds, dtype=bool)[mask])) if mask.any() else 0.0


def _bool_col(rows, name: str) -> List[bool]:
    return [r[name] == "true" for r in rows]


def _read_csv(path: Path) -> List[dict]:
    with open(path, newline="", encoding="ascii") as handle:
        return list(csv.DictReader(handle))


def check_real(ref_dir: Path, key_hex: str, n: int) -> Tuple[List[str], Quality]:
    rec = np.load(ref_dir / "records.npz")
    return _record_problems(rec, n, real=True) + _ciphertext_problems(rec, key_hex), {}


def check_sim(ref_dir: Path, key_hex: str, n: int, run_seed: int,
              train_fraction: float) -> Tuple[List[str], Quality]:
    from aeslab.detect_forest import split_train_test
    from aeslab.metrics_report import read_blocks_csv, rows_to_vectors

    rec = np.load(ref_dir / "records.npz")
    problems = _record_problems(rec, n, real=False) + _ciphertext_problems(rec, key_hex)
    rows = _read_csv(ref_dir / "blocks")
    if len(rows) != n:
        return problems + [f"blocks CSV has {len(rows)} rows, expected {n}"], {}
    csv_bytes = np.array([[int(r[f"b{i}"], 16) for i in range(16)] for r in rows], np.uint8)
    if not np.array_equal(csv_bytes, rec["plaintext"]):
        problems.append("exported feature bytes differ from the encrypted plaintext")
    kinds = [r["tag"] for r in rows]
    if kinds != rec["kind"].tolist():
        problems.append("exported tags differ from the encrypted blocks' tags")
    truths = _bool_col(rows, "truth_label")
    if truths != [k != "none" for k in kinds]:
        problems.append("truth labels disagree with tags")

    times = rec["time_us"].tolist()
    cut = fmean(times) + 3.0 * (max(times) - min(times)) / len(times)
    threshold = _bool_col(rows, "threshold_pred")
    if threshold != [t > cut for t in times]:
        problems.append("threshold flags differ from time_us > mean + 3*(max-min)/n")

    vectors, _ = rows_to_vectors(read_blocks_csv(ref_dir / "blocks"))
    test = split_train_test(vectors, train_fraction, run_seed).test_indices
    forest = _bool_col(rows, "forest_pred")

    def pick(col):
        return [col[i] for i in test]

    recount = {
        "threshold": _counts(pick(threshold), pick(truths)),
        "forest": _counts(pick(forest), pick(truths)),
    }
    for row in _read_csv(ref_dir / "summary"):
        got = tuple(int(row[k]) for k in ("tp", "fp", "fn", "tn"))
        if recount.get(row["detector"]) != got:
            problems.append(f"summary counts for {row['detector']} {got} differ from the "
                            f"recount {recount.get(row['detector'])} on the test split")
    tk = pick(kinds)
    quality = {
        "forest_f1": _f1(*recount["forest"][:3]),
        "forest_fault_recall": _recall(pick(forest), tk, "fault"),
        "threshold_f1": _f1(*recount["threshold"][:3]),
        "threshold_delay_recall": _recall(pick(threshold), tk, "delay"),
    }
    return problems, quality


def check_predict(ref_dir: Path, csv_path: Path, n: int) -> Tuple[List[str], Quality]:
    rows = _read_csv(csv_path)
    lines = (ref_dir / "stdout.txt").read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != "index,predicted" or len(lines) < n + 1:
        return ["predict output lacks the index,predicted header or rows"], {}
    pairs = [line.split(",") for line in lines[1:n + 1]]
    if [p[0] for p in pairs] != [r["index"] for r in rows]:
        return ["predicted indices differ from the CSV's"], {}
    if any(p[1] not in ("true", "false") for p in pairs):
        return ["a prediction is neither true nor false"], {}
    preds = [p[1] == "true" for p in pairs]
    truths = _bool_col(rows, "truth_label")
    tp, fp, fn, tn = _counts(preds, truths)
    expected = f"forest: tp={tp} fp={fp} fn={fn} tn={tn} "
    problems = []
    if len(lines) != n + 2 or not lines[n + 1].startswith(expected):
        problems.append(f"scored report does not match the recount {expected.strip()}")
    quality = {
        "forest_f1": _f1(tp, fp, fn),
        "forest_fault_recall": _recall(preds, [r["tag"] for r in rows], "fault"),
    }
    return problems, quality
