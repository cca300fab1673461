"""Detection scoring and CSV export.

The positive class is "anomalous". Undefined ratios (no predicted
positives, no actual positives, zero precision+recall) score 0.0 rather
than raising, so sweeps over degenerate runs keep working.

Two files describe a run, named by runid s{seed}_n{blocks}_p{pct}:
  blocks_<runid>.csv   one row per block (times to 3 decimals, bytes hex)
  summary_<runid>.csv  one row per detector with config and metrics
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from .cipher import BlockRecord
from .detect_forest import ByteSource, Dataset, feature_dataset
from .workload import RunConfig


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class DetectionReport:
    detector: str
    counts: ConfusionCounts
    accuracy: float
    precision: float
    recall: float
    f1: float
    predictions: Tuple[bool, ...]


@dataclass(frozen=True)
class ComparisonReport:
    accuracy_gain: float  # forest accuracy minus threshold accuracy
    threshold_fp: int
    threshold_fn: int
    forest_fp: int
    forest_fn: int


def score(predictions: Sequence[bool], truths: Sequence[bool], detector: str) -> DetectionReport:
    """Confusion counts and the derived ratios for one detector."""
    if len(predictions) != len(truths):
        raise ValueError(
            f"got {len(predictions)} predictions for {len(truths)} truth labels"
        )
    if not truths:
        raise ValueError("cannot score an empty evaluation set")
    tp = fp = fn = tn = 0
    for pred, truth in zip(predictions, truths):
        if pred and truth:
            tp += 1
        elif pred:
            fp += 1
        elif truth:
            fn += 1
        else:
            tn += 1
    counts = ConfusionCounts(tp, fp, fn, tn)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = (tp + tn) / counts.total
    return DetectionReport(detector, counts, accuracy, precision, recall, f1, tuple(bool(p) for p in predictions))


def compare(threshold_report: DetectionReport, forest_report: DetectionReport) -> ComparisonReport:
    """Accuracy gap and error counts; both reports must cover the same records."""
    t_counts, f_counts = threshold_report.counts, forest_report.counts
    if t_counts.total != f_counts.total or (
        t_counts.tp + t_counts.fn != f_counts.tp + f_counts.fn
    ):
        raise ValueError("reports were scored on different record sets")
    return ComparisonReport(
        accuracy_gain=forest_report.accuracy - threshold_report.accuracy,
        threshold_fp=t_counts.fp,
        threshold_fn=t_counts.fn,
        forest_fp=f_counts.fp,
        forest_fn=f_counts.fn,
    )


def run_id(seed: int, n_blocks: int, inject_pct: float) -> str:
    pct = f"{inject_pct:g}"
    return f"s{seed}_n{n_blocks}_p{pct}"


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


BLOCK_COLUMNS = (
    ["index", "time_us", "tag", "truth_label", "threshold_pred", "forest_pred"]
    + [f"b{i}" for i in range(16)]
)

SUMMARY_COLUMNS = [
    "detector", "tp", "fp", "fn", "tn",
    "accuracy", "precision", "recall", "f1", "accuracy_gain",
    "n_blocks", "inject_pct", "seed", "mode",
    "delay_min_us", "delay_max_us", "input_dist", "work_amplification",
    "byte_source", "threshold_fit", "threshold_us",
]


def export_csv(
    records: Sequence[BlockRecord],
    reports: Sequence[DetectionReport],
    comparison: ComparisonReport,
    out_dir: Union[str, Path],
    *,
    predictions: Mapping[str, Sequence[bool]],
    cfg: RunConfig,
    byte_source: ByteSource,
    threshold_fit: str,
    threshold_us: float,
) -> Tuple[Path, Path]:
    """Write the per-block and summary files; returns their paths.

    predictions maps detector name to one boolean per record (whole run,
    not just the scored subset).
    """
    for name, preds in predictions.items():
        if len(preds) != len(records):
            raise ValueError(f"{name} predictions cover {len(preds)} of {len(records)} records")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rid = run_id(cfg.seed, cfg.n_blocks, cfg.inject_pct)
    blocks_path = out / f"blocks_{rid}.csv"
    summary_path = out / f"summary_{rid}.csv"

    thresh_preds = predictions["threshold"]
    forest_preds = predictions["forest"]
    with open(blocks_path, "w", newline="", encoding="ascii") as handle:
        writer = csv.writer(handle)
        writer.writerow(BLOCK_COLUMNS)
        for i, rec in enumerate(records):
            row = [
                rec.index,
                f"{rec.time_us:.3f}",
                rec.tag.kind.value,
                _fmt_bool(rec.truth_label),
                _fmt_bool(thresh_preds[i]),
                _fmt_bool(forest_preds[i]),
            ] + [f"{b:02x}" for b in byte_source.of(rec)]
            writer.writerow(row)

    with open(summary_path, "w", newline="", encoding="ascii") as handle:
        writer = csv.writer(handle)
        writer.writerow(SUMMARY_COLUMNS)
        for report in reports:
            c = report.counts
            writer.writerow([
                report.detector, c.tp, c.fp, c.fn, c.tn,
                f"{report.accuracy:.6f}", f"{report.precision:.6f}",
                f"{report.recall:.6f}", f"{report.f1:.6f}",
                f"{comparison.accuracy_gain:.6f}",
                cfg.n_blocks, f"{cfg.inject_pct:g}", cfg.seed,
                cfg.mode.value, f"{cfg.delay_min_us:g}", f"{cfg.delay_max_us:g}",
                cfg.input_dist.value, cfg.work_amplification,
                byte_source.value, threshold_fit, f"{threshold_us:.3f}",
            ])

    return blocks_path, summary_path


@dataclass(frozen=True)
class BlockRow:
    """One parsed per-block CSV row; prediction/label fields may be absent."""

    index: int
    time_us: float
    tag: Optional[str]
    truth_label: Optional[bool]
    threshold_pred: Optional[bool]
    forest_pred: Optional[bool]
    feature_bytes: bytes


def _parse_bool(raw: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ValueError(f"expected true/false, got {raw!r}")


def _parse_row(raw: Mapping[str, Optional[str]], fields: set, byte_cols: List[str]) -> BlockRow:
    def optional_bool(name: str) -> Optional[bool]:
        return _parse_bool(raw[name]) if name in fields else None

    if None in raw.values():
        raise ValueError("row has fewer fields than the header")
    time_us = float(raw["time_us"])
    if not math.isfinite(time_us):
        raise ValueError(f"time_us is not a finite number: {raw['time_us']!r}")
    return BlockRow(
        index=int(raw["index"]),
        time_us=time_us,
        tag=raw.get("tag"),
        truth_label=optional_bool("truth_label"),
        threshold_pred=optional_bool("threshold_pred"),
        forest_pred=optional_bool("forest_pred"),
        feature_bytes=bytes(int(raw[c], 16) for c in byte_cols),
    )


def read_blocks_csv(path: Union[str, Path]) -> List[BlockRow]:
    """Parse a per-block CSV back into rows.

    index, time_us, and the 16 byte columns are required; tag, truth_label,
    and the prediction columns are optional so externally produced feature
    tables can be scored too. A malformed row, a non-finite time_us, or a
    repeated index raises ValueError naming the file line.
    """
    with open(path, "r", newline="", encoding="ascii") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty CSV")
        fields = set(reader.fieldnames)
        byte_cols = [f"b{i}" for i in range(16)]
        missing = {"index", "time_us", *byte_cols} - fields
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        rows: List[BlockRow] = []
        seen = set()
        for raw in reader:
            try:
                row = _parse_row(raw, fields, byte_cols)
                if row.index in seen:
                    raise ValueError(f"duplicate index {row.index}")
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
            seen.add(row.index)
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows


def rows_to_vectors(rows: Sequence[BlockRow]) -> Tuple[Dataset, bool]:
    """Feature table from parsed rows; the flag says if labels exist (else y is all False)."""
    has_labels = all(r.truth_label is not None for r in rows)
    labels = [r.truth_label for r in rows] if has_labels else [False] * len(rows)
    data = feature_dataset([r.time_us for r in rows], [r.feature_bytes for r in rows], labels)
    return data, has_labels
