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
import re
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import BinaryIO, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .cipher import BlockRecord
from .detect_forest import ByteSource, Dataset, feature_dataset
from .files import atomic_write
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


@dataclass(frozen=True)
class ComparisonReport:
    accuracy_gain: float  # forest accuracy minus threshold accuracy


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
    return DetectionReport(detector, counts, accuracy, precision, recall, f1)


def compare(threshold_report: DetectionReport, forest_report: DetectionReport) -> ComparisonReport:
    """Accuracy gap of forest over threshold; both reports must cover the same records."""
    t_counts, f_counts = threshold_report.counts, forest_report.counts
    if t_counts.total != f_counts.total or (
        t_counts.tp + t_counts.fn != f_counts.tp + f_counts.fn
    ):
        raise ValueError("reports were scored on different record sets")
    return ComparisonReport(forest_report.accuracy - threshold_report.accuracy)


def run_id(seed: int, n_blocks: int, inject_pct: float) -> str:
    pct = f"{inject_pct:g}"
    return f"s{seed}_n{n_blocks}_p{pct}"


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


BYTE_COLUMNS = tuple(f"b{i}" for i in range(16))
FLAG_COLUMNS = ("truth_label", "threshold_pred", "forest_pred")
BLOCK_COLUMNS = ["index", "time_us", "tag", *FLAG_COLUMNS, *BYTE_COLUMNS]

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
    with atomic_write(blocks_path, newline="", encoding="ascii") as handle:
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

    with atomic_write(summary_path, newline="", encoding="ascii") as handle:
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


# rows parsed per step: only one step's cells are held as Python strings at a time,
# which keeps peak memory near that of the finished arrays
_STEP_ROWS = 1024

# value of each ASCII code as a hex digit, 16 where it is none
_NIBBLE = np.full(256, 16, dtype=np.uint8)
_NIBBLE[np.frombuffer(b"0123456789abcdef", dtype=np.uint8)] = np.arange(16)
_NIBBLE[np.frombuffer(b"ABCDEF", dtype=np.uint8)] = np.arange(10, 16)

_REQUIRED_COLUMNS = {"index", "time_us", *BYTE_COLUMNS}


@dataclass(frozen=True)
class BlockTable:
    """A per-block CSV as columns, one entry per data row in file order.

    index is int64[n], time_us float64[n] and feature_bytes uint8[n, 16].
    tag holds one string per row and each flag column one bool per row;
    each of these is None when the file lacks its column.
    """

    index: np.ndarray
    time_us: np.ndarray
    feature_bytes: np.ndarray
    tag: Optional[Tuple[str, ...]]
    truth_label: Optional[np.ndarray]
    threshold_pred: Optional[np.ndarray]
    forest_pred: Optional[np.ndarray]

    def __len__(self) -> int:
        return self.index.size


def _hex_bytes(cells: List[str]) -> np.ndarray:
    """int(cell, 16) of each cell, which must lie in [0, 256): by table lookup
    where every cell is two hex digits, as export_csv writes them, else through int()."""
    text = ",".join(cells) + ","
    if len(text) == 3 * len(cells):
        # every cell is two hex digits iff every third character is a comma and the rest are digits
        codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, 3)
        nibbles = _NIBBLE[codes[:, :2]]
        if nibbles.max(initial=0) < 16 and (codes[:, 2] == ord(",")).all():
            return nibbles[:, 0] << 4 | nibbles[:, 1]
    values = np.fromiter((int(cell, 16) for cell in cells), np.int64, len(cells))
    if ((values < 0) | (values > 255)).any():
        raise ValueError
    return values.astype(np.uint8)


def _step_columns(rows: List[List[str]], where: Mapping[str, int], width: int) -> dict:
    """One step's columns; blank rows are dropped, extra fields ignored, and a bad row raises."""
    if set(map(len, rows)) != {width}:
        rows = [row[:width] for row in rows if row]
        if any(len(row) < width for row in rows):
            raise ValueError
    n = len(rows)
    flat = list(chain.from_iterable(rows))
    column = {name: flat[j::width] for name, j in where.items()}
    cols = {
        "time_us": np.fromiter(map(float, column["time_us"]), np.float64, n),
        "index": np.fromiter(map(int, column["index"]), np.int64, n),
        "feature_bytes": np.stack([_hex_bytes(column[name]) for name in BYTE_COLUMNS], axis=1),
    }
    if not np.isfinite(cols["time_us"]).all():
        raise ValueError
    for name in FLAG_COLUMNS:
        if name in where:
            cells = column[name]
            cols[name] = np.fromiter(map("true".__eq__, cells), bool, n)
            if np.count_nonzero(cols[name]) + cells.count("false") != n:
                raise ValueError
    if "tag" in where:
        cols["tag"] = column["tag"]
    return cols


def _read_columns(path: Union[str, Path]) -> BlockTable:
    """The accept pass: the table of a good file, an exception without a message for a bad one."""
    with open(path, "r", newline="", encoding="ascii") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        if not _REQUIRED_COLUMNS <= set(header):
            raise ValueError
        where = {name: j for j, name in enumerate(header)}
        steps = []
        while rows := list(islice(reader, _STEP_ROWS)):
            steps.append(_step_columns(rows, where, len(header)))
            del rows  # before the next step is read, so that one step's cells are held, not two
    if not steps:
        raise ValueError

    def joined(name: str) -> Optional[np.ndarray]:
        return np.concatenate([s[name] for s in steps]) if name in steps[0] else None

    index = joined("index")
    ranked = np.sort(index)  # np.unique would import numpy.ma, about 1 MiB, on first use
    if not index.size or (ranked[1:] == ranked[:-1]).any():
        raise ValueError
    tags = tuple(chain.from_iterable(s["tag"] for s in steps)) if "tag" in where else None
    return BlockTable(index, joined("time_us"), joined("feature_bytes"), tags,
                      *(joined(name) for name in FLAG_COLUMNS))


def _ascii_lines(handle: BinaryIO) -> Iterator[str]:
    """The lines of a binary file as open(..., newline="") splits them, each
    decoded on its own: a byte that is not ASCII stops a reader at its own
    line, not at the 8 KiB chunk the text layer would decode it in."""
    for raw in handle:  # split at b"\n" only
        for line in raw.splitlines(keepends=True):
            yield line.decode("ascii")


def _first_error(path: Union[str, Path]) -> str:
    """The error pass: what is wrong with the file and where.

    Rows are read one at a time, blank ones skipped, and each data row is
    checked in the order below; its first failed check is the message. The
    first fault in file order wins: a bad row that ends before the first
    byte that is not ASCII, else that byte.
    """
    seen = set()
    try:
        with open(path, "rb") as handle:
            reader = csv.reader(_ascii_lines(handle))
            header = next(reader, None)
            if header is None:
                return "empty CSV"
            if missing := _REQUIRED_COLUMNS - set(header):
                return f"missing columns {sorted(missing)}"
            where = {name: j for j, name in enumerate(header)}
            for row in filter(None, reader):
                try:
                    if len(row) < len(header):
                        raise ValueError("row has fewer fields than the header")
                    cell = row[where["time_us"]]
                    if not math.isfinite(float(cell)):
                        raise ValueError(f"time_us is not a finite number: {cell!r}")
                    cell = row[where["index"]]
                    index = int(cell)
                    if not -2**63 <= index < 2**63:
                        raise ValueError(f"{cell!r} does not fit in 64 bits")
                    for cell in (row[where[name]] for name in FLAG_COLUMNS if name in where):
                        if cell not in ("true", "false"):
                            raise ValueError(f"expected true/false, got {cell!r}")
                    for name in BYTE_COLUMNS:
                        if not 0 <= int(row[where[name]], 16) < 256:
                            raise ValueError("bytes must be in range(0, 256)")
                    if index in seen:
                        raise ValueError(f"duplicate index {index}")
                except ValueError as exc:
                    return f"line {reader.line_num}: {exc}"
                seen.add(index)
    except csv.Error as exc:
        return f"line {reader.line_num}: {exc}"
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        at = re.search(rb"[\x80-\xff]", data).start()
        return f"not ASCII: byte {data[at]:#04x} at offset {at}"
    # every data row passed: there are none, or the file changed since the accept pass read it
    return "changed while it was read" if seen else "no data rows"


def read_blocks_csv(path: Union[str, Path]) -> BlockTable:
    """Parse a per-block CSV into columns.

    index, time_us, and the 16 byte columns are required; tag, truth_label,
    and the prediction columns are optional so externally produced feature
    tables can be scored too. Blank lines are skipped and fields beyond the
    header's are ignored; where a name repeats in the header, its last
    column counts. A malformed row, a non-finite time_us, an index beyond
    64 bits, or a repeated index raises ValueError naming the file line; a
    byte that is not ASCII raises one naming its offset in the file. The
    accept pass parses _STEP_ROWS rows at a time into columns; only if it
    fails does the error pass re-read the file row by row to name the fault.
    """
    try:
        return _read_columns(path)
    except (ValueError, OverflowError, csv.Error):
        raise ValueError(f"{path}: {_first_error(path)}") from None


def rows_to_vectors(table: BlockTable) -> Tuple[Dataset, bool]:
    """Feature table from a parsed CSV; the flag says if labels exist (else y is all False)."""
    has_labels = table.truth_label is not None
    labels = table.truth_label if has_labels else np.zeros(len(table), dtype=bool)
    return feature_dataset(table.time_us, table.feature_bytes, labels), has_labels
