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
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import List, Mapping, Optional, Sequence, Tuple, Union

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

# (row within a step, message) of the first cell a column check rejects
_CellError = Optional[Tuple[int, str]]


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


def _numbers(cells: List[str], parse, dtype) -> Tuple[np.ndarray, _CellError]:
    """parse(cell) of each cell, up to the first cell that parse or dtype rejects."""
    try:
        return np.fromiter(map(parse, cells), dtype, len(cells)), None
    except (ValueError, OverflowError):
        pass
    values = []
    for k, cell in enumerate(cells):
        try:
            values.append(dtype(parse(cell)))
        except ValueError as exc:
            return np.array(values, dtype), (k, str(exc))
        except OverflowError:
            return np.array(values, dtype), (k, f"{cell!r} does not fit in 64 bits")
    return np.array(values, dtype), None


def _flags(cells: List[str]) -> Tuple[np.ndarray, _CellError]:
    """Whether each cell is "true", and the first cell that is neither true nor false."""
    values = np.fromiter(map("true".__eq__, cells), bool, len(cells))
    if int(np.count_nonzero(values)) + cells.count("false") == len(cells):
        return values, None
    k = next(k for k, cell in enumerate(cells) if cell not in ("true", "false"))
    return values, (k, f"expected true/false, got {cells[k]!r}")


def _hex_bytes(cells: List[str]) -> Tuple[np.ndarray, _CellError]:
    """int(cell, 16) of each cell, which must lie in [0, 256).

    Columns of two hex digits per cell, as export_csv writes them, go by
    table lookup; any other column goes cell by cell through int().
    """
    text = ",".join(cells) + ","
    if len(text) == 3 * len(cells):
        # every cell is two hex digits iff every third character is a comma and the rest are digits
        codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, 3)
        nibbles = _NIBBLE[codes[:, :2]]
        if nibbles.max(initial=0) < 16 and (codes[:, 2] == ord(",")).all():
            return nibbles[:, 0] << 4 | nibbles[:, 1], None
    values = []
    for k, cell in enumerate(cells):
        try:
            value = int(cell, 16)
        except ValueError as exc:
            return np.array(values, np.uint8), (k, str(exc))
        if not 0 <= value < 256:
            return np.array(values, np.uint8), (k, "bytes must be in range(0, 256)")
        values.append(value)
    return np.array(values, np.uint8), None


def _parse_step(
    rows: List[List[str]], where: Mapping[str, int], width: int, seen: set
) -> Tuple[dict, _CellError]:
    """Columns of one step of rows, and the step's first bad data row.

    Blank rows are dropped. A data row's checks run in a fixed order (field
    count, time_us, index, the flag columns, the byte columns, repeated
    index) and its first failure is reported; the step's first bad row is
    the first data row with one. seen holds the indices of earlier steps
    and gains this step's.
    """
    # (row, number, message) of each failing check's first bad row; the checks
    # run in their order within a row, so numbering them as they fail keeps it
    failures = []

    def check(error: _CellError) -> None:
        if error is not None:
            failures.append((error[0], len(failures), error[1]))

    if set(map(len, rows)) != {width}:
        rows = [row for row in rows if row]  # blank lines are skipped
        short = next((k for k, row in enumerate(rows) if len(row) < width), None)
        if short is not None:
            check((short, "row has fewer fields than the header"))
        rows = [row[:width] for row in rows[:short]]  # fields beyond the header are ignored
    flat = list(chain.from_iterable(rows))

    def column(name: str) -> List[str]:
        return flat[where[name]::width]

    def checked(result: Tuple[np.ndarray, _CellError]) -> np.ndarray:
        check(result[1])
        return result[0]

    time_cells = column("time_us")
    cols = {"time_us": checked(_numbers(time_cells, float, np.float64))}
    infinite = np.flatnonzero(~np.isfinite(cols["time_us"]))
    if infinite.size:
        k = int(infinite[0])
        check((k, f"time_us is not a finite number: {time_cells[k]!r}"))
    cols["index"] = checked(_numbers(column("index"), int, np.int64))
    for name in FLAG_COLUMNS:
        if name in where:
            cols[name] = checked(_flags(column(name)))
    byte_cols = [checked(_hex_bytes(column(name))) for name in BYTE_COLUMNS]
    ids = cols["index"].tolist()
    if len(set(ids)) < len(ids) or not seen.isdisjoint(ids):
        for k, i in enumerate(ids):
            if i in seen:
                check((k, f"duplicate index {i}"))
                break
            seen.add(i)
    if failures:
        row, _, message = min(failures)
        return cols, (row, message)
    seen.update(ids)
    cols["feature_bytes"] = np.stack(byte_cols, axis=1)
    if "tag" in where:
        cols["tag"] = column("tag")
    return cols, None


def _line_of(path: Union[str, Path], row: int) -> int:
    """The file line on which data row `row` (0-based, blank lines skipped) ends."""
    with open(path, "r", newline="", encoding="ascii") as handle:
        reader = csv.reader(handle)
        next(reader)  # the header
        for _ in range(row + 1):
            while not next(reader):
                pass
        return reader.line_num


def read_blocks_csv(path: Union[str, Path]) -> BlockTable:
    """Parse a per-block CSV into columns.

    index, time_us, and the 16 byte columns are required; tag, truth_label,
    and the prediction columns are optional so externally produced feature
    tables can be scored too. Blank lines are skipped and fields beyond the
    header's are ignored; where a name repeats in the header, its last
    column counts. A malformed row, a non-finite time_us, an index beyond
    64 bits, or a repeated index raises ValueError naming the file line.
    """
    with open(path, "r", newline="", encoding="ascii") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        if header is None:
            raise ValueError(f"{path}: empty CSV")
        missing = {"index", "time_us", *BYTE_COLUMNS} - set(header)
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        where = {name: j for j, name in enumerate(header)}
        steps: List[dict] = []
        seen: set = set()
        done = 0  # data rows in earlier steps
        while True:
            rows: List[List[str]] = []
            stopped: Optional[ValueError] = None  # raised once the rows read before it pass
            try:
                rows.extend(islice(reader, _STEP_ROWS))
            except csv.Error as exc:
                stopped = ValueError(f"{path}: line {reader.line_num}: {exc}")
            except UnicodeDecodeError as exc:
                stopped = exc
            if rows:
                cols, error = _parse_step(rows, where, len(header), seen)
                if error is not None:
                    row, message = error
                    raise ValueError(f"{path}: line {_line_of(path, done + row)}: {message}")
                steps.append(cols)
                done += len(cols["index"])
            if stopped is not None:
                raise stopped
            if len(rows) < _STEP_ROWS:
                break
    if not done:
        raise ValueError(f"{path}: no data rows")

    def joined(name: str) -> Optional[np.ndarray]:
        return np.concatenate([s[name] for s in steps]) if name in steps[0] else None

    tags = tuple(chain.from_iterable(s["tag"] for s in steps)) if "tag" in where else None
    return BlockTable(joined("index"), joined("time_us"), joined("feature_bytes"), tags,
                      *(joined(name) for name in FLAG_COLUMNS))


def rows_to_vectors(table: BlockTable) -> Tuple[Dataset, bool]:
    """Feature table from a parsed CSV; the flag says if labels exist (else y is all False)."""
    has_labels = table.truth_label is not None
    labels = table.truth_label if has_labels else np.zeros(len(table), dtype=bool)
    return feature_dataset(table.time_us, table.feature_bytes, labels), has_labels
