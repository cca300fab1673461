"""Detection scoring and CSV export.

The positive class is "anomalous". Undefined ratios (no predicted
positives, no actual positives, zero precision+recall) score 0.0 rather
than raising, so sweeps over degenerate runs keep working.

A run reaches the detectors as one BlockTable, the columns of its blocks,
and two files describe it, named by runid s{seed}_n{blocks}_p{pct}:
  blocks_<runid>.csv   the table written out, one row per block (times to 3
                       decimals, bytes hex, a <name>_pred column per detector);
                       read_blocks_csv reads back every column but tag
  summary_<runid>.csv  one row per detector with config and metrics
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .cipher import EncryptedRun
from .detect_forest import N_FEATURES, ByteSource, Dataset
from .files import atomic_write, digit_runs
from .workload import KIND_NONE, AnomalyKind, RunConfig


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

    def cells(self) -> Dict[str, Union[str, int]]:
        """The report's cells of its summary CSV row, by column; the CLI prints the same."""
        c = self.counts
        return {
            "detector": self.detector, "tp": c.tp, "fp": c.fp, "fn": c.fn, "tn": c.tn,
            "accuracy": f"{self.accuracy:.6f}", "precision": f"{self.precision:.6f}",
            "recall": f"{self.recall:.6f}", "f1": f"{self.f1:.6f}",
        }


def score(predictions: Sequence[bool], truths: Sequence[bool], detector: str) -> DetectionReport:
    """Confusion counts and the derived ratios for one detector, from two boolean columns."""
    if len(predictions) != len(truths):
        raise ValueError(
            f"got {len(predictions)} predictions for {len(truths)} truth labels"
        )
    if len(truths) == 0:
        raise ValueError("cannot score an empty evaluation set")
    predictions = np.asarray(predictions, dtype=bool)
    truths = np.asarray(truths, dtype=bool)
    tp = int(np.count_nonzero(predictions & truths))
    fp = int(np.count_nonzero(predictions)) - tp
    fn = int(np.count_nonzero(truths)) - tp
    tn = truths.size - tp - fp - fn
    counts = ConfusionCounts(tp, fp, fn, tn)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = (tp + tn) / counts.total
    return DetectionReport(detector, counts, accuracy, precision, recall, f1)


def compare(threshold_report: DetectionReport, forest_report: DetectionReport) -> float:
    """Accuracy gain, forest minus threshold; both reports must cover the same records."""
    t_counts, f_counts = threshold_report.counts, forest_report.counts
    if t_counts.total != f_counts.total or (
        t_counts.tp + t_counts.fn != f_counts.tp + f_counts.fn
    ):
        raise ValueError("reports were scored on different record sets")
    return forest_report.accuracy - threshold_report.accuracy


def run_id(cfg: RunConfig) -> str:
    return f"s{cfg.seed}_n{cfg.n_blocks}_p{cfg.inject_pct:g}"


FLAG_WORDS = ("false", "true")  # a flag cell's text, indexed by its value
BYTE_COLUMNS = tuple(f"b{i}" for i in range(16))
PRED_SUFFIX = "_pred"  # a detector's prediction column is named <detector>_pred
_FLAG_COLUMN = re.compile("(?s)truth_label|.+" + PRED_SUFFIX)  # a flag column's name
_KIND_NAMES = tuple(kind.value for kind in AnomalyKind)  # a tag cell's text, by KIND_* code


@dataclass(frozen=True)
class BlockTable:
    """The blocks of a run, or of a per-block CSV, as columns: one entry per
    block, ordered by index in a run and in file order in a CSV.

    index is int64[n], time_us float64[n] and feature_bytes uint8[n, 16].
    truth_label and each of preds, a detector's column by its name in the
    order of the <name>_pred columns, hold one bool per row. A CSV without
    truth_label leaves it None; a run's preds are empty until its detectors
    have run. tag, one kind name per row, is a run's column only:
    build_dataset writes it for export_csv, and read_blocks_csv leaves it None.
    """

    index: np.ndarray
    time_us: np.ndarray
    feature_bytes: np.ndarray
    tag: Optional[Tuple[str, ...]]
    truth_label: Optional[np.ndarray]
    preds: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return self.index.size


def build_dataset(
    run: EncryptedRun,
    byte_source: Union[ByteSource, str] = ByteSource.PLAINTEXT,
) -> BlockTable:
    """The table of a run: its columns, one row per block in index order, whose
    feature_bytes are the bytes byte_source, a ByteSource or its value, names."""
    byte_source = ByteSource(byte_source)
    kind = run.blocks.kind
    return BlockTable(
        run.blocks.index,
        run.time_us,
        run.plaintext if byte_source is ByteSource.PLAINTEXT else run.ciphertext,
        tuple(map(_KIND_NAMES.__getitem__, kind.tolist())),
        kind != KIND_NONE,
    )


def export_csv(
    table: BlockTable,
    reports: Sequence[DetectionReport],
    accuracy_gain: float,
    out_dir: Union[str, Path],
    *,
    cfg: RunConfig,
    byte_source: Union[ByteSource, str],
    threshold_fit: str,
    threshold_us: float,
) -> Tuple[Path, Path]:
    """Write the per-block and summary files; returns their paths.

    table must hold every column and a prediction column or more, each covering
    the whole run, not just the scored subset; the blocks file is that table
    written out. reports are the summary rows, one per prediction column in order.
    """
    if not table.preds:
        raise ValueError("the table has no prediction column")
    columns = {"tag": table.tag, "truth_label": table.truth_label,
               **{name + PRED_SUFFIX: col for name, col in table.preds.items()}}
    for name, column in columns.items():
        if column is None or len(column) != len(table):
            held = 0 if column is None else len(column)
            raise ValueError(f"{name} covers {held} of {len(table)} rows")
    if (named := [r.detector for r in reports]) != list(table.preds):
        raise ValueError(f"the reports name {named}, the prediction columns {list(table.preds)}")
    byte_source = ByteSource(byte_source)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rid = run_id(cfg)
    blocks_path = out / f"blocks_{rid}.csv"
    summary_path = out / f"summary_{rid}.csv"

    # Every cell is an integer, a fixed-point latency, a tag kind, true/false or two hex
    # digits: none holds a comma, quote or line break, so csv.writer would quote none of
    # them, and each row is written as it would, with its \r\n line end.
    # The byte cells of every row are one hex string, three characters a byte: row i's
    # 16 cells are its characters [48i, 48i + 47). Its flag cells are joined once per row.
    hexes = table.feature_bytes.tobytes().hex(",")
    width = 3 * len(BYTE_COLUMNS)
    flags = map(",".join, zip(*([FLAG_WORDS[flag] for flag in col.tolist()]
                                for name, col in columns.items() if name != "tag")))
    rows = [",".join(["index", "time_us", *columns, *BYTE_COLUMNS]) + "\r\n"]
    rows += ["%d,%.3f,%s,%s,%s\r\n" % (index, time_us, tag, flag, hexes[at:at + width - 1])
             for index, time_us, tag, flag, at in zip(table.index.tolist(), table.time_us.tolist(),
                                                      table.tag, flags, range(0, len(hexes), width))]
    with atomic_write(blocks_path, newline="", encoding="ascii") as handle:
        handle.write("".join(rows))

    summaries = [
        {
            **report.cells(),
            "accuracy_gain": f"{accuracy_gain:.6f}",
            "n_blocks": cfg.n_blocks, "inject_pct": f"{cfg.inject_pct:g}", "seed": cfg.seed,
            "mode": cfg.mode.value,
            "delay_min_us": f"{cfg.delay_min_us:g}", "delay_max_us": f"{cfg.delay_max_us:g}",
            "input_dist": cfg.input_dist.value, "work_amplification": cfg.work_amplification,
            "byte_source": byte_source.value, "threshold_fit": threshold_fit,
            "threshold_us": f"{threshold_us:.3f}",
        }
        for report in reports
    ]
    with atomic_write(summary_path, newline="", encoding="ascii") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(summaries[0]))
        writer.writeheader()
        writer.writerows(summaries)

    return blocks_path, summary_path


# lines the byte pass decodes per step: only one step's field offsets are
# held at a time, which keeps peak memory near that of the file's bytes and
# the finished arrays
_STEP_ROWS = 1024

# value of each ASCII code as a hex digit, 16 where it is none
_NIBBLE = np.full(256, 16, dtype=np.uint8)
_NIBBLE[np.frombuffer(b"0123456789abcdef", dtype=np.uint8)] = np.arange(16)
_NIBBLE[np.frombuffer(b"ABCDEF", dtype=np.uint8)] = np.arange(10, 16)

_COMMA, _CR, _LF = b",\r\n"
_BASE_16 = (16,) * len(BYTE_COLUMNS)
# the flag words and the offsets of a cell's first five bytes, byte j in row j
_FALSE, _TRUE = (np.frombuffer(word.encode("ascii"), dtype=np.uint8)[:, None, None]
                 for word in FLAG_WORDS)
_FIVE = np.arange(5)[:, None, None]

_REQUIRED_COLUMNS = {"index", "time_us", *BYTE_COLUMNS}


def _thousandths(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> Optional[np.ndarray]:
    """float() of each cell buf[lo[k]:hi[k]] if every one is written
    [0-9]{1,12}\\.[0-9]{3}, else None. Its digits make an integer below
    10**15, which a double holds exactly, so one correctly rounded division
    by 1000.0 gives the double nearest the decimal, as float() does."""
    if (hi - lo).max() > 16:
        return None
    values = digit_runs(buf, lo, hi, point=3)
    return None if values is None else values / 1000.0


def _decode_lines(buf: np.ndarray, start: np.ndarray, end: np.ndarray,
                  where: Mapping[str, int], width: int, flags: Sequence[str]) -> Optional[dict]:
    """One step's columns, flags among them, from the lines buf[start[k]:end[k]] of width
    fields, or None if any line or cell is not in the form _read_canonical reads.
    Number cells are decoded by their digits; no cell becomes a Python object."""
    m = start.size
    commas = np.flatnonzero(buf[start[0]:end[-1]] == _COMMA) + start[0]
    if commas.size != m * (width - 1):
        return None
    # with as many commas as the lines need, each line holds its own iff it holds its first and last
    commas = commas.reshape(m, width - 1)
    if (commas[:, 0] < start).any() or (commas[:, -1] >= end).any():
        return None
    first = np.concatenate((start[:, None], commas + 1), axis=1)  # of each field, (m, width)
    last = np.concatenate((commas, end[:, None]), axis=1)

    at = first[:, [where[name] for name in BYTE_COLUMNS]]
    if (last[:, [where[name] for name in BYTE_COLUMNS]] - at != 2).any():
        return None
    high, low = _NIBBLE[buf[at]], _NIBBLE[buf[at + 1]]
    if max(high.max(), low.max()) > 15:
        return None
    cols = {"feature_bytes": high << 4 | low}

    # byte j of every cell of every flag column in head[j], so each numpy
    # step runs along whole columns rather than along five bytes at a time
    at = first[:, [where[name] for name in flags]].T
    size = last[:, [where[name] for name in flags]].T - at
    head = buf.take(at + _FIVE, mode="clip")
    is_true = (size == 4) & (head[:4] == _TRUE).all(axis=0)
    if not (is_true | (size == 5) & (head == _FALSE).all(axis=0)).all():
        return None
    cols.update(zip(flags, is_true))

    for name, decode in (("index", digit_runs), ("time_us", _thousandths)):
        cols[name] = decode(buf, first[:, where[name]], last[:, where[name]])
        if cols[name] is None:
            return None
    return cols


def _read_canonical(path: Union[str, Path]) -> Optional[BlockTable]:
    """The byte pass: the table of a file in the form export_csv writes, else None.

    The file must be ASCII with no quote and no NUL, and every CR must start
    a CRLF. Then csv splits a line at each comma and nowhere else, so the
    fields are found by their offsets. Each data line must hold exactly the
    header's fields, each byte cell two hex digits, each flag cell true or
    false, each index cell [0-9]{1,18} and each time_us cell
    [0-9]{1,12}\\.[0-9]{3}: the form of every run's export. Number cells are
    decoded by their digits, and the cells of columns the table does not
    read, tag among them, are not decoded at all. Any other file, such as
    one with a negative index or a hand-edited +5 or 2.25, gives None.
    """
    data = Path(path).read_bytes()
    if not data.isascii() or b'"' in data or b"\0" in data:
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    stops = np.flatnonzero(buf == _LF)
    if np.count_nonzero(buf == _CR) != np.count_nonzero(buf[np.maximum(stops - 1, 0)] == _CR):
        return None  # a CR that does not start a CRLF
    if buf.size and buf[-1] != _LF:
        stops = np.append(stops, buf.size)  # the last line has no line end
    if stops.size < 2:
        return None
    starts = np.concatenate(([0], stops[:-1] + 1))
    ends = stops - (buf[np.maximum(stops - 1, 0)] == _CR)  # drop the CR of a CRLF
    header = buf[:ends[0]].tobytes().decode("ascii").split(",")
    if not _REQUIRED_COLUMNS <= set(header):
        return None
    where = {name: j for j, name in enumerate(header)}
    flags = [name for name in where if _FLAG_COLUMN.fullmatch(name)]
    limit = csv.field_size_limit()
    steps = []
    for a in range(1, stops.size, _STEP_ROWS):
        b = min(a + _STEP_ROWS, stops.size)
        if (ends[a:b] - starts[a:b]).max() > limit:  # csv would refuse a field this long
            return None
        step = _decode_lines(buf, starts[a:b], ends[a:b], where, len(header), flags)
        if step is None:
            return None
        steps.append(step)
    del data, buf, stops, starts, ends  # the file's bytes are not held with the joined columns

    cols = {name: np.concatenate([step[name] for step in steps]) for name in steps[0]}
    index = cols.pop("index")
    ranked = np.sort(index)  # np.unique would import numpy.ma, about 1 MiB, on first use
    if (ranked[1:] == ranked[:-1]).any():
        return None
    return _read_table(index, cols.pop("time_us"), cols.pop("feature_bytes"), cols)


def _read_table(index, time_us, feature_bytes: np.ndarray, flags: dict) -> BlockTable:
    """A reader's table from its columns, flags the flag columns by header name."""
    flags = {name: np.asarray(cells, dtype=bool) for name, cells in flags.items()}
    return BlockTable(np.asarray(index, dtype=np.int64), np.asarray(time_us, dtype=np.float64),
                      feature_bytes, None, flags.pop("truth_label", None),
                      {name[:-len(PRED_SUFFIX)]: col for name, col in flags.items()})


def _ascii_lines(handle: BinaryIO) -> Iterator[str]:
    """The lines of a binary file as open(..., newline="") splits them, each
    decoded on its own: a byte that is not ASCII stops a reader at its own
    line, not at the 8 KiB chunk the text layer would decode it in."""
    for raw in handle:  # split at b"\n" only
        for line in raw.splitlines(keepends=True):
            yield line.decode("ascii")


def _read_rows(path: Union[str, Path]) -> Union[BlockTable, str]:
    """The row pass: the table of a good file, else what is wrong with it and where.

    Rows are read one at a time, blank ones skipped, and each data row is
    checked in the order below; its first failed check is the message. The
    first fault in file order wins: a bad row that ends before the first
    byte that is not ASCII, else that byte.
    """
    index, time_us, payloads, seen = [], [], [], set()
    try:
        with open(path, "rb") as handle:
            reader = csv.reader(_ascii_lines(handle))
            header = next(reader, None)
            if header is None:
                return "empty CSV"
            if missing := _REQUIRED_COLUMNS - set(header):
                return f"missing columns {sorted(missing)}"
            where = {name: j for j, name in enumerate(header)}
            time_at, index_at = where["time_us"], where["index"]
            byte_cells = itemgetter(*(where[name] for name in BYTE_COLUMNS))
            flags = {name: [] for name in where if _FLAG_COLUMN.fullmatch(name)}
            flag_at = [(where[name], values) for name, values in flags.items()]
            for row in filter(None, reader):
                try:
                    if len(row) < len(header):
                        raise ValueError("row has fewer fields than the header")
                    cell = row[time_at]
                    if not math.isfinite(time := float(cell)):
                        raise ValueError(f"time_us is not a finite number: {cell!r}")
                    cell = row[index_at]
                    if not -2**63 <= (block := int(cell)) < 2**63:
                        raise ValueError(f"{cell!r} does not fit in 64 bits")
                    for j, values in flag_at:  # a row that fails returns, with what it added
                        if (cell := row[j]) not in FLAG_WORDS:
                            raise ValueError(f"expected true/false, got {cell!r}")
                        values.append(cell == FLAG_WORDS[True])
                    # bytes() takes the map lazily: the first cell that fails, in either way, wins
                    payload = bytes(map(int, byte_cells(row), _BASE_16))
                    if block in seen:
                        raise ValueError(f"duplicate index {block}")
                except ValueError as exc:
                    return f"line {reader.line_num}: {exc}"
                seen.add(block)
                index.append(block)
                time_us.append(time)
                payloads.append(payload)
    except csv.Error as exc:
        return f"line {reader.line_num}: {exc}"
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        at = re.search(rb"[\x80-\xff]", data).start()
        return f"not ASCII: byte {data[at]:#04x} at offset {at}"
    if not index:
        return "no data rows"
    feature_bytes = np.frombuffer(bytearray().join(payloads), dtype=np.uint8).reshape(-1, 16)
    return _read_table(index, time_us, feature_bytes, flags)


def read_blocks_csv(path: Union[str, Path]) -> BlockTable:
    """Parse a per-block CSV into columns.

    index, time_us, and the 16 byte columns are required; truth_label and the
    <name>_pred columns, each a flag column that preds holds by its non-empty
    name in header order, are optional so externally produced feature tables
    can be scored too. Any other column, tag included, is passed over,
    and the table's tag is None. Blank lines are skipped and fields beyond
    the header's are ignored; where a name repeats in the header, its last
    column counts. A malformed row, a non-finite time_us, an index beyond
    64 bits, or a repeated index raises ValueError naming the file line; a
    byte that is not ASCII raises one naming its offset in the file. A file
    as export_csv writes a run's is read by byte offset, _STEP_ROWS lines
    at a time; any other file, or one with a fault, is read row by row.
    """
    table = _read_canonical(path)
    if table is None:
        table = _read_rows(path)
        if isinstance(table, str):
            raise ValueError(f"{path}: {table}")
    return table


def rows_to_vectors(table: BlockTable) -> Tuple[Dataset, bool]:
    """The forest's features: the latency, then the 16 feature bytes of each row.

    X is stored column by column (Fortran order), the layout predict_all
    reads. The flag says if labels exist; without them y is all False.
    """
    has_labels = table.truth_label is not None
    X = np.empty((len(table), N_FEATURES), dtype=np.float64, order="F")
    X[:, 0] = table.time_us
    X[:, 1:] = table.feature_bytes
    labels = table.truth_label if has_labels else np.zeros(len(table), dtype=bool)
    return Dataset(X, labels), has_labels
