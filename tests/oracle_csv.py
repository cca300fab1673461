"""Scalar reference reader for per-block CSVs, kept independent of the library.

This is the row-at-a-time csv.DictReader logic that read_blocks_csv
replaced with a byte pass, which reads a file in the form export_csv writes
by field offsets, and a row pass for any other file or one with a fault,
kept so the reader can be compared with it on any input. It has three rules the
row-at-a-time reader lacked, which read_blocks_csv shares: a csv.Error (a
field beyond the csv module's size limit) is a ValueError naming the line,
an index beyond 64 bits is rejected, and a byte that is not ASCII is a
ValueError naming its offset in the file. Each line is decoded on its own,
so the first fault in file order is the one reported: a bad row that ends
before the first byte that is not ASCII, else that byte. (Decoding the
whole file through the text layer would stop the reader at the start of
the byte's 8 KiB chunk, before rows that precede the byte.)
"""

import csv
import math
from pathlib import Path
from typing import List, Mapping, Optional, Tuple

BYTE_COLUMNS = [f"b{i}" for i in range(16)]

# (index, time_us, tag, truth_label, preds, feature_bytes), where preds holds a
# (name, flag) pair for each <name>_pred column with a non-empty name, in header order
Row = Tuple[int, float, Optional[str], Optional[bool], Tuple[Tuple[str, bool], ...], bytes]


def _parse_bool(raw: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ValueError(f"expected true/false, got {raw!r}")


def _parse_row(raw: Mapping[str, Optional[str]], fields: set) -> Row:
    if None in raw.values():
        raise ValueError("row has fewer fields than the header")
    time_us = float(raw["time_us"])
    if not math.isfinite(time_us):
        raise ValueError(f"time_us is not a finite number: {raw['time_us']!r}")
    index = int(raw["index"])
    if not -2**63 <= index < 2**63:
        raise ValueError(f"{raw['index']!r} does not fit in 64 bits")
    # raw holds each name once, in the order of its first column, with its last cell,
    # and a long row's extra cells under None, which is not in fields
    flags = {name: _parse_bool(cell) for name, cell in raw.items() if name in fields and (
        name == "truth_label" or name.endswith("_pred") and name != "_pred")}
    return (
        index,
        time_us,
        raw.get("tag"),
        flags.pop("truth_label", None),
        tuple((name[:-len("_pred")], flag) for name, flag in flags.items()),
        bytes(int(raw[c], 16) for c in BYTE_COLUMNS),
    )


def read_rows(path) -> List[Row]:
    """One Row per data row; ValueError naming the file line for a bad one."""
    try:
        return _read_rows(path)
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        at = next(k for k, byte in enumerate(data) if byte > 0x7F)
        raise ValueError(f"{path}: not ASCII: byte {data[at]:#04x} at offset {at}") from None


def _lines(handle):
    # split as the text layer does with newline="": at \n, \r and \r\n
    for raw in handle:
        yield from (line.decode("ascii") for line in raw.splitlines(keepends=True))


def _read_rows(path) -> List[Row]:
    with open(path, "rb") as handle:
        reader = csv.DictReader(_lines(handle))
        try:
            fieldnames = reader.fieldnames
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.reader.line_num}: {exc}") from None
        if fieldnames is None:
            raise ValueError(f"{path}: empty CSV")
        fields = set(fieldnames)
        missing = {"index", "time_us", *BYTE_COLUMNS} - fields
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        rows: List[Row] = []
        seen = set()
        while True:
            try:
                raw = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:
                raise ValueError(f"{path}: line {reader.reader.line_num}: {exc}") from None
            try:
                row = _parse_row(raw, fields)
                if row[0] in seen:
                    raise ValueError(f"duplicate index {row[0]}")
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
            seen.add(row[0])
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows
