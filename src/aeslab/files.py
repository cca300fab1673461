"""Artifact files: each is written whole or not at all, and read back in bulk."""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import IO, Iterator, List, Optional, Union

import numpy as np


@contextmanager
def atomic_write(path: Union[str, Path], **open_args) -> Iterator[IO[str]]:
    """Open a text file for writing that replaces path only once the block succeeds.

    The text goes to a new file in path's directory, which os.replace moves
    over path at the end; if the block raises, the new file is removed and
    an earlier file at path stays as it was. The new file is created with
    the same default permissions as open(path, "w") would give it.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", **open_args) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def cell_texts(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> List[str]:
    """The text of buf[start[k]:end[k]] for each k, by one gather; no cell may
    hold a comma. Each cell is taken with the byte after it, which then
    becomes a comma to split at."""
    width = end - start + 1
    stops = np.cumsum(width)
    at = np.arange(width.sum()) + np.repeat(start - (stops - width), width)
    picked = buf.take(at, mode="clip")  # the byte after the file's last cell may lie past its end
    picked[stops - 1] = ord(",")
    return picked.tobytes().decode("ascii").split(",")[:-1]


_MAX_DIGITS = 18  # so that every value fits in int64
_ROWS = np.arange(_MAX_DIGITS + 1)[:, None]


def digit_runs(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray,
               point: int = 0) -> Optional[np.ndarray]:
    """The int64 value of each run of 1 to 18 decimal digits buf[lo[k]:hi[k]]
    of a file's bytes, or None if any run is not one. With point > 0 each
    run has a decimal point before its last point digits, and its value is
    that of its digits without the point ("1.250" is 1250 with point 3).

    Column k of one array, as many rows deep as the longest run, holds the
    bytes that end where run k does; the rows above a shorter run are
    masked. So a column of cells takes a fixed number of array steps.
    """
    size = hi - lo
    if not size.size:
        return np.zeros(0, dtype=np.int64)
    width = int(size.max())
    if size.min() < point + 1 + (point > 0) or width > _MAX_DIGITS + (point > 0):
        return None
    window = buf.take(hi + (_ROWS[:width] - width), mode="clip")  # masked rows may clip
    digits = window - ord("0")  # uint8: a byte below "0" wraps past 9
    inside = _ROWS[:width] >= width - size
    at = width - 1 - point if point else None  # the row of the points
    if point:
        if (window[at] != ord(".")).any():
            return None
        inside[at] = False
    if (inside & (digits > 9)).any():
        return None
    digits *= inside
    value = np.zeros(size.size, dtype=np.int64)
    for row in range(width):
        if row != at:
            value *= 10
            value += digits[row]
    return value
