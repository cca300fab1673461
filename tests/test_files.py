import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeslab.files import digit_runs

_ODD_BYTES = ".-+e x,\x00\xff/:"  # "/" and ":" sit just below and above the digits


def _written(number, point):
    """number as a run of digits with a point before its last point of them."""
    digits = str(number).zfill(point + 1)
    return digits if not point else f"{digits[:-point]}.{digits[-point:]}"


def _reference(cell, point):
    """The value digit_runs must give a cell, or None: what int() makes of its
    digits, if it is 1 to 18 digits with a point before the last point of them."""
    form = r"[0-9]+" if not point else rf"[0-9]+\.[0-9]{{{point}}}"
    if not re.fullmatch(form, cell) or len(cell) - (point > 0) > 18:
        return None
    return int(cell.replace(".", ""))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([0, 1, 3]), st.integers(0, 20), st.data())
def test_digit_runs_reads_each_run_as_int_reads_its_digits(point, lead, data):
    numbers = st.one_of(st.integers(0, 999), st.integers(0, 10**18 - 1), st.integers(0, 10**19))
    cells = [_written(n, point) for n in data.draw(st.lists(numbers, min_size=1, max_size=6))]
    for _ in range(data.draw(st.integers(0, 2))):  # edit a cell: replace, insert or drop a byte
        k = data.draw(st.integers(0, len(cells) - 1))
        at = data.draw(st.integers(0, len(cells[k])))
        byte = data.draw(st.sampled_from(_ODD_BYTES + "0123456789"))
        edit = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        cut = at + (edit != "insert")  # where the rest of the cell resumes
        cells[k] = cells[k][:at] + ("" if edit == "delete" else byte) + cells[k][cut:]
    # cells from lead bytes into the buffer, so some runs start near its front
    text = "," * lead + ",".join(cells)
    buf = np.frombuffer(text.encode("latin-1"), dtype=np.uint8)
    lo = np.array([lead + sum(len(c) + 1 for c in cells[:k]) for k in range(len(cells))])
    hi = lo + np.array([len(c) for c in cells])
    want = [_reference(cell, point) for cell in cells]
    got = digit_runs(buf, lo, hi, point=point)
    if None in want:
        assert got is None
    else:
        assert got.dtype == np.int64 and got.tolist() == want


@pytest.mark.parametrize("cells, point", [
    (["1x500", "2.000"], 3), (["12500"], 3), (["1.50"], 3), (["1.5000"], 3), ([".500"], 3),
    (["x12", "5"], 0), (["/9", "5"], 0), (["5", ":"], 0), (["-5"], 0), ([""], 0),
    (["1" * 19], 0), (["1" * 16 + ".123"], 3),
])
def test_digit_runs_refuses_runs_out_of_form(cells, point):
    text = ",".join(cells)
    buf = np.frombuffer(text.encode("latin-1"), dtype=np.uint8)
    lo = np.array([sum(len(c) + 1 for c in cells[:k]) for k in range(len(cells))])
    assert digit_runs(buf, lo, lo + np.array([len(c) for c in cells]), point=point) is None
