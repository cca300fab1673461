import csv
import dataclasses
import io
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aeslab.metrics_report as metrics_report
from aeslab.cipher import EncryptedRun, Key128, run_pipeline
from aeslab.detect_forest import ByteSource
from aeslab.metrics_report import (
    BlockTable,
    ConfusionCounts,
    DetectionReport,
    build_dataset,
    compare,
    export_csv,
    read_blocks_csv,
    rows_to_vectors,
    run_id,
    score,
)
from aeslab.workload import KIND_DELAY, KIND_FAULT, KIND_NONE, AnomalyKind, Blocks, Mode, RunConfig

import oracle_csv


def test_score_hand_case():
    preds = [True, True, True, False, False, False]
    truths = [True, True, False, True, False, False]
    report = score(preds, truths, "threshold")
    assert report.counts == ConfusionCounts(tp=2, fp=1, fn=1, tn=2)
    assert report.accuracy == pytest.approx(4 / 6)
    assert report.precision == pytest.approx(2 / 3)
    assert report.recall == pytest.approx(2 / 3)
    assert report.f1 == pytest.approx(2 / 3)
    assert report.detector == "threshold"


def test_score_perfect_detector():
    truths = [True, False, True, False]
    report = score(truths, truths, "forest")
    assert report.accuracy == 1.0
    assert report.f1 == 1.0
    assert report.counts.fp == report.counts.fn == 0


def test_score_all_benign_predictions_use_zero_conventions():
    report = score([False] * 4, [True, True, False, False], "threshold")
    assert report.precision == 0.0
    assert report.recall == 0.0
    assert report.f1 == 0.0
    assert report.accuracy == 0.5


def test_score_validates_shapes():
    with pytest.raises(ValueError):
        score([True], [True, False], "x")
    with pytest.raises(ValueError):
        score([], [], "x")


@given(
    st.lists(
        st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=300
    )
)
def test_score_identities(pairs):
    preds = [p for p, _ in pairs]
    truths = [t for _, t in pairs]
    report = score(preds, truths, "forest")
    c = report.counts
    assert c.tp + c.fn == sum(truths)
    assert c.fp + c.tn == len(truths) - sum(truths)
    assert c.total == len(truths)
    for value in (report.accuracy, report.precision, report.recall, report.f1):
        assert 0.0 <= value <= 1.0
    assert report.accuracy == pytest.approx((c.tp + c.tn) / c.total)
    if report.precision + report.recall > 0:
        expected_f1 = 2 * report.precision * report.recall / (report.precision + report.recall)
        assert report.f1 == pytest.approx(expected_f1)
    else:
        assert report.f1 == 0.0


def test_score_takes_boolean_columns():
    report = score(np.array([True, False]), np.array([True, True]), "x")
    assert report.counts == ConfusionCounts(tp=1, fp=0, fn=1, tn=0)


@given(st.lists(st.tuples(st.booleans(), st.booleans()), max_size=300))
def test_score_gives_lists_and_arrays_the_same_report(pairs):
    preds = [p for p, _ in pairs]
    truths = [t for _, t in pairs]
    if not pairs:
        with pytest.raises(ValueError, match="cannot score an empty evaluation set"):
            score(np.array(preds, dtype=bool), np.array(truths, dtype=bool), "forest")
        return
    report = score(preds, truths, "forest")
    assert score(np.array(preds), np.array(truths), "forest") == report
    assert score(np.array(preds), truths, "forest") == report


def test_compare_equal_reports_yield_zero_gain():
    report = score([True, False], [True, False], "threshold")
    twin = score([True, False], [True, False], "forest")
    assert compare(report, twin) == 0.0


def test_compare_reports_forest_advantage():
    truths = [True, True, False, False]
    weak = score([False, False, False, False], truths, "threshold")
    strong = score([True, True, False, False], truths, "forest")
    assert compare(weak, strong) == pytest.approx(0.5)


def test_compare_rejects_mismatched_subsets():
    a = score([True], [True], "threshold")
    b = score([True, False], [True, False], "forest")
    with pytest.raises(ValueError):
        compare(a, b)
    flipped = score([True, False], [False, True], "forest")  # same size, other mix
    c = score([True, False], [True, True], "threshold")
    with pytest.raises(ValueError):
        compare(c, flipped)


def test_run_id_format():
    assert run_id(RunConfig(seed=7, n_blocks=512, inject_pct=30.0)) == "s7_n512_p30"
    assert run_id(RunConfig(seed=1, n_blocks=4096, inject_pct=12.5)) == "s1_n4096_p12.5"


# ---------------------------------------------------------------- export / re-read


def _scored_run(n=100, seed=7):
    cfg = RunConfig(n_blocks=n, inject_pct=30.0, seed=seed, mode=Mode.SIMULATED)
    run = run_pipeline(cfg, Key128(bytes(16)))
    truths = (run.blocks.kind != KIND_NONE).tolist()
    threshold_preds = (run.time_us > 3000.0).tolist()
    forest_preds = truths[:]  # stand-in perfect detector
    report_t = score(threshold_preds, truths, "threshold")
    report_f = score(forest_preds, truths, "forest")
    return cfg, run, threshold_preds, forest_preds, report_t, report_f


def _table(run, tp, fp, byte_source=ByteSource.PLAINTEXT):
    return dataclasses.replace(build_dataset(run, byte_source),
                               preds={"threshold": np.array(tp), "forest": np.array(fp)})


def _export(tmp_path, cfg, run, tp, fp, rt, rf):
    return export_csv(
        _table(run, tp, fp), [rt, rf], compare(rt, rf), tmp_path,
        cfg=cfg, byte_source=ByteSource.PLAINTEXT,
        threshold_fit="all", threshold_us=3000.0,
    )


def test_export_row_counts_and_naming(tmp_path):
    cfg, run, tp, fp, rt, rf = _scored_run()
    blocks_path, summary_path = _export(tmp_path, cfg, run, tp, fp, rt, rf)
    assert blocks_path.name == "blocks_s7_n100_p30.csv"
    assert summary_path.name == "summary_s7_n100_p30.csv"
    block_lines = blocks_path.read_text(encoding="ascii").splitlines()
    assert len(block_lines) == 101  # header + one row per block
    summary_lines = summary_path.read_text(encoding="ascii").splitlines()
    assert len(summary_lines) == 3  # header + one row per detector


def test_export_is_reproducible(tmp_path):
    cfg, run, tp, fp, rt, rf = _scored_run()
    first = _export(tmp_path / "a", cfg, run, tp, fp, rt, rf)
    second = _export(tmp_path / "b", cfg, run, tp, fp, rt, rf)
    assert first[0].read_bytes() == second[0].read_bytes()
    assert first[1].read_bytes() == second[1].read_bytes()


def test_export_round_trip_reproduces_rows(tmp_path):
    cfg, run, tp, fp, rt, rf = _scored_run()
    blocks_path, _ = _export(tmp_path, cfg, run, tp, fp, rt, rf)
    table = read_blocks_csv(blocks_path)
    assert len(table) == len(run)
    assert table.index.tolist() == run.blocks.index.tolist()
    # 3-decimal file
    assert table.time_us.tolist() == pytest.approx(run.time_us.tolist(), abs=5e-4)
    assert table.truth_label.tolist() == (run.blocks.kind != KIND_NONE).tolist()
    assert list(table.preds) == ["threshold", "forest"]
    assert table.preds["threshold"].tolist() == tp
    assert table.preds["forest"].tolist() == fp
    assert [bytes(row) for row in table.feature_bytes] == [bytes(row) for row in run.plaintext]
    assert table.tag is None  # the reader passes the tag column over
    with open(blocks_path, newline="", encoding="ascii") as handle:
        tags = [row["tag"] for row in csv.DictReader(handle)]
    assert tags == [list(AnomalyKind)[code].value for code in run.blocks.kind.tolist()]


def test_export_rejects_prediction_length_mismatch(tmp_path):
    cfg, run, tp, fp, rt, rf = _scored_run()
    with pytest.raises(ValueError, match="threshold_pred covers 99 of 100 rows"):
        export_csv(
            _table(run, tp[:-1], fp), [rt, rf], compare(rt, rf), tmp_path,
            cfg=cfg, byte_source=ByteSource.PLAINTEXT,
            threshold_fit="all", threshold_us=3000.0,
        )


def test_export_rejects_a_table_without_predictions(tmp_path):
    cfg, run, tp, fp, rt, rf = _scored_run()
    with pytest.raises(ValueError, match="the table has no prediction column"):
        export_csv(
            build_dataset(run), [rt, rf], compare(rt, rf), tmp_path,
            cfg=cfg, byte_source=ByteSource.PLAINTEXT,
            threshold_fit="all", threshold_us=3000.0,
        )
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("named", [["forest", "threshold"], ["threshold"],
                                   ["threshold", "forest", "rules"], ["threshold", "rules"]])
def test_export_rejects_reports_that_do_not_name_the_prediction_columns(tmp_path, named):
    cfg, run, tp, fp, rt, rf = _scored_run()
    reports = [dataclasses.replace(rt, detector=name) for name in named]
    with pytest.raises(ValueError, match=re.escape(
            f"the reports name {named}, the prediction columns ['threshold', 'forest']")):
        export_csv(
            _table(run, tp, fp), reports, 0.0, tmp_path,
            cfg=cfg, byte_source=ByteSource.PLAINTEXT,
            threshold_fit="all", threshold_us=3000.0,
        )
    assert not any(tmp_path.iterdir())


def test_export_rejects_an_empty_report_list(tmp_path):
    cfg, run, tp, fp, rt, rf = _scored_run()
    with pytest.raises(ValueError, match=re.escape(
            "the reports name [], the prediction columns ['threshold', 'forest']")):
        export_csv(
            _table(run, tp, fp), [], 0.0, tmp_path,
            cfg=cfg, byte_source=ByteSource.PLAINTEXT,
            threshold_fit="all", threshold_us=3000.0,
        )
    assert not any(tmp_path.iterdir())


def test_byte_source_may_be_given_by_value(tmp_path):
    # "plaintext" used to select the ciphertext bytes in build_dataset, and
    # export_csv raised AttributeError on it
    cfg, run, tp, fp, rt, rf = _scored_run(n=20)
    for value in ("plaintext", "ciphertext"):
        table = build_dataset(run, value)
        column = getattr(run, value)
        assert [bytes(row) for row in table.feature_bytes] == [bytes(row) for row in column]
    _, summary_path = export_csv(
        _table(run, tp, fp), [rt, rf], compare(rt, rf), tmp_path,
        cfg=cfg, byte_source="plaintext", threshold_fit="all", threshold_us=3000.0,
    )
    with open(summary_path, newline="", encoding="ascii") as handle:
        assert {row["byte_source"] for row in csv.DictReader(handle)} == {"plaintext"}
    with pytest.raises(ValueError):
        build_dataset(run, "Plaintext")
    with pytest.raises(ValueError):
        export_csv(
            _table(run, tp, fp), [rt, rf], compare(rt, rf), tmp_path / "bad",
            cfg=cfg, byte_source="bytes", threshold_fit="all", threshold_us=3000.0,
        )
    assert not (tmp_path / "bad").exists()


def test_export_unwritable_path_reports_the_path(tmp_path):
    cfg, run, tp, fp, rt, rf = _scored_run(n=10)
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory", encoding="ascii")
    with pytest.raises(OSError) as excinfo:
        _export(blocker, cfg, run, tp, fp, rt, rf)
    assert "occupied" in str(excinfo.value)


def test_read_blocks_csv_requires_core_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("index,time_us\n0,1.0\n", encoding="ascii")
    with pytest.raises(ValueError):
        read_blocks_csv(path)


def test_read_blocks_csv_rejects_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    header = ",".join(["index", "time_us"] + [f"b{i}" for i in range(16)])
    path.write_text(header + "\n", encoding="ascii")
    with pytest.raises(ValueError):
        read_blocks_csv(path)


ZERO_BYTES = ",".join(["00"] * 16)


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,nan," + ZERO_BYTES, "line 3: time_us is not a finite number"),
        ("1,inf," + ZERO_BYTES, "line 3: time_us is not a finite number"),
        ("0,1.0," + ZERO_BYTES, "line 3: duplicate index 0"),
        ("1,abc," + ZERO_BYTES, "line 3:"),
        ("1,1.0,1ff," + ",".join(["00"] * 15), "line 3:"),  # byte cell above 0xff
        ("1,1.0", "line 3: row has fewer fields"),
        # several rows, so that at two rows a step the fault lies in a later step
        ("\n".join(f"{i},1.0," + ZERO_BYTES for i in (1, 2, 3)) + "\n4,1.0,zz," + ZERO_BYTES[3:],
         r"line 6: invalid literal for int\(\) with base 16: 'zz'"),  # the fifth data row
        ("\n".join(f"{i},1.0," + ZERO_BYTES for i in (1, 2, 0)), "line 5: duplicate index 0"),
    ],
)
def test_read_blocks_csv_rejects_bad_rows_by_line(tmp_path, row, message):
    header = ",".join(["index", "time_us"] + [f"b{i}" for i in range(16)])
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([header, "0,1.0," + ZERO_BYTES, row]) + "\n", encoding="ascii")
    for step_rows in (2, 1024):
        with mock.patch.object(metrics_report, "_STEP_ROWS", step_rows):
            with pytest.raises(ValueError, match=message):
                read_blocks_csv(path)


def test_read_blocks_csv_names_the_line_of_an_oversized_field(tmp_path):
    # csv.Error is not a ValueError; the reader turns it into one
    header = ",".join(["index", "time_us", "tag"] + [f"b{i}" for i in range(16)])
    path = tmp_path / "big.csv"
    path.write_text("\n".join([header, "0,1.0,none," + ZERO_BYTES,
                               "1,1.0," + "x" * (csv.field_size_limit() + 1) + "," + ZERO_BYTES])
                    + "\n", encoding="ascii")
    with pytest.raises(ValueError, match="line 3: field larger than field limit"):
        read_blocks_csv(path)
    with pytest.raises(ValueError, match="line 3: field larger than field limit"):
        oracle_csv.read_rows(path)


def test_read_blocks_csv_names_the_file_offset_of_a_non_ascii_byte(tmp_path):
    # past the first 8 KiB the text layer decodes the file in chunks; the offset is the file's
    header = ",".join(["index", "time_us"] + [f"b{i}" for i in range(16)])
    text = "\n".join([header] + [f"{i},1.0," + ZERO_BYTES for i in range(400)]) + "\n"
    raw = bytearray(text.encode("ascii"))
    raw[20000] = 0xC3
    path = tmp_path / "latin.csv"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=r"latin.csv: not ASCII: byte 0xc3 at offset 20000$"):
        read_blocks_csv(path)


@pytest.mark.parametrize("bad_row_at, wins", [
    (-60, "row"),  # in the chunk before the byte's
    (-12, "row"),  # in the byte's chunk, ahead of the byte
    (-1, "row"),  # the line just before the byte's
    (0, "byte"),  # the byte's own line: the row does not end before the byte
    (5, "byte"),
])
def test_read_blocks_csv_reports_the_first_fault_in_file_order(tmp_path, bad_row_at, wins):
    # the text layer decodes 8 KiB chunks: a bad row early in the chunk that holds a
    # non-ASCII byte must still be reported, as it comes first in the file
    header = ",".join(["index", "time_us"] + [f"b{i}" for i in range(16)])
    lines = [header] + [f"{i},1.0," + ZERO_BYTES for i in range(2048)]
    starts = np.cumsum([0] + [len(line) + 1 for line in lines]).tolist()
    chunk_start = 6 * 8192
    byte_line = next(k for k, at in enumerate(starts) if at > chunk_start + 1000)
    assert starts[byte_line - 12] > chunk_start > starts[byte_line - 60]
    bad_line = byte_line + bad_row_at
    lines[bad_line] = lines[bad_line].replace(",1.0,", ",1.x,")  # same length
    raw = bytearray(("\n".join(lines) + "\n").encode("ascii"))
    at = starts[byte_line] + len(lines[byte_line]) - 1  # the line's last byte cell
    raw[at] = 0xC3
    path = tmp_path / "both.csv"
    path.write_bytes(bytes(raw))
    if wins == "row":
        message = f"both.csv: line {bad_line + 1}: could not convert string to float: '1.x'$"
    else:
        message = f"both.csv: not ASCII: byte 0xc3 at offset {at}$"
    for read in (read_blocks_csv, oracle_csv.read_rows):
        with pytest.raises(ValueError, match=message):
            read(path)


def test_rows_to_vectors_with_and_without_labels(tmp_path):
    cfg, run, tp, fp, rt, rf = _scored_run(n=20)
    blocks_path, _ = _export(tmp_path, cfg, run, tp, fp, rt, rf)
    table = read_blocks_csv(blocks_path)
    data, has_labels = rows_to_vectors(table)
    assert has_labels
    assert data.y.tolist() == (run.blocks.kind != KIND_NONE).tolist()
    assert data.X.shape == (20, 17)
    assert data.X[:, 0].tolist() == table.time_us.tolist()
    payloads = [bytes(r) for r in table.feature_bytes]
    assert [bytes(int(b) for b in x[1:]) for x in data.X] == payloads

    # drop the label column and parse again
    stripped = tmp_path / "nolabel.csv"
    with open(blocks_path, newline="", encoding="ascii") as src, \
            open(stripped, "w", newline="", encoding="ascii") as dst:
        reader = csv.DictReader(src)
        keep = [c for c in reader.fieldnames if c != "truth_label"]
        writer = csv.DictWriter(dst, fieldnames=keep)
        writer.writeheader()
        for row in reader:
            writer.writerow({k: row[k] for k in keep})
    data2, has_labels2 = rows_to_vectors(read_blocks_csv(stripped))
    assert not has_labels2
    assert len(data2) == 20
    assert not data2.y.any()


class _Exploding:
    def __bool__(self):
        raise RuntimeError("stop writing here")

    __index__ = __bool__  # a flag cell's word is picked by indexing with the flag


def test_export_failing_midway_keeps_the_earlier_files(tmp_path):
    cfg, run, tp, fp, rt, rf = _scored_run(n=40)
    paths = _export(tmp_path, cfg, run, tp, fp, rt, rf)
    before = [p.read_bytes() for p in paths]
    broken = tp[:20] + [_Exploding()] + tp[21:]
    with pytest.raises(RuntimeError):
        _export(tmp_path, cfg, run, broken, fp, rt, rf)  # fails at block 20
    assert [p.read_bytes() for p in paths] == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in paths)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_export_then_read_gives_back_the_dataset(data):
    n = data.draw(st.integers(2, 40))
    block = st.binary(min_size=16, max_size=16)
    plaintext, ciphertext, time_us, kind = zip(*(
        (data.draw(block), data.draw(block), data.draw(st.floats(0.0, 1e9)),
         data.draw(st.sampled_from((KIND_NONE, KIND_DELAY, KIND_FAULT))))
        for _ in range(n)
    ))
    plaintext, ciphertext = (np.frombuffer(b"".join(col), np.uint8).reshape(n, 16)
                             for col in (plaintext, ciphertext))
    kind = np.array(kind, np.int8)
    run = EncryptedRun(Blocks(np.arange(n, dtype=np.int64), plaintext, kind,
                              np.where(kind == KIND_DELAY, 1.0, 0.0)),
                       plaintext, ciphertext, np.array(time_us))
    byte_source = data.draw(st.sampled_from(ByteSource))
    truths = (kind != KIND_NONE).tolist()
    preds = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rt, rf = score(preds, truths, "threshold"), score(truths, truths, "forest")
    with tempfile.TemporaryDirectory() as tmp:
        blocks_path, _ = export_csv(
            _table(run, preds, truths, byte_source), [rt, rf], compare(rt, rf), tmp,
            cfg=RunConfig(n_blocks=n), byte_source=byte_source,
            threshold_fit="all", threshold_us=1.0,
        )
        # indices in [0, n) and times below 10**12 us: the byte pass takes the file
        with mock.patch.object(metrics_report, "_read_rows", side_effect=AssertionError):
            got, has_labels = rows_to_vectors(read_blocks_csv(blocks_path))
    want, _ = rows_to_vectors(build_dataset(run, byte_source))
    assert has_labels
    assert got.X[:, 1:].tobytes() == want.X[:, 1:].tobytes()
    assert got.y.tolist() == want.y.tolist()
    assert got.X[:, 0].tolist() == [float(f"{t:.3f}") for t in want.X[:, 0].tolist()]


@st.composite
def _block_tables(draw):
    """A BlockTable with every column set, indices increasing. About half are
    run-shaped, drawn from the ranges the byte pass takes (indices below
    10**18, times up to 10**12), so each reader pass sees about half."""
    if draw(st.booleans()):
        indices, times = st.integers(0, 10**18 - 1), st.floats(0.0, 1e12)
    else:
        indices, times = st.integers(-2**63, 2**63 - 1), st.floats(allow_nan=False,
                                                                  allow_infinity=False)
    index = sorted(draw(st.lists(indices, min_size=1, max_size=64, unique=True)))
    n = len(index)
    names = draw(st.permutations(["threshold", "forest", "rules"]))[:draw(st.integers(1, 3))]
    flags = [np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
             for _ in range(len(names) + 1)]
    return BlockTable(
        np.array(index, dtype=np.int64),
        np.array(draw(st.lists(times, min_size=n, max_size=n)), dtype=np.float64),
        np.frombuffer(draw(st.binary(min_size=16 * n, max_size=16 * n)), np.uint8).reshape(n, 16),
        tuple(draw(st.lists(st.sampled_from(["none", "delay", "fault"]), min_size=n, max_size=n))),
        flags[0],
        dict(zip(names, flags[1:])),
    )


@settings(max_examples=60, deadline=None)
@given(table=_block_tables())
def test_export_then_read_gives_back_the_table(table):
    reports = [score(col, table.truth_label, name) for name, col in table.preds.items()]
    with tempfile.TemporaryDirectory() as tmp:
        blocks_path, _ = export_csv(
            table, reports, 0.0, tmp, cfg=RunConfig(n_blocks=len(table)),
            byte_source=ByteSource.PLAINTEXT, threshold_fit="all", threshold_us=1.0,
        )
        # the byte pass takes every file whose numbers are in the form of a run's
        # (indices in [0, n), times in [0, 3.6e9 + 110] us); any other goes to the row pass
        with mock.patch.object(metrics_report, "_read_rows",
                               wraps=metrics_report._read_rows) as rows:
            got = read_blocks_csv(blocks_path)
    run_form = (all(0 <= i < 10**18 for i in table.index.tolist())
                and all(re.fullmatch(r"[0-9]{1,12}\.[0-9]{3}", "%.3f" % t)
                        for t in table.time_us.tolist()))
    assert rows.called != run_form
    assert got.index.tolist() == table.index.tolist()
    assert got.tag is None
    assert got.truth_label.tolist() == table.truth_label.tolist()
    assert list(got.preds) == list(table.preds)
    for name, col in table.preds.items():
        assert got.preds[name].tolist() == col.tolist()
    assert got.feature_bytes.tobytes() == table.feature_bytes.tobytes()
    assert got.time_us.tolist() == [float("%.3f" % t) for t in table.time_us.tolist()]


# ---------------------------------------------------------------- reader against the oracle

_BYTE_NAMES = [f"b{i}" for i in range(16)]
_HEADERS = [
    ["index", "time_us", "tag", "truth_label", "threshold_pred", "forest_pred", *_BYTE_NAMES],
    ["index", "time_us", *_BYTE_NAMES],
    [*_BYTE_NAMES, "truth_label", "time_us", "index"],
    ["index", "time_us", "index", "truth_label", *_BYTE_NAMES],  # the last "index" counts
    ["index", "time_us", "tag", "truth_label", "threshold_pred", "forest_pred", "rules_pred",
     *_BYTE_NAMES],
    # "_pred" names no detector, so the readers pass it over like tag
    ["forest_pred", "index", "threshold_pred", "_pred", "time_us", "truth_label", *_BYTE_NAMES],
]
_FLAG = st.sampled_from(["true", "false"])
_VALID = {
    # past 1e12 a time has more digits than the byte pass decodes itself
    "time_us": st.one_of(st.floats(0.0, 1e6), st.floats(0.0, 1e14)).map(lambda t: f"{t:.3f}"),
    "tag": st.sampled_from(["none", "delay", "fault"]),
    "truth_label": _FLAG,
    "threshold_pred": _FLAG,
    "forest_pred": _FLAG,
    "rules_pred": _FLAG,
    "_pred": st.sampled_from(["true", "maybe", ""]),
    **{name: st.integers(0, 255).map(lambda b: f"{b:02x}") for name in _BYTE_NAMES},
}
# cells the row-at-a-time reader accepted with a twist, or rejected
_ODD = {
    "index": ["+3", " 4", "1_0", "-2", "0", "9223372036854775807", "9223372036854775808",
              "-9223372036854775809", "x", "", "1.0",
              # in and out of the digits the byte pass decodes itself: -?[0-9]{1,18}
              "+5", "5 ", "1e3", "-0", "007", "-007", "-", "--1", "-9223372036854775808",
              "9223372036854775806", "-9223372036854775807", "999999999999999999",
              "-999999999999999999", "1000000000000000000", "0000000000000000001"],
    "time_us": ["nan", "inf", "-inf", "1e400", "abc", "", " 2.5 ", "1_0.5", "-0.0",
                # in and out of the digits the byte pass decodes itself: [0-9]{1,12}\.[0-9]{3}
                "+5.000", "1e3", "-0.000", ".5", ".500", "5.", "5.00", "5.0000", "1.5e3", "-1.500",
                " 1.500", "1.500 ", "1_0.500", "0.000", "000.001", "999999999999.999",
                "1000000000000.000", "9999999999999.999", "123456789012345.678", "1e500", "2-500", "9999999999999999.999", "5..000",
                "5.0-0", "5.+00"],
    "tag": ["", "a,b", "x\ny"],
    "truth_label": ["True", "", "1", "true "],
    **{name: ["f", " ff", "0x1f", "FF", "1ff", "-1", "zz", "", "0_f", "+f", "100", "-0"]
       for name in _BYTE_NAMES},
}
_ODD["threshold_pred"] = _ODD["forest_pred"] = _ODD["rules_pred"] = _ODD["truth_label"]
_ODD["_pred"] = _ODD["tag"]
_BYTE_POOL = list(b"0f9x,\n\r\" -.e") + [0, 0xFF]


@st.composite
def _block_csvs(draw):
    """A valid blocks CSV, then edited: odd cells, short, long and blank rows, stray bytes."""
    header = draw(st.sampled_from(_HEADERS))
    start = draw(st.integers(-2, 5))
    rows = [[str(start + r) if name == "index" else draw(_VALID[name]) for name in header]
            for r in range(draw(st.integers(0, 7)))]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        r, other = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(0, len(header) - 1))
        edit = draw(st.sampled_from(["odd", "repeat", "shift"]))
        if edit == "repeat":
            c = header.index("index")
            rows[r][c] = rows[other][c]
        elif edit == "shift":  # move a character between two cells of one byte column
            c = header.index(draw(st.sampled_from(_BYTE_NAMES)))
            rows[r][c], rows[other][c] = rows[r][c][1:], rows[r][c][:1] + rows[other][c]
        else:
            rows[r][c] = draw(st.sampled_from(_ODD[header[c]]))
    for _ in range(draw(st.integers(0, 2))):
        r = draw(st.integers(0, len(rows)))
        edit = draw(st.sampled_from(["short", "long", "blank"]))
        if edit == "blank" or r == len(rows) or not rows[r]:
            rows.insert(r, [])
        elif edit == "short":
            del rows[r][draw(st.integers(0, len(rows[r]) - 1)):]
        else:
            rows[r].append("extra")
    text = io.StringIO()
    csv.writer(text).writerows([header] + rows)
    raw = bytearray(text.getvalue().encode("ascii"))
    body = text.getvalue().index("\n") + 1
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(min(body, len(raw)) if draw(st.booleans()) else 0, len(raw)))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert" or at == len(raw):
            raw.insert(at, draw(st.sampled_from(_BYTE_POOL)))
        elif edit == "replace":
            raw[at] = draw(st.sampled_from(_BYTE_POOL))
        else:
            del raw[at]
    return bytes(raw)


def _table_rows(table):
    """The table as oracle_csv rows without their tag, which neither pass reads."""
    assert table.tag is None
    n = len(table)

    truth = [None] * n if table.truth_label is None else table.truth_label.tolist()
    preds = zip(*([(name, flag) for flag in col.tolist()] for name, col in table.preds.items()))
    return list(zip(table.index.tolist(), table.time_us.tolist(), truth,
                    preds if table.preds else [()] * n,
                    [bytes(r) for r in table.feature_bytes]))


def _outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:  # anything else fails the test
        return type(exc), str(exc)


def _oracle_outcome(path):
    """oracle_csv's error, or its rows with the tag element dropped."""
    want = _outcome(oracle_csv.read_rows, path)
    return want if isinstance(want, tuple) else [row[:2] + row[3:] for row in want]


_LINES = [
    ",".join(_HEADERS[0]),
    "0,1.500,none,false,false,true," + ZERO_BYTES,
    "1,2.250,delay,true,true,false," + ",".join(["ff"] * 16),
    "2,0.000,fault,true,false,false," + ",".join(f"{b:02x}" for b in range(16)),
]


@pytest.mark.parametrize("content, row_pass", [
    ("\n".join(_LINES) + "\n", False),
    ("\r\n".join(_LINES) + "\r\n", False),  # as export_csv writes it
    ("\r\n".join(_LINES), False),  # no final newline
    ("\n".join(_LINES).replace(",delay,", ',"a,b",') + "\n", True),  # a quoted tag
    ("\n".join(_LINES).replace(",delay,", ',"delay",') + "\n", True),  # quotes csv removes
    ("\n".join(_LINES[:2]) + "\r" + "\n".join(_LINES[2:]) + "\n", True),  # a bare CR ends a line
    ("\n".join(_LINES).replace(",delay,", ",de\rlay,") + "\n", True),  # and cuts this row short
    ("\n" + "\n".join(_LINES) + "\n", True),  # a leading blank line: no header
    ("\n".join(_LINES).replace(",delay,", ",de\0lay,") + "\n", True),  # a NUL byte
    ("\n".join(_LINES).replace(",delay,", "," + "x" * (csv.field_size_limit() + 1) + ",") + "\n",
     True),  # a field csv refuses
    ("\n".join(_LINES).replace(",ff,", ",f,", 1) + "\n", True),  # a one-digit hex cell
    # number cells not of the forms [0-9]{1,18} and [0-9]{1,12}\.[0-9]{3}, which the
    # byte pass decodes by their digits, send the whole file to the row pass
    ("\n".join(_LINES).replace("2.250", "9999999999999.999") + "\n", True),  # 16 digits
    ("\n".join(_LINES).replace("2.250", "-0.000") + "\n", True),
    ("\n".join(_LINES).replace("2.250", "2.25") + "\n", True),
    ("\n".join(_LINES).replace("\n1,", "\n-9223372036854775808,") + "\n", True),
    ("\n".join(_LINES).replace("\n1,", "\n+1,") + "\n", True),
    # cells that one per-line guard of the byte pass alone refuses; without that
    # guard the byte pass would read the file wrong
    ("\n".join(_LINES).replace(",ff,", ",0ff,", 1) + "\n", True),  # three characters
    ("\n".join(_LINES).replace(",ff,", ",zz,", 1) + "\n", True),  # not hex digits
    ("\n".join(_LINES).replace(",delay,true,", ",delay,maybe,") + "\n", True),  # no flag word
    # the commas add up to the header's, but a tag cell is missing from the first row
    # and the second has one cell too many in front
    ("\n".join([",".join(["u", "index", "time_us", "truth_label", *_BYTE_NAMES, "v", "tag"]),
                "3,0,1.500,true," + ZERO_BYTES + ",7",
                "x,4,5,2.250,false," + ZERO_BYTES + ",7,none"]) + "\n", True),
])
def test_read_blocks_csv_takes_the_byte_pass_only_for_files_in_export_form(
        tmp_path, content, row_pass):
    path = tmp_path / "blocks.csv"
    path.write_bytes(content.encode("ascii"))
    want = _oracle_outcome(path)
    with mock.patch.object(metrics_report, "_read_rows", wraps=metrics_report._read_rows) as rows:
        got = _outcome(read_blocks_csv, path)
    assert (got if isinstance(got, tuple) else _table_rows(got)) == want
    assert rows.called == row_pass


@pytest.mark.parametrize("step_rows", [2, 1024])
@settings(max_examples=300, deadline=None)
@given(content=_block_csvs())
def test_read_blocks_csv_agrees_with_the_row_reader(step_rows, content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "blocks.csv"
        path.write_bytes(content)
        want = _oracle_outcome(path)
        with mock.patch.object(metrics_report, "_STEP_ROWS", step_rows):
            got = _outcome(read_blocks_csv, path)
    if isinstance(got, tuple):
        assert got == want
    else:
        assert _table_rows(got) == want


def _columns(table):
    columns = {name: None if (column := getattr(table, name)) is None
               else np.asarray(column).tolist()
               for name in (f.name for f in dataclasses.fields(table)) if name != "preds"}
    return {**columns, "preds": [(name, col.tolist()) for name, col in table.preds.items()]}


@pytest.mark.parametrize("tag", [*_ODD["tag"], None])  # None: the tag column dropped
def test_read_blocks_csv_passes_over_the_tag_column(tmp_path, tag):
    cfg, run, tp, fp, rt, rf = _scored_run(n=40)
    blocks_path, _ = _export(tmp_path, cfg, run, tp, fp, rt, rf)
    want = read_blocks_csv(blocks_path)
    edited = tmp_path / "edited.csv"
    with open(blocks_path, newline="", encoding="ascii") as src, \
            open(edited, "w", newline="", encoding="ascii") as dst:
        reader = csv.DictReader(src)
        keep = [c for c in reader.fieldnames if tag is not None or c != "tag"]
        writer = csv.DictWriter(dst, fieldnames=keep)
        writer.writeheader()
        for row in reader:
            writer.writerow({k: tag if k == "tag" else row[k] for k in keep})
    # a quoted cell sends the file to the row pass; an empty cell or no column leaves
    # it in the form the byte pass reads
    assert (metrics_report._read_canonical(edited) is None) == (tag in ("a,b", "x\ny"))
    for read in (read_blocks_csv, metrics_report._read_rows):
        assert _columns(read(edited)) == _columns(want)
