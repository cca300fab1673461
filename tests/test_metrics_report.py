import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aeslab.cipher import Key128, run_pipeline
from aeslab.detect_forest import ByteSource
from aeslab.metrics_report import (
    ComparisonReport,
    ConfusionCounts,
    DetectionReport,
    compare,
    export_csv,
    read_blocks_csv,
    rows_to_vectors,
    run_id,
    score,
)
from aeslab.workload import Mode, RunConfig


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
    assert report.predictions == tuple(preds)


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


def test_compare_equal_reports_yield_zero_gain():
    report = score([True, False], [True, False], "threshold")
    twin = score([True, False], [True, False], "forest")
    result = compare(report, twin)
    assert result.accuracy_gain == 0.0
    assert (result.threshold_fp, result.threshold_fn) == (0, 0)
    assert (result.forest_fp, result.forest_fn) == (0, 0)


def test_compare_reports_forest_advantage():
    truths = [True, True, False, False]
    weak = score([False, False, False, False], truths, "threshold")
    strong = score([True, True, False, False], truths, "forest")
    result = compare(weak, strong)
    assert result.accuracy_gain == pytest.approx(0.5)
    assert result.threshold_fn == 2
    assert result.forest_fn == 0


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
    assert run_id(7, 512, 30.0) == "s7_n512_p30"
    assert run_id(1, 4096, 12.5) == "s1_n4096_p12.5"


# ---------------------------------------------------------------- export / re-read


def _scored_run(n=100, seed=7):
    cfg = RunConfig(n_blocks=n, inject_pct=30.0, seed=seed, mode=Mode.SIMULATED)
    records = run_pipeline(cfg, Key128(bytes(16)))
    truths = [r.truth_label for r in records]
    threshold_preds = [r.time_us > 3000.0 for r in records]
    forest_preds = truths[:]  # stand-in perfect detector
    report_t = score(threshold_preds, truths, "threshold")
    report_f = score(forest_preds, truths, "forest")
    return cfg, records, threshold_preds, forest_preds, report_t, report_f


def _export(tmp_path, cfg, records, tp, fp, rt, rf):
    return export_csv(
        records, [rt, rf], compare(rt, rf), tmp_path,
        predictions={"threshold": tp, "forest": fp},
        cfg=cfg, byte_source=ByteSource.PLAINTEXT,
        threshold_fit="all", threshold_us=3000.0,
    )


def test_export_row_counts_and_naming(tmp_path):
    cfg, records, tp, fp, rt, rf = _scored_run()
    blocks_path, summary_path = _export(tmp_path, cfg, records, tp, fp, rt, rf)
    assert blocks_path.name == "blocks_s7_n100_p30.csv"
    assert summary_path.name == "summary_s7_n100_p30.csv"
    block_lines = blocks_path.read_text().splitlines()
    assert len(block_lines) == 101  # header + one row per block
    summary_lines = summary_path.read_text().splitlines()
    assert len(summary_lines) == 3  # header + one row per detector


def test_export_is_reproducible(tmp_path):
    cfg, records, tp, fp, rt, rf = _scored_run()
    first = _export(tmp_path / "a", cfg, records, tp, fp, rt, rf)
    second = _export(tmp_path / "b", cfg, records, tp, fp, rt, rf)
    assert first[0].read_bytes() == second[0].read_bytes()
    assert first[1].read_bytes() == second[1].read_bytes()


def test_export_round_trip_reproduces_rows(tmp_path):
    cfg, records, tp, fp, rt, rf = _scored_run()
    blocks_path, _ = _export(tmp_path, cfg, records, tp, fp, rt, rf)
    rows = read_blocks_csv(blocks_path)
    assert len(rows) == len(records)
    for row, rec, t_pred, f_pred in zip(rows, records, tp, fp):
        assert row.index == rec.index
        assert row.time_us == pytest.approx(rec.time_us, abs=5e-4)  # 3-decimal file
        assert row.truth_label == rec.truth_label
        assert row.threshold_pred == t_pred
        assert row.forest_pred == f_pred
        assert row.feature_bytes == rec.plaintext
        assert row.tag == rec.tag.kind.value


def test_export_rejects_prediction_length_mismatch(tmp_path):
    cfg, records, tp, fp, rt, rf = _scored_run()
    with pytest.raises(ValueError):
        export_csv(
            records, [rt, rf], compare(rt, rf), tmp_path,
            predictions={"threshold": tp[:-1], "forest": fp},
            cfg=cfg, byte_source=ByteSource.PLAINTEXT,
            threshold_fit="all", threshold_us=3000.0,
        )


def test_export_unwritable_path_reports_the_path(tmp_path):
    cfg, records, tp, fp, rt, rf = _scored_run(n=10)
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory")
    with pytest.raises(OSError) as excinfo:
        _export(blocker, cfg, records, tp, fp, rt, rf)
    assert "occupied" in str(excinfo.value)


def test_read_blocks_csv_requires_core_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("index,time_us\n0,1.0\n")
    with pytest.raises(ValueError):
        read_blocks_csv(path)


def test_read_blocks_csv_rejects_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    header = ",".join(["index", "time_us"] + [f"b{i}" for i in range(16)])
    path.write_text(header + "\n")
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
    ],
)
def test_read_blocks_csv_rejects_bad_rows_by_line(tmp_path, row, message):
    header = ",".join(["index", "time_us"] + [f"b{i}" for i in range(16)])
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([header, "0,1.0," + ZERO_BYTES, row]) + "\n")
    with pytest.raises(ValueError, match=message):
        read_blocks_csv(path)


def test_rows_to_vectors_with_and_without_labels(tmp_path):
    cfg, records, tp, fp, rt, rf = _scored_run(n=20)
    blocks_path, _ = _export(tmp_path, cfg, records, tp, fp, rt, rf)
    rows = read_blocks_csv(blocks_path)
    data, has_labels = rows_to_vectors(rows)
    assert has_labels
    assert data.y.tolist() == [r.truth_label for r in records]
    assert data.X.shape == (20, 17)
    assert data.X[:, 0].tolist() == [r.time_us for r in rows]
    assert [bytes(int(b) for b in x[1:]) for x in data.X] == [r.feature_bytes for r in rows]

    # drop the label column and parse again
    import csv

    stripped = tmp_path / "nolabel.csv"
    with open(blocks_path, newline="") as src, open(stripped, "w", newline="") as dst:
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
