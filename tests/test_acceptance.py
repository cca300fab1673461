"""End-to-end acceptance checks.

Each test covers one numbered criterion, asserts its stated tolerance, and
prints a single summary line. Runtime budgets are asserted from a monotonic
clock around the criterion's core work.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from aeslab.bench import measure_run
from aeslab.cipher import (
    Key128,
    encrypt_blocks,
    run_known_answer_suite,
    run_pipeline,
)
from aeslab.cli import main, run_experiment
from aeslab.detect_forest import ByteSource, ForestHyperparams
from aeslab.metrics_report import build_dataset, score
from aeslab.detect_threshold import classify_threshold, fit_threshold
from aeslab.workload import (
    KIND_FAULT,
    KIND_NONE,
    AnomalyKind,
    InputDistribution,
    Mode,
    RunConfig,
    assign_anomalies,
    generate_blocks,
)

from oracle_split import brute_force_best_split
from tree_helpers import best_split
from test_detect_forest import _dataset

KEY = Key128.from_hex("000102030405060708090a0b0c0d0e0f")


@pytest.fixture
def report(capsys):
    """Assert the runtime budget and print one always-visible summary line."""

    def _report(criterion: int, detail: str, elapsed: float, budget: float) -> None:
        assert elapsed < budget, (
            f"criterion {criterion} overran its budget: {elapsed:.2f}s >= {budget}s"
        )
        with capsys.disabled():
            print(f"criterion {criterion} PASS: {detail} [{elapsed:.2f}s < {budget:.0f}s]")

    return _report


def test_criterion_1_cipher_known_answers(capsys, report):
    start = time.perf_counter()
    results = run_known_answer_suite()
    assert len(results) >= 1
    mismatches = [r for r in results if not r.ok]
    assert not mismatches, f"cipher output diverged on {[r.name for r in mismatches]}"
    assert main(["kat"]) == 0
    out = capsys.readouterr().out
    assert "result: pass" in out
    elapsed = time.perf_counter() - start
    report(1, f"{len(results)} published vectors exact", elapsed, 1.0)


def test_criterion_2_threshold_formula_on_many_populations(report):
    start = time.perf_counter()
    datasets = [
        [1.0] * 9 + [9.0],
        [2.0, 2.0, 2.0, 10.0],
    ]
    rng = np.random.default_rng(2024)
    for _ in range(10):
        n = int(rng.integers(2, 500))
        datasets.append(list(rng.uniform(10.0, 50_000.0, size=n)))
    for times in datasets:
        model = fit_threshold(times)
        # independent arithmetic path: plain sum instead of fmean
        expected = sum(times) / len(times) + 3.0 * (max(times) - min(times)) / len(times)
        assert model.threshold_us == pytest.approx(expected, rel=1e-9)
    assert fit_threshold(datasets[0]).threshold_us == pytest.approx(4.2, rel=1e-9)
    assert fit_threshold(datasets[1]).threshold_us == pytest.approx(10.0, rel=1e-9)
    elapsed = time.perf_counter() - start
    report(2, f"{len(datasets)} populations match hand formula at rel 1e-9", elapsed, 1.0)


def test_criterion_3_threshold_is_blind_to_faults(report):
    start = time.perf_counter()
    cfg = RunConfig(
        n_blocks=4096, inject_pct=40.0, seed=11, mode=Mode.SIMULATED, jitter_us=0.0
    )
    blocks = assign_anomalies(generate_blocks(cfg), cfg)
    # force every anomaly to be a fault: delays would also perturb timing
    fault_only = dataclasses.replace(
        blocks, kind=np.where(blocks.kind == KIND_NONE, KIND_NONE, KIND_FAULT).astype(np.int8),
        delay_us=np.zeros(len(blocks)),
    )
    records = encrypt_blocks(fault_only, KEY, cfg)
    faults = sum(r.tag.kind is AnomalyKind.FAULT for r in records)
    assert faults > 1000  # the 40% schedule really landed
    times = build_dataset(records).time_us
    model = fit_threshold(times)
    flagged = sum(classify_threshold(times, model))
    assert flagged == 0
    elapsed = time.perf_counter() - start
    report(3, f"0 of {faults} fault-tagged blocks flagged", elapsed, 5.0)


def test_criterion_4_threshold_catches_delays(report):
    start = time.perf_counter()
    cfg = RunConfig(
        n_blocks=4096, inject_pct=20.0, seed=13, mode=Mode.SIMULATED,
        base_time_us=100.0, jitter_us=10.0,
        delay_min_us=5000.0, delay_max_us=20000.0,
    )
    records = run_pipeline(cfg, KEY)
    times = build_dataset(records).time_us
    model = fit_threshold(times)
    flags = classify_threshold(times, model)
    delays = [i for i, r in enumerate(records) if r.tag.kind is AnomalyKind.DELAY]
    others = [i for i, r in enumerate(records) if r.tag.kind is not AnomalyKind.DELAY]
    assert delays and others
    recall = sum(flags[i] for i in delays) / len(delays)
    fpr = sum(flags[i] for i in others) / len(others)
    assert recall >= 0.99, f"delay recall {recall:.4f} below 0.99"
    assert fpr <= 0.01, f"false-positive rate {fpr:.4f} above 0.01"
    elapsed = time.perf_counter() - start
    report(4, f"delay recall {recall:.3f}, fpr {fpr:.3f}", elapsed, 5.0)


def test_criterion_5_forest_dominates_threshold(report):
    start = time.perf_counter()
    gains = {}
    for pct in (20.0, 40.0, 60.0, 80.0):
        cfg = RunConfig(
            n_blocks=4096, inject_pct=pct, seed=7, mode=Mode.SIMULATED,
            input_dist=InputDistribution.ASCII,
        )
        run = run_experiment(cfg, ForestHyperparams(seed=7), KEY, ByteSource.PLAINTEXT, "all")
        report_t, report_f = run.reports["threshold"], run.reports["forest"]
        gains[pct] = run.accuracy_gain

        assert report_f.f1 >= report_t.f1, (
            f"at {pct:.0f}% injection forest F1 {report_f.f1:.4f} "
            f"fell below threshold F1 {report_t.f1:.4f}"
        )
        test = run.split.test_indices
        fault = np.array(run.table.tag)[test] == AnomalyKind.FAULT.value
        assert fault.any()
        fault_recall = run.table.preds["forest"][test][fault].mean()
        assert fault_recall >= 0.95, f"fault recall {fault_recall:.4f} at {pct:.0f}%"
    assert gains[80.0] > 0.0, f"accuracy gain at 80% was {gains[80.0]:+.4f}"
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{int(p)}%:{g:+.3f}" for p, g in sorted(gains.items()))
    report(5, f"forest >= threshold at all levels; gains {detail}", elapsed, 60.0)


def test_criterion_6_split_matches_brute_force_oracle(report):
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    checked = 0
    agreements_with_split = 0
    for _ in range(200):
        n = int(rng.integers(2, 65))
        d = int(rng.integers(1, 5))
        # mix continuous and coarse-grid columns to exercise duplicates/ties
        X = np.where(
            rng.random((n, d)) < 0.5,
            rng.integers(0, 5, size=(n, d)).astype(np.float64),
            rng.random((n, d)),
        )
        y = rng.integers(0, 2, size=n)
        data = _dataset(X, y)
        mine = best_split(data.X, data.y, range(d))
        reference = brute_force_best_split(X, y, range(d))
        if reference is None:
            assert mine is None
        else:
            assert mine is not None
            ref_feature, ref_threshold, ref_gain = reference
            assert mine.feature_index == ref_feature
            assert np.array_equal(
                X[:, mine.feature_index] <= mine.threshold,
                X[:, ref_feature] <= ref_threshold,
            ), "partitions diverged"
            assert abs(mine.gain - ref_gain) <= 1e-9
            agreements_with_split += 1
        checked += 1
    assert checked == 200 and agreements_with_split > 100
    elapsed = time.perf_counter() - start
    report(6, f"200 datasets agree ({agreements_with_split} with admissible splits)", elapsed, 10.0)


def test_criterion_7_csvs_identical_across_worker_counts(tmp_path, capsys, report):
    start = time.perf_counter()
    outputs = {}
    for workers in (1, 2, 4):
        out_dir = tmp_path / f"w{workers}"
        argv = [
            "run", "--blocks", "512", "--inject-pct", "30", "--seed", "7",
            "--mode", "simulated", "--workers", str(workers),
            "--out-dir", str(out_dir),
        ]
        assert main(argv) == 0
        outputs[workers] = (
            (out_dir / "blocks_s7_n512_p30.csv").read_bytes(),
            (out_dir / "summary_s7_n512_p30.csv").read_bytes(),
        )
    capsys.readouterr()
    assert outputs[1] == outputs[2] == outputs[4]
    elapsed = time.perf_counter() - start
    report(7, "blocks and summary files bit-identical for workers 1/2/4", elapsed, 10.0)


def test_criterion_8_throughput_scales_across_workers(report):
    threads = os.cpu_count() or 1
    if threads < 4:
        pytest.skip(
            f"criterion 8 SKIP: needs a host with >= 4 hardware threads, "
            f"this one exposes {threads}; the 4-worker pool cannot run in parallel"
        )
    start = time.perf_counter()
    base = RunConfig(
        n_blocks=1024, inject_pct=0.0, seed=3, mode=Mode.REAL, work_amplification=4
    )
    solo = measure_run(base, KEY)
    assert solo.mean_latency_us >= 10.0, (
        f"work_amplification too low: {solo.mean_latency_us:.1f} us per block"
    )
    quad = measure_run(dataclasses.replace(base, workers=4), KEY)
    ratio = quad.throughput_bps / solo.throughput_bps
    assert ratio >= 1.8, f"throughput ratio {ratio:.2f} below 1.8"
    elapsed = time.perf_counter() - start
    report(8, f"throughput(4w)/throughput(1w) = {ratio:.2f}", elapsed, 30.0)


def test_criterion_9_metric_identities(report):
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    cases = 0
    for _ in range(1000):
        n = int(rng.integers(1, 200))
        preds = rng.integers(0, 2, size=n).astype(bool).tolist()
        truths = rng.integers(0, 2, size=n).astype(bool).tolist()
        scored = score(preds, truths, "forest")
        c = scored.counts
        assert c.tp + c.fn == sum(truths)
        assert c.fp + c.tn == n - sum(truths)
        assert c.total == n
        for value in (scored.accuracy, scored.precision, scored.recall, scored.f1):
            assert 0.0 <= value <= 1.0
        assert scored.accuracy == (c.tp + c.tn) / n
        if c.tp + c.fp == 0:
            assert scored.precision == 0.0
        if c.tp + c.fn == 0:
            assert scored.recall == 0.0
        if scored.precision + scored.recall == 0:
            assert scored.f1 == 0.0
        else:
            expected = 2 * scored.precision * scored.recall / (scored.precision + scored.recall)
            assert scored.f1 == pytest.approx(expected, rel=1e-12)
        cases += 1
    # pinned degenerate shapes
    silent = score([False] * 6, [True] * 3 + [False] * 3, "threshold")
    assert (silent.precision, silent.recall, silent.f1) == (0.0, 0.0, 0.0)
    no_positives = score([True, False], [False, False], "threshold")
    assert no_positives.recall == 0.0
    elapsed = time.perf_counter() - start
    report(9, f"{cases} random confusion configurations satisfy all identities", elapsed, 1.0)
