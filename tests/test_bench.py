import csv
from concurrent.futures import ProcessPoolExecutor

import pytest

import aeslab.bench as bench_mod
import aeslab.cipher as cipher_mod
from aeslab.bench import BenchRecord, measure_run, peak_memory_mb, sweep
from aeslab.cipher import Key128
from aeslab.workload import Mode, RunConfig

KEY = Key128(bytes(16))


def test_measure_run_reports_consistent_numbers():
    cfg = RunConfig(n_blocks=128, inject_pct=0.0, mode=Mode.REAL)
    record = measure_run(cfg, KEY)
    assert record.block_count == 128
    assert record.workers == 1
    assert record.wall_time_s > 0
    assert record.mean_latency_us > 1.0  # pure-Python AES costs tens of us
    assert record.throughput_bps == pytest.approx(128 / record.wall_time_s)
    assert record.error is None


def test_measure_run_rejects_simulated_mode():
    cfg = RunConfig(n_blocks=8, mode=Mode.SIMULATED)
    with pytest.raises(ValueError):
        measure_run(cfg, KEY)


def test_peak_memory_is_positive_where_available():
    mem = peak_memory_mb()
    assert mem is None or mem > 0


def test_measure_run_counts_the_pool_workers_memory(tmp_path):
    # ru_maxrss of RUSAGE_CHILDREN covers the workers once the pool has shut down
    cfg = RunConfig(n_blocks=32, inject_pct=0.0, workers=2, mode=Mode.REAL)
    record = measure_run(cfg, KEY)
    if record.peak_memory_mb is None:
        assert record.peak_children_mb is None
    else:
        assert record.peak_children_mb > 0
        assert record.peak_children_mb == peak_memory_mb(children=True)
    path = tmp_path / "bench.csv"
    sweep([32], [2], cfg, KEY, path)
    with open(path, newline="") as handle:
        (row,) = list(csv.DictReader(handle))
    assert list(row)[4:6] == ["peak_memory_mb", "peak_children_mb"]
    assert row["peak_children_mb"] == ("" if record.peak_children_mb is None else
                                       f"{peak_memory_mb(children=True):.1f}")


def test_measure_run_warms_the_pool_it_times(monkeypatch):
    started = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(args)
            super().__init__(*args, **kwargs)

    def no_own_pool(*args, **kwargs):
        raise AssertionError("encrypt_blocks started a pool of its own")

    monkeypatch.setattr(bench_mod, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(cipher_mod, "ProcessPoolExecutor", no_own_pool)
    record = measure_run(RunConfig(n_blocks=64, inject_pct=0.0, workers=2, mode=Mode.REAL), KEY)
    assert started == [(2,)]
    assert record.error is None and record.throughput_bps > 0


def test_bench_csv_text_is_pinned(tmp_path):
    path = tmp_path / "bench.csv"
    bench_mod._append_row(path, BenchRecord(32, 2, 41.23456, 12345.6789, 48.25, 0.0123456789,
                                            peak_children_mb=96.75))
    bench_mod._append_row(path, BenchRecord(64, 1, None, None, None, None,
                                            error="synthetic cell failure"))
    assert path.read_bytes() == (
        b"block_count,workers,mean_latency_us,throughput_bps,peak_memory_mb,peak_children_mb,"
        b"wall_time_s,error\r\n"
        b"32,2,41.235,12345.679,48.2,96.8,0.012346,\r\n"
        b"64,1,,,,,,synthetic cell failure\r\n"
    )


def test_sweep_covers_cells_in_ascending_order(tmp_path):
    base = RunConfig(inject_pct=0.0, mode=Mode.REAL)
    path = tmp_path / "bench.csv"
    records = sweep([64, 32], [1], base, KEY, path)
    assert [(r.block_count, r.workers) for r in records] == [(32, 1), (64, 1)]
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2
    assert rows[0]["block_count"] == "32"
    assert rows[0]["error"] == ""
    assert float(rows[0]["throughput_bps"]) > 0


def test_sweep_records_failing_cells_and_continues(tmp_path, monkeypatch):
    real_measure = bench_mod.measure_run

    def flaky(cfg, key):
        if cfg.n_blocks == 64:
            raise RuntimeError("synthetic cell failure")
        return real_measure(cfg, key)

    monkeypatch.setattr(bench_mod, "measure_run", flaky)
    base = RunConfig(inject_pct=0.0, mode=Mode.REAL)
    path = tmp_path / "bench.csv"
    records = sweep([32, 64, 96], [1], base, KEY, path)
    assert len(records) == 3
    failed = [r for r in records if r.error]
    assert len(failed) == 1
    assert failed[0].block_count == 64
    assert failed[0].mean_latency_us is None
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows[1]["error"] == "synthetic cell failure"
    assert rows[1]["mean_latency_us"] == ""
    assert rows[2]["error"] == ""


def test_sweep_validates_inputs():
    base = RunConfig(inject_pct=0.0, mode=Mode.REAL)
    with pytest.raises(ValueError):
        sweep([], [1], base, KEY)
    with pytest.raises(ValueError):
        sweep([32], [0], base, KEY)


def test_sweep_without_csv_path_writes_nothing(tmp_path):
    base = RunConfig(inject_pct=0.0, mode=Mode.REAL)
    records = sweep([32], [1], base, KEY)
    assert len(records) == 1
    assert not list(tmp_path.iterdir())


def test_bench_record_fields_round_numbers():
    record = BenchRecord(64, 1, 12.345, 1000.0, 35.2, 0.064)
    assert record.error is None
