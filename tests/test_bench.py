import csv
import multiprocessing
import os
import subprocess
import sys
from unittest import mock

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


@pytest.mark.parametrize("platform, maxrss", [("linux", 3 * 2**10), ("darwin", 3 * 2**20)])
def test_peak_memory_reads_ru_maxrss_in_the_platform_unit(monkeypatch, platform, maxrss):
    # Linux reports ru_maxrss in KiB, macOS in bytes: 3 MiB either way
    resource = pytest.importorskip("resource")
    usage = {resource.RUSAGE_SELF: maxrss, resource.RUSAGE_CHILDREN: 2 * maxrss}
    monkeypatch.setattr(sys, "platform", platform)
    monkeypatch.setattr(resource, "getrusage", lambda who: mock.Mock(ru_maxrss=usage[who]))
    assert peak_memory_mb() == 3.0
    assert peak_memory_mb(children=True) == 6.0


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
    with open(path, newline="", encoding="ascii") as handle:
        (row,) = list(csv.DictReader(handle))
    assert list(row)[4:6] == ["peak_memory_mb", "peak_children_mb"]
    if record.peak_children_mb is None:
        assert row["peak_children_mb"] == ""
    else:  # the cell's workers are grandchildren of this process, reaped with the cell
        assert 0 < float(row["peak_children_mb"]) <= peak_memory_mb(children=True) + 0.05


def test_sweep_reports_each_cells_own_peaks():
    if peak_memory_mb() is None:
        pytest.skip("ru_maxrss is unavailable")
    # a child of the sweeping process that ended before the sweep
    subprocess.run([sys.executable, "-c", "b = bytearray(64 << 20)"], check=True)
    assert peak_memory_mb(children=True) > 64
    # 64 MiB written in the sweeping process, which each forked cell starts with
    held = b"\1" * (64 << 20)
    base = RunConfig(inject_pct=0.0, mode=Mode.REAL)
    records = sweep([8, 16], [1, 2], base, KEY)
    del held
    assert [(r.block_count, r.workers, r.error) for r in records] == [
        (8, 1, None), (8, 2, None), (16, 1, None), (16, 2, None)]
    # a one-worker cell starts no process: neither that child nor the pool of
    # the (8, 2) cell before it shows in its figures
    assert [r.peak_children_mb for r in records if r.workers == 1] == [0.0, 0.0]
    assert all(r.peak_children_mb > 0 for r in records if r.workers == 2)
    # nor does the size the cell started with: a few blocks raise its peak by
    # a few MiB (about 10 here, mostly pages of the libraries the run touches)
    assert all(0 <= r.peak_memory_mb < 32 for r in records)


def test_measure_run_warms_the_pool_it_times(monkeypatch):
    started = []
    real_pool = cipher_mod.process_pool

    def counting_pool(*args, **kwargs):
        started.append(args)
        return real_pool(*args, **kwargs)

    def no_own_pool(*args, **kwargs):
        raise AssertionError("encrypt_blocks started a pool of its own")

    monkeypatch.setattr(bench_mod, "process_pool", counting_pool)
    monkeypatch.setattr(cipher_mod, "process_pool", no_own_pool)
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
    with open(path, newline="", encoding="ascii") as handle:
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
    with open(path, newline="", encoding="ascii") as handle:
        rows = list(csv.DictReader(handle))
    assert rows[1]["error"] == "synthetic cell failure"
    assert rows[1]["mean_latency_us"] == ""
    assert rows[2]["error"] == ""


def test_sweep_records_a_cell_whose_process_dies(tmp_path, monkeypatch):
    real_measure = bench_mod.measure_run

    def dying(cfg, key):
        if cfg.n_blocks == 64:
            os._exit(3)  # ends the cell as a kill would, with nothing raised in it
        return real_measure(cfg, key)

    monkeypatch.setattr(bench_mod, "measure_run", dying)
    base = RunConfig(inject_pct=0.0, mode=Mode.REAL)
    path = tmp_path / "bench.csv"
    records = sweep([32, 64, 96], [1], base, KEY, path)
    assert [(r.block_count, r.error is None) for r in records] == [
        (32, True), (64, False), (96, True)]
    died = records[1]
    assert died.error.startswith("cell process died: ")
    assert (died.mean_latency_us, died.throughput_bps, died.peak_memory_mb,
            died.peak_children_mb, died.wall_time_s) == (None,) * 5
    assert all(r.throughput_bps > 0 and r.mean_latency_us > 0 for r in records[::2])
    with open(path, newline="", encoding="ascii") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["error"] for row in rows] == ["", died.error, ""]
    assert rows[1]["mean_latency_us"] == rows[1]["wall_time_s"] == ""


# a 2-worker cell swept under the forkserver start method, Linux's default from Python 3.14
_FORKSERVER_SWEEP = """
import multiprocessing
from aeslab.bench import sweep
from aeslab.cipher import Key128
from aeslab.workload import Mode, RunConfig

multiprocessing.set_start_method("forkserver")
(record,) = sweep([256], [2], RunConfig(inject_pct=0.0, mode=Mode.REAL), Key128(bytes(16)))
print(record.error, record.peak_children_mb)
"""


def test_a_cell_under_forkserver_counts_its_pool_workers():
    # forkserver would make the workers children of its server, not of the
    # cell, and the cell would read 0.0 MiB for them; the pool forks instead
    if "forkserver" not in multiprocessing.get_all_start_methods() or peak_memory_mb() is None:
        pytest.skip("needs the forkserver start method and ru_maxrss")
    proc = subprocess.run(
        [sys.executable, "-c", _FORKSERVER_SWEEP], capture_output=True, encoding="utf-8",
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    error, children_mb = proc.stdout.split()
    assert error == "None"
    assert float(children_mb) > 0


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
