"""Latency and throughput benchmarks over the encryption pipeline.

Each measurement runs the full pipeline once untimed to warm caches and
the worker pool, then times a second run on the same pool. Mean latency
comes from the per-block spans, throughput from blocks over the timed wall
clock. Peak memory is reported where the platform exposes ru_maxrss, in
two columns: peak_memory_mb for how far the measuring process's peak rose
above its mark when the measurement started, and peak_children_mb for the
largest of its finished children (the pool workers). A sweep builds, and so
checks, every cell's RunConfig before it starts the first cell, so a count the
config refuses stops it before any process starts. It runs each cell in a
fresh process, so no earlier cell and no process started before the sweep
shows in a cell's figures; a forked cell starts with the sweeping process's
size as its peak, which the rise leaves out. Cells and pools come from
cipher.process_pool, which forks where the start method in force is
forkserver, so the pool workers are children of their cell and its
peak_children_mb covers them.
"""

from __future__ import annotations

import csv
import math
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Sequence, TextIO, Union

from .cipher import Key128, process_pool, run_pipeline
from .workload import Mode, RunConfig

try:
    import resource
except ImportError:  # non-POSIX platforms
    resource = None  # type: ignore[assignment]


@dataclass(frozen=True)
class BenchRecord:
    """One sweep cell; each field is the bench CSV column of the same name."""

    block_count: int
    workers: int
    mean_latency_us: Optional[float]
    throughput_bps: Optional[float]
    peak_memory_mb: Optional[float]
    wall_time_s: Optional[float]
    peak_children_mb: Optional[float] = None
    error: Optional[str] = None


def peak_memory_mb(children: bool = False) -> Optional[float]:
    """Peak RSS in MiB of this process, or with children=True of its largest
    finished child; None where ru_maxrss is unavailable."""
    if resource is None:
        return None
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    # macOS reports bytes, Linux KiB
    return resource.getrusage(who).ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10)


def measure_run(cfg: RunConfig, key: Key128) -> BenchRecord:
    """Warm up, then time one pipeline run under cfg; with several workers
    both runs share one pool, so the timed run starts no processes. The
    memory figure is the rise of this process's peak over its mark here."""
    if cfg.mode is not Mode.REAL:
        raise ValueError("benchmarks measure real mode only")
    start_mb = peak_memory_mb()
    with process_pool(cfg.workers) if cfg.workers > 1 else nullcontext() as pool:
        run_pipeline(cfg, key, pool)
        start = time.perf_counter()
        run = run_pipeline(cfg, key, pool)
        wall_s = time.perf_counter() - start
    # read after the pool has shut down, so the children's peak covers its workers
    peak_mb = peak_memory_mb()
    return BenchRecord(
        block_count=cfg.n_blocks,
        workers=cfg.workers,
        mean_latency_us=math.fsum(run.time_us.tolist()) / len(run),
        throughput_bps=cfg.n_blocks / wall_s,
        peak_memory_mb=None if peak_mb is None else peak_mb - start_mb,
        peak_children_mb=peak_memory_mb(children=True),
        wall_time_s=wall_s,
    )


# the bench CSV's columns in file order, each with the format of its value; a None is left empty
_BENCH_FORMATS = {
    "block_count": "d", "workers": "d", "mean_latency_us": ".3f", "throughput_bps": ".3f",
    "peak_memory_mb": ".1f", "peak_children_mb": ".1f", "wall_time_s": ".6f", "error": "s",
}


def write_rows(handle: TextIO, records: Sequence[BenchRecord], header: bool,
               lineterminator: str = "\r\n") -> None:
    """Write records to handle as bench CSV rows, after the column names if header."""
    writer = csv.writer(handle, lineterminator=lineterminator)
    if header:
        writer.writerow(_BENCH_FORMATS)
    writer.writerows([
        "" if (value := getattr(record, column)) is None else format(value, spec)
        for column, spec in _BENCH_FORMATS.items()
    ] for record in records)


def _append_row(path: Path, record: BenchRecord) -> None:
    new_file = not path.exists()
    with open(path, "a", newline="", encoding="ascii") as handle:
        write_rows(handle, [record], header=new_file)


def _failed(cfg: RunConfig, error: str) -> BenchRecord:
    return BenchRecord(cfg.n_blocks, cfg.workers, None, None, None, None, error=error)


def _measure_cell(cfg: RunConfig, key: Key128) -> BenchRecord:
    """measure_run in the cell's own process, with a failure as the cell's record."""
    try:
        return measure_run(cfg, key)
    except Exception as exc:  # keep the sweep alive, report the cell
        return _failed(cfg, str(exc) or type(exc).__name__)


def sweep(
    block_counts: Sequence[int],
    worker_counts: Sequence[int],
    base_cfg: RunConfig,
    key: Key128,
    csv_path: Optional[Union[str, Path]] = None,
) -> List[BenchRecord]:
    """Measure every (blocks, workers) cell in ascending order.

    A count that RunConfig refuses raises its ValueError before any process
    starts or any row is written. Each cell runs measure_run in a fresh
    process. A failing cell is recorded with empty figures and its error
    message instead of aborting the rest of the sweep, and so is a cell whose
    process dies (killed, or out of memory). Rows are appended to csv_path as
    they finish.
    """
    blocks = sorted(set(int(b) for b in block_counts))
    workers = sorted(set(int(w) for w in worker_counts))
    if not blocks or not workers:
        raise ValueError("block_counts and worker_counts must be non-empty")
    cells = [replace(base_cfg, n_blocks=b, workers=w) for b in blocks for w in workers]
    path = Path(csv_path) if csv_path is not None else None
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
    results: List[BenchRecord] = []
    for cfg in cells:
        with process_pool(1) as cell:
            try:
                record = cell.submit(_measure_cell, cfg, key).result()
            except BrokenProcessPool as exc:
                record = _failed(cfg, f"cell process died: {exc}")
        results.append(record)
        if path is not None:
            _append_row(path, record)
    return results
