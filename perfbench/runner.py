"""Closed loop for one workload, run in a fresh interpreter by run.py.

One client issues one operation at a time until the time budget is spent.
Each operation is timed (wall clock, and user+sys CPU of this process and
its reaped children), and the host's slowdown (calib.py) is sampled: while
the operation runs on the one CPU one-worker workloads are pinned to, and
on every CPU before and after each operation of the process-pool workload. Outputs are digested outside the timed window; the
first completed operation's outputs are saved to disk so run.py can check
them, and every later operation must reproduce the same digest. Peak RSS
is read right after the loop.

With --trace 1, odd-numbered operations run under the span tracer and
even-numbered ones run untraced, so the tracing overhead is measured
against interleaved untraced operations.

Usage (normally through run.py, with src/ on PYTHONPATH):
  python3 perfbench/runner.py --workload sim-ascii --run-seed 7 \
      --key-hex <32 hex> --seconds 10 --trace 0 --work-dir DIR
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# Block counts and program flags of each workload. The block count can be
# scaled down with --blocks for the smoke test only.
WORKLOADS = {
    "sim-ascii": {"blocks": 4096},
    "real-encrypt": {"blocks": 32768, "workers": 1},
    "real-encrypt-pool": {"blocks": 32768, "workers": 2},
    "predict-csv": {"blocks": 16384, "train_blocks": 4096},
}

INJECT_PCT = 20
TREES = 101
TRAIN_FRACTION = 0.7
MIN_OPS = 3
MIN_OPS_TRACED = 4  # at least two traced and two untraced


class OpFailed(Exception):
    """An operation exited non-zero."""


class Sink(io.TextIOBase):
    """Stdout replacement that hashes what the program prints."""

    def __init__(self) -> None:
        self.hash = hashlib.sha256()
        self.parts = []

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.hash.update(text.encode())
        self.parts.append(text)
        return len(text)


def records_arrays(records):
    """Columns of a list of BlockRecord, for digests and the saved reference."""
    n = len(records)
    return {
        "index": np.array([r.index for r in records], dtype=np.int64),
        "plaintext": np.frombuffer(b"".join(r.plaintext for r in records), np.uint8).reshape(n, 16),
        "ciphertext": np.frombuffer(b"".join(r.ciphertext for r in records), np.uint8).reshape(n, 16),
        "time_us": np.array([r.time_us for r in records], dtype=np.float64),
        "kind": np.array([r.tag.kind.value for r in records]),
    }


def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


class Workload:
    """Builds the operation of one workload and digests its outputs."""

    def __init__(self, args, cli, cipher) -> None:
        self.name = args.workload
        self.cli = cli
        self.cipher = cipher
        self.work_dir = Path(args.work_dir)
        self.blocks = args.blocks or WORKLOADS[self.name]["blocks"]
        self.captured = None
        if self.name == "sim-ascii":
            self.out_dir = self.work_dir / "op"
            self.argv = [
                "run", "--mode", "simulated", "--blocks", str(self.blocks),
                "--inject-pct", str(INJECT_PCT), "--input-dist", "ascii",
                "--trees", str(TREES), "--train-fraction", str(TRAIN_FRACTION),
                "--workers", "1", "--seed", str(args.run_seed),
                "--key-hex", args.key_hex, "--out-dir", str(self.out_dir),
            ]
            # keep the records the run produced; the CLI exports no ciphertext
            original = cli.run_pipeline

            def capture(*a, **kw):
                self.captured = original(*a, **kw)
                return self.captured
            cli.run_pipeline = capture
        elif self.name == "predict-csv":
            self.argv = ["predict", "--model", args.model, "--csv", args.csv]
        else:
            from aeslab.workload import Mode, RunConfig

            self.cfg = RunConfig(
                n_blocks=self.blocks, inject_pct=0.0, workers=WORKLOADS[self.name]["workers"],
                seed=args.run_seed, mode=Mode.REAL,
            )
            self.key = cipher.Key128.from_hex(args.key_hex)

    def run(self):
        """One timed operation; returns its raw output."""
        if self.name in ("sim-ascii", "predict-csv"):
            sink = Sink()
            with contextlib.redirect_stdout(sink):
                code = self.cli.main(self.argv)
            if code != 0:
                raise OpFailed(f"aeslab {self.argv[0]} exited with code {code}")
            return sink
        return self.cipher.run_pipeline(self.cfg, self.key)

    def digest(self, output):
        """(digest, latencies or None) of one operation's output, untimed."""
        h = hashlib.sha256()
        if self.name == "predict-csv":
            return output.hash.hexdigest(), None
        if self.name == "sim-ascii":
            for path in sorted(self.out_dir.glob("*.csv")):
                h.update(path.name.encode() + b"\0" + path.read_bytes())
            records = self.captured
        else:
            records = output
        cols = records_arrays(records)
        for key in ("index", "plaintext", "ciphertext", "kind"):
            h.update(cols[key].tobytes())
        latencies = None if self.name == "sim-ascii" else cols["time_us"]
        return h.hexdigest(), latencies

    def save_reference(self, output, ref_dir: Path) -> None:
        """Keep the first completed operation's outputs for run.py's checks."""
        ref_dir.mkdir(parents=True, exist_ok=True)
        if self.name == "predict-csv":
            (ref_dir / "stdout.txt").write_text("".join(output.parts), encoding="ascii")
            return
        records = self.captured if self.name == "sim-ascii" else output
        np.savez(ref_dir / "records.npz", **records_arrays(records))
        if self.name == "sim-ascii":
            for path in self.out_dir.glob("*.csv"):
                shutil.copy(path, ref_dir / path.name.split("_", 1)[0])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--run-seed", type=int, required=True)
    p.add_argument("--key-hex", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blocks", type=int, default=None)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--csv")
    p.add_argument("--model")
    args = p.parse_args(argv)

    import aeslab
    import aeslab.cipher as cipher
    import aeslab.cli as cli

    src = (ROOT / "src").resolve()
    if src not in Path(aeslab.__file__).resolve().parents:
        print(f"error: imported aeslab from {aeslab.__file__}, not from {src}", file=sys.stderr)
        return 2

    from calib import Bracket, Sampler
    from spans import Tracer

    tempfile.tempdir = args.work_dir  # the tracer's scratch files stay in the checkout
    workload = Workload(args, cli, cipher)
    tracer = Tracer({"aeslab.cli": cli, "aeslab.cipher": cipher}) if args.trace else None
    # one-worker workloads stay on one CPU, so in-operation samples time the
    # CPU that does the work; the pool workload keeps every CPU for its
    # workers and is calibrated on all of them while no worker runs
    cpus = sorted(os.sched_getaffinity(0))
    if WORKLOADS[args.workload].get("workers", 1) == 1:
        os.sched_setaffinity(0, cpus[:1])
        calibrate = Sampler
    else:
        calibrate = functools.partial(Bracket, cpus)
    ref_dir = Path(args.work_dir) / "ref"
    ref_digest = None
    min_ops = MIN_OPS_TRACED if args.trace else MIN_OPS
    ops = []
    layer = []
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(ops) % 2 == 1
        op = {"traced": traced}
        with calibrate() as sampler:
            cpu0 = _cpu_s()
            w0 = time.perf_counter()
            try:
                if traced:
                    with tracer.operation(len(ops)):
                        output = workload.run()
                else:
                    output = workload.run()
            except Exception as exc:  # count the failure and keep the loop going
                op["error"] = f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            # the samples taken inside the operation are not its work
            op["wall_s"] = time.perf_counter() - w0 - sampler.spent
            op["cpu_s"] = _cpu_s() - cpu0 - sampler.spent_cpu
        op["slowdown"] = sampler.slowdown
        if traced:
            tracer.count(len(ops))  # after the timed window: it reads the model dumps
        if "error" not in op:
            try:
                digest, latencies = workload.digest(output)
                if ref_digest is None:
                    workload.save_reference(output, ref_dir)
                    ref_digest = digest
                op["matches_reference"] = digest == ref_digest
                if latencies is not None:
                    op["latency_p50_us"], op["latency_p99_us"] = (
                        float(v) for v in np.percentile(latencies, [50, 99]))
                if traced:
                    layer.append(tracer.op_metrics(len(ops), op["slowdown"]))
            except Exception as exc:
                op["error"] = f"reading outputs: {type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            del output
        ops.append(op)
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(o["wall_s"] for o in ops)
        if len(ops) >= min_ops and elapsed + typical > args.seconds:
            break

    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "workload": args.workload,
        "blocks": workload.blocks,
        "loop_s": time.perf_counter() - t_start,
        "peak_rss_mb": (me + kids) / 1024.0,  # Linux reports KiB
        "ops": ops,
        "layer": layer,
        "numpy": np.__version__,
    }
    if tracer is not None:
        result["trace_errors"] = tracer.errors
        result["trace_missing"] = tracer.missing
        with open(Path(args.work_dir) / "spans.json", "w", encoding="ascii") as handle:
            json.dump(tracer.dump(t_start), handle)
    with open(Path(args.work_dir) / "result.json", "w", encoding="ascii") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
