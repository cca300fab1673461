"""aeslab benchmark: one workload per call, end-to-end or traced.

  python3 perfbench/run.py --workload sim-ascii --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's src/. Inputs come from --seed only. The run:

  1. prepares inputs that are not part of the timed work (predict-csv's
     blocks CSV and saved model) in separate interpreters;
  2. times set-up (import aeslab + build the CLI parser) in several fresh
     interpreters and keeps the median;
  3. runs the workload's closed loop (runner.py) in one more fresh
     interpreter, so memory and CPU figures belong to that workload alone;
  4. checks the outputs the loop saved, outside any timed window;
  5. prints a readable report, a ``report:`` JSON line with every figure,
     host facts and sample counts, and, as the last line, the result
     object with the end-to-end metrics (--trace 0) or the per-layer
     metrics (--trace 1).

--trace 1 also writes the spans to .perfbench-out/spans-<workload>-s<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))
from runner import INJECT_PCT, TRAIN_FRACTION, TREES, WORKLOADS  # noqa: E402
from calib import slowdown  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402

SETUP_REPEATS = 7
SETUP_PROBE = (
    "import time; t0 = time.perf_counter(); import aeslab.cli; "
    "aeslab.cli.build_parser(); print(time.perf_counter() - t0)"
)
END_TO_END = {
    "setup_s": "s",
    "blocks_per_s": "blocks/s",
    "cpu_us_per_block": "us",
    "peak_rss_mb": "MiB",
}
TIME_LIMIT_S = 170  # every child is killed by then, so the run ends within 180 s


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def derive_inputs(seed: int) -> dict:
    """Program seeds and key for one benchmark seed."""
    rnd = random.Random(seed)
    run_seed = rnd.randrange(2**32)
    model_seed = rnd.randrange(2**32)
    if model_seed == run_seed:
        model_seed ^= 1
    return {"run_seed": run_seed, "model_seed": model_seed,
            "key_hex": rnd.getrandbits(128).to_bytes(16, "big").hex()}


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("AESLAB_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _start(args, **kwargs) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, *args], cwd=ROOT, env=_child_env(),
                            start_new_session=True, **kwargs)


def _finish(proc: subprocess.Popen, deadline: float, what: str) -> str:
    """Wait for a child; kill its whole process group at the deadline or after exit."""
    timed_out = False
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if timed_out:
        raise HarnessError(f"{what} did not finish within the time limit")
    if proc.returncode != 0:
        raise HarnessError(f"{what} exited with code {proc.returncode}")
    return out or ""


def prepare_predict_inputs(work: Path, inputs: dict, blocks: int, deadline: float) -> dict:
    """Blocks CSV from one simulated run, and a model trained on another seed."""
    in_dir = work / "input"
    common = ["--mode", "simulated", "--inject-pct", str(INJECT_PCT), "--input-dist", "ascii",
              "--workers", "1", "--key-hex", inputs["key_hex"]]
    train_blocks = min(blocks, WORKLOADS["predict-csv"]["train_blocks"])
    model = in_dir / "model.txt"
    # the CSV's own forest columns are not read by predict, so one tree will do
    make_csv = _start(["-m", "aeslab", "run", *common, "--blocks", str(blocks), "--trees", "1",
                       "--seed", str(inputs["run_seed"]), "--out-dir", str(in_dir)],
                      stdout=subprocess.DEVNULL)
    make_model = _start(["-m", "aeslab", "train", *common, "--blocks", str(train_blocks),
                         "--trees", str(TREES), "--seed", str(inputs["model_seed"]),
                         "--model-out", str(model)], stdout=subprocess.DEVNULL)
    try:
        _finish(make_csv, deadline, "preparing the blocks CSV")
    finally:
        _finish(make_model, deadline, "training the model")
    (csv_path,) = in_dir.glob("blocks_*.csv")
    return {"csv": csv_path, "model": model}


def measure_setup(deadline: float) -> tuple:
    """Import-and-parser time in fresh interpreters: (at reference speed, raw).

    The probes run on one CPU, which is calibrated before and after each.
    """
    saved = os.sched_getaffinity(0)
    cpus = sorted(saved)[:1]
    os.sched_setaffinity(0, cpus)
    raw, scaled = [], []
    try:
        before = slowdown(cpus)
        for _ in range(SETUP_REPEATS):
            out = _finish(_start(["-c", SETUP_PROBE], stdout=subprocess.PIPE, text=True),
                          deadline, "the set-up probe")
            after = slowdown(cpus)
            raw.append(float(out.strip().splitlines()[-1]))
            scaled.append(raw[-1] / ((before + after) / 2))
            before = after
    finally:
        os.sched_setaffinity(0, saved)
    return scaled, raw


def _steal_ticks() -> int:
    with open("/proc/stat", encoding="ascii") as handle:
        return int(handle.readline().split()[8])


def host_facts() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((ln.split(":", 1)[1].strip() for ln in handle
                          if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "git_commit": commit}


def quartiles(values: list) -> dict:
    values = sorted(values)
    if len(values) < 2:
        v = values[0] if values else None
        return {"median": v, "q1": v, "q3": v, "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_checks(name: str, ref_dir: Path, inputs: dict, blocks: int, prepared: dict):
    sys.path.insert(0, str(SRC))
    import checks

    if name == "sim-ascii":
        return checks.check_sim(ref_dir, inputs["key_hex"], blocks, inputs["run_seed"],
                                TRAIN_FRACTION)
    if name == "predict-csv":
        return checks.check_predict(ref_dir, prepared["csv"], blocks)
    return checks.check_real(ref_dir, inputs["key_hex"], blocks)


def _scaled_wall(ops: list) -> float:
    """Median operation time at reference speed."""
    return statistics.median(op["wall_s"] / op["slowdown"] for op in ops)


def bench(args) -> dict:
    if not (SRC / "aeslab" / "__init__.py").is_file():
        raise HarnessError(f"no aeslab package under {SRC}")
    deadline = time.monotonic() + TIME_LIMIT_S
    name = args.workload
    blocks = args.blocks or WORKLOADS[name]["blocks"]
    inputs = derive_inputs(args.seed)
    facts = host_facts()
    load_start = os.getloadavg()
    steal_start = _steal_ticks()
    work = OUT / f"work-{name}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        prepared = ({} if name != "predict-csv"
                    else prepare_predict_inputs(work, inputs, blocks, deadline))
        setup, setup_raw = measure_setup(deadline)
        cmd = [str(HERE / "runner.py"), "--workload", name, "--run-seed", str(inputs["run_seed"]),
               "--key-hex", inputs["key_hex"], "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work)]
        if args.blocks:
            cmd += ["--blocks", str(args.blocks)]
        if prepared:
            cmd += ["--csv", str(prepared["csv"]), "--model", str(prepared["model"])]
        _finish(_start(cmd, stdout=subprocess.DEVNULL), deadline, "the workload loop")
        with open(work / "result.json", encoding="ascii") as handle:
            loop = json.load(handle)
        try:
            problems, quality = run_checks(name, work / "ref", inputs, blocks, prepared)
        except Exception as exc:  # outputs missing or unreadable: the run is not correct
            problems, quality = [f"output check failed: {type(exc).__name__}: {exc}"], {}
        spans_path = None
        if args.trace:
            spans_path = OUT / f"spans-{name}-s{args.seed}.json"
            shutil.move(str(work / "spans.json"), spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = loop["ops"]
    failed = []
    for i, op in enumerate(ops):
        if "error" in op:
            failed.append(i)
        elif not op["matches_reference"]:
            problems.append(f"operation {i} gave different outputs from the first one")
            failed.append(i)
        elif problems:
            failed.append(i)
    good = [op for i, op in enumerate(ops) if i not in failed]
    untraced = [op for op in good if not op["traced"]]
    n = loop["blocks"]
    dist = {
        "setup_s": quartiles(setup),
        "blocks_per_s": quartiles([n * op["slowdown"] / op["wall_s"] for op in untraced]),
        "cpu_us_per_block": quartiles([op["cpu_s"] / op["slowdown"] / n * 1e6 for op in untraced]),
        "raw_setup_s": quartiles(setup_raw),
        "raw_blocks_per_s": quartiles([n / op["wall_s"] for op in untraced]),
        "raw_cpu_us_per_block": quartiles([op["cpu_s"] / n * 1e6 for op in untraced]),
        "slowdown": quartiles([op["slowdown"] for op in untraced]),
    }
    if name.startswith("real-"):
        dist["block_latency_us_p50"] = quartiles([op["latency_p50_us"] for op in untraced])
        dist["block_latency_us_p99"] = quartiles([op["latency_p99_us"] for op in untraced])
    values = {k: (d["median"] if d["median"] is not None else 0.0) for k, d in dist.items()}
    values["peak_rss_mb"] = loop["peak_rss_mb"]
    values["failed_frac"] = len(failed) / len(ops)
    values.update(quality)

    if args.trace:
        traced = [op for op in good if op["traced"]]
        layer = {m: statistics.median([op_m[m] for op_m in loop["layer"]] or [0.0])
                 for m in LAYER_METRICS}
        layer["trace.overhead_frac"] = (
            _scaled_wall(traced) / _scaled_wall(untraced) - 1 if traced and untraced else 0.0)
        units = {**LAYER_METRICS, "trace.overhead_frac": "ratio"}
        metrics = {m: {"value": v, "unit": units[m]} for m, v in layer.items()}
    else:
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}

    report = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "blocks": n, "inputs": inputs, "problems": problems,
        "values": values, "distributions": dist,
        "host": {**facts, "numpy": loop["numpy"], "loadavg_start": load_start,
                 "loadavg_end": os.getloadavg(), "steal_ticks": _steal_ticks() - steal_start},
        "loop_s": loop["loop_s"],
    }
    if args.trace:
        report.update(layer=metrics, layer_ops=len(loop["layer"]), spans=str(spans_path),
                      trace_errors=loop["trace_errors"], trace_missing=loop["trace_missing"])
    return {"report": report, "result": {
        "correct": not problems and not failed, "attempted": len(ops), "failed": len(failed),
        "metrics": metrics}}


def _unit(metric: str) -> str:
    metric = metric.removeprefix("raw_")
    if metric in END_TO_END:
        return END_TO_END[metric]
    return "us" if metric.startswith("block_latency_us") else "ratio"


def print_report(report: dict) -> None:
    print(f"workload {report['workload']} seed {report['seed']}: {report['blocks']} blocks "
          f"per operation, {report['loop_s']:.1f} s loop")
    dist = report["distributions"]
    for key, value in report["values"].items():
        d = dist.get(key)
        spread = f"  (median of n={d['n']}, q1 {d['q1']:.6g}, q3 {d['q3']:.6g})" if d and d["n"] else ""
        print(f"  {key:<24} {value:.6g} {_unit(key)}{spread}")
    for name, m in report.get("layer", {}).items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    for problem in report["problems"]:
        print(f"  check failed: {problem}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="aeslab benchmark (see perfbench/README.md)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blocks", type=int, default=None,
                   help="override the block count (smoke test only)")
    args = p.parse_args(argv)
    try:
        out = bench(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(out["report"])
    print("report: " + json.dumps(out["report"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
