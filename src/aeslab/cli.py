"""Command-line front end.

Subcommands:
  run      generate, inject, encrypt, detect with both detectors, export CSVs
  bench    latency/throughput sweep over block and worker counts
  kat      known-answer self-test of the cipher
  train    fit a forest on a per-block CSV or a fresh run and save it
  predict  load a saved forest and classify a per-block CSV

Every flag with a default can also be set through an environment variable
named AESLAB_<FLAG> (dashes become underscores, e.g. AESLAB_INJECT_PCT);
command-line values win over the environment. The four flags without a
default, train's --from-csv and --model-out and predict's --model and
--csv, have no variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from .bench import sweep
from .cipher import (
    DEFAULT_KEY_HEX,
    Key128,
    PipelineError,
    run_known_answer_suite,
    run_pipeline,
)
from .detect_forest import (
    ByteSource,
    ForestHyperparams,
    fit_forest,
    load_model,
    predict_all,
    save_model,
    split_train_test,
)
from .metrics_report import (
    FLAG_WORDS,
    DetectionReport,
    build_dataset,
    compare,
    export_csv,
    read_blocks_csv,
    rows_to_vectors,
    run_id,
    score,
)
from .detect_threshold import classify_threshold, fit_threshold
from .workload import MAX_DELAY_US, MAX_WORKERS, InputDistribution, Mode, RunConfig

ENV_PREFIX = "AESLAB_"


def _flag(p: argparse.ArgumentParser, flag: str, default, **kwargs) -> None:
    """Add flag to p with its default overridden by AESLAB_<FLAG> (dashes become
    underscores) where that is set; command-line values still take precedence."""
    env = ENV_PREFIX + flag.lstrip("-").upper().replace("-", "_")
    p.add_argument(flag, default=os.environ.get(env, default), **kwargs)


def _bounded(kind: type, low: float, high: float = math.inf, *, strict: bool = False):
    """argparse type: a finite int or float in [low, high], or in (low, high) if strict."""
    noun = "an integer" if kind is int else "a number"
    lo, hi = (f"{v:g}" if isinstance(v, float) else str(v) for v in (low, high))
    span = f"({lo}, {hi})" if strict else f"[{lo}, {hi}]"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}")
        inside = low < value < high if strict else low <= value <= high
        if not inside or (kind is float and not math.isfinite(value)):
            raise argparse.ArgumentTypeError(f"expected {noun} in {span}, got {text!r}")
        return value

    return parse


def _one_of(*names: str):
    """argparse type: one of names. Unlike choices, it also checks environment defaults."""

    def parse(text: str) -> str:
        if text not in names:
            raise argparse.ArgumentTypeError(f"expected one of {', '.join(names)}, got {text!r}")
        return text

    return parse


def _depth(text: str) -> Optional[int]:
    if text.lower() == "none":
        return None
    return _bounded(int, 0)(text)


def _counts(high: float = math.inf):
    """argparse type: comma-separated integers in [1, high]."""

    def parse(text: str) -> List[int]:
        parts = [p.strip() for p in text.split(",") if p.strip()]
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
        if not values or min(values) < 1:
            raise argparse.ArgumentTypeError("counts must be positive integers")
        if max(values) > high:
            raise argparse.ArgumentTypeError(f"counts must not exceed {high}")
        return values

    return parse


def _key(text: str) -> Key128:
    try:
        return Key128.from_hex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_input_flags(p: argparse.ArgumentParser, inject_pct: float) -> None:
    """Flags of every command that generates and encrypts blocks."""
    _flag(p, "--inject-pct", inject_pct, type=_bounded(float, 0.0, 100.0),
          help=f"percentage of blocks tagged anomalous (default {inject_pct:g})")
    _flag(p, "--seed", 1, type=_bounded(int, 0, 2**64 - 1), help="run seed (default 1)")
    _flag(p, "--input-dist", "ascii", type=InputDistribution,
          help="plaintext byte distribution: uniform or ascii (default ascii)")
    _flag(p, "--work-amp", 1, type=_bounded(int, 1),
          help="encryption passes per block in real mode (default 1)")
    _flag(p, "--key-hex", DEFAULT_KEY_HEX, type=_key, help="AES-128 key as 32 hex digits")


def _add_workload_flags(p: argparse.ArgumentParser) -> None:
    _flag(p, "--blocks", 1024, type=_bounded(int, 1), help="blocks per run (default 1024)")
    _flag(p, "--workers", 1, type=_bounded(int, 1, MAX_WORKERS),
          help=f"worker processes for real mode, at most {MAX_WORKERS} (default 1); "
               "simulated mode encrypts in one batch in this process")
    _flag(p, "--mode", "real", type=Mode,
          help="timing source: real (measured wall clock) or simulated (seeded model) "
               "(default real)")
    _flag(p, "--delay-min-us", 5000.0, type=_bounded(float, 0.0, MAX_DELAY_US, strict=True),
          help=f"minimum injected delay in microseconds, below {MAX_DELAY_US:g} (default 5000)")
    _flag(p, "--delay-max-us", 20000.0, type=_bounded(float, 0.0, MAX_DELAY_US, strict=True),
          help=f"maximum injected delay in microseconds, below {MAX_DELAY_US:g} (default 20000)")
    _add_input_flags(p, inject_pct=20.0)


def _add_forest_flags(p: argparse.ArgumentParser) -> None:
    _flag(p, "--trees", 101, type=_bounded(int, 1), help="trees in the forest (default 101)")
    _flag(p, "--max-depth", 16, type=_depth, help="tree depth limit, or 'none' (default 16)")
    _flag(p, "--train-fraction", 0.7, type=_bounded(float, 0.0, 1.0, strict=True),
          help="stratified train share (default 0.7)")
    _flag(p, "--byte-source", "plaintext", type=ByteSource,
          help="which bytes feed the 16 byte features: plaintext or ciphertext "
               "(default plaintext)")


def _add_out_dir_flag(p: argparse.ArgumentParser) -> None:
    _flag(p, "--out-dir", "results", help="directory for CSV artifacts (default results)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aeslab",
        description="AES-128-ECB anomaly-injection lab with threshold and forest detectors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full pipeline: inject, encrypt, detect, export")
    _add_workload_flags(p_run)
    _add_forest_flags(p_run)
    _flag(p_run, "--threshold-fit", "all", type=_one_of("all", "train"), metavar="{all,train}",
          help="fit the timing cut-off on the whole run (all) or the train subset (train) "
               "(default all)")
    _add_out_dir_flag(p_run)
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="latency/throughput sweep (real mode)")
    _flag(p_bench, "--block-counts", [1024, 4096, 8192, 16384], type=_counts(),
          help="comma-separated block counts (default 1024,4096,8192,16384)")
    _flag(p_bench, "--worker-counts", [1, 2, 4], type=_counts(MAX_WORKERS),
          help=f"comma-separated worker counts, each at most {MAX_WORKERS} (default 1,2,4)")
    _add_input_flags(p_bench, inject_pct=0.0)
    _add_out_dir_flag(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_kat = sub.add_parser("kat", help="cipher known-answer self-test")
    p_kat.set_defaults(func=cmd_kat)

    p_train = sub.add_parser("train", help="fit a forest and save it")
    p_train.add_argument("--from-csv", default=None,
                         help="per-block CSV with truth labels; omit to train on a fresh run")
    p_train.add_argument("--model-out", required=True, help="where to write the model file")
    _add_workload_flags(p_train)
    _add_forest_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_predict = sub.add_parser("predict", help="classify a per-block CSV with a saved forest")
    p_predict.add_argument("--model", required=True, help="model file written by train")
    p_predict.add_argument("--csv", required=True, help="per-block CSV to classify")
    p_predict.set_defaults(func=cmd_predict)

    for p in sub.choices.values():
        p.set_defaults(command_parser=p)
    return parser


def _build_run_config(args, cp: argparse.ArgumentParser) -> RunConfig:
    if args.delay_min_us > args.delay_max_us:
        cp.error("--delay-min-us must not exceed --delay-max-us")
    return RunConfig(
        n_blocks=args.blocks,
        inject_pct=args.inject_pct,
        workers=args.workers,
        seed=args.seed,
        mode=args.mode,
        delay_min_us=args.delay_min_us,
        delay_max_us=args.delay_max_us,
        input_dist=args.input_dist,
        work_amplification=args.work_amp,
    )


def _build_hyper(args) -> ForestHyperparams:
    hyper = ForestHyperparams(
        n_trees=args.trees,
        max_depth=args.max_depth,
        seed=args.seed,
        train_fraction=args.train_fraction,
    )
    hyper.validate()
    return hyper


def _print_report(report: DetectionReport) -> None:
    c = report.counts
    print(
        f"{report.detector}: tp={c.tp} fp={c.fp} fn={c.fn} tn={c.tn} "
        f"accuracy={report.accuracy:.6f} precision={report.precision:.6f} "
        f"recall={report.recall:.6f} f1={report.f1:.6f}"
    )


def cmd_run(args) -> int:
    cfg = _build_run_config(args, args.command_parser)
    hyper = _build_hyper(args)

    table = build_dataset(run_pipeline(cfg, args.key_hex), args.byte_source)
    data, _ = rows_to_vectors(table)
    split = split_train_test(data, hyper.train_fraction, cfg.seed)

    fit_times = table.time_us[split.train_indices] if args.threshold_fit == "train" else table.time_us
    threshold_model = fit_threshold(fit_times)
    threshold_preds = classify_threshold(table.time_us, threshold_model)

    forest_model = fit_forest(split.train, hyper)
    forest_preds = np.array(predict_all(forest_model, data.X))

    test, truths = split.test_indices, split.test.y
    report_t = score(threshold_preds[test], truths, "threshold")
    report_f = score(forest_preds[test], truths, "forest")
    accuracy_gain = compare(report_t, report_f)

    table = dataclasses.replace(table, threshold_pred=threshold_preds, forest_pred=forest_preds)
    blocks_path, summary_path = export_csv(
        table, [report_t, report_f], accuracy_gain, args.out_dir,
        cfg=cfg, byte_source=args.byte_source,
        threshold_fit=args.threshold_fit, threshold_us=threshold_model.threshold_us,
    )

    anomalous = table.truth_label.sum()
    print(f"run {run_id(cfg.seed, cfg.n_blocks, cfg.inject_pct)}: "
          f"{cfg.n_blocks} blocks ({anomalous} anomalous), mode={cfg.mode.value}, "
          f"workers={cfg.workers}, test size={len(truths)}")
    print(f"threshold_us={threshold_model.threshold_us:.3f} (fit={args.threshold_fit})")
    _print_report(report_t)
    _print_report(report_f)
    print(f"accuracy_gain={accuracy_gain:+.6f}")
    print(f"wrote {blocks_path}")
    print(f"wrote {summary_path}")
    return 0


def cmd_bench(args) -> int:
    base = RunConfig(
        inject_pct=args.inject_pct,
        seed=args.seed,
        mode=Mode.REAL,
        input_dist=args.input_dist,
        work_amplification=args.work_amp,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"bench_{time.strftime('%Y%m%d-%H%M%S')}.csv"
    results = sweep(args.block_counts, args.worker_counts, base, args.key_hex, csv_path)
    print(f"{'blocks':>8} {'workers':>7} {'mean_us':>12} {'blocks_per_s':>14} {'peak_mb':>9} "
          f"{'peak_children_mb':>16} {'wall_s':>9}")
    for r in results:
        if r.error is not None:
            print(f"{r.block_count:>8} {r.workers:>7} error: {r.error}")
            continue
        mem, children = ("n/a" if mb is None else f"{mb:.1f}"
                         for mb in (r.peak_memory_mb, r.peak_children_mb))
        print(f"{r.block_count:>8} {r.workers:>7} {r.mean_latency_us:>12.3f} "
              f"{r.throughput_bps:>14.3f} {mem:>9} {children:>16} {r.wall_time_s:>9.3f}")
    print(f"wrote {csv_path}")
    return 1 if any(r.error is not None for r in results) else 0


def cmd_kat(args) -> int:
    results = run_known_answer_suite()
    print(f"known-answer suite: {len(results)} vectors")
    all_ok = True
    for r in results:
        status = "ok" if r.ok else f"FAIL expected {r.expected}, " + ", ".join(
            f"{kernel} got {got}" for kernel, got in r.mismatches)
        print(f"  {r.name}: {status}")
        all_ok = all_ok and r.ok
    print("result: pass" if all_ok else "result: FAIL")
    return 0 if all_ok else 1


def cmd_train(args) -> int:
    hyper = _build_hyper(args)
    if args.from_csv is not None:
        data, has_labels = rows_to_vectors(read_blocks_csv(args.from_csv))
        if not has_labels:
            print("error: training input needs a truth_label column", file=sys.stderr)
            return 1
    else:
        cfg = _build_run_config(args, args.command_parser)
        data, _ = rows_to_vectors(build_dataset(run_pipeline(cfg, args.key_hex), args.byte_source))
    model = fit_forest(data, hyper)
    Path(args.model_out).parent.mkdir(parents=True, exist_ok=True)
    save_model(model, args.model_out)
    report = score(predict_all(model, data.X), data.y, "forest")
    print(f"trained {hyper.n_trees} trees on {len(data)} samples")
    _print_report(report)
    print(f"wrote {args.model_out}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    table = read_blocks_csv(args.csv)
    data, has_labels = rows_to_vectors(table)
    preds = predict_all(model, data.X)
    rows = "".join([f"{i},{FLAG_WORDS[p]}\n" for i, p in zip(table.index.tolist(), preds)])
    sys.stdout.write("index,predicted\n" + rows)
    if has_labels:
        report = score(preds, data.y, "forest")
        _print_report(report)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, PipelineError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
