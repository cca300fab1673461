"""Command-line front end.

Subcommands:
  run      generate, inject, encrypt, detect with each detector, export CSVs
  bench    latency/throughput sweep over block and worker counts
  kat      known-answer self-test of the cipher
  train    fit a forest on a per-block CSV or a fresh run and save it
  predict  load a saved forest and classify a per-block CSV

Every flag with a default can also be set through an environment variable
named AESLAB_<FLAG> (dashes become underscores, e.g. AESLAB_INJECT_PCT);
command-line values win over the environment, and --help shows the default
in force. The four flags without a default, train's --from-csv and
--model-out and predict's --model and --csv, have no variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time
from pathlib import Path
from typing import List, Mapping, Optional, Sequence

import numpy as np

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
    SplitResult,
    fit_forest,
    load_model,
    predict_all,
    save_model,
    split_train_test,
)
from .metrics_report import (
    FLAG_WORDS,
    BlockTable,
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


def _flag(p: argparse.ArgumentParser, flag: str, default, help: str, **kwargs) -> None:
    """Add flag to p with its default overridden by AESLAB_<FLAG> (dashes become
    underscores) where that is set; command-line values still take precedence.
    Its help ends with the default in force."""
    env = ENV_PREFIX + flag.lstrip("-").upper().replace("-", "_")
    p.add_argument(flag, default=os.environ.get(env, default),
                   help=help + " (default %(default)s)", **kwargs)


def _field(p: argparse.ArgumentParser, flag: str, config, dest: str, **kwargs) -> None:
    """A _flag that sets the config field dest, by default to its value in config
    (an enum by its value)."""
    default = getattr(config, dest)
    _flag(p, flag, getattr(default, "value", default), dest=dest, **kwargs)


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


def _add_input_flags(p: argparse.ArgumentParser, cfg: RunConfig) -> None:
    """Flags of every command that generates and encrypts blocks."""
    _field(p, "--inject-pct", cfg, "inject_pct", type=_bounded(float, 0.0, 100.0),
           help="percentage of blocks tagged anomalous")
    _field(p, "--seed", cfg, "seed", type=_bounded(int, 0, 2**64 - 1), help="run seed")
    _field(p, "--input-dist", cfg, "input_dist", type=InputDistribution,
           help="plaintext byte distribution: uniform or ascii")
    _field(p, "--work-amp", cfg, "work_amplification", type=_bounded(int, 1),
           help="encryption passes per block in real mode")
    _flag(p, "--key-hex", DEFAULT_KEY_HEX, type=_key, help="AES-128 key as 32 hex digits")


def _add_workload_flags(p: argparse.ArgumentParser, cfg: RunConfig) -> None:
    _field(p, "--blocks", cfg, "n_blocks", type=_bounded(int, 1), help="blocks per run")
    _field(p, "--workers", cfg, "workers", type=_bounded(int, 1, MAX_WORKERS),
           help=f"worker processes for real mode, at most {MAX_WORKERS}; "
                "simulated mode encrypts in one batch in this process")
    _field(p, "--mode", cfg, "mode", type=Mode,
           help="timing source: real (measured wall clock) or simulated (seeded model)")
    delay = _bounded(float, 0.0, MAX_DELAY_US, strict=True)
    _field(p, "--delay-min-us", cfg, "delay_min_us", type=delay,
           help=f"minimum injected delay in microseconds, below {MAX_DELAY_US:g}")
    _field(p, "--delay-max-us", cfg, "delay_max_us", type=delay,
           help=f"maximum injected delay in microseconds, below {MAX_DELAY_US:g}")
    _add_input_flags(p, cfg)


def _add_forest_flags(p: argparse.ArgumentParser, hyper: ForestHyperparams) -> None:
    _field(p, "--trees", hyper, "n_trees", type=_bounded(int, 1), help="trees in the forest")
    _field(p, "--max-depth", hyper, "max_depth", type=_depth,
           help="tree depth limit, or 'none'")
    _field(p, "--train-fraction", hyper, "train_fraction",
           type=_bounded(float, 0.0, 1.0, strict=True), help="stratified train share")
    _flag(p, "--byte-source", ByteSource.PLAINTEXT.value, type=ByteSource,
          help="which bytes feed the 16 byte features: plaintext or ciphertext")


def _add_out_dir_flag(p: argparse.ArgumentParser) -> None:
    _flag(p, "--out-dir", "results", help="directory for CSV artifacts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aeslab",
        description="AES-128-ECB anomaly-injection lab with threshold and forest detectors",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cfg, hyper = RunConfig(), ForestHyperparams()

    p_run = sub.add_parser("run", help="full pipeline: inject, encrypt, detect, export")
    _add_workload_flags(p_run, cfg)
    _add_forest_flags(p_run, hyper)
    _flag(p_run, "--threshold-fit", "all", type=_one_of("all", "train"), metavar="{all,train}",
          help="fit the timing cut-off on the whole run (all) or the train subset (train)")
    _add_out_dir_flag(p_run)
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="latency/throughput sweep (real mode)")
    _flag(p_bench, "--block-counts", "1024,4096,8192,16384", type=_counts(),
          help="comma-separated block counts")
    _flag(p_bench, "--worker-counts", "1,2,4", type=_counts(MAX_WORKERS),
          help=f"comma-separated worker counts, each at most {MAX_WORKERS}")
    _add_input_flags(p_bench, RunConfig(inject_pct=0.0))
    _add_out_dir_flag(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_kat = sub.add_parser("kat", help="cipher known-answer self-test")
    p_kat.set_defaults(func=cmd_kat)

    p_train = sub.add_parser("train", help="fit a forest and save it")
    p_train.add_argument("--from-csv", default=None,
                         help="per-block CSV with truth labels; omit to train on a fresh run")
    p_train.add_argument("--model-out", required=True, help="where to write the model file")
    _add_workload_flags(p_train, cfg)
    _add_forest_flags(p_train, hyper)
    p_train.set_defaults(func=cmd_train)

    p_predict = sub.add_parser("predict", help="classify a per-block CSV with a saved forest")
    p_predict.add_argument("--model", required=True, help="model file written by train")
    p_predict.add_argument("--csv", required=True, help="per-block CSV to classify")
    p_predict.set_defaults(func=cmd_predict)

    for p in sub.choices.values():
        p.set_defaults(command_parser=p)
    return parser


def _config(base, args):
    """base with each of its fields that args holds, under the field's name, taken from args.
    A combination of values the config refuses, such as an inverted delay range, is a
    usage error of args' command (exit 2) carrying the config's own message."""
    given = vars(args)
    try:
        return dataclasses.replace(
            base, **{f.name: given[f.name] for f in dataclasses.fields(base) if f.name in given})
    except ValueError as exc:
        args.command_parser.error(str(exc))


def _print_report(report: DetectionReport) -> None:
    cells = report.cells()
    detector = cells.pop("detector")
    print(f"{detector}: " + " ".join(f"{name}={value}" for name, value in cells.items()))


# A run's detectors, in the order of their summary rows and <name>_pred columns, as
# (name, fit, predict): fit(data, split, hyper, threshold_fit) returns a model, predict(model,
# X) one bool per row of X. Each looks its stages up here at call time, where callers wrap them.
DETECTORS = [
    ("threshold", lambda data, split, hyper, threshold_fit: fit_threshold(
        (split.train if threshold_fit == "train" else data).X[:, 0]),
     lambda model, X: classify_threshold(X[:, 0], model)),
    ("forest", lambda data, split, hyper, threshold_fit: fit_forest(split.train, hyper),
     lambda model, X: np.array(predict_all(model, X))),
]


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One scored run: its table with a prediction column per detector, the split,
    each detector's model and its report on the test rows, by name in DETECTORS'
    order, and the forest's accuracy gain over the threshold."""

    table: BlockTable
    split: SplitResult
    models: Mapping[str, object]
    reports: Mapping[str, DetectionReport]
    accuracy_gain: float


def run_experiment(cfg: RunConfig, hyper: ForestHyperparams, key: Key128,
                   byte_source: ByteSource, threshold_fit: str) -> Experiment:
    """Run cfg, fit each of DETECTORS, the timing cut-off on "all" rows or the "train"
    rows (threshold_fit) and the forest on the train rows, have each classify every
    row, and score it on the test rows."""
    if threshold_fit not in ("all", "train"):
        raise ValueError(f"threshold_fit must be 'all' or 'train', got {threshold_fit!r}")
    table = build_dataset(run_pipeline(cfg, key), byte_source)
    data, _ = rows_to_vectors(table)
    split = split_train_test(data, hyper.train_fraction, cfg.seed)
    models, preds, reports = {}, {}, {}
    for name, fit, predict in DETECTORS:
        models[name] = fit(data, split, hyper, threshold_fit)
        preds[name] = predict(models[name], data.X)
        reports[name] = score(preds[name][split.test_indices], split.test.y, name)
    return Experiment(dataclasses.replace(table, preds=preds), split, models, reports,
                      compare(reports["threshold"], reports["forest"]))


def cmd_run(args) -> int:
    cfg = _config(RunConfig(), args)
    run = run_experiment(cfg, _config(ForestHyperparams(), args), args.key_hex,
                         args.byte_source, args.threshold_fit)
    threshold_us = run.models["threshold"].threshold_us
    blocks_path, summary_path = export_csv(
        run.table, list(run.reports.values()), run.accuracy_gain, args.out_dir,
        cfg=cfg, byte_source=args.byte_source,
        threshold_fit=args.threshold_fit, threshold_us=threshold_us,
    )

    anomalous = run.table.truth_label.sum()
    print(f"run {run_id(cfg)}: "
          f"{cfg.n_blocks} blocks ({anomalous} anomalous), mode={cfg.mode.value}, "
          f"workers={cfg.workers}, test size={len(run.split.test_indices)}")
    print(f"threshold_us={threshold_us:.3f} (fit={args.threshold_fit})")
    for report in run.reports.values():
        _print_report(report)
    print(f"accuracy_gain={run.accuracy_gain:+.6f}")
    print(f"wrote {blocks_path}")
    print(f"wrote {summary_path}")
    return 0


def cmd_bench(args) -> int:
    from .bench import sweep, write_rows  # bench and the pool code it loads serve this command only

    base = _config(RunConfig(mode=Mode.REAL), args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"bench_{time.strftime('%Y%m%d-%H%M%S')}.csv"
    results = sweep(args.block_counts, args.worker_counts, base, args.key_hex, csv_path)
    write_rows(sys.stdout, results, header=True, lineterminator="\n")
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
    hyper = _config(ForestHyperparams(), args)
    if args.from_csv is not None:
        data, has_labels = rows_to_vectors(read_blocks_csv(args.from_csv))
        if not has_labels:
            raise ValueError("training input needs a truth_label column")
    else:
        cfg = _config(RunConfig(), args)
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
