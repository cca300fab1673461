import argparse
import contextlib
import csv
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aeslab.bench as bench_mod
import aeslab.cipher as cipher_mod
import aeslab.cli as cli
from aeslab.bench import BenchRecord
from aeslab.cipher import Key128
from aeslab.cli import build_parser, main
from aeslab.detect_forest import (
    ByteSource, ForestHyperparams, ModelFormatError, load_model, split_train_test,
)
from aeslab.detect_threshold import fit_threshold
from aeslab.metrics_report import read_blocks_csv, rows_to_vectors
from aeslab.workload import MAX_WORKERS, InputDistribution, Mode, RunConfig

import oracle_model


def _run_flags(tmp_path, **overrides):
    flags = {
        "--blocks": "64",
        "--inject-pct": "30",
        "--seed": "7",
        "--mode": "simulated",
        "--trees": "11",
        "--out-dir": str(tmp_path),
    }
    flags.update(overrides)
    argv = ["run"]
    for k, v in flags.items():
        argv += [k, v]
    return argv


def test_kat_passes_and_lists_vectors(capsys):
    assert main(["kat"]) == 0
    out = capsys.readouterr().out
    assert "6 vectors" in out
    assert out.count(": ok") == 6
    assert "result: pass" in out


def _clear_kernel_caches():
    cipher_mod._schedule.cache_clear()


def _timed_kernel_matches():
    """Whether real mode's timed path gives each vector's published ciphertext."""
    return [cipher_mod.encrypt_timed(bytes.fromhex(pt_hex), [0.0], bytes.fromhex(key_hex), 1)[0]
            == bytes.fromhex(ct_hex) for _, key_hex, pt_hex, ct_hex in cipher_mod.KAT_VECTORS]


def _break_sbox(monkeypatch):
    broken = list(cipher_mod.SBOX)
    broken[0], broken[1] = broken[1], broken[0]
    monkeypatch.setattr(cipher_mod, "SBOX", tuple(broken))


def test_kat_fails_when_cipher_is_corrupted(capsys, monkeypatch):
    _break_sbox(monkeypatch)
    try:
        assert main(["kat"]) == 1
        assert "FAIL" in capsys.readouterr().out
        assert not any(_timed_kernel_matches())
        monkeypatch.undo()
        assert all(_timed_kernel_matches())
    finally:
        # tables and schedules built under the corrupted S-box must not outlive it
        _clear_kernel_caches()


def test_kat_fails_when_cipher_is_corrupted_after_schedules_are_cached(capsys, monkeypatch):
    # schedules and tables built under the good S-box must not serve a
    # corrupted one, and must serve again once the good one is back
    try:
        for _, key_hex, pt_hex, _ in cipher_mod.KAT_VECTORS:
            cipher_mod.aes128_encrypt_block(bytes.fromhex(pt_hex), cipher_mod.Key128.from_hex(key_hex))
        assert all(_timed_kernel_matches())
        _break_sbox(monkeypatch)
        assert main(["kat"]) == 1
        assert "FAIL" in capsys.readouterr().out
        assert not any(_timed_kernel_matches())
        monkeypatch.undo()
        assert main(["kat"]) == 0
        assert "result: pass" in capsys.readouterr().out
        assert all(_timed_kernel_matches())
    finally:
        _clear_kernel_caches()


def test_kat_names_the_kernel_that_disagrees(capsys, monkeypatch):
    broken = cipher_mod._SBOX_ARRAY.copy()
    broken[[0, 1]] = broken[[1, 0]]
    monkeypatch.setattr(cipher_mod, "_SBOX_ARRAY", broken)
    assert main(["kat"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if "FAIL expected" in line]
    assert fails and all("batch got" in line and "scalar" not in line for line in fails)


def test_kat_prints_one_line_per_vector_when_passing(capsys):
    assert main(["kat"]) == 0
    names = [name for name, _, _, _ in cipher_mod.KAT_VECTORS]
    expected = [f"known-answer suite: {len(names)} vectors"] + [f"  {n}: ok" for n in names]
    assert capsys.readouterr().out == "\n".join(expected + ["result: pass", ""])


def test_run_writes_both_csvs_and_prints_summary(tmp_path, capsys):
    assert main(_run_flags(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "threshold_us=" in out
    assert "accuracy_gain=" in out
    assert (tmp_path / "blocks_s7_n64_p30.csv").exists()
    assert (tmp_path / "summary_s7_n64_p30.csv").exists()


def test_run_is_deterministic_for_identical_flags(tmp_path):
    assert main(_run_flags(tmp_path / "a")) == 0
    assert main(_run_flags(tmp_path / "b")) == 0
    for name in ("blocks_s7_n64_p30.csv", "summary_s7_n64_p30.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_rejects_out_of_range_injection(tmp_path):
    for pct in ("120", "-1", "nan", "inf"):
        with pytest.raises(SystemExit) as excinfo:
            main(_run_flags(tmp_path, **{"--inject-pct": pct}))
        assert excinfo.value.code == 2


def test_run_rejects_seeds_beyond_64_bits(tmp_path, capsys):
    for seed in ("18446744073709551616", "-1"):
        with pytest.raises(SystemExit) as excinfo:
            main(_run_flags(tmp_path, **{"--seed": seed}))
        assert excinfo.value.code == 2
    assert "18446744073709551615" in capsys.readouterr().err
    assert main(_run_flags(tmp_path, **{"--seed": "18446744073709551615"})) == 0


def test_run_rejects_delays_beyond_the_bound(tmp_path, capsys):
    argv = _run_flags(tmp_path, **{"--mode": "real", "--inject-pct": "100",
                                   "--delay-min-us": "1e299", "--delay-max-us": "1e300"})
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "--delay-min-us" in err and "Traceback" not in err
    with pytest.raises(SystemExit) as excinfo:
        main(_run_flags(tmp_path, **{"--delay-max-us": "3.6e9"}))  # the bound itself is out
    assert excinfo.value.code == 2


def test_non_finite_numbers_are_usage_errors(tmp_path, capsys, monkeypatch):
    for flag, value in (("--delay-max-us", "inf"), ("--delay-min-us", "nan"),
                        ("--train-fraction", "nan")):
        with pytest.raises(SystemExit) as excinfo:
            main(_run_flags(tmp_path, **{flag: value}))
        assert excinfo.value.code == 2
    monkeypatch.setenv("AESLAB_DELAY_MAX_US", "1e400")  # parses to inf
    with pytest.raises(SystemExit) as excinfo:
        main(_run_flags(tmp_path))
    assert excinfo.value.code == 2
    assert "--delay-max-us" in capsys.readouterr().err


def test_run_rejects_inverted_delay_range(tmp_path):
    argv = _run_flags(tmp_path) + ["--delay-min-us", "9000", "--delay-max-us", "100"]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


def test_run_rejects_bad_key(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(_run_flags(tmp_path, **{"--key-hex": "nothex"}))
    assert excinfo.value.code == 2


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_environment_variables_supply_defaults(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AESLAB_BLOCKS", "32")
    monkeypatch.setenv("AESLAB_OUT_DIR", str(tmp_path))
    argv = _run_flags(tmp_path)
    argv.remove("--blocks")
    argv.remove("64")
    assert main(argv) == 0
    assert (tmp_path / "blocks_s7_n32_p30.csv").exists()


def test_command_line_beats_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("AESLAB_BLOCKS", "32")
    assert main(_run_flags(tmp_path)) == 0
    assert (tmp_path / "blocks_s7_n64_p30.csv").exists()


def test_invalid_environment_value_is_a_usage_error(tmp_path, monkeypatch):
    monkeypatch.setenv("AESLAB_BLOCKS", "plenty")
    argv = _run_flags(tmp_path)
    argv.remove("--blocks")
    argv.remove("64")
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


def test_invalid_environment_enum_is_a_usage_error(tmp_path, monkeypatch):
    monkeypatch.setenv("AESLAB_MODE", "warp")
    argv = _run_flags(tmp_path)
    argv.remove("--mode")
    argv.remove("simulated")
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    monkeypatch.delenv("AESLAB_MODE")
    for name in ("AESLAB_BYTE_SOURCE", "AESLAB_INPUT_DIST", "AESLAB_THRESHOLD_FIT"):
        with monkeypatch.context() as m:
            m.setenv(name, "warp")
            with pytest.raises(SystemExit) as excinfo:
                main(_run_flags(tmp_path))
            assert excinfo.value.code == 2
    monkeypatch.setenv("AESLAB_INPUT_DIST", "warp")
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--block-counts", "8", "--out-dir", str(tmp_path)])
    assert excinfo.value.code == 2


# every AESLAB_* variable: its flag, a valid value other than the flag's default, and what
# that value parses to
_ENV_VARIABLES = {
    "AESLAB_BLOCKS": ("--blocks", "33", 33),
    "AESLAB_WORKERS": ("--workers", "3", 3),
    "AESLAB_MODE": ("--mode", "simulated", Mode.SIMULATED),
    "AESLAB_DELAY_MIN_US": ("--delay-min-us", "6000.5", 6000.5),
    "AESLAB_DELAY_MAX_US": ("--delay-max-us", "7000.5", 7000.5),
    "AESLAB_INJECT_PCT": ("--inject-pct", "12.5", 12.5),
    "AESLAB_SEED": ("--seed", "9", 9),
    "AESLAB_INPUT_DIST": ("--input-dist", "uniform", InputDistribution.UNIFORM),
    "AESLAB_WORK_AMP": ("--work-amp", "2", 2),
    "AESLAB_KEY_HEX": ("--key-hex", "ff" * 16, Key128(b"\xff" * 16)),
    "AESLAB_TREES": ("--trees", "7", 7),
    "AESLAB_MAX_DEPTH": ("--max-depth", "none", None),
    "AESLAB_TRAIN_FRACTION": ("--train-fraction", "0.5", 0.5),
    "AESLAB_BYTE_SOURCE": ("--byte-source", "ciphertext", ByteSource.CIPHERTEXT),
    "AESLAB_THRESHOLD_FIT": ("--threshold-fit", "train", "train"),
    "AESLAB_OUT_DIR": ("--out-dir", "elsewhere", "elsewhere"),
    "AESLAB_BLOCK_COUNTS": ("--block-counts", "8,16", [8, 16]),
    "AESLAB_WORKER_COUNTS": ("--worker-counts", "2", [2]),
}
_NO_DEFAULT_FLAGS = {"--from-csv", "--model-out", "--model", "--csv"}
# the least each subcommand needs to parse
_MINIMAL_ARGV = {"run": [], "bench": [], "kat": [], "train": ["--model-out", "m.txt"],
                 "predict": ["--model", "m.txt", "--csv", "b.csv"]}


def _subcommand_options():
    """(subcommand, option action) for every option of every subcommand but --help."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [(name, action) for name, p in sub.choices.items() for action in p._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)]


def test_every_defaulted_flag_follows_its_environment_variable(monkeypatch):
    for name in _ENV_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    options = _subcommand_options()
    defaulted = {a.option_strings[0] for _, a in options if a.default is not None}
    assert defaulted == {flag for flag, _, _ in _ENV_VARIABLES.values()}
    assert {a.option_strings[0] for _, a in options if a.default is None} == _NO_DEFAULT_FLAGS
    by_flag = {flag: (name, text, want) for name, (flag, text, want) in _ENV_VARIABLES.items()}
    for command, action in options:
        if action.default is None:
            continue
        name, text, want = by_flag[action.option_strings[0]]
        argv = [command, *_MINIMAL_ARGV[command]]
        unset = getattr(build_parser().parse_args(argv), action.dest)
        with monkeypatch.context() as m:
            m.setenv(name, text)
            got = getattr(build_parser().parse_args(argv), action.dest)
        assert got == want != unset, (name, command)


def test_flags_without_a_default_have_no_environment_variable(monkeypatch):
    for flag in _NO_DEFAULT_FLAGS:
        monkeypatch.setenv("AESLAB_" + flag[2:].upper().replace("-", "_"), "from-the-environment")
    args = build_parser().parse_args(["train", "--model-out", "m.txt"])
    assert args.from_csv is None and args.model_out == "m.txt"
    for argv in (["train"], ["predict", "--csv", "b.csv"], ["predict", "--model", "m.txt"]):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 1.46 TiB for an array with shape (100000000000, 16)",
     "error: Unable to allocate 1.46 TiB for an array with shape (100000000000, 16)\n"),
    ("", "error: MemoryError\n"),  # Python's own MemoryError carries no message
])
def test_running_out_of_memory_is_a_one_line_error(tmp_path, capsys, monkeypatch, message, line):
    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_pipeline", no_memory)  # nothing is really allocated
    assert main(_run_flags(tmp_path)) == 1
    assert capsys.readouterr().err == line


def test_run_real_mode_smoke(tmp_path, capsys):
    argv = _run_flags(
        tmp_path, **{"--mode": "real", "--blocks": "48", "--inject-pct": "25",
                     "--delay-min-us": "2000", "--delay-max-us": "4000"}
    )
    assert main(argv) == 0
    assert (tmp_path / "blocks_s7_n48_p25.csv").exists()


def test_run_with_ciphertext_features(tmp_path):
    assert main(_run_flags(tmp_path, **{"--byte-source": "ciphertext"})) == 0


def test_threshold_fit_train_fits_on_the_train_rows(tmp_path, capsys):
    cut = {}
    for fit in ("train", "all"):
        assert main(["run", "--mode", "simulated", "--blocks", "256", "--inject-pct", "30",
                     "--seed", "7", "--threshold-fit", fit, "--out-dir", str(tmp_path / fit)]) == 0
        assert f"(fit={fit})" in capsys.readouterr().out
        summary = tmp_path / fit / "summary_s7_n256_p30.csv"
        with open(summary, newline="", encoding="ascii") as handle:
            (cut[fit],) = {float(row["threshold_us"]) for row in csv.DictReader(handle)}
    # the train rows, recovered from the exported blocks as the run split them
    table = read_blocks_csv(tmp_path / "train" / "blocks_s7_n256_p30.csv")
    data, _ = rows_to_vectors(table)
    train = split_train_test(data, 0.7, 7).train_indices
    assert cut["train"] == pytest.approx(fit_threshold(table.time_us[train]).threshold_us, abs=1e-3)
    assert cut["all"] == pytest.approx(fit_threshold(table.time_us).threshold_us, abs=1e-3)
    assert (cut["train"], cut["all"]) == (2870.444, 2642.883)


@pytest.mark.parametrize("command", sorted(_MINIMAL_ARGV))
def test_help_shows_each_default_once(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # no help text is wrapped
    for name in _ENV_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("AESLAB_SEED", "9")  # the default in force is the environment's
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    # one entry an option: its flags, then its help on the same line or the next
    entries = [" ".join(entry.split()) for entry in re.split(r"\n(?=  -)", out)]
    defaulted = [a for c, a in _subcommand_options() if c == command and a.default is not None]
    assert out.count("(default") == len(defaulted)
    for action in defaulted:
        (entry,) = [e for e in entries if e.startswith(action.option_strings[0] + " ")]
        shown = "9" if action.dest == "seed" else action.default
        assert entry.endswith(f" (default {shown})"), entry


def test_bare_commands_parse_to_the_default_configs(monkeypatch):
    for name in _ENV_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for argv in (["run"], ["train", "--model-out", "m.txt"]):
        args = build_parser().parse_args(argv)
        assert cli._build_run_config(args, args.command_parser) == RunConfig()
        assert cli._build_hyper(args) == ForestHyperparams()


@pytest.mark.parametrize("text, depth", [("5", 5), ("0", 0), ("none", None), ("None", None)])
def test_max_depth_parses_to_a_limit_or_none(text, depth):
    args = build_parser().parse_args(["run", "--max-depth", text])
    assert cli._build_hyper(args).max_depth == depth


@pytest.mark.parametrize("text", ["-1", "2.5"])
def test_bad_depths_are_usage_errors(text, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["run", "--max-depth", text])
    assert excinfo.value.code == 2
    assert "--max-depth" in capsys.readouterr().err


def test_predict_of_an_empty_csv_is_a_one_line_error(saved_model, tmp_path, capsys):
    model, empty = tmp_path / "model.txt", tmp_path / "empty.csv"
    model.write_bytes(saved_model[0])
    empty.write_bytes(b"")
    assert main(["predict", "--model", str(model), "--csv", str(empty)]) == 1
    assert capsys.readouterr().err == f"error: {empty}: empty CSV\n"


def test_help_documents_flags_with_units(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--blocks", "--inject-pct", "--workers", "--seed", "--mode",
                 "--delay-min-us", "--delay-max-us", "--input-dist", "--byte-source",
                 "--trees", "--max-depth", "--train-fraction", "--threshold-fit",
                 "--work-amp", "--out-dir", "--key-hex"):
        assert flag in out
    assert "microseconds" in out


def test_every_run_flag_has_a_default():
    parser = build_parser()
    args = parser.parse_args(["run"])
    assert args.n_blocks >= 1
    assert args.key_hex is not None
    assert args.out_dir


def test_train_then_predict_round_trip(tmp_path, capsys):
    assert main(_run_flags(tmp_path)) == 0
    capsys.readouterr()
    blocks_csv = tmp_path / "blocks_s7_n64_p30.csv"
    model_path = tmp_path / "model.txt"
    assert main(["train", "--from-csv", str(blocks_csv),
                 "--model-out", str(model_path), "--trees", "9"]) == 0
    train_out = capsys.readouterr().out
    train_metrics = [l for l in train_out.splitlines() if l.startswith("forest:")]
    assert len(train_metrics) == 1
    assert model_path.exists()

    assert main(["predict", "--model", str(model_path), "--csv", str(blocks_csv)]) == 0
    predict_out = capsys.readouterr().out
    lines = predict_out.splitlines()
    assert lines[0] == "index,predicted"
    data_lines = [l for l in lines[1:] if "," in l]
    assert len(data_lines) == 64
    predict_metrics = [l for l in lines if l.startswith("forest:")]
    assert predict_metrics == train_metrics  # serialization kept the model intact


def test_train_on_live_run(tmp_path, capsys):
    model_path = tmp_path / "live.txt"
    assert main(["train", "--blocks", "64", "--inject-pct", "30", "--seed", "3",
                 "--mode", "simulated", "--trees", "7",
                 "--model-out", str(model_path)]) == 0
    assert model_path.exists()
    assert "trained 7 trees on 64 samples" in capsys.readouterr().out


def test_predict_without_labels_emits_no_metrics(tmp_path, capsys):
    assert main(_run_flags(tmp_path)) == 0
    capsys.readouterr()
    blocks_csv = tmp_path / "blocks_s7_n64_p30.csv"
    model_path = tmp_path / "model.txt"
    assert main(["train", "--from-csv", str(blocks_csv),
                 "--model-out", str(model_path), "--trees", "5"]) == 0
    capsys.readouterr()

    stripped = tmp_path / "nolabels.csv"
    with open(blocks_csv, newline="", encoding="ascii") as src, \
            open(stripped, "w", newline="", encoding="ascii") as dst:
        reader = csv.DictReader(src)
        keep = [c for c in reader.fieldnames if c != "truth_label"]
        writer = csv.DictWriter(dst, fieldnames=keep)
        writer.writeheader()
        for row in reader:
            writer.writerow({k: row[k] for k in keep})

    assert main(["predict", "--model", str(model_path), "--csv", str(stripped)]) == 0
    out = capsys.readouterr().out
    assert "index,predicted" in out
    assert "forest:" not in out

    # and a label-free table cannot train a model
    assert main(["train", "--from-csv", str(stripped),
                 "--model-out", str(tmp_path / "nope.txt")]) == 1


def test_predict_requires_model_flag():
    with pytest.raises(SystemExit) as excinfo:
        main(["predict", "--csv", "whatever.csv"])
    assert excinfo.value.code == 2


def test_predict_rejects_wrong_model_version(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("aeslab-forest 99\n", encoding="ascii")
    csv_path = tmp_path / "in.csv"
    header = ["index", "time_us"] + [f"b{i}" for i in range(16)]
    csv_path.write_text(",".join(header) + "\n0,1.0," + ",".join(["00"] * 16) + "\n",
                        encoding="ascii")
    assert main(["predict", "--model", str(bad), "--csv", str(csv_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_csv_or_model_is_a_one_line_error(tmp_path, capsys):
    assert main(_run_flags(tmp_path)) == 0
    blocks_csv = tmp_path / "blocks_s7_n64_p30.csv"
    model_path = tmp_path / "model.txt"
    assert main(["train", "--from-csv", str(blocks_csv), "--model-out", str(model_path),
                 "--trees", "3"]) == 0
    capsys.readouterr()
    lines = blocks_csv.read_text(encoding="ascii").splitlines()

    def with_field(line_no, col, value):
        fields = lines[line_no].split(",")
        fields[col] = value
        return "\n".join(lines[:line_no] + [",".join(fields)] + lines[line_no + 1:]) + "\n"

    model_lines = model_path.read_text(encoding="ascii").splitlines()
    first_split = next(i for i, l in enumerate(model_lines) if l.startswith("i "))
    first_leaf = next(i for i, l in enumerate(model_lines) if l.startswith("l "))
    bad_csvs = {"nan.csv": with_field(3, 1, "nan"), "dup.csv": with_field(5, 0, "1")}
    bad_models = {
        "index.txt": model_lines[:first_split] + ["i 99 1.0"] + model_lines[first_split + 1:],
        "negative.txt": model_lines[:first_leaf] + ["l -5 3"] + model_lines[first_leaf + 1:],
    }
    cases = []
    for name, text in bad_csvs.items():
        (tmp_path / name).write_text(text, encoding="ascii")
        cases.append((model_path, tmp_path / name))
    for name, body in bad_models.items():
        (tmp_path / name).write_text("\n".join(body) + "\n", encoding="ascii")
        cases.append((tmp_path / name, blocks_csv))
    for model, csv_path in cases:
        assert main(["predict", "--model", str(model), "--csv", str(csv_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """(model bytes, blocks CSV path) from a small run and a 3-tree train on its CSV."""
    out = tmp_path_factory.mktemp("saved")
    assert main(_run_flags(out)) == 0
    blocks_csv = out / "blocks_s7_n64_p30.csv"
    model_path = out / "model.txt"
    assert main(["train", "--from-csv", str(blocks_csv), "--model-out", str(model_path),
                 "--trees", "3"]) == 0
    return model_path.read_bytes(), blocks_csv


_EDITS = st.tuples(
    st.sampled_from(["replace", "insert", "delete"]),
    st.floats(0.0, 1.0, exclude_max=True),  # where, as a share of the file's length
    st.one_of(st.sampled_from(b"0123456789 .-+\nilenaf_x"), st.integers(0, 255)),
)


def _edited(original, edits):
    data = bytearray(original)
    for op, where, byte in edits:
        at = int(where * len(data))
        if op == "replace" and data:
            data[at] = byte
        elif op == "insert":
            data.insert(at, byte)
        elif data:
            del data[at]
    return bytes(data)


@settings(max_examples=150, deadline=None)
@given(st.lists(_EDITS, min_size=1, max_size=4))
def test_mutated_model_files_load_or_fail_as_one_error_line(saved_model, tmp_path_factory, edits):
    original, blocks_csv = saved_model
    path = tmp_path_factory.mktemp("mutated") / "model.txt"
    path.write_bytes(_edited(original, edits))
    try:
        load_model(str(path))
    except ModelFormatError:
        pass
    else:
        return  # the edits kept the file well formed
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main(["predict", "--model", str(path), "--csv", str(blocks_csv)])
    assert status == 1
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()


@settings(max_examples=50, deadline=None)
@given(st.lists(_EDITS, max_size=4))
def test_mutated_model_files_load_as_the_line_reader_reads_them(saved_model, edits):
    # the same model or the same message, whichever pass load_model takes
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        path.write_bytes(_edited(saved_model[0], edits))
        try:
            want = repr(oracle_model.load(path))
        except ValueError as exc:
            want = str(exc)
        try:
            got = repr(oracle_model.plain(load_model(str(path))))
        except ModelFormatError as exc:
            got = str(exc)
    assert got == want


def test_worker_counts_beyond_the_bound_are_usage_errors(tmp_path, capsys, monkeypatch):
    # parse only: a pool of an out-of-range size must never start
    top, over = str(MAX_WORKERS), str(MAX_WORKERS + 1)
    assert build_parser().parse_args(["run", "--workers", top]).workers == MAX_WORKERS
    parsed = build_parser().parse_args(["bench", "--worker-counts", f"1,{top}"])
    assert parsed.worker_counts == [1, MAX_WORKERS]
    for argv in (_run_flags(tmp_path, **{"--workers": over}),
                 ["train", "--model-out", str(tmp_path / "m.txt"), "--workers", over],
                 ["bench", "--worker-counts", f"1,{over}", "--out-dir", str(tmp_path)]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert top in capsys.readouterr().err
    for name, argv in (("AESLAB_WORKERS", _run_flags(tmp_path)),
                       ("AESLAB_WORKER_COUNTS", ["bench", "--out-dir", str(tmp_path)])):
        with monkeypatch.context() as m:
            m.setenv(name, "100000")
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
    assert not list(tmp_path.iterdir())


def test_missing_input_file_exits_nonzero(tmp_path, capsys):
    assert main(["train", "--from-csv", str(tmp_path / "ghost.csv"),
                 "--model-out", str(tmp_path / "m.txt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_bench_writes_csv_and_table(tmp_path, capsys):
    assert main(["bench", "--block-counts", "48", "--worker-counts", "1",
                 "--out-dir", str(tmp_path)]) == 0
    bench_files = list(tmp_path.glob("bench_*.csv"))
    assert len(bench_files) == 1
    written = bench_files[0].read_text(encoding="ascii")
    assert capsys.readouterr().out == written.replace("\r\n", "\n") + f"wrote {bench_files[0]}\n"
    with open(bench_files[0], newline="", encoding="ascii") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 1
    assert rows[0]["block_count"] == "48" and rows[0]["throughput_bps"]


def test_a_failing_bench_cell_is_printed_and_fails_the_command(tmp_path, capsys, monkeypatch):
    def failing_sweep(block_counts, worker_counts, base, key, csv_path):
        assert base == RunConfig(inject_pct=0.0, mode=Mode.REAL)
        return [BenchRecord(block_counts[0], worker_counts[0], None, None, None, None,
                            error="no pool, says the cell")]

    monkeypatch.setattr(bench_mod, "sweep", failing_sweep)
    assert main(["bench", "--block-counts", "8", "--worker-counts", "2",
                 "--out-dir", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "block_count,workers,mean_latency_us,throughput_bps,peak_memory_mb,peak_children_mb,"
        "wall_time_s,error",
        '8,2,,,,,,"no pool, says the cell"',
    ]
    assert lines[2].startswith("wrote ") and len(lines) == 3


def test_a_bench_cell_whose_process_dies_is_printed_and_fails_the_command(
        tmp_path, capsys, monkeypatch):
    real_measure = bench_mod.measure_run

    def dying(cfg, key):
        if cfg.n_blocks == 16:
            os._exit(3)
        return real_measure(cfg, key)

    monkeypatch.setattr(bench_mod, "measure_run", dying)
    assert main(["bench", "--block-counts", "8,16,24", "--worker-counts", "1",
                 "--out-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    *table, wrote = captured.out.splitlines()
    assert wrote.startswith("wrote ")
    rows = list(csv.DictReader(table))
    assert [row["block_count"] for row in rows] == ["8", "16", "24"]
    assert rows[1]["error"].startswith("cell process died: ") and rows[1]["wall_time_s"] == ""
    assert rows[0]["error"] == rows[2]["error"] == "" and rows[0]["wall_time_s"]


def test_bench_accepts_comma_lists(tmp_path):
    assert main(["bench", "--block-counts", "32,48", "--worker-counts", "1",
                 "--out-dir", str(tmp_path)]) == 0
    bench_files = list(tmp_path.glob("bench_*.csv"))
    with open(bench_files[0], newline="", encoding="ascii") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["block_count"] for r in rows] == ["32", "48"]


def test_bench_rejects_bad_counts(tmp_path):
    for counts in ("0", "8,x"):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--block-counts", counts, "--out-dir", str(tmp_path)])
        assert excinfo.value.code == 2


def test_module_entry_point_runs():
    # the child imports the package from wherever this process found it, installed or not
    proc = subprocess.run(
        [sys.executable, "-m", "aeslab", "kat"], capture_output=True, encoding="ascii",
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0
    assert "result: pass" in proc.stdout
