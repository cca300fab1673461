"""The package interface that the benchmark under perfbench/ drives.

perfbench/ is frozen: it wraps functions by their names in aeslab.cli and
aeslab.cipher, captures run_pipeline's records through the cli module
global, and recovers the test split from an exported blocks CSV. These
checks keep that interface working.
"""

import csv
import inspect

import aeslab.cipher as cipher
import aeslab.cli as cli
from aeslab.workload import Mode, RunConfig
from aeslab.detect_forest import load_model, predict_all, split_train_test
from aeslab.metrics_report import read_blocks_csv, rows_to_vectors

TRACED = {
    cipher: ("generate_blocks", "assign_anomalies", "encrypt_blocks"),
    cli: ("build_dataset", "split_train_test", "fit_forest", "predict_all", "load_model",
          "fit_threshold", "classify_threshold", "score", "export_csv", "read_blocks_csv",
          "rows_to_vectors"),
}
# the TRACED[cli] names `aeslab run` calls: score once per detector, each other once
RUN_STAGES = ("build_dataset", "rows_to_vectors", "split_train_test", "fit_threshold",
              "classify_threshold", "fit_forest", "predict_all", "score", "export_csv")


def test_traced_names_exist():
    for module, names in TRACED.items():
        for name in names:
            assert callable(getattr(module, name)), f"{module.__name__}.{name}"
    assert set(RUN_STAGES) <= set(TRACED[cli])
    assert list(inspect.signature(cipher.encrypt_blocks).parameters)[2] == "cfg"


def test_block_counters_count_blocks_and_real_records_carry_latency(monkeypatch):
    # the tracer counts blocks as len() of what generate_blocks and
    # assign_anomalies return, and sums r.time_us over encrypt_blocks' records
    counted = {}
    for name in ("generate_blocks", "assign_anomalies", "encrypt_blocks"):
        def traced(*args, _original=getattr(cipher, name), _name=name):
            result = _original(*args)
            counted[_name] = result
            return result
        monkeypatch.setattr(cipher, name, traced)
    cfg = RunConfig(n_blocks=50, inject_pct=0.0, seed=4, mode=Mode.REAL)
    cipher.run_pipeline(cfg, cipher.Key128(bytes(16)))
    assert len(counted["generate_blocks"]) == len(counted["assign_anomalies"]) == 50
    records = counted["encrypt_blocks"]
    assert len(records) == 50
    assert all(r.time_us > 0 for r in records)


def test_run_looks_up_pipeline_and_exports_recoverable_split(tmp_path, capsys, monkeypatch):
    # the benchmark captures the records and times each stage by replacing its name in
    # aeslab.cli, so run_experiment must look every stage up there
    returned = {name: [] for name in ("run_pipeline", *RUN_STAGES)}
    for name, kept in returned.items():
        def wrapped(*args, _original=getattr(cli, name), _kept=kept, **kwargs):
            _kept.append(_original(*args, **kwargs))
            return _kept[-1]
        monkeypatch.setattr(cli, name, wrapped)
    seed, fraction = 5, 0.7
    assert cli.main(["run", "--mode", "simulated", "--blocks", "200", "--inject-pct", "30",
                     "--trees", "5", "--train-fraction", str(fraction), "--seed", str(seed),
                     "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert {name: len(kept) for name, kept in returned.items()} == {
        name: 2 if name == "score" else 1 for name in returned}

    (records,) = returned["run_pipeline"]
    assert [r.index for r in records] == list(range(200))
    # the benchmark joins the records' bytes and reads their attributes
    assert all(type(r.plaintext) is bytes and type(r.ciphertext) is bytes for r in records)
    for r in records[:3]:
        assert len(r.plaintext) == len(r.ciphertext) == 16
        assert r.time_us > 0
        assert r.tag.kind.value in ("none", "delay", "fault")

    blocks = tmp_path / "blocks_s5_n200_p30.csv"
    data, has_labels = rows_to_vectors(read_blocks_csv(blocks))
    assert has_labels and len(data) == 200
    test = split_train_test(data, fraction, seed).test_indices
    with open(blocks, newline="", encoding="ascii") as handle:
        truths = [row["truth_label"] for row in csv.DictReader(handle)]
    picked = [truths[i] for i in test]  # plain list indexing, as the benchmark does
    with open(tmp_path / "summary_s5_n200_p30.csv", newline="", encoding="ascii") as handle:
        for row in csv.DictReader(handle):
            assert sum(int(row[k]) for k in ("tp", "fp", "fn", "tn")) == len(picked)
            assert int(row["tp"]) + int(row["fn"]) == picked.count("true")


def test_saved_model_keeps_the_preorder_dump(tmp_path, capsys):
    model_path = tmp_path / "m.txt"
    assert cli.main(["train", "--mode", "simulated", "--blocks", "120", "--inject-pct", "40",
                     "--trees", "3", "--model-out", str(model_path)]) == 0
    capsys.readouterr()
    lines = model_path.read_text(encoding="ascii").splitlines()
    assert [l for l in lines if l.startswith("tree ")] == ["tree 0", "tree 1", "tree 2"]
    assert all(l.split()[0] in ("i", "l") for l in lines[8:-1] if not l.startswith("tree "))
    model = load_model(str(model_path))
    assert len(model.trees) == 3
    data, _ = rows_to_vectors(read_blocks_csv(_blocks_csv(tmp_path)))
    assert len(predict_all(model, data.X)) == len(data)


def test_train_creates_the_model_directory(tmp_path, capsys):
    # the benchmark starts `run --out-dir D` and `train --model-out D/model.txt`
    # at the same time, so train must not rely on run having made D
    model_path = tmp_path / "not-yet" / "model.txt"
    assert cli.main(["train", "--mode", "simulated", "--blocks", "60", "--inject-pct", "40",
                     "--trees", "2", "--model-out", str(model_path)]) == 0
    capsys.readouterr()
    assert len(load_model(str(model_path)).trees) == 2


def test_csv_counters_count_rows_and_are_looked_up_at_call_time(tmp_path, capsys, monkeypatch):
    # the tracer counts blocks as len(read_blocks_csv(...)) and len(rows_to_vectors(...)[0])
    path = _blocks_csv(tmp_path)
    table = read_blocks_csv(path)
    assert len(table) == 4
    assert len(rows_to_vectors(table)[0]) == 4

    model_path = tmp_path / "m.txt"
    assert cli.main(["train", "--mode", "simulated", "--blocks", "60", "--inject-pct", "40",
                     "--trees", "2", "--model-out", str(model_path)]) == 0
    counted = {}
    for name in ("read_blocks_csv", "rows_to_vectors"):
        def traced(*args, _original=getattr(cli, name), _name=name):
            result = _original(*args)
            counted[_name] = len(result if _name == "read_blocks_csv" else result[0])
            return result
        monkeypatch.setattr(cli, name, traced)
    capsys.readouterr()
    assert cli.main(["predict", "--model", str(model_path), "--csv", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4
    assert counted == {"read_blocks_csv": 4, "rows_to_vectors": 4}


def _blocks_csv(tmp_path):
    path = tmp_path / "probe.csv"
    header = ["index", "time_us"] + [f"b{i}" for i in range(16)]
    body = [",".join([str(i), f"{100.0 + i}"] + ["41"] * 16) for i in range(4)]
    path.write_text("\n".join([",".join(header)] + body) + "\n", encoding="ascii")
    return path
