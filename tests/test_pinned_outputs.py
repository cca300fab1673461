"""Byte-level pins on the artifacts a fixed seed produces.

The forest digests were last re-recorded when trees began to grow one
depth at a time, drawing each level's candidate features together instead
of one node at a time in pre-order: the same bootstrap rows, but different
feature draws and so different splits. In ASCII plaintext mode only the
model changed; its blocks, summary and predictions stayed the same. In the
other three configurations all four digests changed. Before that, every
digest was re-recorded when simulated timing jitter moved from one
generator per block to one stream indexed by block number. Any change to
feature assembly, splitting, fitting, serialization or voting that moves a
single byte shows up here.
Uniform inputs give every byte column up to 256 distinct values and grow
deeper trees than ASCII inputs do.

Two more digests pin whole forests at the benchmark's scale (101 trees on
thousands of rows), where most nodes are small and the split search takes
paths that 11 trees on 256 blocks barely reach.
"""

import hashlib

import pytest

from aeslab.cipher import Key128, run_pipeline
from aeslab.cli import main
from aeslab.detect_forest import ForestHyperparams, fit_forest, save_model, split_train_test
from aeslab.metrics_report import build_dataset, rows_to_vectors
from aeslab.workload import InputDistribution, Mode, RunConfig

RUN_FLAGS = ["--blocks", "256", "--inject-pct", "30", "--seed", "7",
             "--mode", "simulated", "--trees", "11"]

# key: byte source, optionally prefixed by "uniform-" for --input-dist uniform and
# suffixed by "+train" for --threshold-fit train
PINNED = {
    "plaintext": {
        "blocks": "eaae287eae5b2610c97920178aa1d2c3e77bdcbd98c05ac286e1794f0384acb6",
        "summary": "9cff51a2045f99ecb41db5863ecb41f37718d2cf742da8fc5f36a80a20a57d43",
        "model": "1b09cf0c986649b909525a58269a3dfd05b27c410d5f4557dca7c8ac6a5813e4",
        "predict": "1017776e5a60e33325ddc0c8f736a04bfe9660064ced60c21d319dc0b8b65cdc",
    },
    # the cut moves from 2642.883 to 2870.444 us with no block between them, so only
    # the summary's threshold_fit and threshold_us cells differ from "plaintext"
    "plaintext+train": {
        "blocks": "eaae287eae5b2610c97920178aa1d2c3e77bdcbd98c05ac286e1794f0384acb6",
        "summary": "093833a3a150c019910c664432b3adf84822f8d2ad5253d48c9fbe54ad4d7741",
        "model": "1b09cf0c986649b909525a58269a3dfd05b27c410d5f4557dca7c8ac6a5813e4",
        "predict": "1017776e5a60e33325ddc0c8f736a04bfe9660064ced60c21d319dc0b8b65cdc",
    },
    "ciphertext": {
        "blocks": "6ebaefad3917f82ddc242ad9a30529fa555030501647524da59738041aa57d87",
        "summary": "4d9a53be40af5df4ffb4f67f59d32a4e19ca4cb27177665e41da3acba27e6839",
        "model": "2e45cf50fae3d75d3681a7f16184cec4dd118b6692cdfadd2668a8878b9f5dea",
        "predict": "5596746a14e947df3ee173cf3cba3b69b08018669588a9a4d81034798c6f540f",
    },
    "uniform-plaintext": {
        "blocks": "e1690232850300710ef9f1aaeec212842ef429ce7e77a2463d2d8bd7c31fb73e",
        "summary": "466cf86e8d9a41c1980b0c96e3351d2fefd733427c620edb09ecaa29b7707902",
        "model": "9097766643aec2ed5aa12d9eec7400c97c2e6efc1b4d932bc4244f5abb3c2e27",
        "predict": "e31f57657446ce3352a8aedb804dc652e8016a8b3f669620d28588967ed163d5",
    },
    "uniform-ciphertext": {
        "blocks": "ac56b0687f4f125fdc3f67a0fe6e02902795e86b0859877c3a6d1152ec31e79b",
        "summary": "d11b267f40ab142840e8842f8108ffc5d732d0ab06570988e191c099d6b803ec",
        "model": "022ea6aa97c3ceab09754f1b944b4a4775cb3a1b8bcc4b031c8ca3563e7db449",
        "predict": "a8117086da007bc533bb7f66be85735b1d72110153092030545f1da320b5cf58",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_digests(tmp_path, capsys, key):
    source, _, threshold_fit = key.partition("+")
    input_dist, _, byte_source = source.rpartition("-")
    out = tmp_path / key
    assert main(["run", *RUN_FLAGS, "--input-dist", input_dist or "ascii",
                 "--byte-source", byte_source, "--threshold-fit", threshold_fit or "all",
                 "--out-dir", str(out)]) == 0
    blocks = out / "blocks_s7_n256_p30.csv"
    model = out / "model.txt"
    assert main(["train", "--from-csv", str(blocks), "--model-out", str(model),
                 "--trees", "9", "--seed", "3"]) == 0
    capsys.readouterr()
    assert main(["predict", "--model", str(model), "--csv", str(blocks)]) == 0
    return {
        "blocks": _sha(blocks.read_bytes()),
        "summary": _sha((out / "summary_s7_n256_p30.csv").read_bytes()),
        "model": _sha(model.read_bytes()),
        "predict": _sha(capsys.readouterr().out.encode()),
    }


@pytest.mark.parametrize("key", sorted(PINNED))
def test_artifacts_match_pinned_digests(tmp_path, capsys, key):
    assert artifact_digests(tmp_path, capsys, key) == PINNED[key]


# save_model digests of fit_forest(train, ForestHyperparams(seed=7)) on the
# plaintext training split of a seed-7 simulated run; sim-ascii is the
# benchmark's configuration, uniform-40 a noise configuration
PINNED_FORESTS = {
    "sim-ascii": (
        RunConfig(n_blocks=4096, inject_pct=20.0, seed=7, mode=Mode.SIMULATED),
        "ef654bf2b0af26dbb488475e74585c9f7f499603e656fec826a1db61925a36bb",
    ),
    "uniform-40": (
        RunConfig(n_blocks=2048, inject_pct=40.0, seed=7, mode=Mode.SIMULATED,
                  input_dist=InputDistribution.UNIFORM),
        "0044d8d32fcce7e98e2457efa0b4d6b1f8a1c99043684a6204ff39ea3be56d06",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_FORESTS))
def test_benchmark_scale_forest_matches_pinned_digest(tmp_path, name):
    cfg, digest = PINNED_FORESTS[name]
    data, _ = rows_to_vectors(build_dataset(run_pipeline(cfg, Key128(bytes(range(16))))))
    model = fit_forest(split_train_test(data, 0.7, cfg.seed).train, ForestHyperparams(seed=7))
    save_model(model, str(tmp_path / "model.txt"))
    assert _sha((tmp_path / "model.txt").read_bytes()) == digest
