"""Byte-level pins on the artifacts a fixed seed produces.

The digests were recorded from the CLI before the feature table became a
single array pair; any change to feature assembly, splitting, fitting,
serialization or voting that moves a single byte shows up here.
"""

import hashlib

import pytest

from aeslab.cli import main

RUN_FLAGS = ["--blocks", "256", "--inject-pct", "30", "--seed", "7",
             "--mode", "simulated", "--trees", "11"]

PINNED = {
    "plaintext": {
        "blocks": "f59097271888a42eba30f23d8c0721cfc2f7bd19c8b6382c3a74bd238382b7b6",
        "summary": "2591e12d2efd8466382aa07d63e3ee692a469803ec975ba83792267ee84fe65b",
        "model": "5cd33b3c7209e3f08494fc4272b2b664437ee38fd5ef6d428246b2c3d6b2ab0d",
        "predict": "1017776e5a60e33325ddc0c8f736a04bfe9660064ced60c21d319dc0b8b65cdc",
    },
    "ciphertext": {
        "blocks": "ec099d5eda116e5c484ca190511a6f3bf7cbd44bf0ad3e6ac915739939eecd92",
        "summary": "429540258956157e9c965a9ea3cd77b6821d0ff59245b12277dac79c924c5913",
        "model": "f88cd91f1b44829b9498d736b7cf92ab454782a8fae0ac505d5e2511173bcfe5",
        "predict": "53120d73a7fe7a1c9e0301954b68532ca977b3c842accafb94827a7108298f6d",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_digests(tmp_path, capsys, byte_source):
    out = tmp_path / byte_source
    assert main(["run", *RUN_FLAGS, "--byte-source", byte_source, "--out-dir", str(out)]) == 0
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


@pytest.mark.parametrize("byte_source", sorted(PINNED))
def test_artifacts_match_pinned_digests(tmp_path, capsys, byte_source):
    assert artifact_digests(tmp_path, capsys, byte_source) == PINNED[byte_source]
