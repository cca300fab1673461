"""Byte-level pins on the artifacts a fixed seed produces.

The ASCII digests were recorded from the CLI before the feature table
became a single array pair, the uniform ones before the split search became
one ranked-column histogram; any change to feature assembly, splitting,
fitting, serialization or voting that moves a single byte shows up here.
Uniform inputs give every byte column up to 256 distinct values and grow
deeper trees than ASCII inputs do.
"""

import hashlib

import pytest

from aeslab.cli import main

RUN_FLAGS = ["--blocks", "256", "--inject-pct", "30", "--seed", "7",
             "--mode", "simulated", "--trees", "11"]

# key: byte source, optionally prefixed by "uniform-" for --input-dist uniform
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
    "uniform-plaintext": {
        "blocks": "691b788ef60d601c17a1d9a627db72e757b0eeb65a8ca8670c7161981c55b278",
        "summary": "1420e127032bb2fc7acb619dc30ea37b49770fc3880682de889186054e26f2e7",
        "model": "8471d5f21565b922d03a2299dd23c6bad264fa4f33d127a1000041cfe2c15d7f",
        "predict": "2d0c251669e8ed7a7eaff2b0cc21b5a824298c0949d29058a30bd4be19c5efbd",
    },
    "uniform-ciphertext": {
        "blocks": "ffe9cf69b93f95f3ecec781c738fc9c054d814892b97e34f230cba98db618799",
        "summary": "d0656cf717fa1a4ebce48d1e694272fc40ef22c509f26bde7a97e3f568a51e6c",
        "model": "b0650447ef491a65dd183c745f12ed66719a592e6b27955cfc53e94f114ba83a",
        "predict": "4c1583e8bcee5c334c2cbff1d6706a293373218aa73f7213b0c06f0d5b49595a",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_digests(tmp_path, capsys, key):
    input_dist, _, byte_source = key.rpartition("-")
    out = tmp_path / key
    assert main(["run", *RUN_FLAGS, "--input-dist", input_dist or "ascii",
                 "--byte-source", byte_source, "--out-dir", str(out)]) == 0
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
