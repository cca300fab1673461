"""Byte-level pins on the artifacts a fixed seed produces.

All of them were re-recorded when simulated timing jitter moved from one
generator per block to one stream indexed by block number: every latency
changed, and with it the forest's splits. Before that they had held since
the feature table became a single array pair (ASCII) and since the split
search became one ranked-column histogram (uniform). Any change to feature
assembly, splitting, fitting, serialization or voting that moves a single
byte shows up here.
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
        "blocks": "eaae287eae5b2610c97920178aa1d2c3e77bdcbd98c05ac286e1794f0384acb6",
        "summary": "9cff51a2045f99ecb41db5863ecb41f37718d2cf742da8fc5f36a80a20a57d43",
        "model": "1e78335e906a996d97e113e6238bef84c924676174f923c03ad07e0895bf1251",
        "predict": "1017776e5a60e33325ddc0c8f736a04bfe9660064ced60c21d319dc0b8b65cdc",
    },
    "ciphertext": {
        "blocks": "d633a8238127e22ca242078a167d4acec6022227639c40b828f6c9955cad6595",
        "summary": "0ff20b31185ddc4485d7fa9756ebdb67fcfe98309dbc405c17f60bf231b91ab9",
        "model": "649c68e41502bba93fdbda902ac9769f4b84c781e31461a707887fc067da0e48",
        "predict": "53120d73a7fe7a1c9e0301954b68532ca977b3c842accafb94827a7108298f6d",
    },
    "uniform-plaintext": {
        "blocks": "4bfce3dad9f4eecade1eda8a7cbe48da7d3c04f5a0d7a8ca2ce31d27ade51045",
        "summary": "37e6113fa041b89d758b05709b1acc4ac27bb54568edb7c7ce7ed72f269038d9",
        "model": "d150270dd03922bec8e62a07168d08472da7a9be4b5c96f0d64b8f88acc7a6e9",
        "predict": "634f6e46119a7537b5bd79b1b5fc0393161c9bfe66fc9a99ad6645a7b260d706",
    },
    "uniform-ciphertext": {
        "blocks": "c253b82dc8a123d66f98fe4814f10e7a9e41b1cb4356ffa4573fc035d9c49934",
        "summary": "dfae8d8e59ef733e1e63ac3a92571cf9a00a7684a1e62af8a830168593a178de",
        "model": "650b834a2f7130a43bccb214ca79d2e19042b24c20b332199d3da509a762e412",
        "predict": "edd7c69741dd357ced88936104b0b4abd2f068ce852c30d0bcbe3f44951b3ce3",
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
