"""Smoke test of the benchmark: every workload at a tiny block count.

  python3 -m pytest perfbench/test_smoke.py -q

Checks that each workload's result line names exactly the metrics that
BENCHMARK.json declares, that the traced run writes well-formed spans, and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
TINY_BLOCKS = 96


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--blocks", str(TINY_BLOCKS)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc: subprocess.CompletedProcess):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("report: ")
    return json.loads(lines[-2][len("report: "):]), json.loads(lines[-1])


def _check_metrics(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"} and math.isfinite(m["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_match_declaration(workload):
    report, result = _result(_run(workload, trace=0))
    _check_metrics(result, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["values"]["failed_frac"] == 0
    assert {"nproc", "cpu_model", "python", "numpy", "git_commit", "loadavg_start",
            "steal_ticks"} <= set(report["host"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_writes_well_formed_spans(workload):
    report, result = _result(_run(workload, trace=1))
    _check_metrics(result, BENCH["per_layer"])
    spans = json.loads(Path(report["spans"]).read_text(encoding="ascii"))
    by_id = {s["id"]: s for s in spans}
    assert len(by_id) == len(spans) and spans
    roots = [s for s in spans if s["parent"] is None]
    assert all(s["name"] == "op" for s in roots)
    assert len({s["op"] for s in roots}) == len(roots) == report["layer_ops"]
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["op"] == s["op"]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
