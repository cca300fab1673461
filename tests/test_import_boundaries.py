"""Which modules of the package see a run's per-block records, and which
modules a command loads.

A run moves as columns: the cipher returns one EncryptedRun, and
metrics_report's build_dataset turns its columns into the BlockTable the
detectors read. Only the cipher, whose run keeps a record view for the
benchmark, and workload, which defines the records' tags, may name
BlockRecord, AnomalyTag or TAGS, and neither detector imports anything from
the cipher.

Start-up loads only what the default commands run: the process pool's
modules, statistics and the bench module load when a pooled real-mode run
or aeslab bench first needs them.

A config checks itself as it is built, so no module defines or calls a
validate step that an entry point could forget.

Which detectors a run has is one list in the cli module: no module names
the threshold's or the forest's prediction column, whose name each
detector's name makes.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "aeslab"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports_the_cipher(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".cipher", "aeslab.cipher"):
                return True
            if module in (".", "aeslab") and any(a.name == "cipher" for a in node.names):
                return True
        elif isinstance(node, ast.Import) and any(a.name == "aeslab.cipher" for a in node.names):
            return True
    return False


_RECORD_TYPES = {"BlockRecord", "AnomalyTag", "TAGS"}


def _names_a_record_type(tree):
    """Whether tree holds BlockRecord, AnomalyTag or TAGS as a name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in _RECORD_TYPES:
            return True
        if isinstance(node, ast.Attribute) and node.attr in _RECORD_TYPES:
            return True
        if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
            a.name in _RECORD_TYPES for a in node.names
        ):
            return True
    return False


def _names_validate(tree):
    """Whether tree defines, or calls, a function or method named validate."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "validate":
            return True
        if isinstance(node, ast.Call) and "validate" in (getattr(node.func, "id", None),
                                                         getattr(node.func, "attr", None)):
            return True
    return False


_PRED_COLUMNS = {"threshold_pred", "forest_pred"}


def _names_a_pred_column(tree):
    """Whether tree holds threshold_pred or forest_pred as a name, an attribute or a string."""
    return any(
        isinstance(node, ast.Name) and node.id in _PRED_COLUMNS
        or isinstance(node, ast.Attribute) and node.attr in _PRED_COLUMNS
        or isinstance(node, ast.Constant) and node.value in _PRED_COLUMNS
        for node in ast.walk(tree)
    )


@pytest.mark.parametrize("name", ["detect_forest.py", "detect_threshold.py"])
def test_detectors_import_nothing_from_the_cipher(name):
    assert not _imports_the_cipher(_tree(PACKAGE / name))


def test_only_the_cipher_and_workload_name_the_record_types():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 2
    naming = {path.name for path in modules if _names_a_record_type(_tree(path))}
    assert naming == {"cipher.py", "workload.py"}


def test_no_module_defines_or_calls_validate():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 2
    assert [path.name for path in modules if _names_validate(_tree(path))] == []


def test_no_module_names_a_detectors_prediction_column():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 2
    assert [path.name for path in modules if _names_a_pred_column(_tree(path))] == []


def test_the_guards_see_what_they_look_for():
    assert _imports_the_cipher(_tree(PACKAGE / "metrics_report.py"))
    assert _names_a_record_type(_tree(PACKAGE / "cipher.py"))
    for source in ("from . import cipher", "import aeslab.cipher",
                   "from aeslab.cipher import Key128"):
        assert _imports_the_cipher(ast.parse(source))
    for source in ("def f(r: cipher.BlockRecord): pass", "from .workload import TAGS",
                   "tag = workload.AnomalyTag()", "TAGS[code]", "from .cipher import BlockRecord"):
        assert _names_a_record_type(ast.parse(source)), source
    assert not _names_a_record_type(ast.parse("run.blocks.kind != KIND_NONE; record.tag"))
    assert not _imports_the_cipher(ast.parse("from .files import atomic_write"))
    for source in ("class C:\n    def validate(self): pass", "cfg.validate()", "validate(cfg)",
                   "async def validate(): pass"):
        assert _names_validate(ast.parse(source)), source
    assert not _names_validate(ast.parse("def __post_init__(self): check(self.validated)"))
    for source in ("threshold_pred = 1", "table.forest_pred", "where['threshold_pred']",
                   "forest_pred", "f(x=table.threshold_pred)", "{'forest_pred': 1}"):
        assert _names_a_pred_column(ast.parse(source)), source
    assert not _names_a_pred_column(ast.parse("name + '_pred'; table.preds['forest']"))


# in a fresh interpreter: the modules of DEFERRED loaded after start-up and
# each command, as one JSON object on the last line
_STARTUP_PROBE = """
import contextlib, io, json, sys
from pathlib import Path
import aeslab.cli as cli

DEFERRED = ("concurrent.futures", "multiprocessing", "statistics", "aeslab.bench")
out = Path(sys.argv[1])
loaded = {}

def command(point, *argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, point
    loaded[point] = [name for name in DEFERRED if name in sys.modules]

cli.build_parser()
loaded["build_parser"] = [name for name in DEFERRED if name in sys.modules]
command("simulated run", "run", "--mode", "simulated", "--blocks", "256", "--trees", "5",
        "--out-dir", str(out))
(blocks,) = out.glob("blocks_*.csv")
command("train", "train", "--from-csv", str(blocks), "--trees", "5",
        "--model-out", str(out / "model.txt"))
command("predict", "predict", "--model", str(out / "model.txt"), "--csv", str(blocks))
command("pooled run", "run", "--mode", "real", "--workers", "2", "--blocks", "32",
        "--delay-min-us", "1", "--delay-max-us", "2", "--trees", "3",
        "--out-dir", str(out / "real"))
print(json.dumps(loaded))
"""


def test_start_up_and_the_default_commands_load_no_pool_code(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, str(tmp_path)], capture_output=True,
        encoding="utf-8", env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    for point in ("build_parser", "simulated run", "train", "predict"):
        assert loaded[point] == [], point
    # a 2-worker real-mode run still works, and loads the pool's modules as it starts one
    assert loaded["pooled run"] == ["concurrent.futures", "multiprocessing"]
