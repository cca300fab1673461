"""Which modules of the package see a run's per-block records, and which
modules a command loads.

A run reaches the detectors as one columnar BlockTable. Only the cipher,
which makes the BlockRecord list, and metrics_report, whose build_dataset
turns it into that table, may name the record type, and neither detector
imports anything from the cipher.

Start-up loads only what the default commands run: the process pool's
modules, statistics and the bench module load when a pooled real-mode run
or aeslab bench first needs them.
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


def _names_block_record(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "BlockRecord":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "BlockRecord":
            return True
        if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
            a.name == "BlockRecord" for a in node.names
        ):
            return True
    return False


@pytest.mark.parametrize("name", ["detect_forest.py", "detect_threshold.py"])
def test_detectors_import_nothing_from_the_cipher(name):
    assert not _imports_the_cipher(_tree(PACKAGE / name))


def test_only_the_cipher_and_the_table_builder_name_block_record():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 2
    naming = {path.name for path in modules if _names_block_record(_tree(path))}
    assert naming == {"cipher.py", "metrics_report.py"}


def test_the_guards_see_what_they_look_for():
    seen = _tree(PACKAGE / "metrics_report.py")
    assert _imports_the_cipher(seen) and _names_block_record(seen)
    for source in ("from . import cipher", "import aeslab.cipher",
                   "from aeslab.cipher import Key128"):
        assert _imports_the_cipher(ast.parse(source))
    assert _names_block_record(ast.parse("def f(r: cipher.BlockRecord): pass"))
    assert not _imports_the_cipher(ast.parse("from .files import atomic_write"))


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
