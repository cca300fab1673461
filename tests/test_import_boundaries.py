"""Which modules of the package see a run's per-block records.

A run reaches the detectors as one columnar BlockTable. Only the cipher,
which makes the BlockRecord list, and metrics_report, whose build_dataset
turns it into that table, may name the record type, and neither detector
imports anything from the cipher.
"""

import ast
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
