"""Every module of the package and its tests parses as Python 3.10, the
oldest version pyproject.toml accepts, whichever interpreter runs the suite."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_module_parses_as_python_3_10():
    sources = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])
    bad = []
    for path in sources:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            bad.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert len(sources) > 20
    assert not bad
