"""Every name that qverify exports has a caller outside tests/."""

import ast
from pathlib import Path

import qverify

ROOT = Path(__file__).resolve().parents[1]


def names_read():
    """The names read in src/qverify/ (bar __init__.py), demos/, tools/ and bench/."""
    paths = [p for p in (ROOT / "src" / "qverify").glob("*.py") if p.name != "__init__.py"]
    for folder in ("demos", "tools", "bench"):
        paths += sorted((ROOT / folder).rglob("*.py"))
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_public_name_has_a_caller():
    unused = sorted(set(qverify.__all__) - {"__version__"} - names_read())
    assert unused == []
