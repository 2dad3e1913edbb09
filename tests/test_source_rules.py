"""Rules every library module keeps: exact arithmetic only (no float
literal, no float() call), no `assert` (python -O strips it), and no
dependency outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "toricpoints").glob("*.py"))


def breaches(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, "float() call"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                continue
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    yield node.lineno, f"import of {name}, outside the standard library"


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"geometry.py", "cohomology.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_rules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [f"{path.name}:{line}: {what}" for line, what in breaches(tree)] == []


def test_rules_catch_each_breach():
    source = "import numpy\nfrom os import path\nassert x\ny = 0.5\nz = float(1)\n"
    assert [what for _, what in breaches(ast.parse(source))] == [
        "import of numpy, outside the standard library",
        "assert statement",
        "float literal 0.5",
        "float() call",
    ]
