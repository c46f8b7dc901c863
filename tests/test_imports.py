"""No test module imports another.

Shared references and inputs live in ``oracles`` and ``randgen``; a test
module that imports a ``test_`` module runs that module's imports, and a
cycle between two of them needs an import hidden inside a function.
"""

import ast
from pathlib import Path

import pytest

TESTS = sorted((Path(__file__).resolve().parent).glob("test_*.py"))


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


@pytest.mark.parametrize("path", TESTS, ids=lambda path: path.stem)
def test_imports_no_test_module(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [m for m in _imported_modules(tree) if m.split(".")[-1].startswith("test_")] == []
