"""The packaging metadata points at the package: its console script, its
bundled scenario files, its two dependencies and the NumPy range the tests
run on."""

import ast
import importlib
import re
import sys
from pathlib import Path, PurePosixPath

import pytest
from packaging.requirements import Requirement

from slamobs import cli

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))


def test_console_script_resolves_to_cli_main():
    module, _, attr = PYPROJECT["project"]["scripts"]["slamobs"].partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main


def test_package_data_covers_every_scenario_file():
    package = ROOT / "src" / "slamobs"
    globs = PYPROJECT["tool"]["setuptools"]["package-data"]["slamobs"]
    files = [
        PurePosixPath(path.relative_to(package).as_posix())
        for path in (package / "scenarios").rglob("*")
        if path.is_file()
    ]
    assert files
    missing = [str(f) for f in files if not any(f.match(glob) for glob in globs)]
    assert not missing, f"not shipped by [tool.setuptools.package-data]: {missing}"


def test_ci_numpy_pin_lies_in_the_declared_range():
    """The filter calls NumPy's private LAPACK gufunc, so the range declared is the one CI runs.

    The range has an upper bound, and every NumPy version the CI workflow
    installs lies inside it.
    """
    (numpy,) = [
        req for req in map(Requirement, PYPROJECT["project"]["dependencies"]) if req.name == "numpy"
    ]
    assert any(spec.operator in ("<", "<=", "==", "~=") for spec in numpy.specifier)
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    pins = re.findall(r"\bnumpy==([0-9][0-9.]*)", workflow)
    assert pins
    assert [pin for pin in pins if pin not in numpy.specifier] == []


def test_dependencies_are_numpy_and_pyyaml():
    names = {Requirement(req).name for req in PYPROJECT["project"]["dependencies"]}
    assert names == {"numpy", "PyYAML"}


def test_package_imports_only_the_declared_dependencies():
    """Every import under src/slamobs, in a function or not, is stdlib, slamobs, numpy or yaml."""
    allowed = set(sys.stdlib_module_names) | {"slamobs", "numpy", "yaml"}
    found = {}
    for path in sorted((ROOT / "src" / "slamobs").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.partition(".")[0], []).append(path.name)
    assert {"numpy", "yaml"} <= set(found)  # the scan sees imports inside functions
    assert {name: files for name, files in found.items() if name not in allowed} == {}
