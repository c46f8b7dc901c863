"""The packaging metadata points at the package: its console script and its
bundled scenario files."""

import importlib
from pathlib import Path, PurePosixPath

import pytest

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
