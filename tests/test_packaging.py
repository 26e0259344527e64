"""Packaging metadata and public exports point at things that exist."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import disptrack

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent


def test_pyproject_scripts_import_and_readme_exists():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for target in project.get("scripts", {}).values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), target
    readme = project.get("readme")
    if readme is not None:
        path = readme if isinstance(readme, str) else readme["file"]
        assert (ROOT / path).is_file(), path


def test_every_export_resolves():
    modules = {m.name: importlib.import_module(m.name)
               for m in pkgutil.walk_packages(disptrack.__path__, "disptrack.")}
    assert modules["disptrack.pipeline"].__all__ and modules["disptrack.micronet"].__all__
    missing = [f"{name}.{export}" for name, module in modules.items()
               for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
