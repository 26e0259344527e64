"""Packaging metadata and public exports point at things that exist, and
every public function and class is reached by the package or the bench."""

import ast
import importlib
import inspect
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


#: Public names that nothing in src/ or bench/ calls, and why each stays.
UNREACHED_ON_PURPOSE = {
    "box_iou": "the tracker's IoU matching and the quality harness (ROADMAP items 1, 5)",
    "apply_displacement_augmentation": "robustness sweeps of the quality harness "
                                       "and the tracker (ROADMAP items 1, 5)",
    "save_displacement_model": "public persistence of a trained model",
    "load_displacement_model": "public persistence of a trained model",
}


def public_definitions() -> dict[str, str]:
    """Public module-level functions and classes of disptrack, by name."""
    found = {}
    for info in pkgutil.walk_packages(disptrack.__path__, "disptrack."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if (not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == info.name):
                found[name] = info.name
    return found


def referenced_names() -> set[str]:
    """Names read (as a name or an attribute) anywhere in src/ or bench/,
    except inside the top-level definition of that same name.  Imports,
    __all__ strings and docstrings are not references."""
    names = set()
    for path in [*ROOT.glob("src/**/*.py"), *ROOT.glob("bench/*.py")]:
        tree = ast.parse(path.read_text())
        owner = {id(node): top.name for top in tree.body
                 if isinstance(top, (ast.FunctionDef, ast.ClassDef)) for node in ast.walk(top)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if owner.get(id(node)) != name:
                names.add(name)
    return names


def test_every_public_definition_is_reached_or_kept_on_purpose():
    defined, used = public_definitions(), referenced_names()
    unreached = sorted(f"{defined[name]}.{name}" for name in defined
                       if name not in used and name not in UNREACHED_ON_PURPOSE)
    assert unreached == [], "delete these or say in UNREACHED_ON_PURPOSE why they stay"
    stale = sorted(name for name in UNREACHED_ON_PURPOSE
                   if name not in defined or name in used)
    assert stale == [], "these are gone or reached now; drop them from UNREACHED_ON_PURPOSE"
