"""Packaging metadata and public exports point at things that exist, every
public function and class is reached by the package or the bench, every
defaulted parameter of a public function or class constructor is passed by
one of their calls, and bools and real numbers are told apart in one place."""

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
    "box_iou": "the BEV overlap test of bounded turns and the tracker's matching "
               "(ROADMAP items 4, 5)",
    "apply_displacement_augmentation": "robustness sweeps of the quality harness "
                                       "and the tracker (ROADMAP items 1, 5)",
    "save_displacement_model": "public persistence of a trained model",
    "load_displacement_model": "public persistence of a trained model",
}


#: Defaulted parameters of public functions and class constructors that no
#: call in src/ or bench/ passes, as "function.parameter", and why each stays.
UNSET_ON_PURPOSE = {
    "oracle_detector.noise": "detector-noise training, votes and tracking "
                             "(ROADMAP items 2, 5, 9, 10)",
    "oracle_detector.seed": "detector-noise training, votes and tracking "
                            "(ROADMAP items 2, 5, 9, 10)",
    "apply_displacement_augmentation.seed": "the sudden-shift split of the quality "
                                            "harness (ROADMAP item 1)",
    "SceneConfig.noise_sigma": "the noise-free measurement of bounded turns "
                               "(ROADMAP item 4)",
    "SceneConfig.direction_change_every": "the turning drives of the quality harness "
                                          "(ROADMAP item 1)",
    "DetectorNoise.center_sigma": "detector-noise training, votes and tracking "
                                  "(ROADMAP items 2, 5, 9, 10)",
    "DetectorNoise.yaw_sigma": "detector-noise training, votes and tracking "
                               "(ROADMAP items 2, 5, 9, 10)",
    "DetectorNoise.dropout": "detector-noise training, votes and tracking "
                             "(ROADMAP items 2, 5, 9, 10)",
    "DetectorNoise.fp_rate": "detector-noise training, votes and tracking "
                             "(ROADMAP items 2, 5, 9, 10)",
    "PipelineConfig.lr_low": "the training budget of the association (ROADMAP item 2)",
    "PipelineConfig.lr_high": "the training budget of the association (ROADMAP item 2)",
    "PipelineConfig.clr_cycle_epochs": "the training budget of the association "
                                       "(ROADMAP item 2)",
    "PipelineConfig.seed": "the per-seed runs of the quality harness (ROADMAP item 1)",
}


def source_trees() -> list[ast.Module]:
    """The parsed modules of src/ and bench/."""
    return [ast.parse(path.read_text())
            for path in [*ROOT.glob("src/**/*.py"), *ROOT.glob("bench/*.py")]]


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
    for tree in source_trees():
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


def passed_arguments() -> tuple[dict[str, int], dict[str, set]]:
    """Per called name (a plain name or an attribute) in src/ or bench/, the
    most positional arguments one call passes, and every keyword that some
    call passes.  A ``cls(...)`` call inside a class is a call of that class.
    A starred argument counts as one position, as the package unpacks
    fixed-size records such as a (cloud, label) frame, not option lists; a
    call with **kwargs passes every keyword (recorded as None)."""
    most, keywords = {}, {}
    for tree in source_trees():
        # ast.walk visits an outer class before the classes inside it.
        owner = {id(node): top.name for top in ast.walk(tree)
                 if isinstance(top, ast.ClassDef) for node in ast.walk(top)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "cls":
                name = owner.get(id(node), name)
            most[name] = max(most.get(name, 0), len(node.args))
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
    return most, keywords


def test_every_defaulted_parameter_is_passed_or_kept_on_purpose():
    most, keywords = passed_arguments()
    unset = set()
    for name, module in public_definitions().items():
        definition = getattr(importlib.import_module(module), name)
        # A ** call of a class (from_dict) forwards saved values; it chooses none.
        forwarded = {None} if inspect.isfunction(definition) else set()
        for position, param in enumerate(inspect.signature(definition).parameters.values()):
            by_position = (param.kind is param.POSITIONAL_OR_KEYWORD
                           and most.get(name, 0) > position)
            by_keyword = ({param.name} | forwarded) & keywords.get(name, set())
            if param.default is not param.empty and not (by_position or by_keyword):
                unset.add(f"{name}.{param.name}")
    assert sorted(unset - set(UNSET_ON_PURPOSE)) == [], \
        "delete these options or say in UNSET_ON_PURPOSE why they stay"
    assert sorted(set(UNSET_ON_PURPOSE) - unset) == [], \
        "these are gone or passed now; drop them from UNSET_ON_PURPOSE"


#: The functions of src/ that alone may test for a bool or a real number:
#: every other entry point checks its numbers through them.
NUMBER_RULES = {"geom._integer", "geom._real"}


def number_tests(tree: ast.Module, module: str) -> set[str]:
    """Qualified names of the functions of a module that call
    ``isinstance(..., bool)`` (bool alone or in a tuple) or read
    ``numbers.Real``."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            kinds = node.args[1:2]
            kinds = kinds[0].elts if kinds and isinstance(kinds[0], ast.Tuple) else kinds
            if any(getattr(kind, "id", None) == "bool" for kind in kinds):
                found.add(scope)
        if (isinstance(node, ast.Attribute) and node.attr == "Real"
                and getattr(node.value, "id", None) == "numbers"):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, module)
    return found


def test_bools_and_real_numbers_are_told_apart_only_by_the_number_rules():
    sites = set()
    for path in (ROOT / "src").rglob("*.py"):
        sites |= number_tests(ast.parse(path.read_text()), path.stem)
    assert sorted(sites - NUMBER_RULES) == [], \
        "check these numbers with geom._integer or geom._real"
