"""The package's exported names."""

import ast
import importlib
import re
from pathlib import Path

import idkm


def test_star_import_gives_every_exported_name():
    namespace: dict = {}
    exec("from idkm import *", namespace)
    assert len(set(idkm.__all__)) == len(idkm.__all__)
    for name in idkm.__all__:
        assert namespace[name] is getattr(idkm, name)


def test_raw_attention_kernel_is_not_exported():
    # pq.attention is soft_assign's raw k x m kernel, which validates
    # nothing; users reach the attention through soft_quantize.
    assert "attention" not in idkm.__all__
    assert not hasattr(idkm, "attention")


def test_every_readme_reference_to_a_module_name_resolves():
    # A name README documents as `module.name`, for a module of idkm, is
    # not removed or renamed without a README edit.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    modules = {path.stem for path in Path(idkm.__file__).parent.glob("*.py")}
    refs = {
        (module, name)
        for module, name in re.findall(r"`(\w+)\.(\w+)(?=[`(])", readme.read_text())
        if module in modules
    }
    missing = sorted(
        f"{module}.{name}"
        for module, name in refs
        if not hasattr(importlib.import_module(f"idkm.{module}"), name)
    )
    assert refs and missing == []


# Reads the reports the CLI writes; kept for the report reader to come.
UNREFERENCED_ON_PURPOSE = {"read_jsonl"}

# Exports meant for users that no package module reaches. Each needs a
# reason here; today every export is reached, so the list is empty.
USER_API: set[str] = set()


def _package_trees(skip=()) -> dict:
    return {
        path.name: ast.parse(path.read_text())
        for path in Path(idkm.__file__).parent.glob("*.py")
        if path.name not in skip
    }


def test_every_module_level_definition_is_used_or_exported():
    # A function, class or UPPER_CASE constant that no code in the package
    # reads (docstrings and the assignment itself do not count) and that
    # idkm does not export is dead code.
    trees = _package_trees()
    used = set().union(*(_loads(tree) for tree in trees.values()))
    kept = used | set(idkm.__all__) | UNREFERENCED_ON_PURPOSE
    dead = sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for node in tree.body
        for name in _defined_names(node)
        if name not in kept
    )
    assert dead == []


def test_every_export_is_reached_by_a_package_module():
    # An export is reached when a package module other than __init__.py
    # loads it: in module-level code, or in the body of a definition that
    # is itself reached. Every definition idkm does not export counts as
    # reached (the test above holds it to being used), so a name that only
    # the bodies of unreached exports load is not reached either: such
    # exports serve only the tests.
    bodies: dict = {}
    reached_from = set()
    for tree in _package_trees(skip={"__init__.py"}).values():
        for node in tree.body:
            names = list(_defined_names(node))
            for name in names:
                bodies.setdefault(name, set()).update(_loads(node))
            if not names:
                reached_from |= _loads(node)
    exported = set(idkm.__all__)
    todo = reached_from | (set(bodies) - exported)
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo |= bodies.get(name, set())
    unreached = sorted(exported - reached - USER_API)
    assert unreached == [], f"exports that only tests reach: {unreached}"


def _loads(tree) -> set:
    """Every name and attribute the code under `tree` reads."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
    return used


def _defined_names(node):
    """The function, class or UPPER_CASE constants a module-level statement
    defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id.isupper():
                yield target.id
