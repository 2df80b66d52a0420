"""The package's exported names."""

import ast
from pathlib import Path

import idkm


def test_star_import_gives_every_exported_name():
    namespace: dict = {}
    exec("from idkm import *", namespace)
    assert len(set(idkm.__all__)) == len(idkm.__all__)
    for name in idkm.__all__:
        assert namespace[name] is getattr(idkm, name)


def test_attention_is_exported_only_in_its_validated_layout():
    # pq.attention is soft_assign's raw k x m kernel; the package exports
    # the m x k AttentionMatrix path under its own name.
    assert "attention_matrix" in idkm.__all__
    assert "attention" not in idkm.__all__
    assert not hasattr(idkm, "attention")


# Reads the reports the CLI writes; kept for the report reader to come.
UNREFERENCED_ON_PURPOSE = {"read_jsonl"}


def test_every_module_level_definition_is_used_or_exported():
    # A function, class or UPPER_CASE constant that no code in the package
    # reads (docstrings and the assignment itself do not count) and that
    # idkm does not export is dead code.
    trees = {
        path.name: ast.parse(path.read_text())
        for path in Path(idkm.__file__).parent.glob("*.py")
    }
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    kept = used | set(idkm.__all__) | UNREFERENCED_ON_PURPOSE
    dead = sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _definitions(tree)
        if name not in kept
    )
    assert dead == []


def _definitions(tree):
    """A module's functions, classes and UPPER_CASE constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield target.id
