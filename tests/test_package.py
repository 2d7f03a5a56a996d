"""The package surface: every name `matpi.__all__` exports exists, once, and
no module carries an unused import or a private def that no code reads."""

import ast
from collections import Counter
from pathlib import Path

import matpi


def test_all_names_resolve_once():
    assert [name for name, k in Counter(matpi.__all__).items() if k > 1] == []
    assert [name for name in matpi.__all__ if not hasattr(matpi, name)] == []


def test_star_import():
    namespace = {}
    exec("from matpi import *", namespace)
    assert set(matpi.__all__) <= set(namespace)


SRC = Path(matpi.__file__).parent


def _modules():
    """(name, tree) of every src/matpi module but the re-exporting __init__."""
    return [(p.name, ast.parse(p.read_text(), p.name))
            for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]


def _loaded_names(tree):
    """Every name the code reads: bare names and attribute names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_no_module_has_an_unused_import():
    unused = []
    for name, tree in _modules():
        used = _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_every_private_function_and_class_is_referenced_by_code():
    # docstrings are string constants, not names, so a mention there does
    # not count as a reference
    modules = _modules()
    read = set().union(*(_loaded_names(tree) for _, tree in modules))
    unread = [f"{name}: {node.name}" for name, tree in modules for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node.name.startswith("_") and not node.name.endswith("__")
              and node.name not in read]
    assert unread == []
