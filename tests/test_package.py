"""The package surface: every name `matpi.__all__` exports exists, once, no
module carries an unused import or a private def that no code reads, and
every import between modules points down one fixed order of layers."""

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


# every module imports only modules before it in this order
LAYERS = ("errors", "rings", "matrices", "standardpoly", "fastpath", "subalgebra", "blocks",
          "constructions", "identities", "specfile", "cli")


def _package_imports(tree):
    """(statement, target, in_function) of every import from the package:
    target is the module, or for `from . import x` the name x."""
    out = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level == 1:
                for target in [child.module] if child.module else [a.name for a in child.names]:
                    out.append((ast.unparse(child), target, in_function))
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(tree, False)
    return out


def test_imports_between_modules_point_down_the_layers():
    # the exceptions: `from . import fastpath` inside a function, which keeps
    # numpy off the exact paths, and cli's `from . import __version__`
    assert sorted(name[:-3] for name, _ in _modules()) == sorted(LAYERS)
    wrong = []
    for name, tree in _modules():
        below = LAYERS[:LAYERS.index(name[:-3])]
        for statement, target, in_function in _package_imports(tree):
            allowed = (target in below and not in_function
                       or statement == "from . import fastpath" and in_function
                       or statement == "from . import __version__" and name == "cli.py")
            if not allowed:
                wrong.append(f"{name}: {statement}")
    assert wrong == []


def test_no_module_uses_type_checking():
    assert [name for name, tree in _modules() if "TYPE_CHECKING" in _loaded_names(tree)] == []


def test_only_specfile_raises_spec_file_errors():
    raising = {name for name, tree in _modules() for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "SpecFileError"}
    assert raising == {"specfile.py"}
