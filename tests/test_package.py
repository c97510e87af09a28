"""The package's public names, and the imports of its modules."""

import ast
import inspect
from pathlib import Path

import lpboot

SRC = Path(lpboot.__file__).parent


def test_all_lists_the_public_functions_and_classes():
    public = {name for name, value in vars(lpboot).items() if not name.startswith("_")
              and (inspect.isclass(value) or inspect.isfunction(value))}
    assert sorted(lpboot.__all__) == sorted(public)
    star = {}
    exec("from lpboot import *", star)
    # no submodule (lp, parallel, ...) comes with a star import
    assert set(star) - {"__builtins__"} == public


def _imported(tree: ast.Module) -> set:
    """The names a module's import statements bind, __future__'s aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def test_every_import_is_used():
    # __init__'s imports are the package's public names; every other module
    # must use each name it imports, so a deleted check leaves no dead import
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert _imported(tree) <= used, (path.name, sorted(_imported(tree) - used))
