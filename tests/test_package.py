"""The package's public names, the imports of its modules, and its settable values."""

import ast
import dataclasses
import importlib
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


def _settable_values(module) -> int:
    """The defaulted parameters of the functions and methods module defines,
    plus the fields of its dataclasses (whose generated methods are not the
    module's code)."""
    count = 0
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        functions = [value]
        if inspect.isclass(value):
            count += len(dataclasses.fields(value)) if dataclasses.is_dataclass(value) else 0
            functions = [getattr(f, "__func__", f) for f in vars(value).values()]
        count += sum(p.default is not p.empty
                     for f in functions if inspect.isfunction(f)
                     and f.__code__.co_filename == module.__file__
                     for p in inspect.signature(f).parameters.values())
    return count


def test_settable_values_do_not_grow():
    # a change that adds a knob raises this bound in its own diff, and says why
    modules = [importlib.import_module(f"lpboot.{path.stem}") for path in sorted(SRC.glob("*.py"))
               if path.name != "__init__.py"]
    assert len(modules) == 9
    assert sum(map(_settable_values, modules)) <= 74
