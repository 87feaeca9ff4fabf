"""Each module's ``__all__`` matches what it defines, and imports nothing it does not use."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import lshape

MODULES = [lshape] + [importlib.import_module(f"lshape.{info.name}") for info in pkgutil.iter_modules(lshape.__path__)]


def test_all_names_resolve_and_list_every_public_definition():
    for mod in MODULES:
        listed = set(mod.__all__)
        missing = sorted(name for name in listed if not hasattr(mod, name))
        assert not missing, (mod.__name__, missing)
        defined = {
            name
            for name, obj in vars(mod).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == mod.__name__
        }
        assert defined <= listed, (mod.__name__, sorted(defined - listed))


def test_every_module_level_import_is_used():
    for path in sorted(Path(lshape.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))
