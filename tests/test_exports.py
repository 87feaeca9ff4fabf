"""Each module's ``__all__`` matches what it defines and lists only what the package uses,
and each module imports nothing it does not use."""

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


#: Public names that nothing in the package calls, by module: the writers
#: of the set and table formats that the command line reads, the command
#: line's entry points, and ``add_map``, the cached single translation row
#: whose cache figures the benchmark reads while the kernels take their
#: rows from ``field.translations``.
UNCALLED_BUT_PUBLIC = {
    "tables": {"save_set", "save_table"},
    "cli": {"main", "build_parser"},
    "field": {"add_map"},
}


def _loads_outside_own_definition(tree: ast.AST, name: str) -> bool:
    """Whether ``tree`` reads ``name`` anywhere but inside its own def or class."""
    stack = [tree]
    while stack:
        for child in ast.iter_child_nodes(stack.pop()):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and child.name == name:
                continue
            if isinstance(child, ast.Name) and child.id == name and isinstance(child.ctx, ast.Load):
                return True
            stack.append(child)
    return False


def test_every_exported_name_is_used_inside_the_package():
    # a name counts as used when its own module reads it outside its
    # definition, or another module imports it from there (imports that
    # go unread are refused by the test above); __init__.py re-exports
    # and is not a user
    src = Path(lshape.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    imported = {
        (node.module or "__init__", alias.name)
        for stem, tree in trees.items()
        if stem != "__init__"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    unused = []
    for mod in MODULES:
        for name in mod.__all__:
            obj = getattr(mod, name)
            home = obj.__module__ if callable(obj) else mod.__name__
            stem = home.removeprefix("lshape").lstrip(".") or "__init__"
            if name in UNCALLED_BUT_PUBLIC.get(stem, ()):
                continue
            if (stem, name) in imported or (stem != "__init__" and _loads_outside_own_definition(trees[stem], name)):
                continue
            unused.append(f"{stem}.{name}")
    assert not unused, sorted(set(unused))
