"""Each module's ``__all__`` matches what it defines."""

import importlib
import inspect
import pkgutil

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
