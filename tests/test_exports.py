"""Every name a module exports is really there."""

import importlib
import pkgutil

import mixdih


def test_all_names_exist():
    declaring = 0
    for info in pkgutil.iter_modules(mixdih.__path__):
        module = importlib.import_module(f"mixdih.{info.name}")
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        declaring += 1
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"mixdih.{info.name}.__all__ names missing attributes: {missing}"
    assert declaring >= 4
