"""Every public name a sarl module exports resolves."""

import importlib
import pkgutil

import pytest

import sarl

MODULES = ["sarl"] + [f"sarl.{m.name}" for m in pkgutil.iter_modules(sarl.__path__)
                      if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
