import importlib
import pkgutil

import pytest

import tsopt

MODULES = ["tsopt"] + [f"tsopt.{info.name}"
                       for info in pkgutil.iter_modules(tsopt.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
