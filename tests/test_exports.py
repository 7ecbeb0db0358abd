import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tsopt

MODULES = ["tsopt"] + [f"tsopt.{info.name}"
                       for info in pkgutil.iter_modules(tsopt.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _bench_traced():
    """The ``TRACED`` literal of ``bench/run.py``, read without importing
    the file."""
    tree = ast.parse((Path(__file__).resolve().parent.parent
                      / "bench" / "run.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "TRACED"):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py has no TRACED literal")


def test_every_bench_traced_name_resolves():
    # the benchmark patches tsopt.<module>.<function> by name; a renamed
    # or deleted function would only show when a traced run crashes
    traced = _bench_traced()
    assert traced
    missing = []
    for mod, fns in traced.items():
        module = importlib.import_module(f"tsopt.{mod}")
        missing += [f"tsopt.{mod}.{fn}" for fn in fns
                    if not callable(getattr(module, fn, None))]
    assert not missing, f"traced names missing: {missing}"
