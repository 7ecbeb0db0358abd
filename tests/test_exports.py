import ast
import importlib
import inspect
import pkgutil
import re
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


def test_no_root_export_shadows_a_submodule():
    # a root export named like a submodule replaces it as the package
    # attribute, so ``tsopt.<name>`` would not be the module
    assert inspect.ismodule(tsopt.optimize)
    submodules = {info.name for info in pkgutil.iter_modules(tsopt.__path__)}
    assert not submodules & set(tsopt.__all__)


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent
              / "README.md").read_text()
    section = readme.split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    assert any((tmp_path / "out").iterdir())


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
