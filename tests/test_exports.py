"""Every name that the package or one of its modules exports resolves, and so does every
name that the benchmark under ``perfbench/`` traces or imports from it.

The benchmark's files are read, not changed: the tracer is loaded by its path, and the
workloads module is parsed with ``ast``, so a change that moves a name the benchmark pins
fails here rather than in a benchmark run.
"""

import ast
import importlib
import importlib.util
import pkgutil
from types import ModuleType

import pytest

import plasticwalk

from conftest import PERFBENCH, load_tracer

MODULES = ["plasticwalk"] + sorted(f"plasticwalk.{m.name}"
                                   for m in pkgutil.iter_modules(plasticwalk.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def resolves(module: str, name: str) -> bool:
    """True when ``name`` is an attribute of the module ``module`` or a submodule of it."""
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return True
    return hasattr(owner, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None


def test_benchmark_tracer_names_resolve():
    """Every (module, attribute) of the tracer's SPECS, which it wraps by ``getattr``."""
    specs = load_tracer().SPECS
    pinned = [(f"plasticwalk.{module}", attribute) for module, attribute, *_ in specs]
    assert ("plasticwalk.lattice", "step") in pinned
    assert [pin for pin in pinned if not resolves(*pin)] == []


def test_benchmark_imports_resolve():
    """Every name the workloads import from ``plasticwalk``, and every attribute they read
    from a ``plasticwalk`` module they import (``lat.load_csv``, ``cli.main``)."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    imported, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("plasticwalk"):
            owner = importlib.import_module(node.module)
            for alias in node.names:
                imported.append((node.module, alias.name))
                if isinstance(getattr(owner, alias.name, None), ModuleType):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    read = [(modules[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules]
    assert ("plasticwalk.coins", "walk_k") in imported and ("plasticwalk.cli", "main") in read
    assert [pin for pin in imported + read if not resolves(*pin)] == []
