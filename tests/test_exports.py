"""Every name that the package or one of its modules exports resolves."""

import importlib
import pkgutil

import pytest

import plasticwalk

MODULES = ["plasticwalk"] + sorted(f"plasticwalk.{m.name}"
                                   for m in pkgutil.iter_modules(plasticwalk.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
