"""Every name in a module's ``__all__`` resolves on the module."""

import importlib

import pytest

MODULES = ("cli", "config", "forcing", "grid", "kernels", "solver", "verify")


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(f"nsfarfield.{name}")
    assert module.__all__
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"nsfarfield.{name}.__all__ names missing attributes: {missing}"
