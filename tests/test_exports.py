"""The module surface: every name in a module's ``__all__`` resolves, and
``src/`` holds no definition that only tests reach."""

import ast
import importlib
from pathlib import Path

import pytest

MODULES = ("cli", "config", "forcing", "grid", "kernels", "solver", "verify")
SRC = Path(__file__).resolve().parent.parent / "src" / "nsfarfield"

# module-level definitions with no caller in src/ that the acceptance suite
# calls by name
ACCEPTANCE_ONLY = {"_linear_series", "integral_residual", "SyntheticFlow", "RadialNorms"}


def _references(tree) -> set:
    """Every name that code in ``tree`` reads: names, attributes and imports."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
    return refs


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(f"nsfarfield.{name}")
    assert module.__all__
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"nsfarfield.{name}.__all__ names missing attributes: {missing}"


def test_every_src_definition_has_a_src_caller():
    # a name that only tests reach belongs in tests/; the allowlist stays
    # pinned to what tests/test_acceptance.py still calls
    defined, refs = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
        refs |= _references(tree)
    uncalled = {name: module for name, module in defined.items() if name not in refs}
    assert set(uncalled) == ACCEPTANCE_ONLY, uncalled
    acceptance = ast.parse((SRC.parents[1] / "tests" / "test_acceptance.py").read_text())
    calls = (node.func for node in ast.walk(acceptance) if isinstance(node, ast.Call))
    called = {getattr(f, "attr", getattr(f, "id", None)) for f in calls}
    assert ACCEPTANCE_ONLY <= called, ACCEPTANCE_ONLY - called
