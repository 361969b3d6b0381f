"""Source-level rules for the package itself."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eovsim"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements; invariants must raise explicitly
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_validate_called_only_when_a_config_is_built():
    # a ScenarioConfig validates itself when it is built; a second call site
    # would be a second place to keep in step with the rules
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        scopes = [(node.name, node) for node in ast.walk(tree)
                  if isinstance(node, (ast.ClassDef, ast.FunctionDef))]
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "validate":
                inner = [n for n, scope in scopes if call in ast.walk(scope)]
                found.append((path.name, *inner))
    assert found == [("config.py", "ScenarioConfig", "__post_init__")]


@pytest.mark.parametrize("module", ["eovsim"] + sorted(
    f"eovsim.{p.stem}" for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "__main__")))
def test_every_exported_name_exists(module):
    # a deleted helper must leave its module's __all__ too
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
