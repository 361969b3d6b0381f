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


@pytest.mark.parametrize("module", ["eovsim"] + sorted(
    f"eovsim.{p.stem}" for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "__main__")))
def test_every_exported_name_exists(module):
    # a deleted helper must leave its module's __all__ too
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
