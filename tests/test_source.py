"""Source-level rules for the package itself."""

import ast
from pathlib import Path

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
