"""Runtime invariants in the package raise typed errors: an ``assert``
statement vanishes under ``python -O``, so none may appear in its source."""

import ast
from pathlib import Path

import tinydes


def test_no_assert_statements_in_package():
    root = Path(tinydes.__file__).resolve().parent
    sources = sorted(root.rglob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(root)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == [], "assert statements in tinydes: " + ", ".join(found)
