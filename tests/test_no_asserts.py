"""No ``assert`` statements in the package: ``python -O`` strips them, so
an invariant checked that way would silently go unchecked."""

import ast
from pathlib import Path

import phyloinv

PACKAGE = Path(phyloinv.__file__).parent


def test_no_assert_in_package():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements in the package: " + ", ".join(found)
