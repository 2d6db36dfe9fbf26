"""No test-only helpers in the package: every top-level function or class
in ``src/phyloinv`` is used by name somewhere else in the package, or is
public API listed in ``__all__``.  Dense reference code the tests need
lives in ``tests/dense.py``."""

import ast
from pathlib import Path

import phyloinv

PACKAGE = Path(phyloinv.__file__).parent


def _names(node):
    """Every name ``node`` reads, as a bare name or an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_definition_is_used_in_the_package():
    defined = []  # (module, name, the definition's node)
    reads = []  # (module, top-level node, names it reads)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name, node))
            reads.append((path.stem, node, _names(node)))
    unused = [f"{mod}.{name}" for mod, name, defn in defined
              if name not in phyloinv.__all__
              and not any(name in names for _, node, names in reads
                          if node is not defn)]
    assert not unused, "defined in src/phyloinv but used only outside it: " \
        + ", ".join(unused)
