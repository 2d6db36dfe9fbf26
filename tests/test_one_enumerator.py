"""One enumerator lists every fixed-sum leaf tuple: in the package, the only
``product(..., repeat=...)`` call is the one inside ``flows.halves``, which
the join and ``iter_flows`` both iterate.  A product of distinct ranges
(``product(*ranges)``) lists no fixed-sum tuples and is not counted."""

import ast
from pathlib import Path

import phyloinv

PACKAGE = Path(phyloinv.__file__).parent


def _repeat_products(node):
    """Every ``product(..., repeat=...)`` call under ``node``, named bare or
    as ``itertools.product``."""
    for n in ast.walk(node):
        if isinstance(n, ast.Call) and any(k.arg == "repeat" for k in n.keywords):
            name = n.func.id if isinstance(n.func, ast.Name) else getattr(
                n.func, "attr", None)
            if name == "product":
                yield n


def test_the_only_repeat_product_is_in_flows_halves():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:  # a call is placed by its top-level definition
            where = f"{path.stem}.{getattr(node, 'name', '<module>')}"
            found += [where for _ in _repeat_products(node)]
    assert found == ["flows.halves"]
