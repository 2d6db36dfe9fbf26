"""The verifier stays independent of the construction: at run time
``oracle.py`` imports nothing from ``pipeline`` or ``tripod``, and from
``flows`` only the flow basics it certifies against.  Imports under
``if TYPE_CHECKING:`` are for annotations and never run."""

import ast
from pathlib import Path

import phyloinv

ORACLE = Path(phyloinv.__file__).parent / "oracle.py"
FORBIDDEN = {"pipeline", "tripod"}
FLOWS_ALLOWED = {"DEFAULT_FLOW_CAP", "Binomial", "Flow", "check_flow_cap",
                 "flow_total", "iter_flows"}


def _names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _runtime_imports(node):
    """(module, name) of every import under ``node`` that runs, with the
    package prefix dropped; ``name`` is None for a plain ``import``."""
    if isinstance(node, ast.If) and "TYPE_CHECKING" in _names(node.test):
        for child in node.orelse:
            yield from _runtime_imports(child)
        return
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if node.level == 0:
            module = module.removeprefix("phyloinv.")
        for alias in node.names:
            if module in ("", "phyloinv"):  # a submodule: from . import x
                yield alias.name, None
            else:
                yield module, alias.name
    elif isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name.removeprefix("phyloinv."), None
    for child in ast.iter_child_nodes(node):
        yield from _runtime_imports(child)


def test_oracle_imports_nothing_from_the_construction():
    tree = ast.parse(ORACLE.read_text(encoding="utf-8"), filename=str(ORACLE))
    bad = []
    for module, name in _runtime_imports(tree):
        if module in FORBIDDEN:
            bad.append(f"{module}.{name or '*'}")
        elif module == "flows" and name not in FLOWS_ALLOWED:
            bad.append(f"flows.{name or '*'}")
    assert not bad, "oracle.py imports from the construction: " + ", ".join(bad)
