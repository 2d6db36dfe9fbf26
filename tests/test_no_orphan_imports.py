"""No orphaned imports in the package: every name a module imports at run
time is read in that module.  ``__init__.py`` re-exports the names it
lists in ``__all__``, and a name imported under ``if TYPE_CHECKING:``
counts as read when a string annotation names it."""

import ast
from pathlib import Path

import phyloinv

PACKAGE = Path(phyloinv.__file__).parent


def _is_type_checking(node):
    return isinstance(node, ast.If) and any(
        isinstance(n, ast.Name) and n.id == "TYPE_CHECKING"
        for n in ast.walk(node.test))


def _imports(node, typing_only=False):
    """(bound name, line, under ``if TYPE_CHECKING:``) of every import under
    ``node``; ``from __future__`` imports bind nothing that is read."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            return
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            yield name, node.lineno, typing_only
        return
    if _is_type_checking(node):
        for child in node.body:
            yield from _imports(child, True)
        for child in node.orelse:
            yield from _imports(child, typing_only)
        return
    for child in ast.iter_child_nodes(node):
        yield from _imports(child, typing_only)


def _annotations(tree):
    """The names in the module's string annotations."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            notes = [a.annotation for a in (*args.posonlyargs, *args.args,
                                             *args.kwonlyargs, args.vararg,
                                             args.kwarg) if a is not None]
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        else:
            continue
        for note in notes:
            for n in ast.walk(note) if note is not None else ():
                if isinstance(n, ast.Constant) and isinstance(n.value, str):
                    found |= {m.id for m in ast.walk(ast.parse(n.value, mode="eval"))
                              if isinstance(m, ast.Name)}
    return found


def _all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_import_is_read():
    orphans = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        exported = _all(tree)
        annotated = _annotations(tree)
        for name, line, typing_only in _imports(tree):
            if typing_only:
                used = name in annotated or name in read
            else:
                used = name in read or name in exported
            if not used:
                orphans.append(f"{path.name}:{line} {name}")
    assert not orphans, "imported but never read: " + ", ".join(orphans)
