"""No test-only helpers in the package: every top-level function or class
in ``src/phyloinv`` is used by name somewhere else in the package, or is
public API listed in ``__all__``; every field, property and non-dunder
method of a class, public or not, is read in the package by name; and
every exception class in ``errors.py`` is raised by the package, itself or
through a subclass.  Dense reference code the tests need lives in
``tests/dense.py``.

The checks match names only: a member that shares its name with one the
package reads elsewhere (a ``GroupSpec.add`` beside ``CayleyTable.add``)
passes unseen."""

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


def _is_property(node):
    return any((d.id if isinstance(d, ast.Name) else getattr(d, "attr", None))
               in ("property", "cached_property") for d in node.decorator_list)


def _class_members():
    """Every attribute name read anywhere in the package, and the (class,
    member, node) of every member defined in a class body."""
    members = []
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    members.append((f"{path.stem}.{cls.name}", node.target.id, node))
                elif isinstance(node, ast.FunctionDef):
                    members.append((f"{path.stem}.{cls.name}", node.name, node))
    return members, read


def test_every_field_and_property_is_read_in_the_package():
    members, read = _class_members()
    unread = [f"{cls}.{name}" for cls, name, node in members
              if (isinstance(node, ast.AnnAssign) or _is_property(node))
              and name not in read]
    assert not unread, "fields and properties src/phyloinv never reads: " \
        + ", ".join(unread)


def test_every_method_is_read_in_the_package():
    # dunders are called by the language, not by name
    members, read = _class_members()
    unread = [f"{cls}.{name}" for cls, name, node in members
              if isinstance(node, ast.FunctionDef) and not _is_property(node)
              and not (name.startswith("__") and name.endswith("__"))
              and name not in read]
    assert not unread, "methods src/phyloinv never reads by name: " \
        + ", ".join(unread)


def test_every_error_class_is_raised_in_the_package():
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for node in ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8")).body
             if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)

    def with_bases(name):
        yield name
        for b in bases.get(name, ()):
            yield from with_bases(b)

    covered = {c for name in raised for c in with_bases(name)}
    unraised = sorted(set(bases) - covered)
    assert not unraised, "error classes src/phyloinv never raises: " \
        + ", ".join(unraised)
