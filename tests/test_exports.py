"""Every public name is reached by a task or by the acceptance gate.

A name is public when ``ergodim/__init__.py`` re-exports it or its module
lists it in ``__all__`` (``errors`` aside: its exceptions are the public
failure modes).  It counts as reached when another module of the package,
``tests/test_acceptance.py``, or another top-level statement of its own
module refers to it.  A helper that only its own unit tests call fails here.
The same holds for each top-level private function or class (``_name``): some
statement of the package other than its definition, and other than an
import, must read it.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ergodim"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _names(node) -> set:
    """Every identifier that ``node`` reads, imports or looks up as an attribute."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name)
    return found


def _defines(stmt) -> set:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    return set()


def _public_names(modules: dict) -> set:
    """(name, defining module) for each re-export of ``__init__`` and each ``__all__`` entry."""
    public = set()
    for stmt in modules["__init__"].body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module != "errors":
            public |= {(alias.name, stmt.module) for alias in stmt.names}
    for mod, tree in modules.items():
        for stmt in tree.body:
            if mod != "errors" and "__all__" in _defines(stmt):
                public |= {(elt.value, mod) for elt in stmt.value.elts}
    return public


def test_every_public_name_is_reached():
    modules = {path.stem: _parse(path) for path in SRC.glob("*.py")}
    gate = _names(_parse(ROOT / "tests" / "test_acceptance.py"))
    unreached = []
    for name, mod in sorted(_public_names(modules)):
        elsewhere = any(
            name in _names(tree) for other, tree in modules.items() if other not in (mod, "__init__")
        )
        at_home = any(
            name in _names(stmt)
            for stmt in modules[mod].body
            if name not in _defines(stmt) and not isinstance(stmt, (ast.Import, ast.ImportFrom))
        )
        if not (elsewhere or at_home or name in gate):
            unreached.append(f"{mod}.{name}")
    assert unreached == []


def test_every_private_helper_is_read():
    modules = {path.stem: _parse(path) for path in SRC.glob("*.py")}
    reads = [
        (stmt, _names(stmt)) for tree in modules.values() for stmt in tree.body
        if not isinstance(stmt, (ast.Import, ast.ImportFrom))
    ]
    unread = [
        f"{mod}.{stmt.name}"
        for mod, tree in sorted(modules.items())
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_")
        and not any(stmt.name in names for other, names in reads if other is not stmt)
    ]
    assert unread == []
