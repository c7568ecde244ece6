"""Checks on the source of the package, read as syntax trees (which skip
comments and docstrings)."""

import ast
from pathlib import Path

import pollencast


def _binds(stmt: ast.stmt) -> set[str]:
    """The names that a module-level statement defines or assigns."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _reads(node: ast.AST) -> set[str]:
    """The names that ``node`` reads: names it loads, attributes and the
    names of ``from ... import``."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
    return names


def test_every_private_name_is_read():
    # a private module-level name that no other statement of the package
    # reads is dead code; a read inside its own definition, such as a
    # recursive call, does not count
    stmts = [(path.name, stmt)
             for path in sorted(Path(pollencast.__file__).parent.glob("*.py"))
             for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    reads = [_reads(stmt) for _, stmt in stmts]
    unread = [f"{module}:{stmt.lineno} {name}"
              for i, (module, stmt) in enumerate(stmts)
              for name in sorted(_binds(stmt))
              if name.startswith("_") and not name.startswith("__")
              and not any(name in r for j, r in enumerate(reads) if j != i)]
    assert unread == []
