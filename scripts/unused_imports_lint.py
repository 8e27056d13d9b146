#!/usr/bin/env python
"""CI lint: no module under ``src/repro`` imports a name it never uses.

For every module (``__init__.py`` files are exempt: their imports are
the package's re-exports) the lint collects each name an ``import`` or
``from ... import`` statement binds, at any depth, and fails on every
one that the module never references.  A reference is a ``Name`` node
anywhere in the module (an attribute chain ``a.b.c`` starts with one),
a name inside a string annotation (``"System | None"``, ``List["Plan"]``)
or an entry of ``__all__``.  ``from __future__`` and ``*`` imports bind
nothing the lint checks.

Usage (from the repository root)::

    python scripts/unused_imports_lint.py            # lints src/repro
    python scripts/unused_imports_lint.py PATH...    # files or directories

Exit 0 when every imported name is used, 1 otherwise (one line per
unused name: ``path:line: name``).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Set, Tuple

DEFAULT_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def imported_names(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``; ``import a.b as c`` binds ``c``
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotations(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.arg):
            if node.annotation is not None:
                yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def referenced_names(tree: ast.AST) -> Set[str]:
    """Every name the module uses, string annotations and ``__all__``
    included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(
                    inner.id for inner in ast.walk(parsed)
                    if isinstance(inner, ast.Name)
                )
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                if node.value is not None:
                    names.update(
                        inner.value for inner in ast.walk(node.value)
                        if isinstance(inner, ast.Constant)
                        and isinstance(inner.value, str)
                    )
    return names


def unused_imports(path: Path) -> List[Tuple[int, str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = referenced_names(tree)
    return sorted(
        (line, name) for name, line in imported_names(tree) if name not in used
    )


def modules(paths: List[Path]) -> Iterator[Path]:
    for path in paths:
        found = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for module in found:
            if module.name != "__init__.py":
                yield module


def main(argv: List[str]) -> int:
    paths = [Path(arg) for arg in argv] or [DEFAULT_ROOT]
    failures = []
    checked = 0
    for module in modules(paths):
        checked += 1
        for line, name in unused_imports(module):
            failures.append(f"{module}:{line}: {name}")
    print(f"unused imports lint: {checked} modules checked")
    if failures:
        print(f"\nunused imports lint FAILED ({len(failures)} names):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("unused imports lint passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
