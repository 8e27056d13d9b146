"""scripts/unused_imports_lint.py: what counts as a use, and the package
passing it (so a new unused import fails the suite, not only CI's lint
step)."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

LINT_PATH = Path(__file__).resolve().parent.parent / "scripts" / "unused_imports_lint.py"


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location("unused_imports_lint", LINT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def test_src_repro_has_no_unused_imports(lint, capsys):
    assert lint.main([]) == 0, capsys.readouterr().out


def test_flags_only_unreferenced_names(lint, tmp_path):
    path = _write(tmp_path, """
        from __future__ import annotations

        import os.path
        import json as js
        from typing import TYPE_CHECKING, Dict, List, Optional
        from collections import *

        if TYPE_CHECKING:
            from decimal import Decimal
            from fractions import Fraction

        __all__ = ["Optional"]

        def f(x: "Dict[str, List[Decimal]]") -> None:
            import shutil
            return os.path.join("a", "b")
        """)
    assert lint.unused_imports(path) == [(5, "js"), (11, "Fraction"), (16, "shutil")]


def test_annotated_assignment_strings_count(lint, tmp_path):
    path = _write(tmp_path, """
        from typing import TYPE_CHECKING
        if TYPE_CHECKING:
            from repro.sim.system import System
        class A:
            owner: "System | None" = None
        """)
    assert lint.unused_imports(path) == []


def test_package_init_files_are_exempt(lint, tmp_path, capsys):
    package = tmp_path / "pkg"
    package.mkdir()
    _write(package, "from json import dumps\n", name="__init__.py")
    _write(package, "from json import loads\n", name="user.py")
    assert lint.main([str(package)]) == 1
    out = capsys.readouterr().out
    assert "user.py:1: loads" in out
    assert "__init__" not in out
