"""The library stays stdlib-only: every import in src/invcat is relative or stdlib."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "invcat"


def outside_imports(source: str) -> list:
    """(line, module) of each absolute import whose top-level module is not stdlib."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.partition(".")[0] not in sys.stdlib_module_names]
    return found


def test_outside_imports_sees_absolute_non_stdlib_imports_only():
    source = ("import os, networkx.algorithms\nfrom . import fields\n"
              "from .linalg import Matrix\nfrom hypothesis import given\n"
              "def f():\n    import numpy as np\n")
    assert outside_imports(source) == [(1, "networkx.algorithms"), (4, "hypothesis"), (6, "numpy")]


def test_library_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    outside = {path.name: found for path in files
               if (found := outside_imports(path.read_text(encoding="utf-8")))}
    assert outside == {}
