"""The library computes exactly: src/invcat holds no true division and no float literal.

Every division goes through a field's ``inverse``, since ``int / int`` is a
float; floor division ``//`` on integers stays exact and is allowed.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "invcat"


def inexact(source: str) -> list:
    """(line, what) of each '/' or '/=' and each float or complex literal in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "/=" if isinstance(node, ast.AugAssign) else "/"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, repr(node.value)))
    return sorted(found)


def test_inexact_sees_true_division_and_float_literals_only():
    source = ("a = b // c\nd = b / c\ne = '1/2'\nd /= 2\nd //= 2\n"
              "f = 1.5\ng = 10**6 + 1e3\nh = 2j\n# 0.5 / 2\n")
    assert inexact(source) == [(2, "/"), (4, "/="), (6, "1.5"), (7, "1000.0"), (8, "2j")]


def test_library_has_no_true_division_or_float_literal():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = {path.name: hits for path in files if (hits := inexact(path.read_text(encoding="utf-8")))}
    assert found == {}
