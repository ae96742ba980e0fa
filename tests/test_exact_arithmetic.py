"""The library computes exactly: src/invcat holds no true division and no float literal.

Every division goes through a field's ``inverse``, since ``int / int`` is a
float; floor division ``//`` on integers stays exact and is allowed.  The
engine also handles no scalar itself: it reads no field method, so the
scalar and row formats stay inside ``fields`` and ``linalg``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "invcat"
FIELD_METHODS = {"one", "zero", "coerce", "parse", "inverse"}


def nodes(source: str):
    """Every node of the parsed source."""
    return ast.walk(ast.parse(source))


def field_methods(source: str) -> list:
    """(line, name) of each attribute read named like a field method, called or not."""
    return sorted((node.lineno, node.attr) for node in nodes(source)
                  if isinstance(node, ast.Attribute) and node.attr in FIELD_METHODS)


def inexact(source: str) -> list:
    """(line, what) of each '/' or '/=' and each float or complex literal in the source."""
    found = []
    for node in nodes(source):
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


def test_field_methods_sees_attribute_reads_only():
    source = ("a = field.one()\nb = spec.field.zero()\nc = f.coerce(3)\nd = QQ.parse('1')\n"
              "e = f.inverse\none = zero()\ng = 'x.one()'\n# field.parse(s)\nh = f.ones\n")
    assert field_methods(source) == [(1, "one"), (2, "zero"), (3, "coerce"), (4, "parse"),
                                     (5, "inverse")]


def test_engine_reads_no_field_method():
    assert field_methods((PACKAGE / "engine.py").read_text(encoding="utf-8")) == []
