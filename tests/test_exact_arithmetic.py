"""The library computes exactly: src/invcat holds no true division and no float literal.

Every division goes through a field's ``inverse``, since ``int / int`` is a
float; floor division ``//`` on integers stays exact and is allowed.  The
engine also handles no scalar itself: it reads no field method, so the
scalar and row formats stay inside ``fields`` and ``linalg``.  And the
pipeline past the action layer (``engine``, ``category``, ``jobs``) names
no ``Matrix`` and reads no ``.entries``: a group element's rows stay
behind ``linalg`` and ``action`` (``edge_rows``, ``line_value``).
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


def dense_matrix_uses(source: str) -> list:
    """(line, what) of each name, attribute or import of `Matrix` and each `.entries` read."""
    found = []
    for node in nodes(source):
        if isinstance(node, ast.Name) and node.id == "Matrix":
            found.append((node.lineno, "Matrix"))
        elif isinstance(node, ast.Attribute) and node.attr in ("Matrix", "entries"):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, "Matrix") for alias in node.names if alias.name == "Matrix"]
    return sorted(found)


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


def test_dense_matrix_uses_sees_names_imports_and_entries_reads():
    source = ("from .linalg import Matrix as M\nm = Matrix(f, rows)\nx = m.entries[0][0]\n"
              "y = linalg.Matrix\nentries = 3\nz = 'Matrix.entries'\n# m.entries\nw = m.entry\n")
    assert dense_matrix_uses(source) == [(1, "Matrix"), (2, "Matrix"), (3, "entries"), (4, "Matrix")]


def test_pipeline_names_no_matrix_and_reads_no_entries():
    found = {name: hits for name in ("engine.py", "category.py", "jobs.py")
             if (hits := dense_matrix_uses((PACKAGE / name).read_text(encoding="utf-8")))}
    assert found == {}
