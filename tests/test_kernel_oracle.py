"""The sparse elimination kernel against the dense Gauss-Jordan oracle.

Seeded cases and hypothesis draws over Q, Q(zeta_5), F_2 and F_3 cover
empty, zero, full, rank-deficient, dense and monomial-style (at most two
nonzeros per row) matrices.
"""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from invcat.fields import CyclotomicField, PrimeField, QQ
from invcat.linalg import Matrix, NotASubspace, Subspace


FIELDS = [QQ, CyclotomicField(5), PrimeField(2), PrimeField(3)]
KINDS = ("empty", "zero", "full", "deficient", "dense", "two_per_row")


def scalar(field, draw_int):
    """A field scalar from a source of small integers."""
    if field is QQ:
        return Fraction(draw_int(-3, 3), draw_int(1, 3))
    if isinstance(field, CyclotomicField):
        return field.element([draw_int(-2, 2) for _ in range(field.degree)])
    return field.from_int(draw_int(0, field.p - 1))


def nonzero(field, draw_int):
    while True:
        x = scalar(field, draw_int)
        if x != 0:
            return x


def make_rows(field, kind, nrows, ncols, draw_int):
    """Dense rows of one of the matrix kinds the kernel must handle."""
    zero = field.zero()
    if kind == "empty":
        return []
    if kind == "zero":
        return [[zero] * ncols for _ in range(nrows)]
    if kind == "full":
        # an invertible upper-triangular block, then random rows below
        rows = []
        for i in range(ncols):
            rows.append([zero] * i + [nonzero(field, draw_int)]
                        + [scalar(field, draw_int) for _ in range(ncols - i - 1)])
        return rows + [[scalar(field, draw_int) for _ in range(ncols)] for _ in range(nrows)]
    if kind == "deficient":
        # a product of nrows x r and r x ncols factors has rank at most r
        r = draw_int(0, max(min(nrows, ncols) - 1, 0))
        left = [[scalar(field, draw_int) for _ in range(r)] for _ in range(nrows)]
        right = [[scalar(field, draw_int) for _ in range(ncols)] for _ in range(r)]
        out = []
        for lrow in left:
            row = [zero] * ncols
            for c, rrow in zip(lrow, right):
                row = [x + c * y for x, y in zip(row, rrow)]
            out.append(row)
        return out
    if kind == "dense":
        return [[scalar(field, draw_int) for _ in range(ncols)] for _ in range(nrows)]
    rows = []
    for _ in range(nrows):
        row = [zero] * ncols
        for _ in range(draw_int(0, 2)):
            row[draw_int(0, ncols - 1)] = nonzero(field, draw_int)
        rows.append(row)
    return rows


def subspace(field, rows, ncols):
    return Subspace.from_vectors(field, ncols, rows)


def check_matrix(field, rows, ncols):
    """rref, rank and kernel of one matrix against the oracle."""
    m = Matrix(field, rows) if rows else None
    red, pivots = oracle.rref(field, rows, ncols)
    if m is not None:
        got, got_pivots = m.rref()
        zero_rows = [tuple([field.zero()] * ncols)] * (len(rows) - len(red))
        assert got.entries == red + tuple(zero_rows)
        assert got_pivots == pivots
        assert m.rank() == len(pivots)
        assert m.kernel().basis == oracle.kernel(field, rows, ncols)
    assert subspace(field, rows, ncols).basis == red


def check_pair(field, a_rows, b_rows, ncols, vector):
    """The subspace operations on two spans against the oracle."""
    a = subspace(field, a_rows, ncols)
    b = subspace(field, b_rows, ncols)
    ab, bb = oracle.span(field, a_rows, ncols), oracle.span(field, b_rows, ncols)
    assert (a + b).basis == oracle.add(field, ab, bb, ncols)
    assert a.intersect(b).basis == oracle.intersect(field, ab, bb, ncols)
    assert a.reduce(vector) == oracle.reduce(ab, vector)
    assert a.contains(vector) == all(x == 0 for x in oracle.reduce(ab, vector))
    inside = all(all(x == 0 for x in oracle.reduce(bb, row)) for row in ab)
    assert a.is_subspace_of(b) == inside
    whole = a + b
    assert a.complement_in(whole).basis == oracle.complement(field, ab, whole.basis, ncols)
    small = ncols if ncols <= 3 else 2
    c_rows = [row[:small] for row in b_rows]
    c = subspace(field, c_rows, small)
    assert a.tensor(c).basis == oracle.tensor(field, ab, oracle.span(field, c_rows, small), ncols * small)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("kind", KINDS)
def test_seeded_matrices_match_oracle(field, kind):
    rng = random.Random(f"{field!r}-{kind}")
    for _ in range(6):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = make_rows(field, kind, nrows, ncols, rng.randint)
        check_matrix(field, rows, ncols)
        other = make_rows(field, rng.choice(KINDS), rng.randint(0, 5), ncols, rng.randint)
        vector = [scalar(field, rng.randint) for _ in range(ncols)]
        check_pair(field, rows, other, ncols, vector)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_hypothesis_matrices_match_oracle(data):
    field = data.draw(st.sampled_from(FIELDS), label="field")
    ncols = data.draw(st.integers(1, 6), label="ncols")

    def draw_int(lo, hi):
        return data.draw(st.integers(lo, hi))

    def draw_rows():
        kind = data.draw(st.sampled_from(KINDS), label="kind")
        return make_rows(field, kind, draw_int(0, 6), ncols, draw_int)

    rows = draw_rows()
    check_matrix(field, rows, ncols)
    vector = [scalar(field, draw_int) for _ in range(ncols)]
    check_pair(field, rows, draw_rows(), ncols, vector)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_split_matches_span_and_complement(field):
    rng = random.Random(f"split-{field!r}")
    part_kinds = [kind for kind in KINDS if kind != "full"]
    proper = outside = 0
    for _ in range(20):
        ncols = rng.randint(1, 6)
        kind = rng.choice(("deficient", "dense", "two_per_row"))
        whole = subspace(field, make_rows(field, kind, rng.randint(1, 6), ncols, rng.randint), ncols)
        total, rest = whole.split(())  # nothing to sum: nothing is built
        assert total is Subspace.zero(field, whole.dim) and rest is whole
        # spaces inside whole: spans of a few combinations of its basis rows
        spaces = [
            subspace(field, oracle.lift(field, coords, whole.basis, ncols), ncols)
            for coords in (
                make_rows(field, rng.choice(part_kinds), rng.randint(0, 2), whole.dim, rng.randint)
                if whole.dim else []
                for _ in range(rng.randint(1, 3))
            )
        ]
        total, rest = whole.split(spaces)
        summed = oracle.span(field, [row for space in spaces for row in space.basis], ncols)
        assert total.ambient_dim == whole.dim
        assert oracle.lift(field, total.basis, whole.basis, ncols) == summed
        assert rest.basis == oracle.complement(field, summed, whole.basis, ncols)
        proper += bool(total.dim and rest.dim)
        # a vector of whole is fixed by its pivot entries, so one that differs
        # from a row of whole (or from 0) only at a free column is outside it
        free = [c for c in range(ncols) if c not in whole.pivots]
        if free:
            vector = list(whole.basis[0]) if whole.dim else [field.zero()] * ncols
            vector[free[-1]] = vector[free[-1]] + field.one()
            with pytest.raises(NotASubspace):
                whole.split(spaces + [subspace(field, [vector], ncols)])
            outside += 1
    assert proper and outside


def test_monomial_action_fixed_space_matches_oracle():
    # g - 1 for a signed permutation of a 27-dimensional space, as in the engine
    rng = random.Random(2010)
    for field in FIELDS:
        n = 27
        perm = list(range(n))
        rng.shuffle(perm)
        signs = [field.one() if rng.random() < 0.7 else -field.one() for _ in range(n)]
        rows = []
        for i in range(n):
            row = [field.zero()] * n
            row[perm[i]] = signs[i]
            row[i] = row[i] - field.one()
            rows.append(row)
        assert Matrix(field, rows).kernel().basis == oracle.kernel(field, rows, n)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_trivial_subspaces_are_shared_and_never_mutated(field):
    n = 4
    zero, full = Subspace.zero(field, n), Subspace.full(field, n)
    before = (copy.deepcopy(zero.rows), copy.deepcopy(full.rows))
    rng = random.Random(4)
    mid = subspace(field, make_rows(field, "dense", 2, n, rng.randint), n)
    one_dim = Subspace.full(field, 1)
    for s in (zero, full):
        for t in (zero, full, mid):
            s + t
            t + s
            s.intersect(t)
            t.intersect(s)
            s.annihilator()
            s.tensor(t)
            s.tensor(one_dim)
            s.is_subspace_of(full)
            s.complement_in(full)
            s.reduce([field.one()] * n)
    mid.complement_in(full)
    zero.complement_in(mid)
    assert (zero.rows, full.rows) == before
    assert Subspace.zero(field, n) is zero and Subspace.full(field, n) is full
    assert Subspace.from_vectors(field, n, []) is zero
    assert Matrix.identity(field, n).kernel() is zero
    assert Matrix(field, [[field.zero()] * n]).kernel() is full
    assert full.basis == Matrix.identity(field, n).entries
