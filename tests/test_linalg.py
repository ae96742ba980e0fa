import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from invcat.fields import CyclotomicField, FieldMismatch, PrimeField, QQ
from invcat.linalg import (
    AmbientMismatch,
    Matrix,
    NotASubspace,
    Subspace,
    action_rows,
    identity_rows,
    rows_product,
    tensor_rows,
)

import oracle
from instances import finite_order_matrix


F2 = PrimeField(2)
FIELDS = [QQ, CyclotomicField(3), F2, PrimeField(5)]


def rand_matrix(field, rng, nrows, ncols, span=3):
    if field is QQ:
        rows = [[Fraction(rng.randint(-span, span)) for _ in range(ncols)] for _ in range(nrows)]
    elif isinstance(field, PrimeField):
        rows = [[field.coerce(rng.randrange(field.p)) for _ in range(ncols)] for _ in range(nrows)]
    else:
        rows = [
            [oracle.cyclotomic(field, [rng.randint(-2, 2) for _ in range(field.degree)])
             for _ in range(ncols)]
            for _ in range(nrows)
        ]
    return Matrix(field, rows)


def test_rref_identity():
    ident = oracle.identity_matrix(QQ, 3)
    red, pivots = ident.rref()
    assert red == ident
    assert pivots == (0, 1, 2)


def test_rref_rank_one():
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    red, pivots = m.rref()
    assert pivots == (0,)
    assert red.entries[0] == (Fraction(1), Fraction(2))
    assert all(x == 0 for x in red.entries[1])


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_rref_idempotent_and_rank_nullity(field):
    rng = random.Random(42)
    for _ in range(20):
        m = rand_matrix(field, rng, 4, 4)
        red, pivots = m.rref()
        again, pivots2 = red.rref()
        assert again == red and pivots2 == pivots
        assert len(pivots) + m.kernel().dim == 4


def test_kernel_examples():
    k = Matrix.from_rows(QQ, [[1, 1]]).kernel()
    assert oracle.basis(k) == ((Fraction(1), Fraction(-1)),)
    assert oracle.identity_matrix(QQ, 3).kernel().dim == 0
    assert Matrix.from_rows(QQ, [[0, 0, 0], [0, 0, 0]]).kernel().dim == 3


def test_kernel_is_annihilated():
    rng = random.Random(5)
    for field in FIELDS:
        m = rand_matrix(field, rng, 3, 5)
        ker = m.kernel()
        for row in oracle.basis(ker):
            col = Matrix(field, [[x] for x in row])
            assert all(x == 0 for r in oracle.matmul(m, col).entries for x in r)


def span(field, rows, ambient):
    return Subspace.from_vectors(field, ambient, [[field.coerce(x) for x in r] for r in rows])


def test_sum_and_intersection_examples():
    s = span(QQ, [[1, 0, 0], [0, 1, 0]], 3)
    t = span(QQ, [[0, 1, 0], [0, 0, 1]], 3)
    zero = Subspace.zero(QQ, 3)
    assert (s + zero) == s


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_dimension_formula_random(field):
    rng = random.Random(77)
    for _ in range(15):
        s = rand_matrix(field, rng, rng.randint(1, 3), 5).kernel()
        t = rand_matrix(field, rng, rng.randint(1, 3), 5).kernel()
        total = s + t
        meet = Subspace.from_vectors(field, 5, oracle.intersect(field, oracle.basis(s), oracle.basis(t), 5))
        # independent oracle: rank of the stacked basis matrices
        stacked_rank = 0
        rows = list(oracle.basis(s)) + list(oracle.basis(t))
        if rows:
            stacked_rank = len(Matrix(field, rows).rref()[1])
        assert total.dim == stacked_rank
        assert s.dim + t.dim == total.dim + meet.dim
        assert oracle.is_subspace(meet, s) and oracle.is_subspace(meet, t)


def test_subspace_equality_is_canonical():
    a = span(QQ, [[1, 1, 0], [0, 1, 1]], 3)
    b = span(QQ, [[1, 2, 1], [1, 1, 0], [2, 3, 1]], 3)
    assert a == b
    assert oracle.basis(a) == oracle.basis(b)
    assert hash(a) == hash(b)


def test_complement_examples():
    t = span(QQ, [[1, 0, 2], [0, 1, 1]], 3)
    zero = Subspace.zero(QQ, 3)
    assert zero.complement_in(t) == t
    assert t.complement_in(t).dim == 0


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_complement_is_a_complement(field):
    rng = random.Random(13)
    for _ in range(15):
        t = rand_matrix(field, rng, rng.randint(1, 4), 6).kernel()
        if t.dim == 0:
            continue
        # a random subspace of t
        k = rng.randint(0, t.dim)
        combos = []
        for _ in range(k):
            coeffs = [rng.randint(-2, 2) for _ in oracle.basis(t)]
            vec = [field.zero()] * 6
            for c, row in zip(coeffs, oracle.basis(t)):
                vec = [x + field.coerce(c) * y for x, y in zip(vec, row)]
            combos.append(vec)
        s = Subspace.from_vectors(field, 6, combos)
        c = s.complement_in(t)
        assert c.dim == t.dim - s.dim
        assert (s + c) == t
        assert oracle.intersect(field, oracle.basis(s), oracle.basis(c), 6) == ()


def test_complement_requires_containment():
    t = span(QQ, [[1, 0]], 2)
    s = span(QQ, [[0, 1]], 2)
    with pytest.raises(NotASubspace):
        s.complement_in(t)


def test_tensor_matrix_examples():
    assert oracle.identity_matrix(QQ, 2).tensor(oracle.identity_matrix(QQ, 3)) == oracle.identity_matrix(QQ, 6)
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    b = Matrix.from_rows(QQ, [[0, 1], [1, 0], [1, 1]])
    t = a.tensor(b)
    assert (t.nrows, t.ncols) == (a.nrows * b.nrows, a.ncols * b.ncols)
    # block structure: entry (i*3+k, j*2+l) = a[i][j] * b[k][l]
    for i in range(2):
        for j in range(2):
            for k in range(3):
                for l in range(2):
                    assert t.entries[i * 3 + k][j * 2 + l] == a.entries[i][j] * b.entries[k][l]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_tensor_mixed_product(field):
    rng = random.Random(3)
    for _ in range(8):
        a, b, c, d = (rand_matrix(field, rng, 2, 2) for _ in range(4))
        mul = oracle.matmul
        assert mul(a.tensor(b), c.tensor(d)) == mul(a, c).tensor(mul(b, d))


@pytest.mark.parametrize("field", [QQ, F2, PrimeField(3), CyclotomicField(3)], ids=repr)
def test_rows_product_is_the_dense_product_in_pair_rows(field):
    # exact tuple equality: a product's pairs must be sorted by column and
    # hold no zero, since the closure compares and hashes elements as they are
    rng = random.Random(41)
    one = field.one()
    cases = [
        # row 0 cancels to zero, then one entry of each row cancels
        (Matrix.from_rows(field, [[1, 1], [0, 1]]), Matrix.from_rows(field, [[1, -1], [-1, 1]])),
        (Matrix.from_rows(field, [[1, 1], [1, 0]]), Matrix.from_rows(field, [[1, 0], [-1, 1]])),
    ]
    for _ in range(30):
        d = rng.randint(1, 5)
        cases.append((rand_matrix(field, rng, d, d, span=1), rand_matrix(field, rng, d, d, span=1)))
        cases.append((finite_order_matrix(field, d, rng), finite_order_matrix(field, d, rng)))
        cases.append((finite_order_matrix(field, d, rng), rand_matrix(field, rng, d, d, span=1)))
    zero_rows = 0
    for a, b in cases:
        product = rows_product(action_rows(a), action_rows(b))
        assert product == action_rows(oracle.matmul(a, b))
        assert rows_product(identity_rows(field, a.nrows), action_rows(b)) == action_rows(b)
        zero_rows += product.count(())
    assert zero_rows and rows_product(*map(action_rows, cases[0]))[0] == ()
    assert identity_rows(field, 2) == (((0, one),), ((1, one),))


def _pair_rows(dense):
    return tuple(tuple((c, x) for c, x in enumerate(row) if x) for row in dense)


def _kronecker(left, right):
    """The dense Kronecker product of two row lists, left major."""
    return [[x * y for x in lrow for y in rrow] for lrow in left for rrow in right]


@st.composite
def _row_lists(draw):
    """A field and three dense row lists over it, with their column counts."""
    field = draw(st.sampled_from([QQ, F2, CyclotomicField(3)]))

    def scalar():
        if not draw(st.integers(0, 2)):
            return field.zero()
        if field is QQ:
            return Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        if field is F2:
            return field.coerce(draw(st.integers(0, 1)))
        return oracle.cyclotomic(field, [draw(st.integers(-2, 2)) for _ in range(field.degree)])

    ncols = [draw(st.integers(1, 3)) for _ in range(3)]
    dense = [[[scalar() for _ in range(n)] for _ in range(draw(st.integers(0, 3)))] for n in ncols]
    return field, ncols, dense


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_row_lists())
@example((QQ, [2, 2, 1], [[[Fraction(1), Fraction(2)]], [[Fraction(3), Fraction(4)]], [[Fraction(5)]]]))
def test_tensor_rows_are_ordered_pair_tuples_of_the_kronecker_product(case):
    # actions are interned by their rows as they are, so a row must be the
    # one pair tuple of its vector: columns strictly increasing, no zero
    field, ncols, (a, b, c) = case
    # the engine's per-arrow rows are the same pair tuples
    assert all(action_rows(Matrix(field, m)) == _pair_rows(m) for m in (a, b, c))
    out = tensor_rows(_pair_rows(a), _pair_rows(b), ncols[1])
    # _pair_rows gives tuples of tuples with increasing columns and no zero
    assert out == _pair_rows(_kronecker(a, b))
    # the same vectors by another order of products: equal rows, equal hash
    ab_c = tensor_rows(out, _pair_rows(c), ncols[2])
    a_bc = tensor_rows(_pair_rows(a), tensor_rows(_pair_rows(b), _pair_rows(c), ncols[2]),
                       ncols[1] * ncols[2])
    assert ab_c == a_bc and hash(ab_c) == hash(a_bc)


def full(field, n):
    return Subspace.from_vectors(field, n, oracle.identity_matrix(field, n).entries)


def test_tensor_subspace_examples():
    full2 = full(QQ, 2)
    assert full2.tensor(full2) == full(QQ, 4)
    s = span(QQ, [[1, 1]], 2)
    t = span(QQ, [[1, -1]], 2)
    assert s.tensor(t) == span(QQ, [[1, -1, 1, -1]], 4)
    assert s.tensor(t).dim == s.dim * t.dim


def test_ambient_and_field_mismatches():
    with pytest.raises(AmbientMismatch):
        full(QQ, 2) + full(QQ, 3)
    with pytest.raises(FieldMismatch):
        full(QQ, 2).tensor(full(F2, 2))
    with pytest.raises(FieldMismatch):
        oracle.matmul(oracle.identity_matrix(QQ, 2), oracle.identity_matrix(F2, 2))


def test_matrix_power_and_invertibility():
    a = Matrix.from_rows(QQ, [[0, -1], [1, 0]])
    assert a.is_invertible()
    assert not Matrix.from_rows(QQ, [[1, 2], [2, 4]]).is_invertible()
