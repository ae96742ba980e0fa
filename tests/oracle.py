"""A dense Gauss-Jordan oracle for the linear algebra layer.

Written from the textbook definitions with field scalars only; it calls no
invcat elimination, so the sparse kernel in ``invcat.linalg`` can be diffed
against it.  Vectors and bases are tuples of scalars; a basis is the
reduced row echelon form of its span, with zero rows dropped.  Q(zeta_n)
is modelled here too, as Fraction coefficient tuples reduced modulo Phi_n
by long division, for diffing ``invcat.fields``.
"""

from fractions import Fraction
from math import gcd


def rref(field, rows, ncols):
    """(nonzero rows of the reduced row echelon form, pivot columns)."""
    a = [list(row) for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = field.one() / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in a[:r]), tuple(pivots)


def span(field, vectors, ncols):
    return rref(field, vectors, ncols)[0]


def kernel(field, rows, ncols):
    """Reduced echelon basis of {v : m v = 0}."""
    red, pivots = rref(field, rows, ncols)
    vectors = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [field.zero()] * ncols
        v[f] = field.one()
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        vectors.append(v)
    return span(field, vectors, ncols)


def add(field, a, b, ncols):
    return span(field, list(a) + list(b), ncols)


def intersect(field, a, b, ncols):
    """Vectors x.a with x.a = y.b, read off the kernel of the stacked columns."""
    if not a or not b:
        return ()
    # columns: the rows of a, then the negated rows of b
    cols = list(a) + [[-x for x in row] for row in b]
    system = [[col[i] for col in cols] for i in range(ncols)]
    vectors = []
    for coeffs in kernel(field, system, len(cols)):
        v = [field.zero()] * ncols
        for c, row in zip(coeffs[: len(a)], a):
            v = [x + c * y for x, y in zip(v, row)]
        vectors.append(v)
    return span(field, vectors, ncols)


def tensor(field, a, b, ncols):
    """Span of u (x) v, the left factor as the major index."""
    return span(field, [[x * y for x in u for y in v] for u in a for v in b], ncols)


def reduce(basis, vector):
    """Remainder of a vector after subtracting v[p] times each pivot row."""
    w = list(vector)
    for row in basis:
        p = next(i for i, x in enumerate(row) if x != 0)
        c = w[p]
        w = [x - c * y for x, y in zip(w, row)]
    return w


def complement(field, part, whole, ncols):
    """Rows of `whole` whose index is no pivot of `part` in whole's pivot coordinates."""
    pivots = [next(i for i, x in enumerate(row) if x != 0) for row in whole]
    coords = [[row[p] for p in pivots] for row in part]
    _, used = rref(field, coords, len(pivots))
    return tuple(row for j, row in enumerate(whole) if j not in used)


def lift(field, coords, whole, ncols):
    """The ambient rows sum_j c_j * whole[j] of rows c given in whole's coordinates.

    Entry j of a lifted row, read at whole's j-th pivot, is c_j, since
    whole's rows are reduced; so lifted reduced echelon rows stay reduced.
    """
    out = []
    for row in coords:
        v = [field.zero()] * ncols
        for c, w in zip(row, whole):
            v = [x + c * y for x, y in zip(v, w)]
        out.append(tuple(v))
    return tuple(out)


def cyclotomic_polynomial(n):
    """Phi_n by dividing x^n - 1 by Phi_d for every proper divisor d of n.

    Quadratic in n; ascending integer coefficients, as a tuple.
    """
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        den = cyclotomic_polynomial(d)
        dn = len(den) - 1
        quot = [0] * (len(poly) - dn)
        for i in range(len(quot) - 1, -1, -1):
            c = poly[i + dn]
            quot[i] = c
            for j, x in enumerate(den):
                poly[i + j] -= c * x
        assert not any(poly), "x^n - 1 is divisible by Phi_d"
        poly = quot
    return tuple(poly)


def cyclotomic_reduce(n, coeffs):
    """Fraction coefficients of a polynomial in z, reduced modulo Phi_n.

    Long division by Phi_n over the rationals, with no use of z^n = 1;
    returns a tuple of phi(n) Fractions.
    """
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rem = [Fraction(c) for c in coeffs]
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for j, m in enumerate(phi):
                rem[i - deg + j] -= c * m
    rem = rem[:deg]
    return tuple(rem + [Fraction(0)] * (deg - len(rem)))


def cyclotomic_mul(n, a, b):
    """The product of two coefficient sequences in Q(zeta_n), reduced."""
    out = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return cyclotomic_reduce(n, out)


def cyclotomic_inverse(x):
    """The inverse of a nonzero element of Q(zeta_n), one Galois conjugate at a time.

    x times the product of its phi(n) - 1 other conjugates z -> z^e is its
    norm, a nonzero rational; phi(n) - 1 products, so slow beyond n ~ 100.
    """
    field, n = x.field, x.field.n
    rest = field.one()
    for e in range(2, n):
        if gcd(e, n) == 1:
            conjugate = [Fraction(0)] * n
            for i, c in enumerate(x.coeffs):
                conjugate[i * e % n] += Fraction(c, x.den)
            rest = rest * field.element(conjugate)
    norm = x * rest
    return rest * Fraction(norm.den, norm.coeffs[0])
