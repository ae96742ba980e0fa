"""Slow references that the tests diff the production code against.

A dense Gauss-Jordan oracle for the linear algebra layer, written from the
textbook definitions with field scalars only; it calls no invcat
elimination and no field ``inverse`` (`scalar_inverse` inverts by a
reference of each field's own), so the sparse kernel in
``invcat.linalg`` can be diffed against it.  Vectors and bases are
tuples of scalars; a basis is the reduced row echelon form of its span,
with zero rows dropped; `basis` and `pivots` read those of an
``invcat`` Subspace.  Two dense
helpers built on it stand in for matrix arithmetic the package does not
need: `is_subspace` reduces one subspace's basis against another's, and
`inverse` reads a matrix inverse off the rref of [m | 1].  The parsers
that each field's one-pass ``parse`` replaced are kept as `parse_rational`,
`parse_prime` and `parse_cyclotomic`, and Q(zeta_n) is modelled as
Fraction coefficient tuples reduced modulo Phi_n by long division, for
diffing ``invcat.fields``; `power` and `cyclotomic` build the Q(zeta_n)
scalars the tests need, since scalars have no ``**`` and enter a field only
through ``coerce`` and ``parse``.  Path-level references
follow: the dense diagonal action on a path's tensor space, the averaging
projector's image (summed entry by entry), character values along a path,
path enumeration, the decomposition of a fixed space into irreducible
chains, checked over every composition of the path's degree, the profiles
folded one path at a time, and the Schurian cleaving check: for a
character action, composing an invariant path with a non-invariant one
never gives an invariant path, checked over every composable pair.
"""

import re
from collections import namedtuple
from fractions import Fraction
from math import gcd, prod

from invcat.action import require_schurian
from invcat.engine import DecompositionVerdict, StringInvariants
from invcat.fields import CyclotomicElement, PrimeFieldElement
from invcat.linalg import Matrix, Subspace, action_rows, fixed_space, tensor_rows
from invcat.quiver import DEFAULT_PATH_CAP, Path, walk


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
        inv = scalar_inverse(a[r][c])
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in a[:r]), tuple(pivots)


def scalar_inverse(x):
    """1/x by a reference of each field's own, not by its `inverse`.

    Fraction division over Q, pow(v, -1, p) over F_p and the conjugate
    loop `cyclotomic_inverse` over Q(zeta_n).
    """
    if isinstance(x, PrimeFieldElement):
        return PrimeFieldElement(x.p, pow(x.value, -1, x.p))
    if isinstance(x, CyclotomicElement):
        return cyclotomic_inverse(x)
    return Fraction(1) / x


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


def basis(space):
    """A Subspace's reduced echelon basis as dense row tuples."""
    zero, one = space.field.zero(), space.field.one()
    rows = []
    for p, tail in space.rows.items():
        row = [zero] * space.ambient_dim
        row[p] = one
        for c, x in tail.items():
            row[c] = x
        rows.append(tuple(row))
    return tuple(rows)


def pivots(space):
    """A Subspace's pivot columns, in increasing order."""
    return tuple(space.rows)


def is_subspace(a, b):
    """Whether every basis vector of subspace a reduces to zero against b's basis."""
    return all(all(x == 0 for x in reduce(basis(b), v)) for v in basis(a))


def inverse(m):
    """The inverse of a square Matrix, read off the rref of [m | 1]; ValueError if singular."""
    n, field = m.nrows, m.field
    one, zero = field.one(), field.zero()
    augmented = [
        list(row) + [one if i == j else zero for j in range(n)]
        for i, row in enumerate(m.entries)
    ]
    red, pivots = rref(field, augmented, 2 * n)
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return Matrix(field, [row[n:] for row in red])


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


_SIGNS = re.compile(r"\s*([+-])\s*")
_UNSIGNED = re.compile(r"[0-9]+(?:/[0-9]+)?")


def signed_terms(text):
    """The (sign, term) pairs of the stripped text split at its signs; an empty term is a ValueError."""
    pieces = _SIGNS.split(text.strip())
    head = pieces.pop(0)
    terms = [("+", head)] if head or not pieces else []
    terms += zip(pieces[::2], pieces[1::2])
    if not all(term for _, term in terms):
        raise ValueError(f"cannot parse {text!r}: a sign needs a term on its right")
    return terms


def parse_rational(text):
    """A rational scalar read in three passes, as `RationalField.parse` once did.

    The stripped text is split at its signs (whitespace may stand around
    each), the one term left is checked against digits with an optional
    /digits, and `Fraction` reads the signed term.  Every ValueError text
    is the one `RationalField.parse` must give.
    """
    terms = signed_terms(text)
    if len(terms) != 1 or not _UNSIGNED.fullmatch(terms[0][1]):
        raise ValueError(f"cannot parse {text!r} as a rational")
    signed = "".join(terms[0])
    try:
        return Fraction(signed)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {signed!r}") from None


def parse_prime(p, text):
    """A residue mod p read in two passes, as `PrimeField.parse` once did.

    The text is split at its signs, the one term left must be ASCII
    digits, and `int` reads the signed term.
    """
    terms = signed_terms(text)
    if len(terms) != 1 or not re.fullmatch(r"[0-9]+", terms[0][1]):
        raise ValueError(f"cannot parse {text!r} as an integer mod {p}")
    return PrimeFieldElement(p, int("".join(terms[0])))


# a cyclotomic term after its sign; a '*' only joins a coefficient to z
_CYCLOTOMIC_TERM = re.compile(r"(?:([0-9]+(?:/[0-9]+)?)(?:\*(?=z))?)?(z(?:\^([0-9]+))?)?")


def parse_cyclotomic(field, text):
    """An element of Q(zeta_n) read term by term, as `CyclotomicField.parse` once did.

    The text is split at its signs, each term is matched on its own, its
    coefficient is read by `Fraction`, the Fraction coefficients are
    summed by power (taken mod n) and the element is built from them with
    `coerce`, + and *, not with the parser under test.
    """
    powers = {}
    for sign, term in signed_terms(text):
        m = _CYCLOTOMIC_TERM.fullmatch(term)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ValueError(f"cannot parse term {term!r} in {text!r}")
        try:
            coef = Fraction(m.group(1)) if m.group(1) is not None else Fraction(1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {m.group(1)!r}") from None
        if sign == "-":
            coef = -coef
        exponent = 0 if m.group(2) is None else (int(m.group(3)) if m.group(3) is not None else 1) % field.n
        powers[exponent] = powers.get(exponent, Fraction(0)) + coef
    value = field.zero()
    for k, coef in powers.items():
        value = value + field.coerce(coef) * power(field.zeta(), k)
    return value


def power(x, k):
    """x^k of a Q(zeta_n) scalar, k >= 0, by k products (scalars have no **)."""
    out = x.field.one()
    for _ in range(k):
        out = x * out  # x = zeta on the left: the product loops over its one term
    return out


def cyclotomic(field, coeffs):
    """The element sum(coeffs[k] z^k) of Q(zeta_n), for int or Fraction coefficients.

    It is read by `field.parse`, the one way besides `coerce` into a
    field, from a text with one term per nonzero coefficient.
    """
    text = "".join(f"{'-' if c < 0 else '+'}{abs(c)}*z^{k}" for k, c in enumerate(coeffs) if c)
    return field.parse(text or "0")


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
            rest = rest * cyclotomic(field, conjugate)
    norm = x * rest
    return rest * field.coerce(Fraction(norm.den, norm.coeffs[0]))


def space_dim(quiver, path):
    """The dimension of a path's tensor space: the product of its arrow-space dims."""
    return prod(quiver.dim(*e) for e in zip(path[1:], path))


def act_on_path(spec, element, path):
    """The diagonal action on the path's tensor space, as a dense Matrix.

    Factors are ordered with the matrix of the last edge leftmost, matching
    the tensor basis convention of the linear algebra layer.  On a trivial
    path the action is the 1x1 identity.
    """
    edges = list(zip(path[1:], path))
    if not edges:
        return Matrix.identity(spec.field, 1)
    acc = spec.edge_matrix(element, edges[-1])
    for edge in reversed(edges[:-1]):
        acc = acc.tensor(spec.edge_matrix(element, edge))
    return acc


def averaged_fixed_subspace(spec, elements, path):
    """The basis of the image of the averaging projector: the fixed subspace.

    Only valid when the characteristic does not divide the group order.
    """
    elements = list(elements)
    order = len(elements)
    field = spec.field
    if field.characteristic and order % field.characteristic == 0:
        raise ValueError("averaging needs the group order invertible in the field")
    ambient = space_dim(spec.quiver, path)
    total = [[field.zero()] * ambient for _ in range(ambient)]
    for g in elements:
        action = act_on_path(spec, g, path).entries
        total = [[x + y for x, y in zip(r, a)] for r, a in zip(total, action)]
    # the image of total / order is the column span of total
    return span(field, list(zip(*total)), ambient)


def path_values(chars, path):
    """Componentwise product of the edge characters along a path."""
    out = tuple(chars.field.one() for _ in chars.elements)
    for edge in zip(path[1:], path):
        out = tuple(a * b for a, b in zip(out, chars.values[edge]))
    return out


def is_invariant(chars, path):
    return all(v == 1 for v in path_values(chars, path))


def enumerate_paths(quiver, source, target, max_degree, path_cap=DEFAULT_PATH_CAP):
    """All paths from source to target of degree <= max_degree, through `walk`.

    Ordered by (degree, lexicographic vertex sequence); the trivial path is
    included exactly when source == target.
    """
    quiver.vertex_index(source)
    quiver.vertex_index(target)
    result = [Path((source,))] if source == target else []
    walked = walk(quiver, [((source,), None)], max_degree, path_cap, lambda *_: None)
    return result + [path for path, _ in walked if path[-1] == target]


def compositions(n: int):
    """Ordered compositions of n, parts listed source-side first."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def verify_decomposition(path, table):
    """Check that irreducible tensor chains decompose the fixed subspace.

    For each composition (n_1, ..., n_l) of the path degree, the chain is
    the tensor of the irreducible subspaces of the blocks (later blocks as
    the left factors).  Verifies both the dimension identity
    dim F = sum over compositions of the product of block dimensions, and
    that the chains sum to F with dimensions adding exactly; 2^(n-1)
    compositions, each a subspace sum.
    """
    prof = table.profiles[path]
    n = path.degree
    field = table.spec.field
    fixed = prof.fixed
    total = Subspace.zero(field, prof.space_dim)
    expected = 0
    overlap = None
    for comp in compositions(n):
        chain = None
        start = 0
        dead = False
        for part in comp:
            block = path.segment(start, start + part)
            irr = table.profiles[block].irreducible
            if irr.dim == 0:
                dead = True
                break
            chain = irr if chain is None else irr.tensor(chain)
            start += part
        if dead:
            continue
        expected += chain.dim
        before = total.dim
        total = total + chain
        if overlap is None and total.dim - before < chain.dim:
            overlap = comp
    holds = expected == fixed.dim and total == fixed and overlap is None
    detail = None
    if expected != fixed.dim:
        detail = f"dimension identity fails: sum {expected}, fixed {fixed.dim}"
    elif overlap is not None:
        detail = f"chains overlap at composition {overlap}"
    elif total != fixed:
        detail = "chains do not span the fixed subspace"
    return DecompositionVerdict(
        path=path,
        holds=holds,
        fixed_dim=fixed.dim,
        composition_sum=expected,
        detail=detail,
    )


PathFold = namedtuple("PathFold", "profiles series path_counts generators uncertified")


def per_path_profiles(quiver, spec, max_degree, path_cap=DEFAULT_PATH_CAP):
    """Every path's profile, folded over `walk` one path at a time.

    Each path carries its own sparse action rows and its own live cuts:
    its prefix's, plus the prefix itself when that has a nonzero I.  F is
    eliminated and the live terms F(top) (x) I(bottom) split once per path,
    with no state shared between paths.  The per-pair `path_cap` is the
    walk's.  Returns the records by path in walk order, the hom series
    (the sum of dim F by degree per pair that has a path), the path counts
    by degree, and the paths with a nonzero I and the uncertified ones,
    in walk order.
    """
    field = spec.field
    gens = spec.generator_elements
    factors = {edge: [action_rows(spec.edge_matrix(g, edge)) for g in gens] for edge in spec.edges}

    def step(state, edge):
        width, rows = state
        return width * quiver.dim(*edge), [
            tensor_rows(em, pm, width) for em, pm in zip(factors[edge], rows)
        ]

    profiles, series = {}, {}
    counts = [0] * (max_degree + 1)
    generators, uncertified = [], []
    # path -> the live cuts (position, I(bottom)) its extensions inherit, for
    # the previous degree and the current one
    inherited, passing = {}, {}
    identity = action_rows(Matrix.identity(field, 1))
    start = [((v,), (1, [identity for _ in gens])) for v in quiver.vertices]
    for path, (width, rows) in walk(quiver, start, max_degree, path_cap, step):
        n = path.degree
        if not counts[n]:  # the first path of a degree wave
            inherited, passing = passing, {}
        fixed = fixed_space(field, width, rows)
        cuts = inherited.get(path[:-1], ())
        terms = [profiles[path[i:]].fixed.tensor(i_bottom) for i, i_bottom in cuts]
        composite, irreducible = fixed.split(terms)
        certified = (composite.dim == sum(t.dim for t in terms)
                     and irreducible.dim + composite.dim == fixed.dim)
        profiles[path] = StringInvariants(width, fixed, composite, irreducible)
        if irreducible.dim:
            generators.append(path)
        if not certified:
            uncertified.append(path)
        passing[path] = cuts + ((n, irreducible),) if irreducible.dim else cuts
        counts[n] += 1
        hom = series.setdefault((path[0], path[-1]), [0] * (max_degree + 1))
        hom[n] += fixed.dim
    return PathFold(profiles, series, counts, generators, uncertified)


CleavingViolation = namedtuple("CleavingViolation", "invariant other composed")
# per hom-pair split into invariant paths and the complement family
CleavingWitness = namedtuple("CleavingWitness", "holds max_degree pair_counts violations")


def verify_cleaving_schurian(quiver, chars, max_degree, path_cap=DEFAULT_PATH_CAP):
    """Check the complement of the invariants is stable under composition.

    The complement family is spanned by the paths with nontrivial
    character.  Verifies, by explicit enumeration of all composable pairs
    of total degree <= max_degree, that composing an invariant path with a
    complement path on either side lands in the complement, and that per
    hom-pair the two families partition the path basis.
    """
    require_schurian(quiver)
    # walk order is (degree, lexicographic) across all sources, so each
    # by_source list below is in degree order
    ones = tuple(chars.field.one() for _ in chars.elements)
    start = [((v,), ones) for v in quiver.vertices]
    flags = {
        seq: all(x == 1 for x in vals)
        for seq, vals in walk(quiver, start, max_degree, path_cap, chars.extend)
    }
    counter = {(v, v): [1, 0] for v in quiver.vertices}  # trivial paths are invariant
    by_source: dict[object, list] = {}
    for seq, inv in flags.items():
        c = counter.setdefault((seq[0], seq[-1]), [0, 0])
        c[0 if inv else 1] += 1
        by_source.setdefault(seq[0], []).append(seq)
    pair_counts = {pair: tuple(c) for pair, c in counter.items()}

    violations = []
    for w, w_inv in flags.items():
        for u in by_source.get(w[-1], ()):
            if (len(w) - 1) + (len(u) - 1) > max_degree:
                break
            u_inv = flags[u]
            if u_inv == w_inv:
                continue
            composed = w[:-1] + u
            if flags[composed]:
                violations.append(
                    CleavingViolation(
                        invariant=u if u_inv else w,
                        other=w if u_inv else u,
                        composed=Path(composed),
                    )
                )
    return CleavingWitness(
        holds=not violations,
        max_degree=max_degree,
        pair_counts=pair_counts,
        violations=violations,
    )
