"""Deterministic random instances shared by the property and acceptance suites.

Everything is driven by explicit `random.Random` seeds so failures replay.
Actions are built from matrices of finite multiplicative order (monomial
matrices over Q and the cyclotomic fields, arbitrary invertible matrices
over prime fields); candidate instances whose closure would blow past the
requested cap are rejected and redrawn.
"""

from __future__ import annotations

import random
from fractions import Fraction

from invcat import (
    ActionSpec,
    ClosureCapExceeded,
    CyclotomicField,
    Matrix,
    PrimeField,
    QQ,
    Quiver,
    close_group,
)
from oracle import power


def random_quiver(rng: random.Random, max_vertices=4, max_dim=3, extra_arrows=2) -> Quiver:
    n = rng.randint(2, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    weighted = [d for d in [1, 1, 1, 1, 1, 2, 2, 2, 3] if d <= max_dim]
    dims = {}
    n_arrows = rng.randint(max(1, n - 1), n + extra_arrows - 1)
    for _ in range(n_arrows):
        s = rng.choice(vertices)
        t = rng.choice(vertices)
        if (t, s) in dims:
            continue
        dims[(t, s)] = rng.choice(weighted)
    if not dims:
        dims[(vertices[-1], vertices[0])] = 1
    return Quiver(vertices, dims)


def random_acyclic_quiver(rng: random.Random, max_vertices=6) -> Quiver:
    n = rng.randint(2, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    dims = {}
    n_arrows = rng.randint(n - 1, n + 1)
    for _ in range(n_arrows):
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        dims[(vertices[j], vertices[i])] = 1
    if not dims:
        dims[(vertices[1], vertices[0])] = 1
    return Quiver(vertices, dims)


def crown_quiver(n: int) -> Quiver:
    vertices = [f"t{i}" for i in range(n)]
    dims = {(vertices[(i + 1) % n], vertices[i]): 1 for i in range(n)}
    return Quiver(vertices, dims)


def _permutation_matrix(field, perm):
    d = len(perm)
    zero, one = field.zero(), field.one()
    rows = [[zero] * d for _ in range(d)]
    for j, i in enumerate(perm):
        rows[i][j] = one
    return Matrix(field, rows)


def _unit_scalars(field, rng: random.Random):
    """A sample of finite-order nonzero scalars of the field."""
    if isinstance(field, CyclotomicField):
        z = field.zeta()
        return [power(z, k) for k in range(field.n)] + [field.one(), -field.one()]
    if isinstance(field, PrimeField):
        # every nonzero residue has finite order
        return [field.coerce(k) for k in range(1, field.p)]
    return [Fraction(1), Fraction(-1)]


def finite_order_matrix(field, dim: int, rng: random.Random) -> Matrix:
    """A random invertible matrix of finite multiplicative order."""
    if isinstance(field, PrimeField):
        while True:
            rows = [
                [field.coerce(rng.randrange(field.p)) for _ in range(dim)]
                for _ in range(dim)
            ]
            m = Matrix(field, rows)
            if m.is_invertible():
                return m
    # monomial matrix: permutation with finite-order diagonal scalars
    perm = list(range(dim))
    rng.shuffle(perm)
    units = _unit_scalars(field, rng)
    m = _permutation_matrix(field, perm)
    diag = Matrix(
        field,
        [
            [rng.choice(units) if i == j else field.zero() for j in range(dim)]
            for i in range(dim)
        ],
    )
    return m * diag


def random_action(quiver: Quiver, field, rng: random.Random, n_generators: int,
                  closure_cap: int):
    """An ActionSpec whose closure fits under the cap, or None to redraw."""
    generators = []
    for k in range(n_generators):
        mats = {
            edge: finite_order_matrix(field, quiver.dim(*edge), rng)
            for edge in quiver.track_edges()
        }
        generators.append((f"g{k}", mats))
    spec = ActionSpec(quiver, field, generators, group_cap=closure_cap + 1)
    try:
        elements = close_group(spec)
    except ClosureCapExceeded:
        return None
    if len(elements) > closure_cap:
        return None
    return spec, elements


def character_action(quiver: Quiver, order: int, rng: random.Random,
                     n_generators: int = 1) -> ActionSpec:
    """A character action on a Schurian quiver, over Q(zeta_order).

    Each generator scales each arrow by its own random power of zeta, so
    with one generator the group is cyclic, and with more the generators'
    characters differ.
    """
    field = CyclotomicField(order) if order >= 2 else QQ
    generators = []
    for k in range(n_generators):
        if order >= 2:
            z = field.zeta()
            mats = {
                edge: Matrix(field, [[power(z, rng.randrange(order))]])
                for edge in quiver.track_edges()
            }
        else:
            mats = {edge: Matrix(field, [[Fraction(1)]]) for edge in quiver.track_edges()}
        generators.append((f"t{k}" if k else "t", mats))
    return ActionSpec(quiver, field, generators)


# Z/3 acts on the arrow m_s -> m_t of a 4-vertex mesh by z^e
MESH_EXPONENTS = {(0, 1): 0, (1, 2): 2, (2, 3): 0, (3, 0): 1,
                  (0, 2): 0, (1, 3): 1, (2, 0): 1, (3, 1): 1}


def count_factorizations(vertices: tuple, invariant: set, irreducible: set) -> int:
    """Number of ways to cut a path into irreducible invariant blocks."""
    if len(vertices) == 1:
        return 0
    memo = {}

    def rec(seq):
        if len(seq) == 1:
            return 1
        if seq in memo:
            return memo[seq]
        total = 0
        for cut in range(1, len(seq)):
            first = seq[: cut + 1]
            if first in irreducible:
                total += rec(seq[cut:])
        memo[seq] = total
        return total

    assert vertices in invariant
    return rec(vertices)
