"""Per-path invariant profiles: fixed, composite and irreducible subspaces.

`compute_profiles` folds each path's sparse action rows over `quiver.walk`.
For a path of degree n with tensor space V, the fixed subspace F is the
simultaneous kernel of (action - identity) over the group; it never uses
averaging, so every characteristic is supported.  F depends on the action
rows alone, so it is eliminated once per distinct action per degree and
shared by the paths that carry that action.  The composite subspace C is
the span of all products of invariants of complementary sub-paths, and
the irreducible subspace I is the canonical pivot-extension complement of
C inside F; both stay per path, from one elimination in F's coordinates,
where C is kept.  That the irreducible tensor chains along all 2^(n-1)
compositions of n decompose F directly is certified per path, by
induction on sub-paths: C is built as a sum over cut points that must be
direct, and dim I + dim C = dim F.  Only live cuts, whose bottom has a
nonzero I, add to that sum, so `compute_profiles` keeps those I by vertex
tuple and finds the bottoms by tuple slices.  `verify_decomposition`
checks it over all compositions, as the reference and to explain a
failing path; `averaged_fixed_subspace` is the reference for F.
`schurian_generators` folds characters instead and stops the walk at
invariant paths.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain

from .action import ActionSpec, CharacterTable, act_on_path
from .linalg import Matrix, Subspace, kernel_of_rows, tensor_rows
from .quiver import DEFAULT_PATH_CAP, PRUNE, Path, Quiver, walk


class EngineError(Exception):
    pass


class MissingSubPath(EngineError):
    pass


# one path's subspaces: fixed and irreducible in k^space_dim, composite in k^(dim fixed)
StringInvariants = namedtuple("StringInvariants", "space_dim fixed composite irreducible")


def compositions(n: int):
    """Ordered compositions of n, parts listed source-side first."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def _fixed(field, ambient: int, actions) -> Subspace:
    """The kernel of the stacked rows of g - 1, one sparse row list per element."""
    one = field.one()
    deltas = []
    for rows in actions:
        for r, row in enumerate(rows):
            delta = dict(row)
            x = delta.get(r)
            if x is None:
                delta[r] = -one
            elif x == one:
                del delta[r]
            else:
                delta[r] = x - one
            if delta:
                deltas.append(delta)
    return kernel_of_rows(field, ambient, deltas)


def averaged_fixed_subspace(spec: ActionSpec, elements, path: Path) -> Subspace:
    """Optional cross-check via the averaging projector.

    Only valid when the characteristic does not divide the group order;
    the image of the averaged action equals the fixed subspace then.  The
    engine itself never averages.
    """
    elements = list(elements)
    order = len(elements)
    field = spec.field
    if field.characteristic and order % field.characteristic == 0:
        raise ValueError("averaging needs the group order invertible in the field")
    ambient = spec.quiver.path_space_dim(path)
    total = Matrix.zeros(field, ambient, ambient)
    for g in elements:
        total = total + act_on_path(spec, g, path)
    inv_order = field.one() / field.from_int(order)
    projector = total * inv_order
    return Subspace.from_vectors(
        field, ambient, projector.transpose().entries
    )


def _composite(fixed: Subspace, seq: tuple, profiles, irreducibles):
    """C and I from the sum of F(top) (x) I(bottom) over cut points, and whether it is direct.

    No freeness is assumed: F(bottom) = I(bottom) + C(bottom), and F(top) (x)
    C(bottom) lies in the terms with shorter bottoms (invariants multiply).
    Only cuts whose bottom is in `irreducibles` (vertex tuple -> nonzero I)
    contribute, so the top is looked up only there.  The terms lie in F:
    `Subspace.split` sums them in F's coordinates and reads I off that sum.
    """
    terms = []
    for i in range(1, len(seq) - 1):
        i_bottom = irreducibles.get(seq[: i + 1])
        if i_bottom is not None:
            f_top = profiles[seq[i:]].fixed
            if f_top.dim:
                terms.append(f_top.tensor(i_bottom))
    composite, irreducible = fixed.split(terms)
    return composite, irreducible, composite.dim == sum(t.dim for t in terms)


class _Action:
    """An interned path action: tensor width and sparse rows per generator.

    Paths with equal actions share one record and so one fixed subspace;
    that is sound because a `Subspace` is never edited.
    """

    __slots__ = ("degree", "width", "rows", "_fixed")

    def __init__(self, degree: int, width: int, rows: list):
        self.degree = degree
        self.width = width
        self.rows = rows
        self._fixed = None

    def fixed(self, field) -> Subspace:
        if self._fixed is None:
            self._fixed = _fixed(field, self.width, self.rows)
        return self._fixed


def _rows_hash(width: int, rows) -> int:
    """A hash of (width, rows) that agrees on equal rows; it ignores dict order."""
    return hash((width, *(
        (len(g), sum(map(hash, chain.from_iterable(map(dict.items, g))))) for g in rows
    )))


class ProfileTable:
    """All path profiles of a quiver action up to a degree bound.

    Closed under contiguous sub-paths by construction: the profile of any
    sub-path of a stored path is stored too.
    """

    def __init__(self, quiver, spec, max_degree, profiles, pairs, uncertified):
        self.quiver = quiver
        self.spec = spec
        self.max_degree = max_degree
        self.profiles = profiles
        self._pairs = pairs
        self.uncertified = uncertified  # paths failing the freeness certificate, in walk order

    @property
    def field(self):
        return self.spec.field

    def profile(self, path: Path) -> StringInvariants:
        try:
            return self.profiles[path]
        except KeyError:
            raise MissingSubPath(str(path)) from None

    def paths_between(self, source, target):
        """Degree >= 1 paths for one hom-pair, by (degree, lexicographic) order."""
        return self._pairs.get((source, target), ())

    def all_paths(self):
        """Every stored path, ordered by (degree, lexicographic vertex indices)."""
        return tuple(self.profiles)

    def hom_dims(self, source, target):
        """Invariant dimension by degree 0..max_degree for one hom-pair."""
        out = [0] * (self.max_degree + 1)
        if source == target:
            out[0] = 1
        for path in self.paths_between(source, target):
            out[path.degree] += self.profiles[path].fixed.dim
        return out


def compute_profiles(quiver: Quiver, spec: ActionSpec, max_degree: int,
                     path_cap: int = DEFAULT_PATH_CAP) -> ProfileTable:
    """Profiles for every path of every hom-pair up to the degree bound.

    Walks all sources in one pass of degree waves, so every proper sub-path
    profile (of any source) exists when a path is processed.  Fixed
    subspaces are intersections over the generator tuples (which generate
    the same group as the closure, hence fix the same subspace), taken as
    the kernel of the stacked sparse rows of g - 1; the sparse action rows
    are extended by one Kronecker factor per arrow, once per (prefix
    action, arrow), and interned among the actions of their degree.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    gens = spec.generator_elements
    field = spec.field
    profiles: dict[Path, StringInvariants] = {}
    # the live bottoms of composites: vertex tuple -> nonzero irreducible subspace
    irreducibles: dict[tuple, Subspace] = {}
    pairs: dict[tuple, list] = {}
    uncertified = []

    factors = {
        edge: [spec.edge_matrix(g, edge).sparse_rows() for g in gens]
        for edge in spec.edges
    }
    # both hold the actions of one degree only, and are cleared when it advances
    steps: dict[tuple, _Action] = {}  # (prefix action, edge) -> action
    interned: dict[int, list] = {}  # _rows_hash -> the actions with that hash
    degree = 0

    def step(prev, edge):
        nonlocal degree
        if prev.degree != degree:
            steps.clear()
            interned.clear()
            degree = prev.degree
        action = steps.get((prev, edge))
        if action is None:
            width = prev.width * quiver.dim(*edge)
            rows = [tensor_rows(em, pm, prev.width) for em, pm in zip(factors[edge], prev.rows)]
            bucket = interned.setdefault(_rows_hash(width, rows), [])
            # equal rows, compared exactly, never by hash alone
            action = next((a for a in bucket if a.width == width and a.rows == rows), None)
            if action is None:
                action = _Action(degree + 1, width, rows)
                bucket.append(action)
            steps[prev, edge] = action
        return action

    start = _Action(0, 1, [[{0: field.one()}] for _ in gens])
    for path, action in walk(quiver, [((v,), start) for v in quiver.vertices],
                             max_degree, path_cap, step):
        fixed = action.fixed(field)
        composite, irreducible, direct = _composite(fixed, path, profiles, irreducibles)
        if irreducible.dim:
            irreducibles[path] = irreducible
        if not direct or irreducible.dim + composite.dim != fixed.dim:
            uncertified.append(path)
        profiles[path] = StringInvariants(action.width, fixed, composite, irreducible)
        pairs.setdefault((path[0], path[-1]), []).append(path)

    pairs = {k: tuple(v) for k, v in pairs.items()}
    return ProfileTable(quiver, spec, max_degree, profiles, pairs, uncertified)


# outcome of the per-path unique-decomposition check
DecompositionVerdict = namedtuple(
    "DecompositionVerdict",
    "path holds fixed_dim composition_sum failing_composition detail",
    defaults=(None, None),
)


def verify_decomposition(path: Path, table: ProfileTable) -> DecompositionVerdict:
    """Check that irreducible tensor chains decompose the fixed subspace.

    For each composition (n_1, ..., n_l) of the path degree, the chain is
    the tensor of the irreducible subspaces of the blocks (later blocks as
    the left factors).  Verifies both the dimension identity
    dim F = sum over compositions of the product of block dimensions, and
    that the chains sum to F with dimensions adding exactly.
    """
    prof = table.profile(path)
    n = path.degree
    field = table.field
    fixed = prof.fixed
    total = Subspace.zero(field, prof.space_dim)
    expected = 0
    overlap: tuple | None = None
    for comp in compositions(n):
        chain = None
        start = 0
        dead = False
        for part in comp:
            block = path.segment(start, start + part)
            irr = table.profile(block).irreducible
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
        failing_composition=overlap,
        detail=detail,
    )


def schurian_generators(quiver: Quiver, chars: CharacterTable, max_degree: int,
                        path_cap: int = DEFAULT_PATH_CAP):
    """Irreducible invariant paths per hom-pair, by characters alone.

    A path is invariant when the product of its edge characters is the
    trivial character, and irreducible when additionally no proper
    nonempty prefix is invariant.  The walk stops at invariant paths, as
    no extension of one is irreducible; the cap counts the paths walked
    per hom-pair, those with no invariant proper nonempty prefix.
    """
    # state: (character values, invariant)
    def step(state, edge):
        vals, invariant = state
        if invariant:
            return PRUNE
        cur = chars.extend(vals, edge)
        return cur, all(v == 1 for v in cur)

    ones = tuple(chars.field.one() for _ in chars.elements)
    out: dict[tuple, list] = {}
    # one source at a time keeps only that source's waves alive
    for source in quiver.vertices:
        start = [((source,), (ones, False))]
        for path, (_, invariant) in walk(quiver, start, max_degree, path_cap, step):
            if invariant:
                out.setdefault((source, path[-1]), []).append(path)
    return out
