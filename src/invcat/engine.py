"""Per-path invariant profiles: fixed, composite and irreducible subspaces.

`compute_profiles` folds each path's sparse action rows over `quiver.walk`.
For a path of degree n with tensor space V, the fixed subspace F is the
simultaneous kernel of (action - identity) over the group; it never uses
averaging, so every characteristic is supported.  F depends on the action
rows alone, so it is eliminated once per distinct action per degree and
shared by the paths that carry that action.  The composite subspace C is
the span of all products of invariants of complementary sub-paths, and
the irreducible subspace I is the canonical pivot-extension complement of
C inside F, from one elimination in F's coordinates, where C is kept.
That the irreducible tensor chains along all 2^(n-1) compositions of n
decompose F directly is certified by induction on sub-paths: C is built
as a sum over cut points that must be direct, and dim I + dim C = dim F.
Only live cuts, whose bottom has a nonzero I, add to that sum; each wave
hands its live cuts on to the next, so a path looks up only the tops of
its own live cuts.  C, I and the certificate are functions of F and the
live terms alone, so one record is made per distinct (F, terms) and
shared by the paths that have them; the hom series and the path counts
by degree are tallied during the walk.  `verify_decomposition` explains a
failing path from stored dimensions alone: the chains have total dimension
e(p) = sum over k of dim I(first k edges) * e(rest), to set against dim F.
The references for F (the averaging projector's image, the dense path
action) and the enumeration of the compositions with their chain sums are
in the tests, in `tests/oracle.py`.
`schurian_generators` folds characters instead and stops the walk at
invariant paths.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain

from .action import ActionSpec, CharacterTable
from .linalg import Subspace, kernel_of_rows, tensor_rows
from .quiver import DEFAULT_PATH_CAP, PRUNE, Path, Quiver, walk


class EngineError(Exception):
    pass


class MissingSubPath(EngineError):
    pass


# one path's subspaces: fixed and irreducible in k^space_dim, composite in k^(dim fixed)
StringInvariants = namedtuple("StringInvariants", "space_dim fixed composite irreducible")


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


def _split(key) -> tuple:
    """The shared record of key = (F, F(top), I(bottom), ...) and whether it is certified.

    No freeness is assumed: F(bottom) = I(bottom) + C(bottom), and F(top) (x)
    C(bottom) lies in the terms with shorter bottoms (invariants multiply), so
    C is the sum of the terms F(top) (x) I(bottom), which lie in F:
    `Subspace.split` sums them in F's coordinates and reads I off that sum.
    The record is certified when that sum is direct and dim I + dim C = dim F.
    """
    fixed = key[0]
    terms = [key[j].tensor(key[j + 1]) for j in range(1, len(key), 2)]
    composite, irreducible = fixed.split(terms)
    certified = (composite.dim == sum(t.dim for t in terms)
                 and irreducible.dim + composite.dim == fixed.dim)
    return StringInvariants(fixed.ambient_dim, fixed, composite, irreducible), certified


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
    sub-path of a stored path is stored too.  Paths with equal inputs share
    one profile record.
    """

    def __init__(self, quiver, spec, max_degree, profiles, series, path_counts, uncertified):
        self.quiver = quiver
        self.spec = spec
        self.max_degree = max_degree
        self.profiles = profiles
        self._series = series  # hom-pair -> sum of dim F by degree, tallied by the walk
        self.path_counts = path_counts  # stored paths by degree 0..max_degree
        self.uncertified = uncertified  # paths failing the freeness certificate, in walk order

    @property
    def field(self):
        return self.spec.field

    def profile(self, path: Path) -> StringInvariants:
        try:
            return self.profiles[path]
        except KeyError:
            raise MissingSubPath(str(path)) from None

    def all_paths(self):
        """Every stored path, ordered by (degree, lexicographic vertex indices)."""
        return tuple(self.profiles)

    def hom_dims(self, source, target):
        """Invariant dimension by degree 0..max_degree for one hom-pair, as a fresh list."""
        out = list(self._series.get((source, target)) or [0] * (self.max_degree + 1))
        if source == target:
            out[0] = 1
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
    action, arrow), and interned among the actions of their degree.  A
    path's live cuts are its prefix's plus the prefix itself when that has
    a nonzero I, and its record is shared by every path with the same F and
    the same live terms.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    gens = spec.generator_elements
    field = spec.field
    profiles: dict[Path, StringInvariants] = {}
    splits: dict[tuple, tuple] = {}  # (F, F(top), I(bottom), ...) -> (record, certified)
    series: dict[tuple, list] = {}
    counts = [0] * (max_degree + 1)
    uncertified = []
    # path -> the live cuts (position, I(bottom)) its extensions inherit, for
    # the previous degree and the current one
    inherited: dict[tuple, tuple] = {}
    passing: dict[tuple, tuple] = {}

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
        n = len(path) - 1
        if not counts[n]:  # the first path of a degree wave
            inherited, passing = passing, {}
        fixed = action.fixed(field)
        cuts = inherited.get(path[:-1], ())
        key = [fixed]
        for i, i_bottom in cuts:
            f_top = profiles[path[i:]].fixed
            if f_top.dim:
                key += (f_top, i_bottom)
        key = tuple(key)
        entry = splits.get(key)
        if entry is None:
            entry = splits[key] = _split(key)
        record, certified = entry
        if not certified:
            uncertified.append(path)
        profiles[path] = record
        if n < max_degree:
            passing[path] = cuts + ((n, record.irreducible),) if record.irreducible.dim else cuts
        counts[n] += 1
        hom = series.get((path[0], path[-1]))
        if hom is None:
            hom = series[path[0], path[-1]] = [0] * (max_degree + 1)
        hom[n] += fixed.dim

    return ProfileTable(quiver, spec, max_degree, profiles, series, counts, uncertified)


# outcome of the per-path unique-decomposition check
DecompositionVerdict = namedtuple(
    "DecompositionVerdict", "path holds fixed_dim composition_sum detail", defaults=(None,)
)


def verify_decomposition(path: Path, table: ProfileTable) -> DecompositionVerdict:
    """Explain a path's freeness certificate from the stored dimensions.

    The irreducible tensor chains along the compositions of the path have
    total dimension e(path), where e(empty) = 1 and e(p) is the sum over
    k of dim I(first k edges of p) * e(rest), from O(n^2) stored profiles.
    The path holds when e = dim F and it passed the certificate; chains
    from correct sub-paths span I + C = F, so with a correct split a path
    fails the certificate exactly when e != dim F.
    """
    prof = table.profile(path)
    n = path.degree
    # chains[s] = e(path[s:]), filled from the target end
    chains = [0] * n + [1]
    for s in range(n - 1, -1, -1):
        chains[s] = sum(table.profiles[path[s : t + 1]].irreducible.dim * chains[t]
                        for t in range(s + 1, n + 1))
    fixed, expected = prof.fixed.dim, chains[0]
    detail = None
    if expected != fixed:
        detail = f"dimension identity fails: sum {expected}, fixed {fixed}"
    elif path in table.uncertified:
        detail = (f"certificate fails: dim I {prof.irreducible.dim} "
                  f"+ dim C {prof.composite.dim}, fixed {fixed}")
    return DecompositionVerdict(path, detail is None, fixed, expected, detail)


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
