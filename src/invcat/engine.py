"""Per-path invariant profiles: fixed, composite and irreducible subspaces.

`compute_profiles` runs the degree waves as a state machine with path
counts (the transfer-matrix method).  For a path of degree n with tensor
space V, the fixed subspace F is the simultaneous kernel of (action -
identity) over the group; it never uses averaging, so every
characteristic is supported.  The engine builds no row and calls no
field method: `linalg` gives the action rows (`action_rows`, `tensor_rows`),
which are hashable, and eliminates F from them (`fixed_space`), once per
distinct action per degree, shared by the paths that carry it, as the
actions of a degree are interned in one dict by their rows.  The composite
subspace C is the span of all products of invariants of complementary
sub-paths, and the irreducible subspace I is the canonical
pivot-extension complement of C inside F, from one elimination in F's
coordinates, where C is kept.
That the irreducible tensor chains along all 2^(n-1) compositions of n
decompose F directly is certified by induction on sub-paths: C is built
as a sum over cut points that must be direct, and dim I + dim C = dim F.
Only live cuts, whose bottom has a nonzero I, add to that sum.  C, I and
the certificate are functions of F and the live terms alone, so one
record is made per distinct (F, terms) and shared by the paths that have
them.  A path's walk state is its action plus its live cuts (top action,
I(bottom)); its profile depends on the state alone, and the state of an
extension is a function of (state, edge), built once.  So each wave maps
(source, end vertex, state) to a path count, which gives the hom series,
the path counts by degree and the path cap, and only the paths with a
nonzero I or a failed certificate are listed.  `profiles` is a lazy
mapping that follows a path's edges through the states; it is the one
way to read a profile, and a path that was not computed is a KeyError.
`verify_decomposition` explains a failing path from stored dimensions
alone: the chains have total dimension e(p) = sum over k of dim I(first k
edges) * e(rest), to set against dim F.  The references for F (the
averaging projector's image, the dense path action), the profiles folded
one path at a time, and the enumeration of the compositions with their
chain sums are in the tests, in `tests/oracle.py`.
`schurian_generators` folds character values instead and stops the walk
at invariant paths.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Mapping

from .action import ActionSpec
from .linalg import Matrix, action_rows, fixed_space, tensor_rows
from .quiver import DEFAULT_PATH_CAP, PRUNE, Path, Quiver, walk


# one path's subspaces: fixed and irreducible in k^space_dim, composite in k^(dim fixed)
StringInvariants = namedtuple("StringInvariants", "space_dim fixed composite irreducible")


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
    """An interned path action: its tensor width, rows, fixed subspace and links.

    Paths with equal actions share one record and so one fixed subspace;
    that is sound because a `Subspace` is never edited.  `next` maps an
    edge to the action of the extension.  `rows` holds one row tuple per
    generator, each row a `linalg.tensor_rows` pair tuple; it is None once
    the action's degree has been stepped, as no extension needs it again.
    """

    __slots__ = ("width", "rows", "fixed", "next")

    def __init__(self, width: int, rows, fixed):
        self.width = width
        self.rows = rows
        self.fixed = fixed
        self.next = {}


class _Node:
    """A walk state: what a path's profile and its extensions' profiles depend on.

    `cuts` are the live cuts, (top action, I(bottom)) in cut order; `entry`
    is the shared (record, certified) of (F, live terms), None for the
    trivial paths; `next` maps an edge to the state of the extension.
    """

    __slots__ = ("action", "cuts", "entry", "next")

    def __init__(self, action: _Action, cuts: tuple, entry):
        self.action = action
        self.cuts = cuts
        self.entry = entry
        self.next = {}


def _follow(node: _Node, edge) -> _Node:
    return node.next[edge]


class PathProfiles(Mapping):
    """Read-only path -> profile record, for every path of degree 1..max_degree.

    No path is stored: a lookup follows the path's edges through the walk
    states, iteration walks every path in (degree, lexicographic) order,
    and the length is the sum of the counted paths.  Keys are vertex tuples.
    """

    def __init__(self, quiver: Quiver, start: _Node, max_degree: int, size: int):
        self._quiver = quiver
        self._start = start
        self._max_degree = max_degree
        self._size = size

    def __getitem__(self, path) -> StringInvariants:
        if not isinstance(path, tuple) or len(path) < 2:
            raise KeyError(path)
        node = self._start
        for edge in zip(path[1:], path):
            node = node.next.get(edge)
            if node is None:
                raise KeyError(path)
        return node.entry[0]

    def __iter__(self):
        start = [((v,), self._start) for v in self._quiver.vertices]
        # no pair holds more paths than there are in all, so the cap never trips
        for path, _ in walk(self._quiver, start, self._max_degree, self._size, _follow):
            yield path

    def __len__(self) -> int:
        return self._size


class ProfileTable:
    """All path profiles of a quiver action up to a degree bound.

    Closed under contiguous sub-paths by construction: the profile of any
    sub-path of a stored path is stored too.  Paths with equal inputs share
    one profile record.  A profile is read as ``profiles[path]``, and the
    stored paths are ``tuple(profiles)``, in (degree, lexicographic) order.
    """

    def __init__(self, quiver, spec, max_degree, profiles, series, path_counts,
                 generators, uncertified):
        self.quiver = quiver
        self.spec = spec
        self.max_degree = max_degree
        self.profiles = profiles  # a PathProfiles mapping
        self._series = series  # hom-pair -> sum of dim F by degree, counted by the waves
        self.path_counts = path_counts  # stored paths by degree 0..max_degree
        self.generators = generators  # paths with a nonzero I, in walk order
        self.uncertified = uncertified  # paths failing the freeness certificate, in walk order

    def hom_dims(self, source, target):
        """Invariant dimension by degree 0..max_degree for one hom-pair, as a fresh list."""
        # a vertex not in the quiver raises UnknownVertex, not an empty series
        self.quiver.vertex_index(source), self.quiver.vertex_index(target)
        out = list(self._series.get((source, target)) or [0] * (self.max_degree + 1))
        if source == target:
            out[0] = 1
        return out


def compute_profiles(quiver: Quiver, spec: ActionSpec, max_degree: int,
                     path_cap: int = DEFAULT_PATH_CAP) -> ProfileTable:
    """Profiles for every path of every hom-pair up to the degree bound.

    A path's profile depends only on its walk state (`_Node`): its action
    and its live cuts.  The state of an extension is a function of (state,
    edge), built once on the first miss, so the degree waves run on
    (source, end vertex, state) with a path count each, walking all
    sources at once; the hom series, the path counts by degree and the
    per-pair `path_cap` come from those counts.  Fixed subspaces are
    intersections over the generator tuples (which generate the same
    group as the closure, hence fix the same subspace), eliminated by
    `linalg.fixed_space` from the generators' action rows, which are
    extended by one Kronecker factor per arrow (`tensor_rows`), once per
    (prefix action, arrow), interned among the actions of their degree by
    (width, rows), compared exactly, and dropped once that degree is
    stepped, so the rows of at most two degrees are alive at a time.  A
    state's live cuts are its prefix's, each top stepped by the edge,
    plus the prefix itself when that has a nonzero I, and its record is
    shared by every state with the same F and the same live terms.  Only
    the paths that must be named, those with a nonzero I and the
    uncertified ones, are listed: one walk prunes every extension whose
    state reaches none of them within the degree bound.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    gens = spec.generator_elements
    field = spec.field
    splits: dict[tuple, tuple] = {}  # (F, F(top), I(bottom), ...) -> (record, certified)
    factors = {edge: [action_rows(spec.edge_matrix(g, edge)) for g in gens] for edge in spec.edges}
    identity = action_rows(Matrix.identity(field, 1))
    start = _Node(_Action(1, (identity,) * len(gens), None), (), None)
    # the interned actions and states of the degree being built; the width is
    # in the key, as with no generators every action has empty rows
    interned: dict[tuple, _Action] = {}  # (width, rows) -> action
    nodes: dict[tuple, _Node] = {}  # (action, cuts) -> state

    def step(prev, edge):
        action = prev.next.get(edge)
        if action is None:
            width = prev.width * quiver.dim(*edge)
            rows = tuple(tensor_rows(em, pm, prev.width) for em, pm in zip(factors[edge], prev.rows))
            action = interned.get((width, rows))
            if action is None:
                action = interned[width, rows] = _Action(width, rows, fixed_space(field, width, rows))
            prev.next[edge] = action
        return action

    def advance(node, edge):
        nxt = node.next.get(edge)
        if nxt is not None:
            return nxt
        action = step(node.action, edge)
        # each top is a shorter path's action, stepped by this edge in an earlier wave
        cuts = tuple((top.next[edge], i_bottom) for top, i_bottom in node.cuts)
        if node.entry is not None and node.entry[0].irreducible.dim:
            cuts += ((start.action.next[edge], node.entry[0].irreducible),)
        nxt = nodes.get((action, cuts))
        if nxt is None:
            key = [action.fixed]
            for top, i_bottom in cuts:
                if top.fixed.dim:
                    key += (top.fixed, i_bottom)
            key = tuple(key)
            entry = splits.get(key)
            if entry is None:
                entry = splits[key] = _split(key)
            nxt = nodes[action, cuts] = _Node(action, cuts, entry)
        node.next[edge] = nxt
        return nxt

    series: dict[tuple, list] = {}
    counts = [0] * (max_degree + 1)
    reached = Counter()  # (source, target) -> paths so far
    waves = []  # per degree 1, 2, ...: the (end vertex, state) pairs reached
    wave = {(v, v, start): 1 for v in quiver.vertices}
    for degree in range(1, max_degree + 1):
        interned.clear()
        nodes.clear()
        new: dict[tuple, int] = {}
        for (source, v, node), count in wave.items():
            for w in quiver.out_neighbors(v):
                key = (source, w, advance(node, (w, v)))
                new[key] = new.get(key, 0) + count
        for _, _, node in wave:  # stepped: no extension needs these rows again
            node.action.rows = None
        if not new:
            break
        for (source, w, node), count in new.items():
            counts[degree] += count
            reached[source, w] += count
            hom = series.get((source, w))
            if hom is None:
                hom = series[source, w] = [0] * (max_degree + 1)
            hom[degree] += count * node.action.fixed.dim
        if any(n > path_cap for n in reached.values()):
            # the per-path walk from the first source over the cap names the
            # same pair as a walk from every source: counts are per pair
            first = next(s for s in quiver.vertices
                         if any(reached[s, t] > path_cap for t in quiver.vertices))
            for _ in walk(quiver, [((first,), start)], degree, path_cap, _follow):
                pass
            raise AssertionError("the state counts exceed the path cap but the walk does not")
        waves.append({(w, node) for _, w, node in new})
        wave = new
    for _, _, node in wave:  # the last degree is never stepped
        node.action.rows = None

    # backwards over the waves: the states from which a path with a nonzero
    # I or an uncertified one is reached within the degree bound
    live = set()
    for states in reversed(waves):
        live |= {
            (v, node) for v, node in states
            if node.entry[0].irreducible.dim or not node.entry[1]
            or any((w, node.next.get((w, v))) in live for w in quiver.out_neighbors(v))
        }

    def follow_live(node, edge):
        nxt = node.next[edge]
        return nxt if (edge[0], nxt) in live else PRUNE

    generators, uncertified = [], []
    for path, node in walk(quiver, [((v,), start) for v in quiver.vertices],
                           max_degree, path_cap, follow_live):
        record, certified = node.entry
        if record.irreducible.dim:
            generators.append(path)
        if not certified:
            uncertified.append(path)
    profiles = PathProfiles(quiver, start, max_degree, sum(counts))
    return ProfileTable(quiver, spec, max_degree, profiles, series, counts,
                        generators, uncertified)


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
    prof = table.profiles[path]
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


def schurian_generators(quiver: Quiver, values, trivial: tuple, max_degree: int,
                        path_cap: int = DEFAULT_PATH_CAP):
    """Irreducible invariant paths per hom-pair, by characters alone.

    values maps each edge to its character values, one per group generator,
    and a path's values are the products of its edges' values.  A path is
    invariant when its values equal trivial (every character is a
    homomorphism, so it is trivial on the group exactly when it is on each
    generator), and irreducible if also no proper nonempty prefix is
    invariant.  The walk stops at invariant paths, as no extension of one
    is irreducible; the cap counts the paths walked per hom-pair, those
    with no invariant proper nonempty prefix.  The character values are
    interned as states, so the values and the invariance of an extension
    are computed once per (state, edge).
    """
    states: dict[tuple, tuple] = {}  # values -> (values, invariant, {edge: state})

    def state(vals):
        found = states.get(vals)
        if found is None:
            found = states[vals] = (vals, vals == trivial, {})
        return found

    def step(prev, edge):
        vals, invariant, nxt = prev
        if invariant:
            return PRUNE
        found = nxt.get(edge)
        if found is None:
            found = nxt[edge] = state(tuple(a * b for a, b in zip(vals, values[edge])))
        return found

    # the trivial path is not pruned, so it is no interned state
    start_state = (trivial, False, {})
    out: dict[tuple, list] = {}
    # one source at a time keeps only that source's waves alive
    for source in quiver.vertices:
        start = [((source,), start_state)]
        for path, (_, invariant, _) in walk(quiver, start, max_degree, path_cap, step):
            if invariant:
                out.setdefault((source, path[-1]), []).append(path)
    return out
