"""Quivers with arrow-space dimensions, paths and the underlying multigraph.

A quiver here is the combinatorial datum behind a free linear category:
vertices plus a nonnegative dimension for each ordered pair (target,
source).  The *track* structure (which pairs are nonzero) drives path
enumeration; the dimensions drive the tensor spaces attached to paths.
Paths are identified with their vertex sequences.  A quiver is never
edited, so its underlying multigraph (`Quiver.undirected`) is built once,
and `Multigraph.components` splits it into its connected components in
one pass, linear in vertices plus edges.
"""

from __future__ import annotations

from collections import Counter, deque, namedtuple
from functools import cached_property


DEFAULT_PATH_CAP = 100_000
# returned by a walk step to drop that extension: a state of None is a valid fold
PRUNE = object()


class QuiverError(Exception):
    pass


class UnknownVertex(QuiverError):
    pass


class PathCapExceeded(QuiverError):
    pass


class Path(tuple):
    """A path (u_0, ..., u_n) from u_0 to u_n; n = 0 is the trivial path.

    A path is its vertex tuple: it equals and hashes like that tuple, so a
    plain tuple slice looks up a path-keyed table.
    """

    __slots__ = ()

    @property
    def vertices(self) -> tuple:
        return tuple(self)

    @property
    def degree(self) -> int:
        return len(self) - 1

    @property
    def source(self):
        return self[0]

    @property
    def target(self):
        return self[-1]

    def segment(self, start: int, stop: int) -> "Path":
        """The sub-path through vertices u_start .. u_stop."""
        return Path(self[start : stop + 1])

    def __str__(self):
        return " -> ".join(str(v) for v in self)


class Quiver:
    def __init__(self, vertices, dims):
        """dims maps ordered pairs (target, source) to arrow-space dimensions."""
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("vertex labels must be unique")
        self._index = {v: i for i, v in enumerate(self.vertices)}
        self._dims = {}
        for (target, source), d in dims.items():
            if target not in self._index or source not in self._index:
                raise UnknownVertex(f"arrow {source!r} -> {target!r} uses an unknown vertex")
            if not isinstance(d, int) or isinstance(d, bool) or d < 0:
                raise ValueError(f"arrow-space dimension must be a nonnegative integer, got {d!r}")
            if d > 0:
                self._dims[(target, source)] = d
        # the one edge order: by source, then target, in vertex order
        self._edges = tuple(sorted(self._dims, key=lambda e: (self._index[e[1]], self._index[e[0]])))
        out = {v: [] for v in self.vertices}
        for (target, source) in self._edges:  # so each source's targets come in vertex order
            out[source].append(target)
        self._out = {v: tuple(ts) for v, ts in out.items()}

    def dim(self, target, source) -> int:
        return self._dims.get((target, source), 0)

    def vertex_index(self, v) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertex(repr(v)) from None

    def track_edges(self):
        """All (target, source) pairs with nonzero arrow space, in canonical order."""
        return self._edges

    def out_neighbors(self, v):
        if v not in self._index:
            raise UnknownVertex(repr(v))
        return self._out[v]

    @cached_property
    def undirected(self) -> "Multigraph":
        """The underlying multigraph, built on first use."""
        return underlying_multigraph(self)

    def __eq__(self, other):
        if not isinstance(other, Quiver):
            return NotImplemented
        return self.vertices == other.vertices and self._dims == other._dims

    def __repr__(self):
        arrows = ", ".join(f"{s}->{t}:{self._dims[t, s]}" for t, s in self._edges)
        return f"Quiver({list(self.vertices)}; {arrows})"


def walk(quiver: Quiver, start, max_degree: int, path_cap: int, step):
    """Paths of degree 1..max_degree extending the start wave, with a folded state.

    `start` is the degree-0 wave, a list of (vertex tuple, state) in
    lexicographic vertex-index order.  Yields (Path, state) one degree wave
    at a time; each wave is extended in `out_neighbors` order, so within a
    degree the paths stay in lexicographic order.  A path's
    state is step(prefix state, (target, source)) for its last edge; a step
    that returns PRUNE drops the path, which is then neither yielded, nor
    extended, nor counted.  Counts per (source, target) pair are capped;
    exceeding the cap is an error, never silent truncation.
    """
    counts = Counter()
    # a dict holds a wave in less memory than a list of (seq, state) tuples
    wave = dict(start)
    for degree in range(1, max_degree + 1):
        new = {}
        for seq, state in wave.items():
            v = seq[-1]
            for w in quiver.out_neighbors(v):
                ext_state = step(state, (w, v))
                if ext_state is PRUNE:
                    continue
                pair = (seq[0], w)
                counts[pair] += 1
                if counts[pair] > path_cap:
                    raise PathCapExceeded(
                        f"more than {path_cap} paths from {seq[0]!r} to {w!r}"
                    )
                ext = Path(seq + (w,))
                if degree < max_degree:  # the last wave is never extended
                    new[ext] = ext_state
                yield ext, ext_state
        if not new:
            return
        wave = new


def longest_paths(quiver: Quiver) -> dict:
    """{v: length of the longest path ending at v} for each vertex no cycle reaches.

    One topological pass (Kahn): a vertex is reached when all its
    in-arrows have been, which never happens to a vertex on a cycle or
    after one.
    """
    indeg = dict.fromkeys(quiver.vertices, 0)
    for v in quiver.vertices:
        for w in quiver.out_neighbors(v):
            indeg[w] += 1
    longest = dict.fromkeys(quiver.vertices, 0)
    queue = deque(v for v in quiver.vertices if indeg[v] == 0)
    depth = {}
    while queue:
        v = queue.popleft()
        depth[v] = longest[v]
        for w in quiver.out_neighbors(v):
            longest[w] = max(longest[w], depth[v] + 1)
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return depth


class Multigraph(namedtuple("Multigraph", "vertices edges")):
    """An undirected multigraph on indexed vertices; loops allowed.

    Edges are a multiset of index pairs (i, j) with i <= j; (i, i) is a loop.
    """

    __slots__ = ()

    def components(self) -> list:
        """The connected components, each a Multigraph on its own vertices.

        Components come in order of their least vertex; each keeps its
        vertices in index order, with its edges remapped to them.  One pass
        labels every vertex with its component (a graph search, Hopcroft &
        Tarjan 1973) and a second files every edge under its component.
        """
        n = len(self.vertices)
        adj = [[] for _ in range(n)]
        for (a, b) in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        label = [-1] * n
        local = [0] * n
        members = []
        for i in range(n):
            if label[i] < 0:
                label[i] = len(members)
                members.append([])
                stack = [i]
                while stack:
                    for w in adj[stack.pop()]:
                        if label[w] < 0:
                            label[w] = label[i]
                            stack.append(w)
            # i is the next vertex of its component in index order
            local[i] = len(members[label[i]])
            members[label[i]].append(i)
        edges = [Counter() for _ in members]
        for (a, b), m in self.edges.items():
            edges[label[a]][(local[a], local[b])] += m
        return [
            Multigraph(tuple(self.vertices[i] for i in ids), comp_edges)
            for ids, comp_edges in zip(members, edges)
        ]


def underlying_multigraph(quiver: Quiver) -> Multigraph:
    """Forget orientation: each arrow space contributes dim undirected edges."""
    edges = Counter()
    for (target, source), d in quiver._dims.items():
        i, j = quiver.vertex_index(source), quiver.vertex_index(target)
        a, b = min(i, j), max(i, j)
        edges[(a, b)] += d
    return Multigraph(quiver.vertices, edges)
