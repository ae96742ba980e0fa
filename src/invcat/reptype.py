"""Representation type via exact Dynkin / extended Dynkin recognition.

A free category is of finite representation type exactly when the
underlying graph of its bases-quiver is a disjoint union of Dynkin
diagrams A_n (n>=1), D_n (n>=4), E6, E7, E8, and of tame type exactly
when extended Dynkin diagrams (one loop A~0, the cycles A~n, D~n, E~6,
E~7, E~8) are also allowed.  Recognition is exact graph matching, no
heuristics; anything else is wild.  A graph is split into its connected
components in one pass (`Multigraph.components`), so classification is
linear in vertices plus arrows before the per-component matching.
The module reads quivers only: the invariant category's bases-quiver comes
from a generator report (`category.generator_quiver`), so no profiles are
computed here.
"""

from __future__ import annotations

from collections import namedtuple

from .category import CERTIFIED, generator_quiver
from .quiver import Multigraph, Quiver


FINITE = "finite"
TAME = "tame"
WILD = "wild"


class Disconnected(Exception):
    pass


class DiagramLabel(namedtuple("DiagramLabel", "family index extended", defaults=(None, False))):
    """A diagram name: family "A", "D", "E" or "other", index, and extended or not."""

    __slots__ = ()

    def __str__(self):
        if self.family == "other":
            return "Other"
        tilde = "~" if self.extended else ""
        return f"{self.family}{tilde}{self.index}"

    @property
    def is_dynkin(self) -> bool:
        return self.family != "other" and not self.extended

    @property
    def is_extended(self) -> bool:
        return self.family != "other" and self.extended


OTHER = DiagramLabel("other")


def _arm_lengths(adj, center, n_vertices):
    """Lengths of the simple arms hanging off a branch vertex of a tree."""
    arms = []
    for first in sorted(adj[center]):
        length = 1
        prev, cur = center, first
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                return None  # another branch vertex on this arm
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    if sum(arms) + 1 != n_vertices:
        return None
    return sorted(arms)


def recognize_component(graph: Multigraph) -> DiagramLabel:
    """Exact diagram recognition of one connected multigraph."""
    if len(graph.components()) != 1:
        raise Disconnected("recognize_component needs a connected graph")
    n = len(graph.vertices)
    loops = sum(m for (a, b), m in graph.edges.items() if a == b)
    plain = {e: m for e, m in graph.edges.items() if e[0] != e[1]}
    n_edges = sum(plain.values())

    if loops:
        if n == 1 and loops == 1:
            return DiagramLabel("A", 0, extended=True)
        return OTHER
    if n == 1:
        return DiagramLabel("A", 1)
    if any(m > 1 for m in plain.values()):
        if n == 2 and n_edges == 2:
            return DiagramLabel("A", 1, extended=True)
        return OTHER

    adj = {i: set() for i in range(n)}
    for (a, b) in plain:
        adj[a].add(b)
        adj[b].add(a)
    degrees = sorted(len(adj[i]) for i in range(n))

    if n_edges == n:  # exactly one cycle
        if degrees[-1] == 2:
            return DiagramLabel("A", n - 1, extended=True)
        return OTHER
    if n_edges != n - 1:
        return OTHER

    # a tree from here on
    if degrees[-1] <= 2:
        return DiagramLabel("A", n)
    branch = [i for i in range(n) if len(adj[i]) >= 3]
    if len(branch) == 1:
        center = branch[0]
        if len(adj[center]) == 4:
            arms = _arm_lengths(adj, center, n)
            if arms == [1, 1, 1, 1]:
                return DiagramLabel("D", 4, extended=True)
            return OTHER
        if len(adj[center]) > 4:
            return OTHER
        arms = _arm_lengths(adj, center, n)
        if arms is None:
            return OTHER
        if arms[0] == 1 and arms[1] == 1:
            return DiagramLabel("D", n)  # n = arms[2] + 3 >= 4
        if arms == [1, 2, 2]:
            return DiagramLabel("E", 6)
        if arms == [1, 2, 3]:
            return DiagramLabel("E", 7)
        if arms == [1, 2, 4]:
            return DiagramLabel("E", 8)
        if arms == [2, 2, 2]:
            return DiagramLabel("E", 6, extended=True)
        if arms == [1, 3, 3]:
            return DiagramLabel("E", 7, extended=True)
        if arms == [1, 2, 5]:
            return DiagramLabel("E", 8, extended=True)
        return OTHER
    if len(branch) == 2:
        # two degree-3 forks, each carrying two leaves, joined by a path
        for c in branch:
            if len(adj[c]) != 3:
                return OTHER
            leaf_neighbors = [w for w in adj[c] if len(adj[w]) == 1]
            if len(leaf_neighbors) != 2:
                return OTHER
        return DiagramLabel("D", n - 1, extended=True)
    return OTHER


# overall type ("finite" | "tame" | "wild") and one label per component;
# finite_is_tame records the convention that finite type counts as tame
Classification = namedtuple(
    "Classification", "overall components finite_is_tame", defaults=(True,)
)


def classify_multigraph(graph: Multigraph) -> Classification:
    labels = [recognize_component(component) for component in graph.components()]
    if all(l.is_dynkin for l in labels):
        overall = FINITE
    elif all(l.is_dynkin or l.is_extended for l in labels):
        overall = TAME
    else:
        overall = WILD
    return Classification(overall=overall, components=tuple(labels))


def classify(quiver: Quiver) -> Classification:
    """Representation type of the free category on a quiver."""
    return classify_multigraph(quiver.undirected)


# certified False: the classification reflects the truncation only
InvariantClassification = namedtuple("InvariantClassification", "classification certified")


def classify_invariants(report) -> InvariantClassification:
    """Classify the bases-quiver built from an invariant-generator report."""
    classification = classify(generator_quiver(report))
    certified = report.completeness.status == CERTIFIED
    return InvariantClassification(classification=classification, certified=certified)
