import random
from collections import Counter

import networkx as nx
import pytest

from invcat.action import ActionSpec
from invcat.category import build_invariant_quiver
from invcat.engine import compute_profiles
from invcat.fields import CyclotomicField, QQ
from invcat.linalg import Matrix
from invcat.quiver import Multigraph, Quiver
from invcat.reptype import (
    FINITE,
    TAME,
    DiagramLabel,
    Disconnected,
    classify,
    classify_invariants,
    classify_multigraph,
    recognize_component,
)

from instances import crown_quiver


def graph(n, edges):
    return Multigraph(tuple(range(n)), Counter(tuple(sorted(e)) for e in edges))


def path_graph(n):
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_arms(*arm_lengths):
    """A tree with arms of the given lengths hanging off vertex 0."""
    edges = []
    nxt = 1
    for length in arm_lengths:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return graph(nxt, edges)


def d_tilde(n):
    """Extended D: a spine with two extra leaves at each end; n + 1 vertices."""
    spine = list(range(n - 3))  # both fork vertices included
    edges = list(zip(spine, spine[1:]))
    left, right = spine[0], spine[-1]
    m = len(spine)
    edges += [(left, m), (left, m + 1), (right, m + 2), (right, m + 3)]
    return graph(m + 4, edges)


def diagram_table(max_vertices=9):
    """Every Dynkin and extended Dynkin diagram with at most max_vertices."""
    table = []
    for n in range(1, max_vertices + 1):
        table.append((DiagramLabel("A", n), path_graph(n)))
    for n in range(4, max_vertices + 1):
        table.append((DiagramLabel("D", n), star_arms(1, 1, n - 3)))
    table.append((DiagramLabel("E", 6), star_arms(1, 2, 2)))
    table.append((DiagramLabel("E", 7), star_arms(1, 2, 3)))
    table.append((DiagramLabel("E", 8), star_arms(1, 2, 4)))
    table.append((DiagramLabel("A", 0, extended=True), graph(1, [(0, 0)])))
    table.append((DiagramLabel("A", 1, extended=True), graph(2, [(0, 1), (0, 1)])))
    for n in range(2, max_vertices):
        table.append((DiagramLabel("A", n, extended=True), cycle_graph(n + 1)))
    for n in range(4, max_vertices):
        if n == 4:
            table.append((DiagramLabel("D", 4, extended=True), star_arms(1, 1, 1, 1)))
        else:
            table.append((DiagramLabel("D", n, extended=True), d_tilde(n)))
    table.append((DiagramLabel("E", 6, extended=True), star_arms(2, 2, 2)))
    table.append((DiagramLabel("E", 7, extended=True), star_arms(1, 3, 3)))
    table.append((DiagramLabel("E", 8, extended=True), star_arms(1, 2, 5)))
    return [(label, g) for label, g in table if len(g.vertices) <= max_vertices]


def to_networkx(g: Multigraph) -> nx.MultiGraph:
    out = nx.MultiGraph()
    out.add_nodes_from(range(len(g.vertices)))
    for (a, b), m in g.edges.items():
        for _ in range(m):
            out.add_edge(a, b)
    return out


def test_recognize_basic_examples():
    assert recognize_component(path_graph(4)) == DiagramLabel("A", 4)
    assert recognize_component(path_graph(1)) == DiagramLabel("A", 1)
    assert recognize_component(star_arms(1, 1, 1, 1, 1)) == DiagramLabel("other")
    assert recognize_component(cycle_graph(5)) == DiagramLabel("A", 4, extended=True)
    assert recognize_component(graph(1, [(0, 0)])) == DiagramLabel("A", 0, extended=True)
    assert recognize_component(graph(2, [(0, 1), (0, 1)])) == DiagramLabel("A", 1, extended=True)
    assert recognize_component(graph(1, [(0, 0), (0, 0)])) == DiagramLabel("other")


def test_recognize_full_table():
    for label, g in diagram_table(9):
        assert recognize_component(g) == label, f"mislabeled {label}"


def test_recognize_rejects_disconnected():
    g = graph(2, [])
    with pytest.raises(Disconnected):
        recognize_component(g)


def test_random_perturbations_are_other():
    rng = random.Random(946)
    table = diagram_table(9)
    nx_by_count = {}
    for _, g in table:
        nx_by_count.setdefault(len(g.vertices), []).append(to_networkx(g))
    produced = 0
    while produced < 50:
        _, base = table[rng.randrange(len(table))]
        edges = list(base.edges.elements())
        n = len(base.vertices)
        move = rng.randrange(3)
        if move == 2 and not edges:
            move = 0
        if move == 0:  # add an edge (possibly a loop or a duplicate)
            a, b = rng.randrange(n), rng.randrange(n)
            edges.append(tuple(sorted((a, b))))
        elif move == 1:  # attach a new vertex twice
            a, b = rng.randrange(n), rng.randrange(n)
            edges += [tuple(sorted((a, n))), tuple(sorted((b, n)))]
            n += 1
        else:  # duplicate an existing edge
            edges.append(edges[rng.randrange(len(edges))])
        candidate = Multigraph(tuple(range(n)), Counter(edges))
        if len(candidate.components()) != 1:
            continue
        gnx = to_networkx(candidate)
        if any(nx.is_isomorphic(gnx, h) for h in nx_by_count.get(n, [])):
            continue  # accidentally still a diagram; redraw
        assert recognize_component(candidate) == DiagramLabel("other")
        produced += 1


def small_multigraphs():
    """Every connected graph on at most 7 vertices, each also with one loop
    and with one doubled edge, and every tree on at most 12 vertices."""
    for h in nx.graph_atlas_g():
        if len(h) and nx.is_connected(h):
            edges = sorted(tuple(sorted(e)) for e in h.edges)
            yield graph(len(h), edges)
            yield graph(len(h), edges + [(0, 0)])
            if edges:
                yield graph(len(h), edges + edges[:1])
    for n in range(2, 13):
        for tree in nx.nonisomorphic_trees(n):
            yield graph(n, tree.edges)


def test_recognize_every_small_graph_and_tree():
    # the reference label is the diagram networkx finds isomorphic, if any
    def shape(h):
        return len(h), tuple(sorted(d for _, d in h.degree))

    by_shape = {}
    for label, g in diagram_table(12):
        h = to_networkx(g)
        by_shape.setdefault(shape(h), []).append((label, h))
    checked = 0
    for g in small_multigraphs():
        h = to_networkx(g)
        matches = [label for label, d in by_shape.get(shape(h), []) if nx.is_isomorphic(h, d)]
        expected = matches[0] if matches else DiagramLabel("other")
        assert recognize_component(g) == expected, f"{sorted(g.edges.elements())}"
        checked += 1
    assert checked == 3 * 996 - 1 + 986  # the one-vertex graph has no edge to double


def test_classify_examples():
    a3 = Quiver(["a", "b", "c"], {("b", "a"): 1, ("c", "b"): 1})
    assert classify(a3).overall == FINITE
    kronecker = Quiver(["x", "y"], {("y", "x"): 2})
    c = classify(kronecker)
    assert c.overall == TAME
    assert [str(l) for l in c.components] == ["A~1"]
    two_loops = Quiver(["v"], {("v", "v"): 2})
    assert classify(two_loops).overall == "wild"
    assert classify(crown_quiver(5)).overall == TAME
    assert classify(a3).finite_is_tame


def test_classify_multigraph_aggregation():
    g = Multigraph(
        tuple(range(5)),
        Counter({(0, 1): 1, (2, 3): 1, (3, 4): 1, (2, 4): 1}),
    )
    c = classify_multigraph(g)
    assert c.overall == TAME
    assert sorted(str(l) for l in c.components) == ["A2", "A~2"]


def test_classify_invariants_crown():
    q = crown_quiver(3)
    field = CyclotomicField(3)
    mats = {e: Matrix(field, [[field.zeta()]]) for e in q.track_edges()}
    spec = ActionSpec(q, field, [("t", mats)])
    table = compute_profiles(q, spec, 6)
    report = build_invariant_quiver(table)
    inv = classify_invariants(report)
    assert inv.certified
    assert inv.classification.overall == TAME
    assert [str(l) for l in inv.classification.components] == ["A~0", "A~0", "A~0"]


def test_classify_invariants_trivial_group_a4():
    q = Quiver(["u0", "u1", "u2", "u3"], {("u1", "u0"): 1, ("u2", "u1"): 1, ("u3", "u2"): 1})
    spec = ActionSpec(q, QQ, [])
    table = compute_profiles(q, spec, 4)
    report = build_invariant_quiver(table)
    inv = classify_invariants(report)
    assert inv.certified
    assert inv.classification.overall == FINITE
    assert [str(l) for l in inv.classification.components] == ["A4"]


def test_classify_invariants_sign_characters_on_a3():
    q = Quiver(["u0", "u1", "u2"], {("u1", "u0"): 1, ("u2", "u1"): 1})
    field = CyclotomicField(2)
    minus = Matrix(field, [[field.zeta()]])
    spec = ActionSpec(q, field, [("s", {e: minus for e in q.track_edges()})])
    table = compute_profiles(q, spec, 2)
    report = build_invariant_quiver(table)
    inv = classify_invariants(report)
    assert inv.certified
    assert inv.classification.overall == FINITE
    assert sorted(str(l) for l in inv.classification.components) == ["A1", "A2"]


def test_kronecker_trichotomy():
    # the fixed subspace of the one arrow space keeps dimension 2, 1 or 0
    q = Quiver(["x", "y"], {("y", "x"): 2})
    cases = [
        ([[1, 0], [0, 1]], 2, TAME, ["A~1"]),
        ([[1, 0], [0, -1]], 1, FINITE, ["A2"]),
        ([[-1, 0], [0, -1]], 0, FINITE, ["A1", "A1"]),
    ]
    for rows, fixed_dim, overall, labels in cases:
        spec = ActionSpec(q, QQ, [("s", {("y", "x"): Matrix.from_rows(QQ, rows)})])
        table = compute_profiles(q, spec, 2)
        assert table.hom_dims("x", "y") == [0, fixed_dim, 0]
        inv = classify_invariants(build_invariant_quiver(table))
        assert inv.classification.overall == overall
        assert sorted(str(l) for l in inv.classification.components) == sorted(labels)


def test_uncertified_classification_is_flagged():
    q = Quiver(["v"], {("v", "v"): 2})
    swap = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    spec = ActionSpec(q, QQ, [("s", {("v", "v"): swap})])
    table = compute_profiles(q, spec, 3)
    inv = classify_invariants(build_invariant_quiver(table))
    assert not inv.certified
