import itertools
import math
import random
from collections import Counter

import pytest

from invcat.fields import QQ
from invcat.linalg import Matrix
from invcat.quiver import (
    PRUNE,
    Path,
    PathCapExceeded,
    Quiver,
    UnknownVertex,
    longest_paths,
    underlying_multigraph,
    walk,
)

from instances import crown_quiver, random_quiver
from oracle import enumerate_paths


def linear_quiver(n):
    vertices = [f"u{i}" for i in range(n)]
    dims = {(vertices[i + 1], vertices[i]): 1 for i in range(n - 1)}
    return Quiver(vertices, dims)


def test_linear_quiver_single_path():
    q = linear_quiver(4)
    paths = enumerate_paths(q, "u0", "u3", 5)
    assert len(paths) == 1
    assert paths[0].degree == 3
    assert paths[0].vertices == ("u0", "u1", "u2", "u3")


def test_crown_trivial_plus_cycle():
    q = crown_quiver(3)
    paths = enumerate_paths(q, "t0", "t0", 3)
    assert [p.degree for p in paths] == [0, 3]


def test_degree_zero_cases():
    q = linear_quiver(3)
    assert enumerate_paths(q, "u0", "u2", 0) == []
    trivial = enumerate_paths(q, "u1", "u1", 0)
    assert len(trivial) == 1 and trivial[0].degree == 0


def test_enumeration_order_degree_then_lex():
    # diamond with a shortcut: a->d and a->b->d, a->c->d
    q = Quiver(
        ["a", "b", "c", "d"],
        {("d", "a"): 1, ("b", "a"): 1, ("c", "a"): 1, ("d", "b"): 1, ("d", "c"): 1},
    )
    paths = enumerate_paths(q, "a", "d", 3)
    assert [p.vertices for p in paths] == [
        ("a", "d"),
        ("a", "b", "d"),
        ("a", "c", "d"),
    ]


def test_unknown_vertex():
    q = linear_quiver(2)
    with pytest.raises(UnknownVertex):
        enumerate_paths(q, "u0", "nope", 2)
    with pytest.raises(UnknownVertex):
        q.path(["u0", "zzz"])


def test_path_is_its_vertex_tuple():
    path = Path(("a", "b"))
    assert path == ("a", "b") and ("a", "b") == path
    assert hash(path) == hash(("a", "b"))
    assert {("a", "b"): 1}[path] == 1 and {path: 2}[("a", "b")] == 2
    assert path != ("a", "b", "c") and path.segment(0, 0) == ("a",)
    assert (path.degree, path.source, path.target, str(path)) == (1, "a", "b", "a -> b")


def test_walk_yields_paths():
    q = crown_quiver(3)
    walked = list(walk(q, [((v,), None) for v in q.vertices], 4, 100, lambda *_: None))
    assert len(walked) == 12
    assert all(type(path) is Path for path, _ in walked)
    assert all(type(path) is Path for path in enumerate_paths(q, "t0", "t0", 6))


def test_path_validation_and_dims():
    q = Quiver(["x", "y"], {("y", "x"): 3})
    p = q.path(["x", "y"])
    assert math.prod(q.dim(*e) for e in p.edges()) == 3
    assert math.prod(q.dim(*e) for e in Path(("x",)).edges()) == 1
    with pytest.raises(ValueError):
        q.path(["y", "x"])
    with pytest.raises(ValueError, match="nonnegative integer, got True"):
        Quiver(["a", "b"], {("b", "a"): True})


def test_path_counts_match_adjacency_powers():
    rng = random.Random(2024)
    for _ in range(10):
        q = random_quiver(rng, max_vertices=4, max_dim=2)
        n = len(q.vertices)
        adjacency = Matrix.from_rows(
            QQ,
            [
                [1 if q.dim(q.vertices[i], q.vertices[j]) > 0 else 0 for j in range(n)]
                for i in range(n)
            ],
        )
        max_degree = 4
        powers = [Matrix.identity(QQ, n)]
        for _ in range(max_degree):
            powers.append(powers[-1] * adjacency)
        for i, x in enumerate(q.vertices):
            for j, y in enumerate(q.vertices):
                paths = enumerate_paths(q, x, y, max_degree, path_cap=100000)
                for d in range(1, max_degree + 1):
                    count = sum(1 for p in paths if p.degree == d)
                    assert count == powers[d].entries[j][i]


def test_enumeration_deterministic_and_duplicate_free():
    rng = random.Random(7)
    q = random_quiver(rng, max_vertices=4)
    a = enumerate_paths(q, q.vertices[0], q.vertices[-1], 4)
    b = enumerate_paths(q, q.vertices[0], q.vertices[-1], 4)
    assert a == b
    assert len({p.vertices for p in a}) == len(a)


def test_acyclicity_and_longest_path():
    q = linear_quiver(4)
    depth = longest_paths(q)
    assert len(depth) == len(q.vertices)  # acyclic: every vertex has a longest path
    assert max(depth.values()) == 3
    # on a cycle no vertex has a longest path
    assert longest_paths(crown_quiver(4)) == {}
    loop = Quiver(["v"], {("v", "v"): 1})
    assert longest_paths(loop) == {}


def test_longest_paths_skip_every_vertex_a_cycle_reaches():
    # a -> b -> c and a -> c, a loop at x with x -> y, and a lone z
    dims = {("b", "a"): 1, ("c", "b"): 1, ("c", "a"): 2, ("x", "x"): 1, ("y", "x"): 1}
    q = Quiver(["a", "b", "c", "x", "y", "z"], dims)
    assert longest_paths(q) == {"a": 0, "b": 1, "c": 2, "z": 0}
    # once the looped x reaches c through y, c has no longest path either
    q = Quiver(["a", "b", "c", "x", "y", "z"], {**dims, ("c", "y"): 1})
    assert longest_paths(q) == {"a": 0, "b": 1, "z": 0}


def degree(graph, i):
    """Edge ends at vertex i; a loop counts twice."""
    return sum(m * ((a == i) + (b == i)) for (a, b), m in graph.edges.items())


def test_underlying_multigraph():
    kronecker = Quiver(["x", "y"], {("y", "x"): 2})
    g = underlying_multigraph(kronecker)
    assert g.edges == {(0, 1): 2}
    crown = crown_quiver(4)
    g2 = underlying_multigraph(crown)
    assert sum(g2.edges.values()) == 4
    assert all(degree(g2, i) == 2 for i in range(4))
    empty = Quiver(["a", "b"], {})
    g3 = underlying_multigraph(empty)
    assert not g3.edges
    assert [c.vertices for c in g3.components()] == [("a",), ("b",)]


def test_loops_in_multigraph():
    q = Quiver(["v"], {("v", "v"): 2})
    g = underlying_multigraph(q)
    assert g.edges[(0, 0)] == 2
    assert degree(g, 0) == 4


def test_path_cap():
    crown = crown_quiver(2)
    with pytest.raises(PathCapExceeded):
        enumerate_paths(crown, "t0", "t0", 40, path_cap=5)


def test_weak_components():
    q = Quiver(
        ["a", "b", "c", "d"],
        {("b", "a"): 1, ("a", "b"): 1, ("d", "c"): 2},
    )
    comps = q.undirected.components()
    assert [c.vertices for c in comps] == [("a", "b"), ("c", "d")]
    assert [c.edges for c in comps] == [{(0, 1): 2}, {(0, 1): 2}]


def _brute_force_paths(q, sources, max_degree):
    """Every vertex tuple of degree 1..max_degree along nonzero arrows, by (degree, lex)."""
    out = []
    for d in range(1, max_degree + 1):
        for seq in itertools.product(q.vertices, repeat=d + 1):
            if seq[0] in sources and all(q.dim(b, a) > 0 for a, b in zip(seq, seq[1:])):
                out.append(seq)
    return out


def _extend_by_target(state, edge):
    return state + (edge[0],)


def test_walk_matches_brute_force_order_and_counts():
    rng = random.Random(4242)
    for k in range(25):
        q = random_quiver(rng, max_vertices=4, max_dim=2, extra_arrows=3)
        if k % 2:
            # declaration order, not label order, is the lexicographic order
            q = Quiver(tuple(reversed(q.vertices)), {e: q.dim(*e) for e in q.track_edges()})
        max_degree = 4
        start = [((v,), (v,)) for v in q.vertices]
        walked = list(walk(q, start, max_degree, 100_000, _extend_by_target))
        expected = _brute_force_paths(q, set(q.vertices), max_degree)
        # the folded state rebuilds the path edge by edge, (target, source) each
        assert all(seq == state for seq, state in walked)
        assert [seq for seq, _ in walked] == expected
        assert Counter((s[0], s[-1]) for s, _ in walked) == Counter(
            (s[0], s[-1]) for s in expected
        )
        for v in q.vertices:
            one = [seq for seq, _ in walk(q, [((v,), (v,))], max_degree, 100_000, _extend_by_target)]
            assert one == _brute_force_paths(q, {v}, max_degree)


def test_walk_cap_raises_at_exactly_cap_plus_one():
    # one loop: exactly one path v -> v in every degree
    loop = Quiver(["v"], {("v", "v"): 1})
    seen = []
    with pytest.raises(PathCapExceeded, match="more than 3 paths"):
        for seq, _ in walk(loop, [(("v",), None)], 10, 3, lambda *_: None):
            seen.append(seq)
    assert len(seen) == 3
    assert len(list(walk(loop, [(("v",), None)], 3, 3, lambda *_: None))) == 3

    rng = random.Random(99)
    for _ in range(10):
        q = random_quiver(rng, max_vertices=4, extra_arrows=3)
        start = [((v,), None) for v in q.vertices]
        counts = Counter((s[0], s[-1]) for s in _brute_force_paths(q, set(q.vertices), 4))
        most = max(counts.values())
        assert len(list(walk(q, start, 4, most, lambda *_: None))) == sum(counts.values())
        with pytest.raises(PathCapExceeded):
            list(walk(q, start, 4, most - 1, lambda *_: None))


def test_walk_prune_matches_brute_force():
    # a pruned path is not yielded, not extended and not counted against the cap
    rng = random.Random(2718)
    fewer = 0
    for k in range(25):
        q = random_quiver(rng, max_vertices=4, max_dim=2, extra_arrows=3)
        every = _brute_force_paths(q, set(q.vertices), 4)
        blocked = set(rng.sample(every, len(every) // 4))

        def step(state, edge):
            ext = state + (edge[0],)
            return PRUNE if ext in blocked else ext

        expected = [
            seq for seq in every
            if not any(seq[: i + 1] in blocked for i in range(1, len(seq)))
        ]
        start = [((v,), (v,)) for v in q.vertices]
        walked = list(walk(q, start, 4, 100_000, step))
        assert all(seq == state for seq, state in walked)
        assert [seq for seq, _ in walked] == expected
        counts = Counter((s[0], s[-1]) for s in expected)
        most = max(counts.values(), default=0)
        if not most:
            continue
        fewer += most < max(Counter((s[0], s[-1]) for s in every).values())
        assert len(list(walk(q, start, 4, most, step))) == len(expected)
        with pytest.raises(PathCapExceeded):
            list(walk(q, start, 4, most - 1, step))
    assert fewer >= 5
