"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time
from collections import Counter
from fractions import Fraction

import networkx as nx

from invcat.action import ActionSpec, close_group
from invcat.category import CERTIFIED, build_invariant_quiver, verify_freeness
from invcat.engine import compute_profiles, schurian_generators, verify_decomposition
from invcat.fields import CyclotomicField, PrimeField, QQ
from invcat.linalg import Matrix
from invcat.quiver import Multigraph, Path, Quiver
from invcat.reptype import (
    FINITE,
    TAME,
    DiagramLabel,
    classify,
    classify_invariants,
    recognize_component,
)

import oracle
from instances import (
    character_action,
    count_factorizations,
    crown_quiver,
    random_action,
    random_quiver,
)
from oracle import enumerate_paths, extract_characters, is_invariant, verify_cleaving_schurian
from test_reptype import diagram_table, to_networkx


def _passed(name, t0, limit):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"{name}: {elapsed:.2f}s exceeded the {limit}s budget"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s < {limit}s)")


def crown_spec(n):
    q = crown_quiver(n)
    field = CyclotomicField(n)
    mats = {edge: Matrix(field, [[field.zeta()]]) for edge in q.track_edges()}
    return q, ActionSpec(q, field, [("t", mats)])


def test_criterion_1_crown_family():
    t0 = time.perf_counter()
    for n in (2, 3, 4, 5):
        q, spec = crown_spec(n)
        table = compute_profiles(q, spec, 2 * n)
        report = build_invariant_quiver(table)
        assert len(report.generators) == n
        assert all(e.path.degree == n and e.multiplicity == 1 for e in report.generators)
        # one loop per vertex
        assert sorted(e.path.source for e in report.generators) == sorted(q.vertices)
        assert all(e.path.source == e.path.target for e in report.generators)
        assert report.completeness.status == CERTIFIED
        inv = classify_invariants(report)
        assert inv.certified
        assert inv.classification.overall == TAME
        assert [str(c) for c in inv.classification.components] == ["A~0"] * n
        assert verify_freeness(table, report).holds
    _passed("1 (crown family)", t0, 5.0)


def test_criterion_2_kronecker_trichotomy():
    # the double arrow survives, becomes one arrow or disappears, as the
    # fixed subspace of its arrow space has dimension 2, 1 or 0
    t0 = time.perf_counter()
    q = Quiver(["x", "y"], {("y", "x"): 2})
    cases = [
        ([[1, 0], [0, 1]], 2, ["A~1"]),
        ([[1, 0], [0, -1]], 1, ["A2"]),
        ([[-1, 0], [0, -1]], 0, ["A1", "A1"]),
    ]
    for rows, fixed_dim, components in cases:
        spec = ActionSpec(q, QQ, [("s", {("y", "x"): Matrix.from_rows(QQ, rows)})])
        table = compute_profiles(q, spec, 2)
        assert table.hom_dims("x", "y")[1] == fixed_dim
        inv = classify_invariants(build_invariant_quiver(table))
        assert sorted(str(c) for c in inv.classification.components) == components
    _passed("2 (Kronecker trichotomy)", t0, 1.0)


def test_criterion_3_decomposition_property_suite():
    t0 = time.perf_counter()
    fields = [QQ, CyclotomicField(3), PrimeField(2), PrimeField(3)]
    rng = random.Random(20260809)
    instances = 0
    paths_checked = 0
    f2_even_order = 0

    # a pinned instance where the characteristic divides the group order
    f2 = PrimeField(2)
    q0 = Quiver(["v"], {("v", "v"): 2})
    swap = Matrix.from_rows(f2, [[0, 1], [1, 0]])
    pinned = ActionSpec(q0, f2, [("s", {("v", "v"): swap})])
    pinned_elements = close_group(pinned)
    assert len(pinned_elements) % 2 == 0
    work = [(pinned, pinned_elements, 4)]

    while instances < 100:
        field = fields[instances % 4]
        q = random_quiver(rng, max_vertices=4, max_dim=3, extra_arrows=3)
        drawn = random_action(q, field, rng, rng.randint(1, 2), 24)
        if drawn is None:
            continue
        spec, elements = drawn
        work.append((spec, elements, rng.randint(2, 4)))
        instances += 1

    for spec, elements, max_degree in work:
        if isinstance(spec.field, PrimeField) and spec.field.p == 2 and len(elements) % 2 == 0:
            f2_even_order += 1
        table = compute_profiles(spec.quiver, spec, max_degree)
        for path in table.profiles:
            verdict = oracle.verify_decomposition(path, table)
            assert verdict.holds, (
                f"decomposition falsified on {path} over {spec.field!r}: {verdict.detail}"
            )
            # the production recurrence over stored dims agrees with the enumeration
            assert verify_decomposition(path, table).composition_sum == verdict.composition_sum
            paths_checked += 1

    assert len(work) >= 100
    assert f2_even_order >= 1
    print(f"  criterion 3: {len(work)} instances, {paths_checked} paths, "
          f"{f2_even_order} even-order F_2 cases")
    _passed("3 (decomposition property suite)", t0, 60.0)


def _engine_generator_paths(q, spec, max_degree):
    table = compute_profiles(q, spec, max_degree)
    report = build_invariant_quiver(table)
    for entry in report.generators:
        assert entry.multiplicity == 1, "Schurian irreducible spaces must be lines"
    return {entry.path for entry in report.generators}, table


def test_criterion_4_schurian_dual_oracle():
    t0 = time.perf_counter()
    rng = random.Random(424242)
    checked_actions = 0
    factored_paths = 0
    from instances import random_acyclic_quiver

    cases = []
    for _ in range(25):
        cases.append(random_acyclic_quiver(rng, max_vertices=6))
    for _ in range(25):
        cases.append(crown_quiver(rng.randint(2, 4)))

    for q in cases:
        order = rng.randint(2, 6)
        spec = character_action(q, order, rng)
        max_degree = rng.randint(4, 8)
        chars = extract_characters(spec, close_group(spec))
        fast = schurian_generators(q, chars.values, chars.trivial, max_degree)
        fast_paths = {p for bucket in fast.values() for p in bucket}
        engine_paths, _table = _engine_generator_paths(q, spec, max_degree)
        assert fast_paths == engine_paths, f"generator mismatch on {q!r}"

        # unique factorization of every invariant path, checked exhaustively
        irreducible = {p.vertices for p in fast_paths}
        for x in q.vertices:
            for y in q.vertices:
                for path in enumerate_paths(q, x, y, max_degree):
                    if path.degree == 0 or not is_invariant(chars, path):
                        continue
                    n_fact = count_factorizations(path.vertices, {path.vertices}, irreducible)
                    assert n_fact == 1, f"path {path} has {n_fact} factorizations"
                    factored_paths += 1
        checked_actions += 1

    assert checked_actions >= 50
    print(f"  criterion 4: {checked_actions} actions, {factored_paths} invariant paths factored")
    _passed("4 (Schurian dual oracle)", t0, 30.0)


def test_criterion_5_swap_loop_series():
    t0 = time.perf_counter()
    q = Quiver(["v"], {("v", "v"): 2})
    swap = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    spec = ActionSpec(q, QQ, [("s", {("v", "v"): swap})])
    table = compute_profiles(q, spec, 6)

    for n in range(1, 7):
        path = Path(("v",) * (n + 1))
        prof = table.profiles[path]

        # independent oracle: the degree-n action permutes the 2^n basis
        # tensors by flipping every bit; build that permutation matrix P
        # directly and take the kernel of (P - I)
        size = 2**n
        rows = [[Fraction(0)] * size for _ in range(size)]
        for j in range(size):
            rows[j ^ (size - 1)][j] += 1
            rows[j][j] -= 1
        oracle_dim = len(oracle.kernel(QQ, rows, size))
        assert oracle_dim == 2 ** (n - 1)
        assert prof.fixed.dim == oracle_dim
        assert prof.irreducible.dim == 1

    report = build_invariant_quiver(table)
    assert verify_freeness(table, report).holds
    assert table.hom_dims("v", "v") == [1, 1, 2, 4, 8, 16, 32]
    _passed("5 (swap-on-loop series)", t0, 10.0)


def _orientations(edges):
    """All orientation choices of an undirected edge list."""
    out = [[]]
    for (a, b) in edges:
        out = [acc + [pick] for acc in out for pick in ((b, a), (a, b))]
    return out


def test_criterion_6_finite_type_preserved():
    t0 = time.perf_counter()
    rng = random.Random(606060)
    quivers = []
    a3 = [("u0", "u1"), ("u1", "u2")]
    a4 = [("u0", "u1"), ("u1", "u2"), ("u2", "u3")]
    for edges, labels in ((a3, ["u0", "u1", "u2"]), (a4, ["u0", "u1", "u2", "u3"])):
        for oriented in _orientations(edges):
            quivers.append(Quiver(labels, {(t, s): 1 for (t, s) in oriented}))
    d4 = Quiver(
        ["c", "l1", "l2", "l3"],
        {("c", "l1"): 1, ("l2", "c"): 1, ("l3", "c"): 1},
    )
    quivers.append(d4)

    checked = 0
    fixtures = []
    for q in quivers:
        assert classify(q).overall == FINITE
        for _ in range(10):
            spec = character_action(q, rng.randint(2, 6), rng)
            table = compute_profiles(q, spec, 4)
            report = build_invariant_quiver(table)
            assert report.completeness.status == CERTIFIED
            assert verify_freeness(table, report).holds
            inv = classify_invariants(report)
            assert inv.certified
            assert inv.classification.overall == FINITE, (
                f"invariants of {q!r} left finite type: {inv.classification}"
            )
            fixtures.append((q, spec))
            checked += 1
    assert checked >= (len(quivers)) * 10
    test_criterion_6_finite_type_preserved.fixtures = fixtures
    print(f"  criterion 6: {len(quivers)} quivers x 10 actions = {checked} runs")
    _passed("6 (finite type preserved)", t0, 60.0)


def test_criterion_7_diagram_recognizer_table():
    t0 = time.perf_counter()
    table = diagram_table(9)
    assert len(table) == 9 + 6 + 3 + 2 + 7 + 5 + 3  # A, D, E, loop/double, A~, D~, E~
    for label, g in table:
        assert recognize_component(g) == label

    rng = random.Random(946)
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
        if move == 0:
            a, b = rng.randrange(n), rng.randrange(n)
            edges.append(tuple(sorted((a, b))))
        elif move == 1:
            a, b = rng.randrange(n), rng.randrange(n)
            edges += [tuple(sorted((a, n))), tuple(sorted((b, n)))]
            n += 1
        else:
            edges.append(edges[rng.randrange(len(edges))])
        candidate = Multigraph(tuple(range(n)), Counter(edges))
        if len(candidate.components()) != 1:
            continue
        gnx = to_networkx(candidate)
        if any(nx.is_isomorphic(gnx, h) for h in nx_by_count.get(n, [])):
            continue
        assert recognize_component(candidate) == DiagramLabel("other")
        produced += 1
    _passed("7 (diagram recognizer)", t0, 5.0)


def test_criterion_8_cleaving_on_schurian_fixtures():
    t0 = time.perf_counter()
    fixtures = []
    for n in (2, 3, 4, 5):
        q, spec = crown_spec(n)
        fixtures.append((q, spec, 2 * n))
    criterion6 = getattr(test_criterion_6_finite_type_preserved, "fixtures", None)
    if criterion6 is None:
        test_criterion_6_finite_type_preserved()
        criterion6 = test_criterion_6_finite_type_preserved.fixtures
    for q, spec in criterion6:
        fixtures.append((q, spec, 4))

    checked = 0
    for q, spec, max_degree in fixtures:
        chars = extract_characters(spec, close_group(spec))
        witness = verify_cleaving_schurian(q, chars, max_degree)
        assert witness.holds, f"cleaving falsified on {q!r}"
        checked += 1
    print(f"  criterion 8: {checked} Schurian fixtures")
    _passed("8 (cleaving verification)", t0, 30.0)
