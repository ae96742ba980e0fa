import json
import pathlib
import random
import sys
import time

import pytest

from invcat.action import ActionSpec, CharacterTable, NotSchurian, close_group, extract_characters
from invcat.category import (
    CERTIFIED,
    TRUNCATED,
    Completeness,
    FreenessVerdict,
    GeneratorEntry,
    build_invariant_quiver,
    completeness_bound,
    free_category_dims,
    generator_quiver,
    verify_freeness,
)
from invcat.cli import main
from invcat.engine import compute_profiles
from invcat.fields import CyclotomicField, QQ
from invcat.jobs import load_job, report_to_dict, run_pipeline
from invcat.linalg import Matrix, Subspace
from invcat.quiver import Quiver

from instances import character_action, crown_quiver, random_acyclic_quiver
from oracle import enumerate_paths, verify_cleaving_schurian


def crown_spec(n):
    q = crown_quiver(n)
    field = CyclotomicField(n)
    mats = {edge: Matrix(field, [[field.zeta()]]) for edge in q.track_edges()}
    return q, field, ActionSpec(q, field, [("t", mats)])


def linear_quiver(n):
    vertices = [f"u{i}" for i in range(n)]
    dims = {(vertices[i + 1], vertices[i]): 1 for i in range(n - 1)}
    return Quiver(vertices, dims)


def swap_loop_spec():
    q = Quiver(["v"], {("v", "v"): 2})
    swap = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    return q, ActionSpec(q, QQ, [("s", {("v", "v"): swap})])


def test_build_crown_report():
    q, _, spec = crown_spec(3)
    table = compute_profiles(q, spec, 6)
    report = build_invariant_quiver(table)
    assert len(report.generators) == 3
    assert all(e.multiplicity == 1 and e.path.degree == 3 for e in report.generators)
    sources = sorted(e.path.source for e in report.generators)
    targets = sorted(e.path.target for e in report.generators)
    assert sources == targets == sorted(q.vertices)
    assert report.completeness.status == CERTIFIED
    assert report.completeness.reason == "crown-bound"
    assert report.completeness.bound == 3


def test_completeness_repr_is_unchanged():
    # three demos print it
    assert repr(Completeness("certified", "crown-bound", 3)) == (
        "Completeness(status='certified', reason='crown-bound', bound=3)"
    )
    assert repr(Completeness(status="truncated")) == (
        "Completeness(status='truncated', reason=None, bound=None)"
    )


def test_result_records_are_immutable_values():
    job = pathlib.Path(__file__).resolve().parent.parent / "demos" / "inputs" / "crown3.json"
    result = run_pipeline(load_job(str(job)))
    report, table = result.report, result.table
    records = [
        result, result.job, report, report.generators[0], report.completeness,
        result.freeness, result.input_classification, result.input_classification.components[0],
        result.invariant_classification, table.profiles[report.generators[0].path],
    ]
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        assert record == type(record)(*record)
    assert report.generators[0] == GeneratorEntry(("t0", "t1", "t2", "t0"), 1)
    assert FreenessVerdict(True, 1, 1) == (True, 1, 1, (), ())


def test_trivial_group_recovers_the_quiver():
    q = Quiver(["a", "b", "c"], {("b", "a"): 2, ("c", "b"): 1})
    spec = ActionSpec(q, QQ, [])
    table = compute_profiles(q, spec, 3)
    report = build_invariant_quiver(table)
    got = {(e.path.source, e.path.target): e.multiplicity for e in report.generators}
    assert got == {("a", "b"): 2, ("b", "c"): 1}
    assert all(e.path.degree == 1 for e in report.generators)
    assert generator_quiver(report) == q


def test_kronecker_sign_action_single_generator():
    q = Quiver(["x", "y"], {("y", "x"): 2})
    spec = ActionSpec(q, QQ, [("s", {("y", "x"): Matrix.from_rows(QQ, [[1, 0], [0, -1]])})])
    table = compute_profiles(q, spec, 2)
    report = build_invariant_quiver(table)
    assert len(report.generators) == 1
    entry = report.generators[0]
    assert entry.path.degree == 1 and entry.multiplicity == 1


def test_completeness_bound_acyclic():
    q = linear_quiver(4)
    spec = ActionSpec(q, QQ, [])
    cert = completeness_bound(q, spec)
    assert cert is not None
    assert cert.bound == 3 and cert.reason == "acyclic"


def test_completeness_bound_crown():
    q, _, spec = crown_spec(3)
    cert = completeness_bound(q, spec)
    assert cert is not None
    assert cert.reason == "crown-bound"
    # the cycle character is trivial for this action, so the bound is n * 1
    assert cert.bound == 3


def test_completeness_bound_nontrivial_cycle_character():
    # one generator acting by zeta_3 on a single loop: cycle character of order 3
    q = Quiver(["v"], {("v", "v"): 1})
    field = CyclotomicField(3)
    spec = ActionSpec(q, field, [("t", {("v", "v"): Matrix(field, [[field.zeta()]])})])
    cert = completeness_bound(q, spec)
    assert cert is not None and cert.bound == 3
    table = compute_profiles(q, spec, 6)
    report = build_invariant_quiver(table)
    assert [e.path.degree for e in report.generators] == [3]
    assert report.completeness.status == CERTIFIED


def test_crown_bound_is_attained():
    # both arrows of a 2-crown scaled by a primitive 4th root: the cycle
    # character has order 2, so the certificate bound is 2 * 2 = 4 and the
    # generators sit exactly at that degree
    field = CyclotomicField(4)
    z = field.zeta()
    q = crown_quiver(2)
    spec = ActionSpec(q, field, [("t", {e: Matrix(field, [[z]]) for e in q.track_edges()})])
    cert = completeness_bound(q, spec)
    assert cert is not None and cert.bound == 4
    table = compute_profiles(q, spec, 7)
    report = build_invariant_quiver(table)
    assert report.completeness.status == CERTIFIED
    assert sorted(e.path.degree for e in report.generators) == [4, 4]
    assert verify_freeness(table, report).holds


def test_completeness_unknown_for_non_crown_cycle():
    q = Quiver(
        ["t0", "t1", "t2"],
        {("t1", "t0"): 1, ("t2", "t1"): 1, ("t0", "t2"): 1, ("t2", "t0"): 1},
    )
    spec = ActionSpec(q, QQ, [])
    assert completeness_bound(q, spec) is None
    table = compute_profiles(q, spec, 2)
    report = build_invariant_quiver(table)
    assert report.completeness.status == TRUNCATED


def test_crown_look_alikes_are_not_certified():
    # in a lollipop (a -> b plus a loop at b) and a rho (a -> b -> c -> b)
    # every vertex has one out-neighbour, but two vertices share it: neither
    # is a crown, so over Q(zeta_3) no bound is certified.  A single loop is
    # a crown of length 1, bounded by the order 3 of its character.
    field = CyclotomicField(3)

    def bound(vertices, arrows):
        q = Quiver(vertices, dict.fromkeys(arrows, 1))
        zeta = Matrix(field, [[field.zeta()]])
        return completeness_bound(q, ActionSpec(q, field, [("t", dict.fromkeys(arrows, zeta))]))

    assert bound(["a", "b"], [("b", "a"), ("b", "b")]) is None
    assert bound(["a", "b", "c"], [("b", "a"), ("c", "b"), ("b", "c")]) is None
    assert bound(["v"], [("v", "v")]) == Completeness(CERTIFIED, "crown-bound", 3)


def test_completeness_unknown_for_fat_loop():
    q, spec = swap_loop_spec()
    assert completeness_bound(q, spec) is None


def test_mixed_components_bound():
    # a crown next to a linear component
    q = Quiver(
        ["t0", "t1", "u0", "u1", "u2"],
        {("t1", "t0"): 1, ("t0", "t1"): 1, ("u1", "u0"): 1, ("u2", "u1"): 1},
    )
    field = CyclotomicField(2)
    minus = Matrix(field, [[field.zeta()]])
    one = Matrix(field, [[field.one()]])
    spec = ActionSpec(
        q,
        field,
        [("s", {("t1", "t0"): minus, ("t0", "t1"): minus, ("u1", "u0"): one, ("u2", "u1"): one})],
    )
    cert = completeness_bound(q, spec)
    # crown cycle character = (-1)(-1) = 1, so crown bound 2; linear part bound 2
    assert cert is not None and cert.bound == 2 and cert.reason == "crown-bound"


def test_completeness_bound_takes_one_pass_over_many_components():
    # 4,000 disjoint arrows, a chain of 3 and a 3-crown whose cycle character
    # is -1: restricting the quiver to each component took 1.5-2.2 s
    chain = {("c1", "c0"): 1, ("c2", "c1"): 1, ("c3", "c2"): 1}
    arrows = {(f"b{i}", f"a{i}"): 1 for i in range(4000)}
    acyclic = Quiver([v for e in arrows for v in reversed(e)] + ["c0", "c1", "c2", "c3"], {**arrows, **chain})
    assert completeness_bound(acyclic, ActionSpec(acyclic, QQ, [])) == Completeness(CERTIFIED, "acyclic", 3)
    crown = {("t1", "t0"): 1, ("t2", "t1"): 1, ("t0", "t2"): 1}
    q = Quiver(acyclic.vertices + ("t0", "t1", "t2"), {**arrows, **chain, **crown})
    one, minus = Matrix.from_rows(QQ, [[1]]), Matrix.from_rows(QQ, [[-1]])
    spec = ActionSpec(q, QQ, [("s", {e: minus if e == ("t1", "t0") else one for e in q.track_edges()})])
    start = time.perf_counter()
    cert = completeness_bound(q, spec)
    assert time.perf_counter() - start < 0.5
    assert cert == Completeness(CERTIFIED, "crown-bound", 6)


def test_pipeline_builds_each_quivers_multigraph_once(monkeypatch):
    # the input quiver's multigraph serves both its completeness bound and
    # its classification; the generator quiver's serves its classification
    import invcat.quiver

    real = invcat.quiver.underlying_multigraph
    calls = []

    def counted(quiver):
        calls.append(quiver)
        return real(quiver)

    for name, module in list(sys.modules.items()):
        if name.startswith("invcat") and hasattr(module, "underlying_multigraph"):
            monkeypatch.setattr(module, "underlying_multigraph", counted)
    job = load_job(pathlib.Path(__file__).resolve().parent.parent / "demos" / "inputs" / "crown3.json")
    result = run_pipeline(job)
    assert len(calls) == 2
    assert calls[0] is job.quiver
    assert calls[1] == generator_quiver(result.report)


def test_certified_bound_is_sound():
    cases = []
    q1, _, spec1 = crown_spec(3)
    cases.append((q1, spec1))
    q2 = linear_quiver(4)
    spec2 = character_action(q2, 2, random.Random(3))
    cases.append((q2, spec2))
    for q, spec in cases:
        cert = completeness_bound(q, spec)
        assert cert is not None
        base = build_invariant_quiver(compute_profiles(q, spec, cert.bound))
        more = build_invariant_quiver(compute_profiles(q, spec, cert.bound + 3))
        assert base.generators == more.generators
        assert base.completeness.status == more.completeness.status == CERTIFIED


def test_free_category_dims_single_loop():
    dims = free_category_dims(("v",), [("v", "v", 1, 1)], 5)
    assert dims[("v", "v")] == [1, 1, 1, 1, 1, 1]
    dims2 = free_category_dims(("v",), [("v", "v", 1, 2)], 4)
    assert dims2[("v", "v")] == [1, 2, 4, 8, 16]


def brute_force_word_dims(vertices, generators, max_degree):
    """Weighted counts of composable generator words, by (source, target, degree)."""
    dims = {(x, y): [0] * (max_degree + 1) for x in vertices for y in vertices}

    def extend(x, end, degree, weight):
        dims[(x, end)][degree] += weight
        for src, tgt, deg, mult in generators:
            if src == end and degree + deg <= max_degree:
                extend(x, tgt, degree + deg, weight * mult)

    for x in vertices:
        extend(x, x, 0, 1)
    return dims


def test_free_category_dims_match_brute_force_words():
    rng = random.Random(20)
    for _ in range(60):
        vertices = [f"v{i}" for i in range(rng.randint(1, 4))]
        generators = [
            (rng.choice(vertices), rng.choice(vertices), rng.randint(1, 3), rng.randint(1, 2))
            for _ in range(rng.randint(0, 5))
        ]
        max_degree = rng.randint(0, 6)
        assert free_category_dims(vertices, generators, max_degree) == brute_force_word_dims(
            vertices, generators, max_degree
        )


def test_free_category_dims_pass_over_the_generators_once_per_source_and_degree():
    # 150 vertices, each with arrows to the next 20: looping over the 3,000
    # generators once per (source, target, degree) took 4.3 s
    vertices = [f"v{i}" for i in range(150)]
    gens = [(vertices[i], vertices[(i + k) % 150], 1, 1) for i in range(150) for k in range(1, 21)]
    start = time.perf_counter()
    dims = free_category_dims(vertices, gens, 2)
    assert time.perf_counter() - start < 0.5
    assert dims[("v0", "v3")] == [0, 1, 2]
    assert dims[("v0", "v0")] == [1, 0, 0]
    assert sum(dims[("v0", y)][2] for y in vertices) == 400


def test_freeness_crown():
    q, _, spec = crown_spec(3)
    table = compute_profiles(q, spec, 6)
    report = build_invariant_quiver(table)
    verdict = verify_freeness(table, report)
    assert verdict.holds
    assert verdict.verify_depth == 6
    assert not verdict.decomposition_failures and not verdict.series_mismatches


@pytest.mark.parametrize("depth", [-1, 7, 12])
def test_freeness_rejects_a_depth_outside_the_table(depth):
    # a verdict at depth 12 would count paths no wave computed, and one at
    # -1 would hold with no path checked
    q, _, spec = crown_spec(3)
    table = compute_profiles(q, spec, 6)
    report = build_invariant_quiver(table)
    with pytest.raises(ValueError, match=f"verify_depth {depth} is outside 0..6"):
        verify_freeness(table, report, verify_depth=depth)
    assert verify_freeness(table, report, verify_depth=0).checked_paths == 0
    assert verify_freeness(table, report, verify_depth=6).checked_paths == sum(table.path_counts)


def test_freeness_trivial_group_identity_check():
    q = Quiver(["a", "b"], {("b", "a"): 2, ("a", "b"): 1})
    spec = ActionSpec(q, QQ, [])
    table = compute_profiles(q, spec, 4)
    report = build_invariant_quiver(table)
    assert verify_freeness(table, report).holds


def test_freeness_swap_loop_series():
    q, spec = swap_loop_spec()
    table = compute_profiles(q, spec, 5)
    report = build_invariant_quiver(table)
    verdict = verify_freeness(table, report)
    assert verdict.holds
    assert table.hom_dims("v", "v") == [1, 1, 2, 4, 8, 16]


def test_freeness_catches_wrong_generators():
    q, _, spec = crown_spec(3)
    table = compute_profiles(q, spec, 6)
    report = build_invariant_quiver(table)
    broken = type(report)(
        vertices=report.vertices,
        generators=report.generators[:-1],  # drop one loop
        max_degree=report.max_degree,
        completeness=report.completeness,
    )
    verdict = verify_freeness(table, broken)
    assert not verdict.holds
    assert verdict.series_mismatches


def test_failed_certificate_is_explained_by_the_composition_check(monkeypatch, tmp_path):
    # a broken complement makes every irreducible space the whole fixed
    # space; the certificate must fail on the same paths, with the same
    # details, as running the composition check on every path did
    split = Subspace.split
    monkeypatch.setattr(Subspace, "split", lambda self, spaces: (split(self, spaces)[0], self))
    job = pathlib.Path(__file__).resolve().parent.parent / "demos" / "inputs" / "swap_loop.json"
    freeness = report_to_dict(run_pipeline(load_job(str(job))))["freeness"]
    assert freeness["holds"] is False
    assert freeness["decomposition_failures"] == [
        {
            "path": ["v"] * (d + 1),
            "detail": f"dimension identity fails: sum {3 ** (d - 1)}, fixed {2 ** (d - 1)}",
        }
        for d in range(2, 7)
    ]
    assert main(["compute", "--input", str(job), "--out", str(tmp_path / "r.json")]) == 2


def test_failed_certificate_is_explained_without_elimination(monkeypatch, tmp_path):
    # the same broken complement to degree 11: each failure is explained from
    # the stored dimensions, with no subspace sum
    def no_sum(self, other):
        raise AssertionError("explaining a failure must not sum subspaces")

    split = Subspace.split
    monkeypatch.setattr(Subspace, "split", lambda self, spaces: (split(self, spaces)[0], self))
    monkeypatch.setattr(Subspace, "__add__", no_sum)
    job = pathlib.Path(__file__).resolve().parent.parent / "demos" / "inputs" / "swap_loop.json"
    out = tmp_path / "r.json"
    args = ["--max-degree", "11", "--verify-depth", "11"]
    assert main(["compute", "--input", str(job), "--out", str(out), *args]) == 2
    freeness = json.loads(out.read_text())["freeness"]
    assert freeness["decomposition_failures"] == [
        {
            "path": ["v"] * (d + 1),
            "detail": f"dimension identity fails: sum {3 ** (d - 1)}, fixed {2 ** (d - 1)}",
        }
        for d in range(2, 12)
    ]


def test_cleaving_crown():
    q, _, spec = crown_spec(3)
    chars = extract_characters(spec, close_group(spec))
    witness = verify_cleaving_schurian(q, chars, 4)
    assert witness.holds
    # complement paths are exactly the ones whose length is not divisible by 3
    for (x, y), (n_inv, n_other) in witness.pair_counts.items():
        lengths = [p.degree for p in enumerate_paths(q, x, y, 4)]
        assert n_inv == sum(1 for d in lengths if d % 3 == 0)
        assert n_other == sum(1 for d in lengths if d % 3 != 0)


def test_cleaving_trivial_characters():
    q = linear_quiver(3)
    spec = character_action(q, 1, random.Random(0))
    chars = extract_characters(spec, close_group(spec))
    witness = verify_cleaving_schurian(q, chars, 3)
    assert witness.holds
    assert all(n_other == 0 for (_, n_other) in witness.pair_counts.values())


def test_cleaving_random_character_actions():
    rng = random.Random(2718)
    for _ in range(5):
        q = random_acyclic_quiver(rng, max_vertices=4)
        spec = character_action(q, rng.randint(2, 6), rng)
        chars = extract_characters(spec, close_group(spec))
        assert verify_cleaving_schurian(q, chars, 3).holds


def test_cleaving_reports_an_invariant_composite_of_a_non_invariant_part():
    # u0 -a-> u1 -b-> u2 with a of character -1 and b trivial: under the
    # true (multiplicative) characters ab is not invariant, so cleaving
    # holds; a table whose values forget all but the last edge makes ab
    # invariant, which the check must report against a
    q = linear_quiver(3)
    a, b = ("u1", "u0"), ("u2", "u1")
    spec = ActionSpec(q, QQ, [("g", {a: Matrix.from_rows(QQ, [[-1]]), b: Matrix.identity(QQ, 1)})])
    chars = extract_characters(spec, close_group(spec))
    assert verify_cleaving_schurian(q, chars, 2).holds

    class LastEdgeOnly(CharacterTable):
        __slots__ = ()

        def extend(self, values, edge):
            return self.values[edge]

    witness = verify_cleaving_schurian(q, LastEdgeOnly(*chars), 2)
    assert not witness.holds
    first = witness.violations[0]
    assert (first.invariant, first.other, first.composed) == (
        ("u1", "u2"), ("u0", "u1"), ("u0", "u1", "u2"),
    )
    assert witness.violations == [first]
    assert witness.pair_counts == {
        ("u0", "u0"): (1, 0), ("u1", "u1"): (1, 0), ("u2", "u2"): (1, 0),
        ("u0", "u1"): (0, 1), ("u1", "u2"): (1, 0), ("u0", "u2"): (1, 0),
    }


def test_cleaving_requires_schurian():
    q = Quiver(["x", "y"], {("y", "x"): 2})
    spec = ActionSpec(q, QQ, [])
    chars = None
    with pytest.raises(NotSchurian):
        verify_cleaving_schurian(q, chars, 3)


def test_report_determinism():
    q, _, spec = crown_spec(4)
    t1 = compute_profiles(q, spec, 8)
    t2 = compute_profiles(q, spec, 8)
    r1, r2 = build_invariant_quiver(t1), build_invariant_quiver(t2)
    assert r1.generators == r2.generators
    assert r1.completeness == r2.completeness
