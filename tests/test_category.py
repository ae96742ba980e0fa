import pathlib
import random

import pytest

from invcat.action import ActionSpec, NotSchurian, close_group, extract_characters
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
    verify_cleaving_schurian,
    verify_freeness,
)
from invcat.cli import main
from invcat.engine import compute_profiles
from invcat.fields import CyclotomicField, QQ
from invcat.jobs import load_job, report_to_dict, run_pipeline
from invcat.linalg import Matrix, Subspace
from invcat.quiver import Quiver

from instances import character_action, crown_quiver, random_acyclic_quiver


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


def test_freeness_crown():
    q, _, spec = crown_spec(3)
    table = compute_profiles(q, spec, 6)
    report = build_invariant_quiver(table)
    verdict = verify_freeness(table, report)
    assert verdict.holds
    assert verdict.verify_depth == 6
    assert not verdict.decomposition_failures and not verdict.series_mismatches


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


def test_cleaving_crown():
    q, _, spec = crown_spec(3)
    chars = extract_characters(q, close_group(spec))
    witness = verify_cleaving_schurian(q, chars, 4)
    assert witness.holds
    # complement paths are exactly the ones whose length is not divisible by 3
    for (x, y), (n_inv, n_other) in witness.pair_counts.items():
        from invcat.quiver import enumerate_paths

        lengths = [p.degree for p in enumerate_paths(q, x, y, 4)]
        assert n_inv == sum(1 for d in lengths if d % 3 == 0)
        assert n_other == sum(1 for d in lengths if d % 3 != 0)


def test_cleaving_trivial_characters():
    q = linear_quiver(3)
    spec = character_action(q, 1, random.Random(0))
    chars = extract_characters(q, close_group(spec), spec.field)
    witness = verify_cleaving_schurian(q, chars, 3)
    assert witness.holds
    assert all(n_other == 0 for (_, n_other) in witness.pair_counts.values())


def test_cleaving_random_character_actions():
    rng = random.Random(2718)
    for _ in range(5):
        q = random_acyclic_quiver(rng, max_vertices=4)
        spec = character_action(q, rng.randint(2, 6), rng)
        chars = extract_characters(q, close_group(spec), spec.field)
        assert verify_cleaving_schurian(q, chars, 3).holds


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
