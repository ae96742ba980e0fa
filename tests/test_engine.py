import itertools
import random
from fractions import Fraction

import pytest

from invcat import engine
from invcat.action import ActionSpec, close_group
from invcat.category import build_invariant_quiver, verify_freeness
from invcat.engine import (
    compute_profiles,
    schurian_generators,
    verify_decomposition,
)
from invcat.fields import CyclotomicField, PrimeField, QQ
from invcat.linalg import Matrix, Subspace
from invcat.quiver import DEFAULT_PATH_CAP, Path, PathCapExceeded, Quiver, UnknownVertex

import oracle
from oracle import extract_characters
from instances import (
    MESH_EXPONENTS,
    _permutation_matrix,
    character_action,
    crown_quiver,
    random_action,
    random_quiver,
)


def crown_spec(n):
    q = crown_quiver(n)
    field = CyclotomicField(n)
    mats = {edge: Matrix(field, [[field.zeta()]]) for edge in q.track_edges()}
    return q, field, ActionSpec(q, field, [("t", mats)])


def ambient_composite(prof):
    """The stored composite, lifted from the fixed space's coordinates to k^space_dim."""
    field = prof.fixed.field
    lifted = oracle.lift(field, oracle.basis(prof.composite), oracle.basis(prof.fixed), prof.space_dim)
    space = Subspace.from_vectors(field, prof.space_dim, lifted)
    assert oracle.basis(space) == lifted  # the lift of a reduced echelon basis is one
    return space


def swap_loop_spec():
    q = Quiver(["v"], {("v", "v"): 2})
    swap = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    return q, ActionSpec(q, QQ, [("s", {("v", "v"): swap})])


def bit_flip_fixed_dim(n):
    """Independent oracle: orbits of the all-bit-flip on n-bit strings."""
    seen = set()
    orbits = 0
    for x in range(2**n):
        if x in seen:
            continue
        orbits += 1
        seen.add(x)
        seen.add(x ^ (2**n - 1))
    return orbits


def test_compositions():
    for n in range(1, 8):
        comps = list(oracle.compositions(n))
        assert len(comps) == 2 ** (n - 1)
        assert all(sum(c) == n for c in comps)
        assert len(set(comps)) == len(comps)


def test_fixed_subspace_trivial_group_is_everything():
    q, spec = swap_loop_spec()
    trivial = ActionSpec(q, QQ, [])
    path = Path(("v", "v", "v"))
    assert compute_profiles(q, trivial, 2).profiles[path].fixed.dim == 4


def test_fixed_subspace_crown_degree_one_is_zero():
    q, _, spec = crown_spec(3)
    path = Path(("t0", "t1"))
    assert compute_profiles(q, spec, 1).profiles[path].fixed.dim == 0


def test_fixed_subspace_swap_degree_one():
    q, spec = swap_loop_spec()
    path = Path(("v", "v"))
    fixed = compute_profiles(q, spec, 1).profiles[path].fixed
    assert oracle.basis(fixed) == ((Fraction(1), Fraction(1)),)


def test_fixed_subspace_generators_agree_with_closure():
    # the engine intersects over the generators only; the oracle over the closure
    rng = random.Random(321)
    fields = [QQ, CyclotomicField(3), PrimeField(2), PrimeField(5)]
    done = 0
    while done < 8:
        field = fields[done % len(fields)]
        q = random_quiver(rng, max_vertices=3, max_dim=2)
        drawn = random_action(q, field, rng, 2, 24)
        if drawn is None:
            continue
        spec, elements = drawn
        table = compute_profiles(q, spec, 3)
        for path in table.profiles:
            assert oracle.basis(table.profiles[path].fixed) == _brute_fixed(q, spec, elements, path)
        done += 1


def test_averaging_cross_check_agrees_with_kernels():
    rng = random.Random(888)
    fields = [QQ, CyclotomicField(3), PrimeField(5)]
    done = 0
    while done < 6:
        field = fields[done % len(fields)]
        q = random_quiver(rng, max_vertices=3, max_dim=2)
        drawn = random_action(q, field, rng, rng.randint(1, 2), 12)
        if drawn is None:
            continue
        spec, elements = drawn
        if field.characteristic and len(elements) % field.characteristic == 0:
            continue
        table = compute_profiles(q, spec, 3)
        for path in table.profiles:
            kernel_route = table.profiles[path].fixed
            average_route = oracle.averaged_fixed_subspace(spec, elements, path)
            assert oracle.basis(kernel_route) == average_route
        done += 1


def test_averaging_rejects_modular_case():
    f2 = PrimeField(2)
    q = Quiver(["v"], {("v", "v"): 2})
    swap = Matrix.from_rows(f2, [[0, 1], [1, 0]])
    spec = ActionSpec(q, f2, [("s", {("v", "v"): swap})])
    with pytest.raises(ValueError):
        oracle.averaged_fixed_subspace(spec, close_group(spec), Path(("v", "v")))


def test_composite_degree_one_is_zero():
    q, spec = swap_loop_spec()
    table = compute_profiles(q, spec, 2)
    path = Path(("v", "v"))
    assert table.profiles[path].composite.dim == 0


def test_composite_crown_degree_three_is_zero():
    q, _, spec = crown_spec(3)
    table = compute_profiles(q, spec, 3)
    path = Path(("t0", "t1", "t2", "t0"))
    assert table.profiles[path].composite.dim == 0


def test_composite_swap_degree_two_brute_force():
    q, spec = swap_loop_spec()
    table = compute_profiles(q, spec, 2)
    path = Path(("v", "v", "v"))
    comp = ambient_composite(table.profiles[path])
    # (1,1) tensor (1,1) expands to (1,1,1,1)
    expected = Subspace.from_vectors(QQ, 4, [[Fraction(1)] * 4])
    assert comp == expected


def test_missing_subpath_error():
    q, spec = swap_loop_spec()
    table = compute_profiles(q, spec, 1)
    path = Path(("v", "v", "v", "v"))  # beyond the degree bound
    with pytest.raises(KeyError):
        table.profiles[path]


def test_irreducible_examples():
    q, spec = swap_loop_spec()
    table = compute_profiles(q, spec, 2)
    deg1 = table.profiles[Path(("v", "v"))]
    assert deg1.irreducible == deg1.fixed
    deg2 = table.profiles[Path(("v", "v", "v"))]
    assert (deg2.fixed.dim, deg2.composite.dim, deg2.irreducible.dim) == (2, 1, 1)
    assert ambient_composite(deg2).complement_in(deg2.fixed) == deg2.irreducible

    qc, _, specc = crown_spec(3)
    tablec = compute_profiles(qc, specc, 3)
    prof = tablec.profiles[Path(("t0", "t1", "t2", "t0"))]
    assert prof.irreducible == prof.fixed
    assert prof.irreducible.dim == 1


def test_profiles_crown_generators():
    q, _, spec = crown_spec(3)
    table = compute_profiles(q, spec, 3)
    nonzero = [p for p in table.profiles if table.profiles[p].irreducible.dim > 0]
    assert len(nonzero) == 3
    assert all(p.degree == 3 for p in nonzero)
    assert all(table.profiles[p].irreducible.dim == 1 for p in nonzero)


def test_profiles_trivial_group():
    rng = random.Random(17)
    q = random_quiver(rng, max_vertices=3, max_dim=2)
    spec = ActionSpec(q, QQ, [])
    table = compute_profiles(q, spec, 3)
    for path, prof in table.profiles.items():
        assert prof.fixed.dim == prof.space_dim
        if path.degree == 1:
            assert prof.irreducible.dim == prof.space_dim
        else:
            assert prof.irreducible.dim == 0


def test_profiles_swap_loop_series_with_oracle():
    q, spec = swap_loop_spec()
    table = compute_profiles(q, spec, 4)
    for path, prof in table.profiles.items():
        assert prof.fixed.dim == bit_flip_fixed_dim(path.degree)
        assert prof.irreducible.dim == 1


def test_profiles_closed_under_subpaths():
    rng = random.Random(55)
    q = random_quiver(rng, max_vertices=4, max_dim=2)
    spec = ActionSpec(q, QQ, [])
    table = compute_profiles(q, spec, 4)
    for path in table.profiles:
        n = path.degree
        for a in range(n):
            for b in range(a + 1, n + 1):
                assert path.segment(a, b) in table.profiles


def test_profiles_look_up_by_plain_tuple_slices():
    q, _, spec = crown_spec(3)
    table = compute_profiles(q, spec, 5)
    for path in table.profiles:
        seq = tuple(path)
        for i in range(len(seq) - 1):  # trivial paths are not stored
            assert type(seq[i:]) is tuple
            assert table.profiles[seq[i:]] is table.profiles[path.segment(i, path.degree)]
            assert table.profiles[seq[: i + 2]] is table.profiles[path.segment(0, i + 1)]


def test_direct_sum_invariant_random():
    rng = random.Random(77)
    fields = [QQ, CyclotomicField(3), PrimeField(2), PrimeField(3)]
    done = 0
    while done < 8:
        field = fields[done % len(fields)]
        q = random_quiver(rng, max_vertices=3, max_dim=2)
        drawn = random_action(q, field, rng, rng.randint(1, 2), 24)
        if drawn is None:
            continue
        spec, _ = drawn
        table = compute_profiles(q, spec, 3)
        for path, prof in table.profiles.items():
            composite = ambient_composite(prof)
            assert oracle.is_subspace(composite, prof.fixed)
            assert oracle.is_subspace(prof.irreducible, prof.fixed)
            assert composite + prof.irreducible == prof.fixed
            assert (composite + prof.irreducible).dim == composite.dim + prof.irreducible.dim
        done += 1


def test_verify_decomposition_degree_one():
    q, spec = swap_loop_spec()
    table = compute_profiles(q, spec, 1)
    verdict = verify_decomposition(Path(("v", "v")), table)
    assert verdict.holds
    assert verdict.fixed_dim == verdict.composition_sum == 1


def test_verify_decomposition_swap_degree_three():
    q, spec = swap_loop_spec()
    table = compute_profiles(q, spec, 3)
    path = Path(("v", "v", "v", "v"))
    verdict = verify_decomposition(path, table)
    assert verdict.holds
    # brute force: the fixed space of the full degree-3 action
    g = spec.generator_elements[0]
    big = oracle.act_on_path(spec, g, path)
    minus_one = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(big.entries)]
    assert len(oracle.kernel(QQ, minus_one, 8)) == 4
    assert verdict.fixed_dim == 4
    assert verdict.composition_sum == 4  # 1 + 1 + 1 + 1 over the four compositions


def test_verify_decomposition_crown_degree_six():
    q, _, spec = crown_spec(3)
    table = compute_profiles(q, spec, 6)
    path = Path(("t0", "t1", "t2", "t0", "t1", "t2", "t0"))
    verdict = verify_decomposition(path, table)
    assert verdict.holds
    assert verdict.fixed_dim == 1
    assert verdict.composition_sum == 1  # only the (3, 3) composition contributes


def test_schurian_generators_crown():
    for n in (2, 3, 4):
        q, _, spec = crown_spec(n)
        chars = extract_characters(spec, close_group(spec))
        gens = schurian_generators(q, chars.values, chars.trivial, 2 * n)
        paths = [p for bucket in gens.values() for p in bucket]
        assert len(paths) == n
        assert all(p.degree == n for p in paths)
        assert all(p.source == p.target for p in paths)


def test_schurian_generators_sign_character_line():
    q = Quiver(["u0", "u1", "u2"], {("u1", "u0"): 1, ("u2", "u1"): 1})
    field = CyclotomicField(2)
    minus_one = Matrix(field, [[field.zeta()]])
    spec = ActionSpec(q, field, [("s", {e: minus_one for e in q.track_edges()})])
    chars = extract_characters(spec, close_group(spec))
    gens = schurian_generators(q, chars.values, chars.trivial, 4)
    paths = [p for bucket in gens.values() for p in bucket]
    assert len(paths) == 1
    assert paths[0].vertices == ("u0", "u1", "u2")


def test_schurian_generators_trivial_characters_are_arrows():
    rng = random.Random(5)
    q = random_quiver(rng, max_vertices=4, max_dim=1)
    spec = character_action(q, 1, rng)
    chars = extract_characters(spec, close_group(spec))
    gens = schurian_generators(q, chars.values, chars.trivial, 4)
    paths = [p for bucket in gens.values() for p in bucket]
    assert sorted(p.vertices for p in paths) == sorted(
        (s, t) for (t, s) in q.track_edges()
    )


def _brute_schurian_generators(q, chars, max_degree):
    """Invariant paths with no invariant proper nonempty prefix, over all vertex tuples."""
    out = {}
    for d in range(1, max_degree + 1):
        for seq in itertools.product(q.vertices, repeat=d + 1):
            if not all(q.dim(b, a) for a, b in zip(seq, seq[1:])):
                continue
            prefixes = [Path(seq[: i + 1]) for i in range(1, d + 1)]
            if oracle.is_invariant(chars, prefixes[-1]) and not any(
                oracle.is_invariant(chars, p) for p in prefixes[:-1]
            ):
                out.setdefault((seq[0], seq[-1]), []).append(Path(seq))
    return out


def test_schurian_generators_match_brute_force_on_random_instances():
    rng = random.Random(60221)
    found = 0
    for k in range(24):
        q = random_quiver(rng, max_vertices=4, max_dim=1, extra_arrows=3)
        if k % 2:
            q = Quiver(tuple(reversed(q.vertices)), {e: q.dim(*e) for e in q.track_edges()})
        spec = character_action(q, rng.choice([1, 2, 3, 4, 6]), rng)
        chars = extract_characters(spec, close_group(spec))
        gens = schurian_generators(q, chars.values, chars.trivial, 5)
        assert gens == _brute_schurian_generators(q, chars, 5)
        found += sum(map(len, gens.values()))
    assert found > 50


def test_cross_check_folds_every_generator_on_random_suites(monkeypatch):
    # the cross-check folds the generators' values, the oracle every closed
    # element's; both must give the same paths, and those the engine finds
    from invcat import jobs

    folded = []
    real = jobs.schurian_generators

    def spy(*args):
        folded.append(real(*args))
        return folded[-1]

    monkeypatch.setattr(jobs, "schurian_generators", spy)
    rng = random.Random(1729)
    differs = 0
    for _ in range(20):
        q = random_quiver(rng, max_vertices=4, max_dim=1, extra_arrows=4)
        spec = character_action(q, rng.choice([2, 3, 4, 6]), rng, n_generators=rng.randint(2, 3))
        report = build_invariant_quiver(compute_profiles(q, spec, 5))
        check = jobs.schurian_diff(spec, report, 5, DEFAULT_PATH_CAP)
        chars = extract_characters(spec, close_group(spec))
        expected = real(q, chars.values, chars.trivial, 5)
        assert folded.pop() == expected
        assert check["agrees"], check["first_difference"]
        # the suite tells the first generator's values from all of them
        first = extract_characters(spec, spec.generator_elements[:1])
        differs += real(q, first.values, first.trivial, 5) != expected
    assert differs >= 10


def test_schurian_walk_cap_counts_only_paths_without_invariant_prefix():
    # every hom-pair of the 3-crown has one path in degrees d, d + 3, ...; the
    # walk stops at the degree-3 cycles, so one path per pair is walked
    q, _, spec = crown_spec(3)
    chars = extract_characters(spec, close_group(spec))
    with pytest.raises(PathCapExceeded):
        compute_profiles(q, spec, 6, path_cap=1)
    gens = schurian_generators(q, chars.values, chars.trivial, 6, path_cap=1)
    assert gens == schurian_generators(q, chars.values, chars.trivial, 6)
    assert sorted(p.vertices for bucket in gens.values() for p in bucket) == [
        ("t0", "t1", "t2", "t0"), ("t1", "t2", "t0", "t1"), ("t2", "t0", "t1", "t2"),
    ]


def _brute_action_matrix(q, spec, element, path):
    """The path action built by explicit index arithmetic, no tensor calls.

    Basis tensors are indexed with the factor of the first edge as stride 1
    and each later edge with stride = product of the earlier edge dims.
    """
    edges = list(zip(path[1:], path))
    dims = [q.dim(*e) for e in edges]
    strides = []
    acc = 1
    for d in dims:
        strides.append(acc)
        acc *= d
    total = acc
    field = spec.field

    def decode(idx):
        out = []
        for d, s in zip(dims, strides):
            out.append((idx // s) % d)
        return out

    mats = [oracle.dense(field, spec.edge_rows(element, e)) for e in edges]
    rows = []
    for r in range(total):
        ri = decode(r)
        row = []
        for c in range(total):
            ci = decode(c)
            val = field.one()
            for m, a, b in zip(mats, ri, ci):
                val = val * m.entries[a][b]
            row.append(val)
        rows.append(row)
    return Matrix(field, rows)


def _brute_fixed(q, spec, elements, path):
    """Dense reduced echelon basis of the common fixed space, by the oracle."""
    field = spec.field
    deltas = []
    for g in elements:
        for r, row in enumerate(_brute_action_matrix(q, spec, g, path).entries):
            deltas.append([x - field.one() if c == r else x for c, x in enumerate(row)])
    return oracle.kernel(field, deltas, oracle.space_dim(q, path))


def test_profiles_match_independent_brute_force():
    rng = random.Random(4871)
    fields = [QQ, CyclotomicField(3), PrimeField(3)]
    done = 0
    while done < 3:
        field = fields[done % len(fields)]
        q = random_quiver(rng, max_vertices=3, max_dim=2)
        drawn = random_action(q, field, rng, rng.randint(1, 2), 12)
        if drawn is None:
            continue
        spec, elements = drawn
        table = compute_profiles(q, spec, 3)
        for path, prof in table.profiles.items():
            fixed = _brute_fixed(q, spec, elements, path)
            assert fixed == oracle.basis(prof.fixed)
            # composite: embed products of sub-path fixed vectors by hand
            n = path.degree
            vectors = []
            for i in range(1, n):
                bottom = path.segment(0, i)
                top = path.segment(i, n)
                bdim = oracle.space_dim(q, bottom)
                f_b = _brute_fixed(q, spec, elements, bottom)
                f_t = _brute_fixed(q, spec, elements, top)
                for u in f_t:
                    for v in f_b:
                        vec = [spec.field.zero()] * (bdim * oracle.space_dim(q, top))
                        for a, ua in enumerate(u):
                            for b, vb in enumerate(v):
                                vec[a * bdim + b] = ua * vb
                        vectors.append(vec)
            composite = oracle.span(spec.field, vectors, prof.space_dim)
            assert composite == oracle.lift(spec.field, oracle.basis(prof.composite),
                                            oracle.basis(prof.fixed), prof.space_dim)
            assert prof.irreducible.dim == prof.fixed.dim - prof.composite.dim
        done += 1


def _generator_multiplicities(table):
    out = {}
    for path in table.profiles:
        mult = table.profiles[path].irreducible.dim
        if mult:
            key = (path.source, path.target, path.degree)
            out[key] = out.get(key, 0) + mult
    return out


def test_multiplicities_are_basis_independent():
    # conjugating each arrow action by a base change must not move any
    # reported multiplicity
    rng = random.Random(1618)
    from invcat.linalg import Matrix as M

    done = 0
    while done < 5:
        q = random_quiver(rng, max_vertices=3, max_dim=2)
        drawn = random_action(q, QQ, rng, rng.randint(1, 2), 24)
        if drawn is None:
            continue
        spec, _ = drawn
        base_change = {}
        for edge in q.track_edges():
            d = q.dim(*edge)
            while True:
                p = M.from_rows(QQ, [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)])
                if p.is_invertible():
                    break
            base_change[edge] = (p, oracle.inverse(p))
        conjugated = []
        for name, element in zip(spec.generator_names, spec.generator_elements):
            mats = {}
            for edge, g in zip(spec.edges, element):
                p, inv = base_change[edge]
                mats[edge] = oracle.matmul(oracle.matmul(p, oracle.dense(QQ, g)), inv)
            conjugated.append((name, mats))
        spec2 = ActionSpec(q, QQ, conjugated, group_cap=spec.group_cap)
        t1 = compute_profiles(q, spec, 3)
        t2 = compute_profiles(q, spec2, 3)
        assert _generator_multiplicities(t1) == _generator_multiplicities(t2)
        done += 1


def test_multiplicities_ignore_vertex_declaration_order():
    rng = random.Random(2719)
    q = random_quiver(rng, max_vertices=4, max_dim=2)
    drawn = random_action(q, QQ, rng, 1, 24)
    if drawn is None:
        drawn = random_action(q, QQ, rng, 1, 24)
    assert drawn is not None
    spec, _ = drawn
    reordered = Quiver(tuple(reversed(q.vertices)), {e: q.dim(*e) for e in q.track_edges()})
    mats = [
        (name, {e: oracle.dense(QQ, spec.edge_rows(g, e)) for e in q.track_edges()})
        for name, g in zip(spec.generator_names, spec.generator_elements)
    ]
    spec2 = ActionSpec(reordered, QQ, mats, group_cap=spec.group_cap)
    t1 = compute_profiles(q, spec, 3)
    t2 = compute_profiles(reordered, spec2, 3)
    assert _generator_multiplicities(t1) == _generator_multiplicities(t2)


def test_hom_dims_diagonal_degree_zero():
    q, _, spec = crown_spec(3)
    table = compute_profiles(q, spec, 6)
    assert table.hom_dims("t0", "t0") == [1, 0, 0, 1, 0, 0, 1]
    assert table.hom_dims("t0", "t1") == [0] * 7
    # each call returns a fresh list: a caller's edit leaves the next call as it was
    for pair in (("t0", "t0"), ("t0", "t1")):
        series = table.hom_dims(*pair)
        expected = list(series)
        series[0] += 5
        series.append(1)
        assert table.hom_dims(*pair) == expected
    # a mistyped vertex once read as an isolated one, [1, 0, 0, ...]
    for pair in (("nope", "nope"), ("t0", "nope"), ("nope", "t1")):
        with pytest.raises(UnknownVertex, match="'nope'"):
            table.hom_dims(*pair)


def test_all_paths_in_degree_then_lex_order():
    # iterating profiles does not sort; the walk's order must equal the sorted one
    rng = random.Random(5150)
    for _ in range(12):
        q = random_quiver(rng, max_vertices=4, max_dim=2, extra_arrows=3)
        for quiver in (q, Quiver(tuple(reversed(q.vertices)), {e: q.dim(*e) for e in q.track_edges()})):
            table = compute_profiles(quiver, ActionSpec(quiver, QQ, []), 3)
            index = quiver.vertex_index
            assert list(table.profiles) == sorted(
                table.profiles,
                key=lambda p: (p.degree, tuple(index(v) for v in p.vertices)),
            )


def test_compute_profiles_path_cap():
    q, _, spec = crown_spec(2)
    # t0 -> t1 has one path in each odd degree, t0 -> t0 in each even one
    table = compute_profiles(q, spec, 6, path_cap=3)
    ends = [(p[0], p[-1]) for p in table.profiles if len(p) > 1]
    assert ends.count(("t0", "t1")) == ends.count(("t0", "t0")) == 3
    with pytest.raises(PathCapExceeded, match="more than 3 paths from 't0' to 't1'"):
        compute_profiles(q, spec, 7, path_cap=3)


def _random_instance(rng, field):
    q = random_quiver(rng, max_vertices=4, max_dim=3, extra_arrows=3)
    drawn = random_action(q, field, rng, rng.randint(1, 2), 24)
    return None if drawn is None else (q, drawn[0])


def _fat_instance_in_a_fractional_basis(rng, field):
    """A random instance with an arrow space of dimension > 1, in a basis with denominators."""
    q = random_quiver(rng, max_vertices=4, max_dim=3, extra_arrows=3)
    if all(q.dim(*e) == 1 for e in q.track_edges()):
        return None
    drawn = random_action(q, field, rng, rng.randint(1, 2), 24)
    if drawn is None:
        return None
    spec = drawn[0]

    def change(d):  # upper unitriangular but for the diagonal 1, 2, ..., d
        return Matrix.from_rows(field, [[i + 1 if i == j else int(j > i) for j in range(d)] for i in range(d)])

    def conjugate(g, e):
        p = change(q.dim(*e))
        return oracle.matmul(oracle.matmul(p, oracle.dense(field, spec.edge_rows(g, e))), oracle.inverse(p))

    gens = [
        (name, {e: conjugate(g, e) for e in spec.edges})
        for name, g in zip(spec.generator_names, spec.generator_elements)
    ]
    return q, ActionSpec(q, field, gens)


def _check_composites_against_full_fixed_products(draw, fields, rng, n_instances):
    """Composites are built from F(top) (x) I(bottom); summing F(top) (x)
    F(bottom) one term at a time with Subspace.__add__ must give the same space.

    Returns the number of paths checked and of stored basis entries that are
    cyclotomic with a denominator other than 1.
    """
    instances = paths = fractional = 0
    while instances < n_instances:
        field = fields[instances % len(fields)]
        drawn = draw(rng, field)
        if drawn is None:
            continue
        q, spec = drawn
        instances += 1
        table = compute_profiles(q, spec, rng.randint(2, 4))
        assert table.uncertified == []
        for path in table.profiles:
            expected = Subspace.zero(field, table.profiles[path].space_dim)
            for i in range(1, path.degree):
                f_top = table.profiles[path.segment(i, path.degree)].fixed
                f_bottom = table.profiles[path.segment(0, i)].fixed
                expected = expected + f_top.tensor(f_bottom)
            stored = table.profiles[path]
            composite = ambient_composite(stored)
            assert composite == expected
            fractional += sum(
                getattr(x, "den", 1) != 1
                for space in (stored.fixed, composite, stored.irreducible)
                for tail in space.rows.values()
                for x in tail.values()
            )
            paths += 1
    return paths, fractional


def test_composite_terms_match_full_fixed_products_on_random_instances():
    fields = [QQ, CyclotomicField(3), PrimeField(2), PrimeField(3)]
    paths, _ = _check_composites_against_full_fixed_products(
        _random_instance, fields, random.Random(4711), 40
    )
    assert paths > 100


def test_composite_terms_match_on_non_schurian_instances_over_q_zeta4_and_q_zeta5():
    # fat arrows over Q(i) and Q(zeta5) in a basis with denominators, so
    # cyclotomic scalars with a denominator other than 1 go through elimination
    paths, fractional = _check_composites_against_full_fixed_products(
        _fat_instance_in_a_fractional_basis, [CyclotomicField(4), CyclotomicField(5)],
        random.Random(4712), 16,
    )
    assert paths > 50 and fractional > 0


# ---------------------------------------------------------------------------
# One fixed-space elimination per distinct path action and degree


@pytest.fixture
def fixed_calls(monkeypatch):
    """The ambient dimension of every fixed-space elimination, in call order."""
    calls = []
    eliminate = engine.fixed_space

    def counted(field, ambient, actions):
        calls.append(ambient)
        return eliminate(field, ambient, actions)

    monkeypatch.setattr(engine, "fixed_space", counted)
    return calls


def _distinct_actions(spec, paths):
    """Distinct (degree, action matrices of the generators) over paths, by dense matrices."""
    return {
        (path.degree, tuple(oracle.act_on_path(spec, g, path).entries for g in spec.generator_elements))
        for path in paths
    }


def _nontrivially_shared(table):
    """Paths whose fixed subspace, neither zero nor everything, is an earlier path's object."""
    seen, shared = set(), 0
    for path in table.profiles:
        fixed = table.profiles[path].fixed
        if 0 < fixed.dim < fixed.ambient_dim:
            shared += id(fixed) in seen
            seen.add(id(fixed))
    return shared


def test_shared_fixed_spaces_match_brute_force_on_random_suites(fixed_calls):
    # over Q and F_2 most dimension-1 arrows act by 1 or -1, so many paths share
    # an action; every stored F must still be the brute-force fixed space of
    # its own path, and there is one elimination per distinct action
    rng = random.Random(20261018)
    fields = [QQ, CyclotomicField(3), PrimeField(2), PrimeField(3)]
    done = shared = 0
    while done < 16:
        field = fields[done % len(fields)]
        q = random_quiver(rng, max_vertices=4, max_dim=2, extra_arrows=3)
        drawn = random_action(q, field, rng, rng.randint(1, 2), 24)
        if drawn is None:
            continue
        spec, elements = drawn
        del fixed_calls[:]
        table = compute_profiles(q, spec, 4)
        paths = tuple(table.profiles)
        for path in paths:
            assert oracle.basis(table.profiles[path].fixed) == _brute_fixed(q, spec, elements, path)
        assert len(fixed_calls) == len(_distinct_actions(spec, paths))
        shared += _nontrivially_shared(table)
        done += 1
    assert shared > 10  # 20 paths share a nontrivial F with an earlier path


def test_trivial_group_with_arrows_of_different_dims(fixed_calls):
    # no generators: every action is an empty row list, told apart by its width only
    q = Quiver(["a", "b", "c"], {("b", "a"): 2, ("c", "b"): 3, ("a", "c"): 1, ("b", "b"): 1})
    table = compute_profiles(q, ActionSpec(q, QQ, []), 4)
    widths = set()
    for path, prof in table.profiles.items():
        assert prof.space_dim == oracle.space_dim(q, path)
        assert prof.fixed.dim == prof.space_dim
        widths.add((path.degree, prof.space_dim))
    assert len(fixed_calls) == len(widths)
    assert len(widths) < len(tuple(table.profiles))


@pytest.mark.parametrize("max_degree", [3, 5])
def test_no_action_keeps_its_rows_once_the_waves_are_done(max_degree):
    # rows are needed only to step their degree; kept, the last degree's
    # rows, the largest, would live as long as the table.  The swap loop
    # runs every wave; the path u0 -> u1 -> u2 has none past degree 2
    u = ["u0", "u1", "u2"]
    line = Quiver(u, {("u1", "u0"): 2, ("u2", "u1"): 2})
    swap = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    on_line = ActionSpec(line, QQ, [("s", {e: swap for e in line.track_edges()})])
    for q, spec in [swap_loop_spec(), (line, on_line)]:
        table = compute_profiles(q, spec, max_degree)
        seen, todo = set(), [table.profiles._start]
        while todo:
            node = todo.pop()
            if id(node) not in seen:
                seen.add(id(node))
                assert node.action.rows is None
                todo.extend(node.next.values())
        assert len(seen) > 1


def mesh_spec():
    field = CyclotomicField(3)
    z = field.zeta()
    q = Quiver([f"m{v}" for v in range(4)], {(f"m{t}", f"m{s}"): 1 for s, t in MESH_EXPONENTS})
    mats = {(f"m{t}", f"m{s}"): Matrix(field, [[oracle.power(z, e)]]) for (s, t), e in MESH_EXPONENTS.items()}
    return q, ActionSpec(q, field, [("g", mats)])


def test_equal_actions_share_the_fixed_space_but_not_the_composite():
    q, spec = mesh_spec()
    table = compute_profiles(q, spec, 2)
    ones = table.profiles[Path(("m0", "m2", "m3"))]  # acts by 1 * 1
    zetas = table.profiles[Path(("m3", "m1", "m2"))]  # acts by z * z^2
    assert ones.fixed is zetas.fixed and ones.fixed.dim == 1
    # m0 -> m2 is invariant, m3 -> m1 is not: only the first path is composite
    assert ones.composite.dim == 1 and ones.irreducible.dim == 0
    assert zetas.composite.dim == 0 and zetas.irreducible.dim == 1


def test_fixed_eliminations_per_distinct_action(fixed_calls):
    # the mesh has three actions per degree (z^0, z^1, z^2) among 8,184 paths
    q, spec = mesh_spec()
    table = compute_profiles(q, spec, 10)
    assert len(tuple(table.profiles)) == 8184
    assert len(fixed_calls) == 30
    # a one-loop job has one path, so one elimination, per degree
    for field, n_letters, perms, degree in [(PrimeField(2), 2, [(1, 0)], 8),
                                            (QQ, 3, [(1, 0, 2), (1, 2, 0)], 5)]:
        q = Quiver(["v"], {("v", "v"): n_letters})
        gens = [(f"g{i}", {("v", "v"): _permutation_matrix(field, p)}) for i, p in enumerate(perms)]
        del fixed_calls[:]
        compute_profiles(q, ActionSpec(q, field, gens), degree)
        assert fixed_calls == [n_letters**d for d in range(1, degree + 1)]


# ---------------------------------------------------------------------------
# One profile record per distinct (F, live terms)


@pytest.fixture
def split_calls(monkeypatch):
    """The whole subspace of every Subspace.split, in call order."""
    calls = []
    split = Subspace.split

    def counted(self, spaces):
        calls.append(self)
        return split(self, spaces)

    monkeypatch.setattr(Subspace, "split", counted)
    return calls


@pytest.mark.parametrize("max_degree, paths", [(10, 8184), (13, 65528)])
def test_one_split_and_one_record_per_distinct_input_on_the_mesh(split_calls, max_degree, paths):
    # every arrow space is a line, so F is 0 or everything and a path has at
    # most one live cut (its shortest invariant prefix): the inputs are F = 0,
    # an invariant path with no invariant proper prefix, and one with
    q, spec = mesh_spec()
    table = compute_profiles(q, spec, max_degree)
    assert len(tuple(table.profiles)) == sum(table.path_counts) == paths
    assert len(split_calls) == 3
    assert len({id(record) for record in table.profiles.values()}) == 3


def _memo_free_split(table, path):
    """A path's live terms (F(top), I(bottom)), C, I and certificate, from its own slices."""
    seq = tuple(path)
    terms = []
    for i in range(1, len(seq) - 1):
        i_bottom = table.profiles[seq[: i + 1]].irreducible
        f_top = table.profiles[seq[i:]].fixed
        if i_bottom.dim and f_top.dim:
            terms.append((f_top, i_bottom))
    fixed = table.profiles[seq].fixed
    composite, irreducible = fixed.split([top.tensor(bottom) for top, bottom in terms])
    direct = composite.dim == sum(top.dim * bottom.dim for top, bottom in terms)
    return terms, composite, irreducible, direct and irreducible.dim + composite.dim == fixed.dim


def test_shared_records_match_a_memo_free_split_of_each_path():
    # non-Schurian multi-vertex instances over Q(i), Q(zeta5), F_5 and F_7
    # with arrow spaces of dimension up to 3
    rng = random.Random(4713)
    fields = [CyclotomicField(4), CyclotomicField(5), PrimeField(5), PrimeField(7)]
    done = paths = 0
    while done < 16:
        drawn = _fat_instance_in_a_fractional_basis(rng, fields[done % len(fields)])
        if drawn is None:
            continue
        q, spec = drawn
        done += 1
        table = compute_profiles(q, spec, 4)
        for path in table.profiles:
            record = table.profiles[path]
            _, composite, irreducible, certified = _memo_free_split(table, path)
            assert record.composite == composite and record.irreducible == irreducible
            assert certified == (path not in table.uncertified)
            paths += 1
    assert paths > 100


def test_terms_equal_in_value_but_distinct_objects_share_one_record():
    # the loop acts by 1, so the tops v -> w and v -> v -> w fix the same line
    # of k^2; their fixed spaces come from actions of different degrees, so
    # they are distinct objects, and the record is shared by value
    q = Quiver(["v", "w"], {("v", "v"): 1, ("w", "v"): 2})
    mats = {("v", "v"): Matrix.from_rows(QQ, [[1]]), ("w", "v"): Matrix.from_rows(QQ, [[0, 1], [1, 0]])}
    table = compute_profiles(q, ActionSpec(q, QQ, [("s", mats)]), 3)
    short, long = Path(("v", "v", "w")), Path(("v", "v", "v", "w"))
    [(top_short, bottom_short)] = _memo_free_split(table, short)[0]
    [(top_long, bottom_long)] = _memo_free_split(table, long)[0]
    assert top_short == top_long and top_short is not top_long
    assert bottom_short is bottom_long  # I(v -> v), the only live bottom of both
    assert table.profiles[long] is table.profiles[short]
    assert table.profiles[short].irreducible.dim == 0


def test_tallied_series_and_checked_paths_match_a_recount_on_random_suites():
    rng = random.Random(4714)
    fields = [QQ, CyclotomicField(3), PrimeField(2), PrimeField(3)]
    done = 0
    while done < 12:
        drawn = _random_instance(rng, fields[done % len(fields)])
        if drawn is None:
            continue
        q, spec = drawn
        done += 1
        table = compute_profiles(q, spec, rng.randint(1, 4))
        # the hom series and the path counts by degree, counted again over the iterated profiles
        series = {(x, y): [int(x == y)] + [0] * table.max_degree
                  for x in q.vertices for y in q.vertices}
        counts = [0] * (table.max_degree + 1)
        for path in table.profiles:
            series[path[0], path[-1]][path.degree] += table.profiles[path].fixed.dim
            counts[path.degree] += 1
        assert table.path_counts == counts
        for (x, y), dims in series.items():
            assert table.hom_dims(x, y) == dims
        report = build_invariant_quiver(table)
        for depth in range(table.max_degree + 1):
            checked = verify_freeness(table, report, depth).checked_paths
            assert checked == sum(counts[: depth + 1])


# ---------------------------------------------------------------------------
# Walk states with path counts, against the per-path fold


def _assert_matches_the_per_path_fold(q, spec, max_degree):
    """Records, series, counts and the named paths agree with `oracle.per_path_profiles`."""
    table = compute_profiles(q, spec, max_degree)
    fold = oracle.per_path_profiles(q, spec, max_degree)
    assert tuple(table.profiles) == tuple(fold.profiles)
    for path, record in fold.profiles.items():
        assert table.profiles[path] == record
    for x in q.vertices:
        for y in q.vertices:
            dims = list(fold.series.get((x, y), [0] * (max_degree + 1)))
            dims[0] = int(x == y)
            assert table.hom_dims(x, y) == dims
    assert table.path_counts == fold.path_counts
    assert table.generators == fold.generators
    assert table.uncertified == fold.uncertified
    return table


def test_state_counts_match_the_per_path_fold_on_random_suites():
    rng = random.Random(4711)
    fields = [QQ, CyclotomicField(3), PrimeField(2), PrimeField(3)]
    done = paths = 0
    while done < 40:
        drawn = _random_instance(rng, fields[done % len(fields)])
        if drawn is None:
            continue
        done += 1
        paths += len(_assert_matches_the_per_path_fold(*drawn, rng.randint(2, 4)).profiles)
    assert paths > 400


def test_state_counts_match_the_per_path_fold_where_paths_share_states():
    # character actions on Schurian quivers: every F is 0 or the whole line,
    # so a few states and fewer records carry many paths
    rng = random.Random(4715)
    paths = records = 0
    for _ in range(12):
        q = random_quiver(rng, max_vertices=4, max_dim=1, extra_arrows=8)
        spec = character_action(q, rng.choice([2, 3, 4, 6]), rng)
        table = _assert_matches_the_per_path_fold(q, spec, 6)
        paths += len(table.profiles)
        records += len({id(record) for record in table.profiles.values()})
    assert paths > 30 * records
    table = _assert_matches_the_per_path_fold(*mesh_spec(), 8)
    assert len(table.profiles) == 2040 and len(table.generators) == 66


def test_state_counts_match_the_per_path_fold_under_a_failing_split(monkeypatch):
    # a broken complement (I := F) fails the certificate on many paths: the
    # pruned listing must still name every uncertified path, in walk order
    split = Subspace.split
    monkeypatch.setattr(Subspace, "split", lambda self, spaces: (split(self, spaces)[0], self))
    q, spec = swap_loop_spec()
    table = _assert_matches_the_per_path_fold(q, spec, 6)
    assert [p.degree for p in table.uncertified] == [2, 3, 4, 5, 6]
    rng = random.Random(4716)
    done = uncertified = 0
    while done < 8:
        drawn = _random_instance(rng, [QQ, PrimeField(3)][done % 2])
        if drawn is None:
            continue
        done += 1
        uncertified += len(_assert_matches_the_per_path_fold(*drawn, 3).uncertified)
    assert uncertified > 10


def test_path_cap_names_the_pair_the_walk_meets_first():
    # from a, the pairs (a, b) and (a, c) both pass a cap of one path in
    # degree 2, and a -> y -> c comes before a -> x -> b in walk order
    q = Quiver(["a", "b", "c", "y", "x"], {
        ("b", "a"): 1, ("c", "a"): 1, ("y", "a"): 1, ("x", "a"): 1, ("c", "y"): 1, ("b", "x"): 1,
    })
    spec = ActionSpec(q, QQ, [])
    with pytest.raises(PathCapExceeded) as walked:
        oracle.per_path_profiles(q, spec, 2, path_cap=1)
    assert str(walked.value) == "more than 1 paths from 'a' to 'c'"
    with pytest.raises(PathCapExceeded) as counted:
        compute_profiles(q, spec, 2, path_cap=1)
    assert str(counted.value) == str(walked.value)
    assert compute_profiles(q, spec, 2, path_cap=2).path_counts == [0, 6, 2]


# ---------------------------------------------------------------------------
# The lazy `profiles` mapping


def test_profiles_mapping_looks_up_every_path_and_nothing_else():
    q, _, spec = crown_spec(3)
    table = compute_profiles(q, spec, 5)
    paths = tuple(table.profiles)
    assert len(table.profiles) == sum(table.path_counts) == len(paths) == 15
    for path in paths:
        seq = tuple(path)
        assert type(seq) is tuple and table.profiles[seq] is table.profiles[path]
        assert path in table.profiles and seq in table.profiles
    absent = [
        (), ("t0",), ("t1",),  # degree 0
        ("t0", "t1", "t2", "t0", "t1", "t2", "t0"),  # degree 6 > max_degree
        ("t0", "t2"), ("t0", "t0"), ("t0", "t1", "t0"),  # an edge with no arrow
        ("t0", "x"), ("t0", "t1", "t2", "t0", "t1", "t2", "t0", "t1"),
        "t0t1", ["t0", "t1"],  # not a vertex tuple
    ]
    for seq in absent:
        assert seq not in table.profiles
        with pytest.raises(KeyError):
            table.profiles[seq]
