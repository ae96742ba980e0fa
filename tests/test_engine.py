import itertools
import random
from fractions import Fraction

import pytest

from invcat import engine
from invcat.action import ActionSpec, act_on_path, close_group, extract_characters
from invcat.engine import (
    MissingSubPath,
    averaged_fixed_subspace,
    compositions,
    compute_profiles,
    schurian_generators,
    verify_decomposition,
)
from invcat.fields import CyclotomicField, PrimeField, QQ
from invcat.linalg import Matrix, Subspace
from invcat.quiver import Path, PathCapExceeded, Quiver

import oracle
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
    lifted = oracle.lift(field, prof.composite.basis, prof.fixed.basis, prof.space_dim)
    space = Subspace.from_vectors(field, prof.space_dim, lifted)
    assert space.basis == lifted  # the lift of a reduced echelon basis is one
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
        comps = list(compositions(n))
        assert len(comps) == 2 ** (n - 1)
        assert all(sum(c) == n for c in comps)
        assert len(set(comps)) == len(comps)


def test_fixed_subspace_trivial_group_is_everything():
    q, spec = swap_loop_spec()
    trivial = ActionSpec(q, QQ, [])
    path = q.path(["v", "v", "v"])
    assert compute_profiles(q, trivial, 2).profile(path).fixed == Subspace.full(QQ, 4)


def test_fixed_subspace_crown_degree_one_is_zero():
    q, _, spec = crown_spec(3)
    path = q.path(["t0", "t1"])
    assert compute_profiles(q, spec, 1).profile(path).fixed.dim == 0


def test_fixed_subspace_swap_degree_one():
    q, spec = swap_loop_spec()
    path = q.path(["v", "v"])
    fixed = compute_profiles(q, spec, 1).profile(path).fixed
    assert fixed.basis == ((Fraction(1), Fraction(1)),)


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
        for path in table.all_paths():
            assert table.profile(path).fixed.basis == _brute_fixed(q, spec, elements, path)
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
        for path in table.all_paths():
            kernel_route = table.profile(path).fixed
            average_route = averaged_fixed_subspace(spec, elements, path)
            assert kernel_route == average_route
        done += 1


def test_averaging_rejects_modular_case():
    f2 = PrimeField(2)
    q = Quiver(["v"], {("v", "v"): 2})
    swap = Matrix.from_rows(f2, [[0, 1], [1, 0]])
    spec = ActionSpec(q, f2, [("s", {("v", "v"): swap})])
    with pytest.raises(ValueError):
        averaged_fixed_subspace(spec, close_group(spec), q.path(["v", "v"]))


def test_composite_degree_one_is_zero():
    q, spec = swap_loop_spec()
    table = compute_profiles(q, spec, 2)
    path = q.path(["v", "v"])
    assert table.profile(path).composite.dim == 0


def test_composite_crown_degree_three_is_zero():
    q, _, spec = crown_spec(3)
    table = compute_profiles(q, spec, 3)
    path = q.path(["t0", "t1", "t2", "t0"])
    assert table.profile(path).composite.dim == 0


def test_composite_swap_degree_two_brute_force():
    q, spec = swap_loop_spec()
    table = compute_profiles(q, spec, 2)
    path = q.path(["v", "v", "v"])
    comp = ambient_composite(table.profile(path))
    # (1,1) tensor (1,1) expands to (1,1,1,1)
    expected = Subspace.from_vectors(QQ, 4, [[Fraction(1)] * 4])
    assert comp == expected


def test_missing_subpath_error():
    q, spec = swap_loop_spec()
    table = compute_profiles(q, spec, 1)
    path = q.path(["v", "v", "v", "v"])  # beyond the degree bound
    with pytest.raises(MissingSubPath):
        table.profile(path)


def test_irreducible_examples():
    q, spec = swap_loop_spec()
    table = compute_profiles(q, spec, 2)
    deg1 = table.profile(q.path(["v", "v"]))
    assert deg1.irreducible == deg1.fixed
    deg2 = table.profile(q.path(["v", "v", "v"]))
    assert (deg2.fixed.dim, deg2.composite.dim, deg2.irreducible.dim) == (2, 1, 1)
    assert ambient_composite(deg2).complement_in(deg2.fixed) == deg2.irreducible

    qc, _, specc = crown_spec(3)
    tablec = compute_profiles(qc, specc, 3)
    prof = tablec.profile(qc.path(["t0", "t1", "t2", "t0"]))
    assert prof.irreducible == prof.fixed
    assert prof.irreducible.dim == 1


def test_profiles_crown_generators():
    q, _, spec = crown_spec(3)
    table = compute_profiles(q, spec, 3)
    nonzero = [p for p in table.all_paths() if table.profile(p).irreducible.dim > 0]
    assert len(nonzero) == 3
    assert all(p.degree == 3 for p in nonzero)
    assert all(table.profile(p).irreducible.dim == 1 for p in nonzero)


def test_profiles_trivial_group():
    rng = random.Random(17)
    q = random_quiver(rng, max_vertices=3, max_dim=2)
    spec = ActionSpec(q, QQ, [])
    table = compute_profiles(q, spec, 3)
    for path in table.all_paths():
        prof = table.profile(path)
        assert prof.fixed.dim == prof.space_dim
        if path.degree == 1:
            assert prof.irreducible.dim == prof.space_dim
        else:
            assert prof.irreducible.dim == 0


def test_profiles_swap_loop_series_with_oracle():
    q, spec = swap_loop_spec()
    table = compute_profiles(q, spec, 4)
    for path in table.all_paths():
        prof = table.profile(path)
        assert prof.fixed.dim == bit_flip_fixed_dim(path.degree)
        assert prof.irreducible.dim == 1


def test_profiles_closed_under_subpaths():
    rng = random.Random(55)
    q = random_quiver(rng, max_vertices=4, max_dim=2)
    spec = ActionSpec(q, QQ, [])
    table = compute_profiles(q, spec, 4)
    for path in table.all_paths():
        n = path.degree
        for a in range(n):
            for b in range(a + 1, n + 1):
                assert path.segment(a, b) in table.profiles


def test_profiles_look_up_by_plain_tuple_slices():
    q, _, spec = crown_spec(3)
    table = compute_profiles(q, spec, 5)
    for path in table.all_paths():
        seq = tuple(path)
        for i in range(len(seq) - 1):  # trivial paths are not stored
            assert type(seq[i:]) is tuple
            assert table.profiles[seq[i:]] is table.profiles[path.segment(i, path.degree)]
            assert table.profile(seq[: i + 2]) is table.profiles[path.segment(0, i + 1)]


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
        for path in table.all_paths():
            prof = table.profile(path)
            composite = ambient_composite(prof)
            assert composite.is_subspace_of(prof.fixed)
            assert prof.irreducible.is_subspace_of(prof.fixed)
            assert composite + prof.irreducible == prof.fixed
            assert composite.intersect(prof.irreducible).dim == 0
        done += 1


def test_verify_decomposition_degree_one():
    q, spec = swap_loop_spec()
    table = compute_profiles(q, spec, 1)
    verdict = verify_decomposition(q.path(["v", "v"]), table)
    assert verdict.holds
    assert verdict.fixed_dim == verdict.composition_sum == 1


def test_verify_decomposition_swap_degree_three():
    q, spec = swap_loop_spec()
    table = compute_profiles(q, spec, 3)
    path = q.path(["v", "v", "v", "v"])
    verdict = verify_decomposition(path, table)
    assert verdict.holds
    # brute force: the fixed space of the full degree-3 action
    g = spec.generator_elements[0]
    from invcat.action import act_on_path

    big = act_on_path(spec, g, path)
    assert (big - Matrix.identity(QQ, 8)).kernel().dim == 4
    assert verdict.fixed_dim == 4
    assert verdict.composition_sum == 4  # 1 + 1 + 1 + 1 over the four compositions


def test_verify_decomposition_crown_degree_six():
    q, _, spec = crown_spec(3)
    table = compute_profiles(q, spec, 6)
    path = q.path(["t0", "t1", "t2", "t0", "t1", "t2", "t0"])
    verdict = verify_decomposition(path, table)
    assert verdict.holds
    assert verdict.fixed_dim == 1
    assert verdict.composition_sum == 1  # only the (3, 3) composition contributes


def test_schurian_generators_crown():
    for n in (2, 3, 4):
        q, _, spec = crown_spec(n)
        chars = extract_characters(q, close_group(spec))
        gens = schurian_generators(q, chars, 2 * n)
        paths = [p for bucket in gens.values() for p in bucket]
        assert len(paths) == n
        assert all(p.degree == n for p in paths)
        assert all(p.source == p.target for p in paths)


def test_schurian_generators_sign_character_line():
    q = Quiver(["u0", "u1", "u2"], {("u1", "u0"): 1, ("u2", "u1"): 1})
    field = CyclotomicField(2)
    minus_one = Matrix(field, [[field.zeta()]])
    spec = ActionSpec(q, field, [("s", {e: minus_one for e in q.track_edges()})])
    chars = extract_characters(q, close_group(spec))
    gens = schurian_generators(q, chars, 4)
    paths = [p for bucket in gens.values() for p in bucket]
    assert len(paths) == 1
    assert paths[0].vertices == ("u0", "u1", "u2")


def test_schurian_generators_trivial_characters_are_arrows():
    rng = random.Random(5)
    q = random_quiver(rng, max_vertices=4, max_dim=1)
    spec = character_action(q, 1, rng)
    chars = extract_characters(q, close_group(spec), spec.field)
    gens = schurian_generators(q, chars, 4)
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
            if chars.is_invariant(prefixes[-1]) and not any(map(chars.is_invariant, prefixes[:-1])):
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
        chars = extract_characters(q, close_group(spec), spec.field)
        gens = schurian_generators(q, chars, 5)
        assert gens == _brute_schurian_generators(q, chars, 5)
        found += sum(map(len, gens.values()))
    assert found > 50


def test_schurian_walk_cap_counts_only_paths_without_invariant_prefix():
    # every hom-pair of the 3-crown has one path in degrees d, d + 3, ...; the
    # walk stops at the degree-3 cycles, so one path per pair is walked
    q, _, spec = crown_spec(3)
    chars = extract_characters(q, close_group(spec))
    with pytest.raises(PathCapExceeded):
        compute_profiles(q, spec, 6, path_cap=1)
    gens = schurian_generators(q, chars, 6, path_cap=1)
    assert gens == schurian_generators(q, chars, 6)
    assert sorted(p.vertices for bucket in gens.values() for p in bucket) == [
        ("t0", "t1", "t2", "t0"), ("t1", "t2", "t0", "t1"), ("t2", "t0", "t1", "t2"),
    ]


def _brute_action_matrix(q, spec, element, path):
    """The path action built by explicit index arithmetic, no tensor calls.

    Basis tensors are indexed with the factor of the first edge as stride 1
    and each later edge with stride = product of the earlier edge dims.
    """
    edges = path.edges()
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

    mats = [spec.edge_matrix(element, e) for e in edges]
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
    return oracle.kernel(field, deltas, q.path_space_dim(path))


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
        for path in table.all_paths():
            prof = table.profile(path)
            fixed = _brute_fixed(q, spec, elements, path)
            assert fixed == prof.fixed.basis
            # composite: embed products of sub-path fixed vectors by hand
            n = path.degree
            vectors = []
            for i in range(1, n):
                bottom = path.segment(0, i)
                top = path.segment(i, n)
                bdim = q.path_space_dim(bottom)
                f_b = _brute_fixed(q, spec, elements, bottom)
                f_t = _brute_fixed(q, spec, elements, top)
                for u in f_t:
                    for v in f_b:
                        vec = [spec.field.zero()] * (bdim * q.path_space_dim(top))
                        for a, ua in enumerate(u):
                            for b, vb in enumerate(v):
                                vec[a * bdim + b] = ua * vb
                        vectors.append(vec)
            composite = oracle.span(spec.field, vectors, prof.space_dim)
            assert composite == oracle.lift(spec.field, prof.composite.basis, prof.fixed.basis, prof.space_dim)
            assert prof.irreducible.dim == prof.fixed.dim - prof.composite.dim
        done += 1


def _generator_multiplicities(table):
    out = {}
    for path in table.all_paths():
        mult = table.profile(path).irreducible.dim
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
            base_change[edge] = (p, p.inverse())
        conjugated = []
        for name, element in zip(spec.generator_names, spec.generator_elements):
            mats = {}
            for edge, g in zip(spec.edges, element.matrices):
                p, inv = base_change[edge]
                mats[edge] = p * g * inv
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
        (name, {e: spec.edge_matrix(g, e) for e in q.track_edges()})
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


def test_all_paths_in_degree_then_lex_order():
    # all_paths no longer sorts; the walk's order must equal the sorted one
    rng = random.Random(5150)
    for _ in range(12):
        q = random_quiver(rng, max_vertices=4, max_dim=2, extra_arrows=3)
        for quiver in (q, Quiver(tuple(reversed(q.vertices)), {e: q.dim(*e) for e in q.track_edges()})):
            table = compute_profiles(quiver, ActionSpec(quiver, QQ, []), 3)
            index = quiver.vertex_index
            assert list(table.all_paths()) == sorted(
                table.profiles,
                key=lambda p: (p.degree, tuple(index(v) for v in p.vertices)),
            )


def test_compute_profiles_path_cap():
    q, _, spec = crown_spec(2)
    # t0 -> t1 has one path in each odd degree, t0 -> t0 in each even one
    table = compute_profiles(q, spec, 6, path_cap=3)
    assert len(table.paths_between("t0", "t1")) == len(table.paths_between("t0", "t0")) == 3
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

    gens = [
        (name, {e: change(q.dim(*e)) * spec.edge_matrix(g, e) * change(q.dim(*e)).inverse() for e in spec.edges})
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
        for path in table.all_paths():
            expected = Subspace.zero(field, table.profile(path).space_dim)
            for i in range(1, path.degree):
                f_top = table.profile(path.segment(i, path.degree)).fixed
                f_bottom = table.profile(path.segment(0, i)).fixed
                expected = expected + f_top.tensor(f_bottom)
            stored = table.profile(path)
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
    eliminate = engine._fixed

    def counted(field, ambient, actions):
        calls.append(ambient)
        return eliminate(field, ambient, actions)

    monkeypatch.setattr(engine, "_fixed", counted)
    return calls


def _distinct_actions(spec, paths):
    """Distinct (degree, action matrices of the generators) over paths, by dense matrices."""
    return {
        (path.degree, tuple(act_on_path(spec, g, path) for g in spec.generator_elements))
        for path in paths
    }


def _nontrivially_shared(table):
    """Paths whose fixed subspace, neither zero nor everything, is an earlier path's object."""
    seen, shared = set(), 0
    for path in table.all_paths():
        fixed = table.profile(path).fixed
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
        paths = table.all_paths()
        for path in paths:
            assert table.profile(path).fixed.basis == _brute_fixed(q, spec, elements, path)
        assert len(fixed_calls) == len(_distinct_actions(spec, paths))
        shared += _nontrivially_shared(table)
        done += 1
    assert shared > 10  # 20 paths share a nontrivial F with an earlier path


def test_trivial_group_with_arrows_of_different_dims(fixed_calls):
    # no generators: every action is an empty row list, told apart by its width only
    q = Quiver(["a", "b", "c"], {("b", "a"): 2, ("c", "b"): 3, ("a", "c"): 1, ("b", "b"): 1})
    table = compute_profiles(q, ActionSpec(q, QQ, []), 4)
    widths = set()
    for path in table.all_paths():
        prof = table.profile(path)
        assert prof.space_dim == q.path_space_dim(path)
        assert prof.fixed == Subspace.full(QQ, prof.space_dim)
        widths.add((path.degree, prof.space_dim))
    assert len(fixed_calls) == len(widths)
    assert len(widths) < len(table.all_paths())


def mesh_spec():
    field = CyclotomicField(3)
    z = field.zeta()
    q = Quiver([f"m{v}" for v in range(4)], {(f"m{t}", f"m{s}"): 1 for s, t in MESH_EXPONENTS})
    mats = {(f"m{t}", f"m{s}"): Matrix(field, [[z**e]]) for (s, t), e in MESH_EXPONENTS.items()}
    return q, ActionSpec(q, field, [("g", mats)])


def test_equal_actions_share_the_fixed_space_but_not_the_composite():
    q, spec = mesh_spec()
    table = compute_profiles(q, spec, 2)
    ones = table.profile(Path(("m0", "m2", "m3")))  # acts by 1 * 1
    zetas = table.profile(Path(("m3", "m1", "m2")))  # acts by z * z^2
    assert ones.fixed is zetas.fixed and ones.fixed.dim == 1
    # m0 -> m2 is invariant, m3 -> m1 is not: only the first path is composite
    assert ones.composite.dim == 1 and ones.irreducible.dim == 0
    assert zetas.composite.dim == 0 and zetas.irreducible.dim == 1


def test_fixed_eliminations_per_distinct_action(fixed_calls):
    # the mesh has three actions per degree (z^0, z^1, z^2) among 8,184 paths
    q, spec = mesh_spec()
    table = compute_profiles(q, spec, 10)
    assert len(table.all_paths()) == 8184
    assert len(fixed_calls) == 30
    # a one-loop job has one path, so one elimination, per degree
    for field, n_letters, perms, degree in [(PrimeField(2), 2, [(1, 0)], 8),
                                            (QQ, 3, [(1, 0, 2), (1, 2, 0)], 5)]:
        q = Quiver(["v"], {("v", "v"): n_letters})
        gens = [(f"g{i}", {("v", "v"): _permutation_matrix(field, p)}) for i, p in enumerate(perms)]
        del fixed_calls[:]
        compute_profiles(q, ActionSpec(q, field, gens), degree)
        assert fixed_calls == [n_letters**d for d in range(1, degree + 1)]
