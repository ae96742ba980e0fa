import random

import pytest

from invcat.action import (
    ActionSpec,
    ClosureCapExceeded,
    NonInvertibleGenerator,
    NotSchurian,
    close_group,
    extract_characters,
)
from invcat.fields import CyclotomicField, QQ
from invcat.linalg import Matrix
from invcat.quiver import Path, Quiver

import oracle
from instances import crown_quiver, finite_order_matrix, random_quiver
from oracle import act_on_path


def times(g, h):
    """The componentwise product of two group elements (matrix tuples)."""
    return tuple(a * b for a, b in zip(g, h))


def crown_spec(n, power=1):
    q = crown_quiver(n)
    field = CyclotomicField(n)
    z = oracle.power(field.zeta(), power)
    mats = {edge: Matrix(field, [[z]]) for edge in q.track_edges()}
    return q, field, ActionSpec(q, field, [("t", mats)])


def swap_loop_spec():
    q = Quiver(["v"], {("v", "v"): 2})
    swap = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    return q, ActionSpec(q, QQ, [("s", {("v", "v"): swap})])


def test_crown_closure_size():
    _, _, spec = crown_spec(3)
    elements = close_group(spec)
    assert len(elements) == 3
    assert elements[0] == spec.identity()


def test_empty_generators_closure():
    q = crown_quiver(3)
    spec = ActionSpec(q, QQ, [])
    elements = close_group(spec)
    assert len(elements) == 1
    assert elements[0] == spec.identity()


def test_swap_closure_size_two():
    _, spec = swap_loop_spec()
    assert len(close_group(spec)) == 2


def test_closure_is_closed_under_products():
    rng = random.Random(11)
    q = random_quiver(rng, max_vertices=3, max_dim=2)
    gens = []
    for k in range(2):
        mats = {e: finite_order_matrix(QQ, q.dim(*e), rng) for e in q.track_edges()}
        gens.append((f"g{k}", mats))
    spec = ActionSpec(q, QQ, gens, group_cap=200)
    elements = close_group(spec)
    seen = set(elements)
    for a in elements:
        for b in elements:
            assert times(a, b) in seen


def test_closure_elements_are_matrix_tuples_in_edge_order():
    q = Quiver(["x", "y"], {("y", "x"): 2, ("x", "y"): 1})
    swap = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    sign = Matrix.from_rows(QQ, [[-1]])
    spec = ActionSpec(q, QQ, [("s", {("y", "x"): swap, ("x", "y"): sign})])
    assert spec.edges == (("y", "x"), ("x", "y"))
    assert spec.generator_elements == ((swap, sign),)
    elements = close_group(spec)
    assert elements[0] == spec.identity() == (Matrix.identity(QQ, 2), Matrix.identity(QQ, 1))
    assert len(elements) == 2 and elements[1] == (swap, sign)
    for g in elements:
        assert type(g) is tuple and len(g) == len(spec.edges)
        for i, edge in enumerate(spec.edges):
            assert type(g[i]) is Matrix and g[i].nrows == g[i].ncols == q.dim(*edge)
            assert spec.edge_matrix(g, edge) is g[i]
    assert {times(a, b) for a in elements for b in elements} == set(elements)


def test_closure_cap():
    _, _, spec3 = crown_spec(3)
    spec3.group_cap = 2
    with pytest.raises(ClosureCapExceeded):
        close_group(spec3)


def test_non_invertible_generator():
    q = Quiver(["x", "y"], {("y", "x"): 2})
    singular = [[1, 1], [1, 1]]
    with pytest.raises(NonInvertibleGenerator):
        ActionSpec(q, QQ, [("s", {("y", "x"): Matrix.from_rows(QQ, singular)})])


def test_generator_coverage_validation():
    q = crown_quiver(2)
    z = CyclotomicField(2)
    with pytest.raises(ValueError):
        ActionSpec(q, z, [("t", {("t1", "t0"): Matrix(z, [[z.zeta()]])})])


def test_act_on_degree_one_is_edge_matrix():
    q, spec = swap_loop_spec()
    g = spec.generator_elements[0]
    acted = act_on_path(spec, g, Path(("v", "v")))
    assert acted == g[0]


def test_act_on_trivial_path_is_scalar_identity():
    q, spec = swap_loop_spec()
    g = spec.generator_elements[0]
    assert act_on_path(spec, g, Path(("v",))) == Matrix.identity(QQ, 1)


def test_crown_degree_three_acts_trivially():
    q, field, spec = crown_spec(3)
    g = spec.generator_elements[0]
    path = Path(("t0", "t1", "t2", "t0"))
    assert act_on_path(spec, g, path) == Matrix.identity(field, 1)


def test_identity_acts_as_identity():
    q, spec = swap_loop_spec()
    path = Path(("v", "v", "v"))
    acted = act_on_path(spec, spec.identity(), path)
    assert acted == Matrix.identity(QQ, 4)


def test_action_is_multiplicative_and_respects_concatenation():
    rng = random.Random(31)
    q = Quiver(["a", "b"], {("b", "a"): 2, ("a", "b"): 2})
    gens = []
    for k in range(2):
        mats = {e: finite_order_matrix(QQ, 2, rng) for e in q.track_edges()}
        gens.append((f"g{k}", mats))
    spec = ActionSpec(q, QQ, gens, group_cap=500)
    elements = close_group(spec)
    path = Path(("a", "b", "a", "b"))
    for _ in range(10):
        g, h = rng.choice(elements), rng.choice(elements)
        assert act_on_path(spec, times(g, h), path) == act_on_path(spec, g, path) * act_on_path(spec, h, path)
    # concatenation: the action on b.a is the tensor of the parts
    g = rng.choice(elements)
    alpha = Path(("a", "b"))
    beta = Path(("b", "a", "b"))
    whole = Path(("a", "b", "a", "b"))
    assert act_on_path(spec, g, whole) == act_on_path(spec, g, beta).tensor(act_on_path(spec, g, alpha))


def test_extract_characters_crown():
    q, field, spec = crown_spec(4)
    elements = close_group(spec)
    chars = extract_characters(spec, elements)
    z = field.zeta()
    t_index = elements.index(spec.generator_elements[0])
    for edge in q.track_edges():
        assert chars.values[edge][t_index] == z
        assert chars.values[edge][0] == 1


def test_characters_multiplicative():
    q, field, spec = crown_spec(5)
    elements = close_group(spec)
    chars = extract_characters(spec, elements)
    lookup = {g: i for i, g in enumerate(elements)}
    rng = random.Random(8)
    for _ in range(10):
        g, h = rng.choice(elements), rng.choice(elements)
        gi, hi, ghi = lookup[g], lookup[h], lookup[times(g, h)]
        for edge in q.track_edges():
            assert chars.values[edge][ghi] == chars.values[edge][gi] * chars.values[edge][hi]


def test_characters_trivial_group():
    q = crown_quiver(3)
    spec = ActionSpec(q, QQ, [])
    chars = extract_characters(spec, close_group(spec))
    for edge in q.track_edges():
        assert chars.values[edge][0] == 1


def test_not_schurian():
    q = Quiver(["x", "y"], {("y", "x"): 2})
    spec = ActionSpec(q, QQ, [])
    with pytest.raises(NotSchurian):
        extract_characters(spec, close_group(spec))


def test_closure_order_is_deterministic():
    q, _, spec = crown_spec(4)
    a = close_group(spec)
    b = close_group(spec)
    assert a == b
