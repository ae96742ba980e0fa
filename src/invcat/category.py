"""Assembling the generator quiver of the invariant category.

The generators are the paths whose irreducible subspace is nonzero, with
multiplicity its dimension.  A report always carries the searched degree
bound and a completeness verdict: generator degrees are unbounded in
general, so truncation is a first-class, visible concept.  Freeness of the
invariant category is verified through the per-path certificate that
`compute_profiles` records (see `engine`), plus a dimension-series
comparison against the free category on the reported generators.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .action import ActionSpec
from .engine import ProfileTable, verify_decomposition
from .quiver import Quiver, longest_paths


CERTIFIED = "certified"
TRUNCATED = "truncated"
REASON_ACYCLIC = "acyclic"
REASON_CROWN = "crown-bound"


GeneratorEntry = namedtuple("GeneratorEntry", "path multiplicity")
Completeness = namedtuple("Completeness", "status reason bound", defaults=(None, None))
InvariantQuiverReport = namedtuple(
    "InvariantQuiverReport", "vertices generators max_degree completeness"
)


def _crown_edges(quiver: Quiver, component) -> list | None:
    """The arrows (target, source) of an oriented crown component, else None.

    A weak component in which every vertex has exactly one out-neighbour,
    no two the same, is a single oriented cycle.
    """
    outs = [quiver.out_neighbors(v) for v in component]
    if any(len(o) != 1 for o in outs) or len({o[0] for o in outs}) != len(outs):
        return None
    return [(o[0], v) for o, v in zip(outs, component)]


def _value_order(value, one, cap: int) -> int | None:
    acc = value
    for k in range(1, cap + 1):
        if acc == one:
            return k
        acc = acc * value
    return None


def completeness_bound(quiver: Quiver, spec: ActionSpec) -> Completeness | None:
    """A degree bound past which no new generators can appear, when known.

    Acyclic components are bounded by their longest path.  An oriented
    crown component with one-dimensional arrow spaces is bounded by n * e,
    where n is the crown length and e is the exponent of the value group
    of the cycle character (the product of all arrow characters around the
    crown): the prefix of length n*e of any longer path is invariant, so
    longer invariant paths factor.  A crown is read off out-degree counts
    (`_crown_edges`), and the character product does not depend on the
    order of its arrows.  Anything else is Unknown (None).
    """
    one = spec.field.one()
    depth = longest_paths(quiver)
    bound = 0
    any_crown = False
    for graph in quiver.undirected.components():
        component = graph.vertices
        if all(v in depth for v in component):  # acyclic
            bound = max(bound, max(depth[v] for v in component))
            continue
        edges = _crown_edges(quiver, component)
        if edges is None or any(quiver.dim(*e) != 1 for e in edges):
            return None
        exponent = 1
        for g in spec.generator_elements:
            value = one
            for e in edges:
                value = value * spec.edge_matrix(g, e).entries[0][0]
            order = _value_order(value, one, spec.group_cap)
            if order is None:
                return None
            exponent = math.lcm(exponent, order)
        any_crown = True
        bound = max(bound, len(component) * exponent)
    reason = REASON_CROWN if any_crown else REASON_ACYCLIC
    return Completeness(status=CERTIFIED, reason=reason, bound=bound)


def build_invariant_quiver(table: ProfileTable) -> InvariantQuiverReport:
    """One generator entry per path with a nonzero irreducible subspace."""
    generators = [
        GeneratorEntry(path=path, multiplicity=table.profile(path).irreducible.dim)
        for path in table.generators
    ]
    certificate = completeness_bound(table.quiver, table.spec)
    if certificate is not None and table.max_degree >= certificate.bound:
        completeness = certificate
    else:
        completeness = Completeness(
            status=TRUNCATED,
            reason=None,
            bound=certificate.bound if certificate is not None else None,
        )
    return InvariantQuiverReport(
        vertices=table.quiver.vertices,
        generators=tuple(generators),
        max_degree=table.max_degree,
        completeness=completeness,
    )


def generator_quiver(report: InvariantQuiverReport) -> Quiver:
    """The bases-quiver of the invariant category: one arrow per multiplicity."""
    dims: dict[tuple, int] = {}
    for entry in report.generators:
        key = (entry.path.target, entry.path.source)
        dims[key] = dims.get(key, 0) + entry.multiplicity
    return Quiver(report.vertices, dims)


SeriesMismatch = namedtuple("SeriesMismatch", "source target degree invariant_dim free_dim")
FreenessVerdict = namedtuple(
    "FreenessVerdict",
    "holds verify_depth checked_paths decomposition_failures series_mismatches",
    defaults=((), ()),
)


def free_category_dims(vertices, generators, max_degree: int):
    """Hom dimensions by degree of the free category on weighted generators.

    generators: iterable of (source, target, degree >= 1, multiplicity).
    Returns {(source, target): [dim at degree 0.. max_degree]}.  For each
    source x and degree d, one pass over the generators extends the words
    of degree d - deg.
    """
    gens = list(generators)
    dims = {}
    for x in vertices:
        series = {y: [int(x == y)] + [0] * max_degree for y in vertices}
        for d in range(1, max_degree + 1):
            for (src, tgt, deg, mult) in gens:
                if deg <= d:
                    series[tgt][d] += mult * series[src][d - deg]
        dims.update(((x, y), row) for y, row in series.items())
    return dims


def verify_freeness(table: ProfileTable, report: InvariantQuiverReport,
                    verify_depth: int | None = None) -> FreenessVerdict:
    """Executable freeness of the invariant category up to the degree bound.

    Reads the per-path certificates up to verify_depth (default
    table.max_degree), explaining each failure from the stored dimensions
    (`verify_decomposition`), then compares the invariant dimension series
    of every hom-pair with that of the free category on the generators.
    A depth outside 0..table.max_degree is a ValueError: no path past the
    table's degree was computed, so no verdict can claim it.
    """
    max_degree = table.max_degree
    if verify_depth is None:
        verify_depth = max_degree
    if not 0 <= verify_depth <= max_degree:
        raise ValueError(f"verify_depth {verify_depth} is outside 0..{max_degree}")

    checked = sum(table.path_counts[: verify_depth + 1])
    failures = [verify_decomposition(p, table) for p in table.uncertified if p.degree <= verify_depth]

    gens = [
        (e.path.source, e.path.target, e.path.degree, e.multiplicity)
        for e in report.generators
    ]
    free_dims = free_category_dims(table.quiver.vertices, gens, max_degree)
    mismatches = []
    for x in table.quiver.vertices:
        for y in table.quiver.vertices:
            inv = table.hom_dims(x, y)
            free = free_dims[(x, y)]
            for d in range(max_degree + 1):
                if inv[d] != free[d]:
                    mismatches.append(
                        SeriesMismatch(
                            source=x, target=y, degree=d,
                            invariant_dim=inv[d], free_dim=free[d],
                        )
                    )
    return FreenessVerdict(
        holds=not failures and not mismatches,
        verify_depth=verify_depth,
        checked_paths=checked,
        decomposition_failures=failures,
        series_mismatches=mismatches,
    )
