"""A non-abelian action: the symmetric group on three letters.

One vertex carries a three-dimensional loop space, i.e. the free algebra
on the letters a, b, c.  The full symmetric group permutes the letters,
generated by a transposition and a 3-cycle.  Fixed spaces in degree d are
spanned by orbit sums of words, so their dimensions count word orbits: 1,
2, 5, 14, ...  The engine finds the irreducible generators hiding inside
(1, 1, 2, 5, ... per degree), checks that every fixed space passed the
direct-sum certificate and that the irreducible chains along all
compositions account for its dimension, and cross-checks the kernel
computation against the span of the orbit sums, which is the image of
the averaging projector of this permutation action.
"""

from itertools import permutations, product

from invcat import (
    ActionSpec,
    Matrix,
    QQ,
    Quiver,
    Subspace,
    build_invariant_quiver,
    close_group,
    compute_profiles,
    verify_decomposition,
    verify_freeness,
)

quiver = Quiver(["v"], {("v", "v"): 3})
swap = Matrix.from_rows(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
cycle = Matrix.from_rows(QQ, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
spec = ActionSpec(quiver, QQ, [("s", {("v", "v"): swap}), ("c", {("v", "v"): cycle})])
elements = close_group(spec)
print("group size:", len(elements))

max_degree = 4
table = compute_profiles(quiver, spec, max_degree)

print(f"\n{'degree':>6} {'orbits':>7} {'dim fixed':>9} {'dim irreducible':>15}")
for path in table.profiles:
    d = path.degree
    # combinatorial oracle: orbits of the letter permutations on words, and
    # their orbit sums in the tensor basis (first letter the major index)
    seen, sums = set(), []
    for word in product(range(3), repeat=d):
        if word in seen:
            continue
        orbit = {tuple(g[i] for i in word) for g in permutations(range(3))}
        seen |= orbit
        sums.append([QQ.one() if w in orbit else QQ.zero() for w in product(range(3), repeat=d)])
    orbits = len(sums)
    prof = table.profiles[path]
    assert prof.fixed.dim == orbits
    assert Subspace.from_vectors(QQ, 3**d, sums) == prof.fixed
    assert verify_decomposition(path, table).holds
    print(f"{d:>6} {orbits:>7} {prof.fixed.dim:>9} {prof.irreducible.dim:>15}")

report = build_invariant_quiver(table)
freeness = verify_freeness(table, report)
print("\nevery fixed space decomposes as a direct sum of irreducible chains;")
print("averaging projector agrees with the kernel computation everywhere")
print("freeness verdict:", "holds" if freeness.holds else "FALSIFIED")
print("completeness:", report.completeness, "(no certificate exists for a fat loop)")
