"""A wild loop whose invariants are free on one generator per degree.

One vertex with a two-dimensional loop space carries the free algebra on
two letters, a wild algebra.  Let the order-two group swap the letters.
In degree d the swap acts on the 2^d basis tensors by reversing every
letter; no basis tensor is fixed, every orbit has size two, so the fixed
space has dimension 2^(d-1).  The composites eat all but one dimension
in each degree: the invariants are free on exactly one generator per
degree, and the dimension series 1, 1, 2, 4, 8, ... is exactly the free
series on generators of weights 1, 2, 3, ...

Note the completeness verdict: a two-dimensional loop admits no
certificate, so the report honestly says the search is truncated.
"""

from invcat import (
    ActionSpec,
    Matrix,
    QQ,
    Quiver,
    build_invariant_quiver,
    classify,
    compute_profiles,
    verify_freeness,
)

quiver = Quiver(["v"], {("v", "v"): 2})
print("input:", quiver, "->", classify(quiver).overall, "(two loops at one vertex)")

swap = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
spec = ActionSpec(quiver, QQ, [("s", {("v", "v"): swap})])

max_degree = 6
table = compute_profiles(quiver, spec, max_degree)
print(f"\n{'degree':>6} {'dim space':>9} {'dim fixed':>9} {'dim composite':>13} {'dim irreducible':>15}")
for path, prof in table.profiles.items():
    print(f"{path.degree:>6} {prof.space_dim:>9} {prof.fixed.dim:>9}"
          f" {prof.composite.dim:>13} {prof.irreducible.dim:>15}")

report = build_invariant_quiver(table)
freeness = verify_freeness(table, report)
print("\ninvariant dimension series:", table.hom_dims("v", "v"))
print("freeness verdict:", "holds" if freeness.holds else "FALSIFIED")
print("completeness:", report.completeness)
