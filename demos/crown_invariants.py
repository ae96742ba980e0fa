"""Invariants of an oriented crown under a root-of-unity action.

The crown Q_n is the cyclically oriented n-cycle.  Let the generator of a
cyclic group of order n scale every arrow by a primitive n-th root of
unity.  A path of length d picks up a factor zeta^d, so it is invariant
exactly when n divides d; the shortest invariant paths are the n loops of
length n, one through each vertex, and every longer invariant path is a
power of one of those loops.  The invariant category is therefore free on
n loops: a disjoint union of polynomial algebras, tame but no longer
connected.
"""

from invcat import (
    ActionSpec,
    CyclotomicField,
    Matrix,
    Quiver,
    build_invariant_quiver,
    classify,
    classify_invariants,
    close_group,
    compute_profiles,
    verify_freeness,
)

n = 3
vertices = [f"t{i}" for i in range(n)]
quiver = Quiver(vertices, {(vertices[(i + 1) % n], vertices[i]): 1 for i in range(n)})
print("crown:", quiver)
print("input classification:", classify(quiver).overall,
      [str(c) for c in classify(quiver).components])

field = CyclotomicField(n)
zeta = field.zeta()
print(f"\nacting by zeta = {zeta} (a primitive {n}-th root of unity) on every arrow")
spec = ActionSpec(quiver, field, [
    ("t", {edge: Matrix(field, [[zeta]]) for edge in quiver.track_edges()}),
])
print("closed group size:", len(close_group(spec)))

table = compute_profiles(quiver, spec, max_degree=2 * n)
print(f"\nper-path invariants up to degree {2 * n} (nonzero fixed spaces only):")
for path, prof in table.profiles.items():
    if prof.fixed.dim:
        print(f"  {path}: dim fixed {prof.fixed.dim}, composite {prof.composite.dim},"
              f" irreducible {prof.irreducible.dim}")

report = build_invariant_quiver(table)
print("\ngenerators of the invariant category:")
for entry in report.generators:
    print(f"  {entry.path} [deg {entry.path.degree}, mult {entry.multiplicity}]")
print("completeness:", report.completeness)

freeness = verify_freeness(table, report)
print("freeness verdict:", "holds" if freeness.holds else "FALSIFIED",
      f"({freeness.checked_paths} paths checked)")

inv = classify_invariants(report)
print("invariant classification:", inv.classification.overall,
      [str(c) for c in inv.classification.components],
      "(certified)" if inv.certified else "(truncation only)")
