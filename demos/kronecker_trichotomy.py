"""Three fates of the double arrow under an order-two action.

The Kronecker quiver is two vertices joined by a two-dimensional arrow
space; it is tame.  A linear action of a group on that 2-dimensional
space fixes a subspace of dimension 2, 1 or 0, and since no two arrows
compose here, the invariant category is read off directly: the double
arrow survives, degenerates to a single arrow, or disappears entirely.
Representation type never gets worse: tame stays tame or improves to
finite.
"""

from invcat import (
    ActionSpec,
    Matrix,
    QQ,
    Quiver,
    build_invariant_quiver,
    classify,
    classify_invariants,
    compute_profiles,
)

quiver = Quiver(["x", "y"], {("y", "x"): 2})
print("input:", quiver, "->", classify(quiver).overall,
      [str(c) for c in classify(quiver).components])

# the fixed subspace of the one arrow space, by its dimension
FATES = {2: "kronecker-again", 1: "a2", 0: "two-vertices"}

actions = [
    ("trivial action", [[1, 0], [0, 1]]),
    ("diag(1, -1)", [[1, 0], [0, -1]]),
    ("-identity", [[-1, 0], [0, -1]]),
]

for name, rows in actions:
    spec = ActionSpec(quiver, QQ, [("s", {("y", "x"): Matrix.from_rows(QQ, rows)})])
    table = compute_profiles(quiver, spec, max_degree=2)
    outcome = FATES[table.hom_dims("x", "y")[1]]
    report = build_invariant_quiver(table)
    inv = classify_invariants(report)
    gens = ", ".join(f"{e.path} (mult {e.multiplicity})" for e in report.generators) or "none"
    print(f"\n{name}:")
    print(f"  direct answer: {outcome}")
    print(f"  pipeline generators: {gens}")
    print(f"  invariant type: {inv.classification.overall}",
          [str(c) for c in inv.classification.components])
