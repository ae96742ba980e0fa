"""The benchmark's workloads: seeded job files and engine-independent oracles.

Each workload turns a seed into one job file (the only thing the program
sees) and an oracle computed here by brute force, without importing
invcat.  Every seed of a workload yields an isomorphic instance, so the
oracle's numbers and the sizes of the matrices are the same for all
seeds.  mesh-cyclo's seeds do exactly the same arithmetic; s3-words-q's
generators and basis changes move its scalar operation count by a few
per cent.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    job: dict
    oracle: dict
    note: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    max_degree: int
    build: object  # (seed, max_degree) -> Instance

    def instance(self, seed: int, max_degree: int | None = None) -> Instance:
        return self.build(seed, self.max_degree if max_degree is None else max_degree)


def _orbit_counts(n_letters: int, generators, max_degree: int) -> list[int]:
    """Orbits of a letter-permutation group on words of each length 0..max_degree.

    The invariants of a permutation module have the orbit sums as a basis in
    every characteristic, so these are the invariant dimensions.
    """
    group = {tuple(range(n_letters))}
    frontier = list(group)
    while frontier:
        new = []
        for g in frontier:
            for s in generators:
                h = tuple(s[g[i]] for i in range(n_letters))
                if h not in group:
                    group.add(h)
                    new.append(h)
        frontier = new
    counts = []
    for d in range(max_degree + 1):
        seen = set()
        orbits = 0
        for word in itertools.product(range(n_letters), repeat=d):
            if word in seen:
                continue
            orbits += 1
            seen.update(tuple(g[x] for x in word) for g in group)
        counts.append(orbits)
    return counts


def _free_generator_series(h: list[int]) -> list[int]:
    """Coefficients of 1 - 1/h(t): the generators of a free algebra with series h."""
    g = [0] * len(h)
    for n in range(1, len(h)):
        g[n] = h[n] - sum(g[k] * h[n - k] for k in range(1, n))
    return g


def _one_loop_job(field: dict, dim: int, generators: list, max_degree: int, verify_depth=None) -> dict:
    options = {"max_degree": max_degree}
    if verify_depth is not None:
        options["verify_depth"] = verify_depth
    return {
        "field": field,
        "quiver": {"vertices": ["v"], "arrows": [{"source": "v", "target": "v", "dim": dim}]},
        "action": {
            "generators": [
                {"name": name, "matrices": {"v<-v": [[str(x) for x in row] for row in matrix]}}
                for name, matrix in generators
            ]
        },
        "options": options,
    }


def _one_loop_oracle(n_letters: int, letter_perms, group_size: int, max_degree: int) -> dict:
    series = _orbit_counts(n_letters, letter_perms, max_degree)
    multiplicities = _free_generator_series(series)
    return {
        "group_size": group_size,
        "hom_series": {"v<-v": series},
        "generators": sorted(
            (("v",) * (d + 1), m) for d, m in enumerate(multiplicities) if m > 0
        ),
    }


def _permutation_matrix(perm) -> list[list[int]]:
    """The matrix sending basis vector e_i to e_perm[i]."""
    n = len(perm)
    return [[1 if perm[j] == i else 0 for j in range(n)] for i in range(n)]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _swap_loop_f2(seed: int, max_degree: int) -> Instance:
    swap = (1, 0)
    job = _one_loop_job(
        {"kind": "prime", "p": 2}, 2, [("s", _permutation_matrix(swap))],
        max_degree, verify_depth=max_degree,
    )
    return Instance(
        job=job,
        oracle=_one_loop_oracle(2, [swap], 2, max_degree),
        note="single instance: the seed leaves the job unchanged",
    )


def _s3_words_q(seed: int, max_degree: int) -> Instance:
    rng = random.Random(seed)
    transposition = rng.choice([(1, 0, 2), (2, 1, 0), (0, 2, 1)])
    three_cycle = rng.choice([(1, 2, 0), (2, 0, 1)])
    # a signed permutation P; the generators act as P M P^-1 = P M P^T
    basis_perm = list(range(3))
    rng.shuffle(basis_perm)
    signs = [rng.choice((1, -1)) for _ in range(3)]
    p = [[signs[j] if basis_perm[j] == i else 0 for j in range(3)] for i in range(3)]
    p_t = [list(col) for col in zip(*p)]
    generators = [
        (name, _matmul(_matmul(p, _permutation_matrix(perm)), p_t))
        for name, perm in (("t", transposition), ("c", three_cycle))
    ]
    job = _one_loop_job({"kind": "rationals"}, 3, generators, max_degree)
    return Instance(
        job=job,
        oracle=_one_loop_oracle(3, [transposition, three_cycle], 6, max_degree),
        note=(
            f"transposition {transposition}, 3-cycle {three_cycle}, "
            f"basis change by permutation {tuple(basis_perm)} with signs {tuple(signs)}"
        ),
    )


MESH_VERTICES = 4
# Character exponents e of the arrows m_s -> m_t (z acts on the arrow by z^e).
# Pinned: every draw is a rotation of this vector, so all seeds do the same work.
MESH_EXPONENTS = {(0, 1): 0, (1, 2): 2, (2, 3): 0, (3, 0): 1,
                  (0, 2): 0, (1, 3): 1, (2, 0): 1, (3, 1): 1}


def _mesh_oracle(exponents: dict, max_degree: int) -> dict:
    """Invariant paths (exponent sum 0 mod 3) and those with no invariant proper prefix."""
    n = MESH_VERTICES
    series = {f"m{y}<-m{x}": [0] * (max_degree + 1) for x in range(n) for y in range(n)}
    generators = []
    for x in range(n):
        series[f"m{x}<-m{x}"][0] = 1
        stack = [((x,), 0, False)]
        while stack:
            seq, total, had_invariant_prefix = stack.pop()
            if len(seq) > max_degree:
                continue
            for (s, t), e in exponents.items():
                if s != seq[-1]:
                    continue
                ext = seq + (t,)
                ext_total = (total + e) % 3
                invariant = ext_total == 0
                if invariant:
                    series[f"m{t}<-m{x}"][len(ext) - 1] += 1
                    if not had_invariant_prefix:
                        generators.append((tuple(f"m{v}" for v in ext), 1))
                stack.append((ext, ext_total, had_invariant_prefix or invariant))
    return {"group_size": 3, "hom_series": series, "generators": sorted(generators)}


def _mesh_cyclo(seed: int, max_degree: int) -> Instance:
    rng = random.Random(seed)
    n = MESH_VERTICES
    shift = rng.randrange(n)
    exponents = {((s + shift) % n, (t + shift) % n): e for (s, t), e in MESH_EXPONENTS.items()}
    arrow_order = sorted(exponents)
    job = {
        "field": {"kind": "cyclotomic", "n": 3},
        "quiver": {
            "vertices": [f"m{v}" for v in range(n)],
            "arrows": [{"source": f"m{s}", "target": f"m{t}", "dim": 1} for s, t in arrow_order],
        },
        "action": {
            "generators": [{
                "name": "g",
                "matrices": {
                    f"m{t}<-m{s}": [["1" if exponents[(s, t)] == 0 else f"z^{exponents[(s, t)]}"]]
                    for s, t in arrow_order
                },
            }]
        },
        "options": {"max_degree": max_degree},
    }
    return Instance(
        job=job,
        oracle=_mesh_oracle(exponents, max_degree),
        note=f"pinned exponents rotated by {shift}: m_i -> m_(i+{shift})",
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "swap-loop-f2",
            "freeness check dominates (2^(d-1) compositions per path); char 2 divides the group order; only 8 paths",
            8, _swap_loop_f2,
        ),
        Workload(
            "s3-words-q",
            "dense Fraction elimination dominates (fixed space of a stacked 486x243 matrix); highest RSS; 5 paths",
            5, _s3_words_q,
        ),
        Workload(
            "mesh-cyclo",
            "path count dominates (8184 paths of ambient dim 1, many tiny eliminations); Schurian fast path over Q(zeta3)",
            10, _mesh_cyclo,
        ),
    )
}


def check_report(report: dict, oracle: dict) -> list[str]:
    """Every way the report disagrees with the oracle or fails its own checks."""
    problems = []
    if report.get("freeness", {}).get("holds") is not True:
        problems.append("freeness.holds is not true")
    schurian = report.get("schurian_check")
    if schurian is not None and schurian.get("agrees") is not True:
        problems.append("schurian_check.agrees is not true")
    if report.get("group_size") != oracle["group_size"]:
        problems.append(f"group_size {report.get('group_size')} != {oracle['group_size']}")
    if report.get("hom_series") != oracle["hom_series"]:
        problems.append("hom_series differs from the oracle")
    try:
        generators = sorted(
            (tuple(g["path"]), g["multiplicity"]) for g in report.get("generators", ())
        )
    except (KeyError, TypeError):
        generators = None
    if generators != oracle["generators"]:
        problems.append("generators differ from the oracle")
    return problems
