"""The degree frontier: the largest tier-1 degrees, each against a brute-force count.

The invariants of a permutation module have the orbit sums as a basis in
every characteristic, so the fixed dimension in degree d is the number of
orbits of the group on words of length d, counted here by brute force.  On
a Schurian quiver with a character action of Z/3 every path is an
eigenvector, invariant exactly when its exponent sum is 0 mod 3.
"""

import itertools
import time

from invcat import engine
from invcat.action import close_group
from invcat.jobs import parse_job, report_to_dict, run_pipeline

from instances import MESH_EXPONENTS


def orbit_counts(n_letters, generators, max_degree):
    """Orbits of the group generated by letter permutations on words of length 1..max_degree."""
    group = {tuple(range(n_letters))}
    frontier = list(group)
    while frontier:
        new = []
        for g in frontier:
            for s in generators:
                h = tuple(s[x] for x in g)
                if h not in group:
                    group.add(h)
                    new.append(h)
        frontier = new
    counts = []
    for d in range(1, max_degree + 1):
        seen, orbits = set(), 0
        for word in itertools.product(range(n_letters), repeat=d):
            if word not in seen:
                orbits += 1
                seen.update(tuple(g[x] for x in word) for g in group)
        counts.append(orbits)
    return counts


def permutation_job(field, n_letters, perms, max_degree):
    """One vertex, an n-dim loop, each permutation acting on the basis letters."""
    def matrix(perm):
        return [[str(int(perm[j] == i)) for j in range(n_letters)] for i in range(n_letters)]

    return {
        "field": field,
        "quiver": {"vertices": ["v"], "arrows": [{"source": "v", "target": "v", "dim": n_letters}]},
        "action": {"generators": [
            {"name": f"g{i}", "matrices": {"v<-v": matrix(p)}} for i, p in enumerate(perms)
        ]},
        "options": {"max_degree": max_degree, "verify_depth": max_degree},
    }


def check_frontier(field, n_letters, perms, max_degree):
    result = run_pipeline(parse_job(permutation_job(field, n_letters, perms, max_degree)))
    fixed = [result.table.profiles[p].fixed.dim for p in result.table.profiles]
    assert fixed == orbit_counts(n_letters, perms, max_degree)
    assert result.freeness.holds
    assert result.freeness.checked_paths == max_degree
    return fixed


def test_s3_words_over_q_degree_six():
    # a transposition and a 3-cycle generate S3; N = 3^6 = 729 in degree 6
    fixed = check_frontier({"kind": "rationals"}, 3, [(1, 0, 2), (1, 2, 0)], 6)
    assert fixed == [1, 2, 5, 14, 41, 122]


def test_swap_loop_over_f2_degree_ten():
    # the characteristic divides the group order; N = 2^10 = 1024 in degree 10
    fixed = check_frontier({"kind": "prime", "p": 2}, 2, [(1, 0)], 10)
    assert fixed == [2 ** (d - 1) for d in range(1, 11)]


def test_s3_words_over_q_degree_seven():
    # N = 3^7 = 2187; the freeness certificate covers every degree
    fixed = check_frontier({"kind": "rationals"}, 3, [(1, 0, 2), (1, 2, 0)], 7)
    assert fixed == [1, 2, 5, 14, 41, 122, 365]


def test_swap_loop_over_f2_degree_twelve():
    # N = 2^12 = 4096 in degree 12, with freeness certified at every degree
    fixed = check_frontier({"kind": "prime", "p": 2}, 2, [(1, 0)], 12)
    assert fixed == [2 ** (d - 1) for d in range(1, 13)]


def test_s3_words_over_q_degree_nine():
    # N = 3^9 = 19,683: the fixed kernel stacks 39,366 rows of g - 1
    fixed = check_frontier({"kind": "rationals"}, 3, [(1, 0, 2), (1, 2, 0)], 9)
    assert fixed == [1, 2, 5, 14, 41, 122, 365, 1094, 3281]


def test_swap_loop_over_f2_degree_fourteen():
    # N = 2^14 = 16,384, with freeness certified at every degree
    fixed = check_frontier({"kind": "prime", "p": 2}, 2, [(1, 0)], 14)
    assert fixed == [2 ** (d - 1) for d in range(1, 15)]


def test_closure_of_a_128_dim_cyclic_permutation_over_q():
    # 128 elements, each a 128 x 128 permutation: a product follows the
    # nonzeros of both factors and an element hashes its 128 nonzeros only
    cycle = tuple((i + 1) % 128 for i in range(128))
    spec = parse_job(permutation_job({"kind": "rationals"}, 128, [cycle], 1)).action
    seconds = []
    for _ in range(3):
        start = time.process_time()
        elements = close_group(spec)
        seconds.append(time.process_time() - start)
    assert len(elements) == 128
    assert min(seconds) < 0.5, seconds


def mesh_oracle(max_degree):
    """Hom series and generators from exponent sums, by walking every path.

    A generator is an invariant path with no invariant proper prefix.
    """
    series = {f"m{t}<-m{s}": [int(s == t)] + [0] * max_degree for s in range(4) for t in range(4)}
    generators = []
    paths = 0
    for source in range(4):
        stack = [((source,), 0, False)]
        while stack:
            seq, total, tainted = stack.pop()
            if len(seq) > max_degree:
                continue
            for (s, t), e in MESH_EXPONENTS.items():
                if s == seq[-1]:
                    ext, ext_total = seq + (t,), (total + e) % 3
                    paths += 1
                    if ext_total == 0:
                        series[f"m{t}<-m{source}"][len(seq)] += 1
                        if not tainted:
                            generators.append([f"m{v}" for v in ext])
                    stack.append((ext, ext_total, tainted or ext_total == 0))
    return series, sorted(generators), paths


def mesh_job(max_degree):
    return parse_job({
        "field": {"kind": "cyclotomic", "n": 3},
        "quiver": {
            "vertices": [f"m{v}" for v in range(4)],
            "arrows": [{"source": f"m{s}", "target": f"m{t}", "dim": 1} for s, t in MESH_EXPONENTS],
        },
        "action": {"generators": [{"name": "g", "matrices": {
            f"m{t}<-m{s}": [[f"z^{e}"]] for (s, t), e in MESH_EXPONENTS.items()
        }}]},
        "options": {"max_degree": max_degree},
    })


def check_mesh(max_degree):
    """The 4-vertex Schurian mesh through the whole pipeline, against the oracle."""
    result = run_pipeline(mesh_job(max_degree))
    report = report_to_dict(result)
    series, generators, paths = mesh_oracle(max_degree)
    assert paths == len(result.table.profiles) == sum(result.table.path_counts)
    if max_degree <= 13:  # listing all 524,280 paths of degree 16 takes over 100 MB
        assert paths == len(tuple(result.table.profiles))
    assert report["hom_series"] == series
    assert sorted(g["path"] for g in report["generators"]) == generators
    assert all(g["multiplicity"] == 1 for g in report["generators"])
    assert result.freeness.holds and result.schurian["agrees"]
    return paths


def test_schurian_mesh_over_q_zeta3_degree_twelve():
    # 32,760 paths, each with a 1-dimensional tensor space: bound by per-path cost
    assert check_mesh(12) == 32760


def test_schurian_mesh_over_q_zeta3_degree_thirteen():
    # 65,528 paths sharing 39 actions: one fixed-space elimination per action
    assert check_mesh(13) == 65528


def test_schurian_mesh_over_q_zeta3_degree_sixteen():
    # 524,280 paths, at most 32,768 per pair, under the default cap of 100,000
    assert check_mesh(16) == 524280


def test_mesh_lists_only_the_paths_it_names(monkeypatch):
    # the paths are counted by walk state; the one walk inside compute_profiles
    # visits only the paths that lead to a generator within the degree bound
    walked = []
    walk = engine.walk

    def counted(*args):
        for item in walk(*args):
            walked.append(item[0])
            yield item

    monkeypatch.setattr(engine, "walk", counted)
    job = mesh_job(16)
    table = engine.compute_profiles(job.quiver, job.action, 16)
    assert sum(table.path_counts) == 524280
    assert len(table.generators) == len(mesh_oracle(16)[1]) == 950
    assert table.uncertified == []
    assert len(walked) < 3000
