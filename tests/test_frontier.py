"""The degree frontier: letter-permutation actions at the largest tier-1 degrees.

The invariants of a permutation module have the orbit sums as a basis in
every characteristic, so the fixed dimension in degree d is the number of
orbits of the group on words of length d, counted here by brute force.
"""

import itertools

from invcat.jobs import parse_job, run_pipeline


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
    fixed = [result.table.profile(p).fixed.dim for p in result.table.all_paths()]
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
