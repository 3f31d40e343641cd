"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines stream.
Every expectation is exact (no tolerances); search-based criteria run at the
default node budget and fail rather than guess if a search cannot finish.
"""

import random
import time
from itertools import combinations
from math import comb, log

from gcff.bounds import bounds_for
from gcff.constructions import (
    add_universal,
    catalog,
    double_cycle,
    star_cff,
    windmill_cff,
)
from gcff.core import find_violation, is_g_cff
from gcff.graphs import (
    Graph,
    chromatic_number,
    clique_number,
    cycle,
    hamming,
    matching,
    path,
    sperner_graph,
    star,
    wheel,
    windmill,
)
from gcff.graycode import (
    cycle_cff_rows,
    hamming_maximal_check,
    is_cyclic,
    is_gray,
    is_permutation,
    modular,
    path_cycle_cff,
    reflected,
)
from gcff.solver import exact_t, exists_cff, longest_path_cff
from gcff.sperner import doubling_increment, t1


def _all_radix_vectors(limit=4096, digits=(2, 3, 4, 5)):
    stack = [((), 1)]
    while stack:
        prefix, p = stack.pop()
        for m in digits:
            q = p * m
            if q <= limit:
                yield prefix + (m,)
                stack.append((prefix + (m,), q))


def test_criterion_1_gray_code_suite():
    begin = time.perf_counter()
    count = 0
    for radices in _all_radix_vectors():
        code = reflected(radices)
        assert is_permutation(code), radices
        assert is_gray(code), radices
        want_cyclic = len(radices) == 1 or radices[0] % 2 == 0
        assert is_cyclic(code) == want_cyclic, radices
        count += 1
    modular_count = 0
    for q in (2, 3, 4, 5):
        k = 1
        while q ** k <= 4096:
            code = modular(q, k)
            assert is_permutation(code) and is_gray(code) and is_cyclic(code), (q, k)
            k += 1
            modular_count += 1
    elapsed = time.perf_counter() - begin
    assert elapsed < 10, f"criterion 1 took {elapsed:.1f}s"
    print(f"PASS criterion 1: {count} reflected + {modular_count} modular codes "
          f"verified in {elapsed:.1f}s")


def test_criterion_2_path_cycle_construction():
    begin = time.time()
    spot = {12: 7, 27: 9, 36: 10, 54: 11, 19: 9}
    for n in range(3, 401):
        m = path_cycle_cff(n)
        assert m.t == cycle_cff_rows(n), n
        assert is_g_cff(m, cycle(n)), n
        if n in spot:
            assert m.t == spot[n], n
        if n >= 4:
            assert m.t <= 3 * log(n) / log(3) + 2, n
    elapsed = time.time() - begin
    assert elapsed < 30, f"criterion 2 took {elapsed:.1f}s"
    print(f"PASS criterion 2: n in [3,400] verified with interval row counts "
          f"in {elapsed:.1f}s")


def test_criterion_3_exact_solver_table():
    begin = time.time()
    path_want = {3: 3, 4: 4, 5: 5, 6: 5, 7: 6, 8: 6, 9: 6}
    cycle_want = dict(path_want)
    wheel_want = {3: 3, 4: 4, 5: 5, 6: 6, 7: 6, 8: 7, 9: 7, 10: 7}
    for n, w in path_want.items():
        res = exact_t(path(n), "cff", start=1)
        assert (res.status, res.t_min) == ("found", w), ("path", n, res.status)
    for n, w in cycle_want.items():
        res = exact_t(cycle(n), "cff", start=1)
        assert (res.status, res.t_min) == ("found", w), ("cycle", n, res.status)
    # P_10: explicit witness gives the upper bound, exhaustion at 5 the lower
    g10, m10 = catalog("P10")
    assert m10.t == 6 and is_g_cff(m10, g10)
    assert exists_cff(path(10), 5).status == "exhausted"
    solved = []
    for n, w in wheel_want.items():
        res = exact_t(wheel(n), "cff", start=1)
        assert res.status == "found", ("wheel", n, res.status)
        assert res.t_min == w, ("wheel", n, res.t_min)
        solved.append(n)
    elapsed = time.time() - begin
    assert elapsed < 1800
    print(f"PASS criterion 3: paths/cycles n=3..9, P_10, wheels n=3..10 all "
          f"solved to the printed values in {elapsed:.1f}s")


def test_criterion_4_longest_path_lemmas():
    begin = time.time()
    r4 = longest_path_cff(4)
    assert (r4.status, r4.n_max) == ("complete", 4)
    assert time.time() - begin < 600
    begin5 = time.time()
    r5 = longest_path_cff(5)
    assert (r5.status, r5.n_max) == ("complete", 6)
    assert time.time() - begin5 < 600
    assert is_g_cff(r5.witness, path(6))
    print(f"PASS criterion 4: complete searches give max path lengths 4 (t=4) "
          f"and 6 (t=5); {r4.nodes_explored}+{r5.nodes_explored} nodes")


def test_criterion_5_star_family():
    for n in range(3, 129):
        m = star_cff(n)
        assert m.t == t1(n - 1) + 1, n
        assert is_g_cff(m, star(n)), n
    for n in range(3, 9):
        res = exact_t(star(n), "cff", start=1)
        assert (res.status, res.t_min) == ("found", t1(n - 1) + 1), n
    for x in (3, 4, 5):
        n = comb(x, x // 2) + 1
        assert t1(n - 1) + 1 == t1(n), x
        assert bounds_for(star(n)).exact_value("t") == t1(n)
    print("PASS criterion 5: stars n in [3,128] verified, n in [3,8] solved, "
          "trivial lower bound met one past central binomials")


def test_criterion_6_sperner_layer():
    for n in range(2, 2001):
        assert doubling_increment(n) == t1(2 * n) - t1(n), n
    for k in range(2, 13):
        assert t1(comb(2 * k + 1, k) // 2) == 2 * k, k
    rng = random.Random(2025)
    checked = 0
    while checked < 50:
        n = rng.randrange(2, 8)
        edges = frozenset(e for e in combinations(range(n), 2) if rng.random() < 0.5)
        g = Graph(n, edges)
        if g.isolated_vertices:
            continue
        assert exact_t(g, "sperner", start=1).t_min == t1(chromatic_number(g)), (n, sorted(edges))
        checked += 1
    print("PASS criterion 6: doubling classifier exact on [2,2000], "
          "half-central-binomial rows for k in [2,12], 50 random Sperner solves")


def test_criterion_7_sperner_graph_theorem():
    begin = time.time()
    for z in (3, 4):
        g = sperner_graph(z)
        want = comb(z, z // 2)
        assert clique_number(g)[0] == want, z
        assert chromatic_number(g) == want, z
    elapsed = time.time() - begin
    assert elapsed < 60
    print(f"PASS criterion 7: clique = chromatic = central binomial for "
          f"orders 3, 4 in {elapsed:.1f}s")


def test_criterion_8_matchings():
    g8, m8 = catalog("E8")
    assert is_g_cff(m8, g8) and m8.t == 5
    res_cff = exact_t(matching(8), "cff", start=1)
    res_ecff = exact_t(matching(8), "ecff", start=1)
    assert (res_cff.t_min, res_ecff.t_min) == (5, 4)
    for n in (6, 10):
        m = n // 2
        rep = bounds_for(matching(n))
        res = exact_t(matching(n), "cff", start=1)
        assert rep.lower("t") <= res.t_min <= rep.upper("t")
        assert t1(m) + 1 <= res.t_min <= t1(m) + 2
    print("PASS criterion 8: catalog E_8 verified, t(E_8)=5, edge-only 4, "
          "E_6 and E_10 inside the theorem brackets")


def test_criterion_9_hamming_maximality():
    for radices in ((2, 2), (2, 2, 2), (3, 3)):
        assert hamming_maximal_check(reflected(radices)), radices
    q2 = exact_t(hamming([2, 2]), "cff", start=1)
    q3 = exact_t(hamming([2, 2, 2]), "cff", start=1)
    assert (q2.t_min, q3.t_min) == (4, 6)
    print("PASS criterion 9: transversal families maximal exactly on the "
          "Hamming graphs; t(Q_2)=4, t(Q_3)=6 by search")


def test_criterion_10_cross_layer_consistency():
    instances = [
        (star_cff(9), star(9)),
        (star_cff(20), star(20)),
        (path_cycle_cff(12), cycle(12)),
        (path_cycle_cff(27), cycle(27)),
        (windmill_cff(3, 4), windmill(3, 4)),
        (windmill_cff(4, 3), windmill(4, 3)),
        (add_universal(path_cycle_cff(9), cycle(9)), wheel(10)),
        (double_cycle(path_cycle_cff(8)), cycle(16)),
        (catalog("E8")[1], matching(8)),
        (catalog("P10")[1], path(10)),
    ]
    for m, g in instances:
        rep = bounds_for(g)
        assert rep.lower("t") <= m.t, g.family
        assert m.t <= rep.upper("t"), g.family
        assert is_g_cff(m, g), g.family
    # min degree >= 2: edge-cover verification alone already implies Sperner
    for m, g in instances:
        if min(g.degrees) >= 2:
            assert find_violation(m, g, "ecff") is None, g.family
            assert find_violation(m, g, "sperner") is None, g.family
    print("PASS criterion 10: bounds sandwich all constructed instances; "
          "min-degree-2 collapse holds on each")
