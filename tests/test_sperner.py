"""Closed-form Sperner quantities."""

import random
from itertools import combinations
from math import comb

import pytest

from gcff.bounds import bounds_for
from gcff.core import find_violation, is_d_disjunct
from gcff.errors import InvalidInputError
from gcff.graphs import COLORINGS, Graph, complete, cycle, path, sperner_graph, star, wheel
from gcff.sperner import (
    doubling_increment,
    g_sperner_witness,
    half_subsets,
    nbar,
    optimal_1cff,
    t1,
)


def t1_oracle(n: int) -> int:
    t = 1
    while comb(t, t // 2) < n:
        t += 1
    return t


def central_binomials(limit: int) -> list[int]:
    out, x = [], 1
    while not out or out[-1] < limit:
        out.append(comb(x, x // 2))
        x += 1
    return out


class TestT1:
    def test_spot_values(self):
        assert t1(12) == 6
        assert t1(5) == 4
        assert t1(2) == 2
        assert t1(1) == 1

    def test_against_direct_scan(self):
        for n in range(1, 3000):
            assert t1(n) == t1_oracle(n)

    def test_boundary_invariant_large(self):
        for n in (10, 137, 5000, 123456, 10 ** 6):
            t = t1(n)
            assert comb(t, t // 2) >= n > comb(t - 1, (t - 1) // 2)

    def test_requires_positive(self):
        for bad in (lambda: t1(0), lambda: nbar(0), lambda: doubling_increment(1)):
            with pytest.raises(InvalidInputError):
                bad()


class TestOptimal1CFF:
    def test_n6_is_all_two_subsets(self):
        m = optimal_1cff(6)
        assert (m.t, m.n) == (4, 6)
        want = [sum(1 << (x - 1) for x in c) for c in combinations(range(1, 5), 2)]
        assert list(m.cols) == want

    def test_n12(self):
        m = optimal_1cff(12)
        assert m.t == 6
        assert is_d_disjunct(m, 1)

    def test_n3_is_identity(self):
        from gcff.core import IncidenceMatrix

        assert optimal_1cff(3) == IncidenceMatrix.identity(3)

    def test_rows_and_disjunctness_sweep(self):
        for n in range(2, 80):
            m = optimal_1cff(n)
            assert m.t == t1(n)
            assert is_d_disjunct(m, 1)


class TestHalfSubsets:
    @pytest.mark.parametrize("t", range(1, 17))
    def test_masks_in_lexicographic_order(self, t):
        want = [sum(1 << (x - 1) for x in combo)
                for combo in combinations(range(1, t + 1), t // 2)]
        assert list(half_subsets(t)) == want


class TestNbar:
    def test_spot_values_match_enumeration(self):
        cb = central_binomials(10 ** 6)
        for n, want in [(4, 6), (6, 6), (7, 10)]:
            assert nbar(n) == want == min(c for c in cb if c >= n)

    def test_sweep(self):
        cb = central_binomials(5000)
        for n in range(1, 3000):
            assert nbar(n) == min(c for c in cb if c >= n)


class TestDoubling:
    def test_spot_values(self):
        assert doubling_increment(4) == 1
        assert doubling_increment(2) == 2
        assert doubling_increment(10) == t1(20) - t1(10)

    def test_matches_t1_everywhere(self):
        for n in range(2, 2001):
            assert doubling_increment(n) == t1(2 * n) - t1(n), n

    def test_half_central_binomial_rows(self):
        for k in range(2, 13):
            assert t1(comb(2 * k + 1, k) // 2) == 2 * k


class TestGraphSperner:
    def test_ts_complete(self):
        for n in (2, 3, 6, 12):
            assert bounds_for(complete(n)).exact_value("t_s") == t1(n)

    def test_ts_bipartite_cycle(self):
        assert bounds_for(cycle(6)).exact_value("t_s") == t1(2) == 2

    def test_ts_sperner_graph(self):
        assert bounds_for(sperner_graph(3)).exact_value("t_s") == t1(3) == 3

    def test_witness_c5(self):
        m = g_sperner_witness(cycle(5))
        assert m.t == t1(3) == 3
        assert find_violation(m, cycle(5), "sperner") is None

    def test_witness_c6_uses_two_singletons(self):
        m = g_sperner_witness(cycle(6))
        assert m.t == 2
        assert set(m.cols) == {1, 2}
        assert find_violation(m, cycle(6), "sperner") is None

    def test_witness_k3(self):
        m = g_sperner_witness(complete(3))
        assert m.t == 3 and find_violation(m, complete(3), "sperner") is None

    def test_witness_random_graphs(self):
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randrange(2, 9)
            edges = frozenset(
                e for e in combinations(range(n), 2) if rng.random() < 0.5
            )
            g = Graph(n, edges)
            m = g_sperner_witness(g)
            assert find_violation(m, g, "sperner") is None
            from gcff.graphs import chromatic_number

            assert m.t == t1(chromatic_number(g))

    def test_star_ts(self):
        assert bounds_for(star(9)).exact_value("t_s") == 2

    def test_witness_is_checked(self, monkeypatch):
        """An improper family colouring gives RuntimeError, not a matrix."""
        monkeypatch.setitem(COLORINGS, "path", lambda n, args: [v // 2 % 2 for v in range(n)])
        with pytest.raises(RuntimeError, match="g-Sperner witness failed verification"):
            g_sperner_witness(path(5))

    # past the exact solver's 20 vertices, from the family's colouring
    @pytest.mark.parametrize("g, chi", [(cycle(30), 2), (cycle(31), 3), (wheel(30), 4),
                                        (wheel(31), 3)])
    def test_beyond_twenty_vertices(self, g, chi):
        assert bounds_for(g).exact_value("t_s") == t1(chi)
        m = g_sperner_witness(g)
        assert m.t == t1(chi) and find_violation(m, g, "sperner") is None

