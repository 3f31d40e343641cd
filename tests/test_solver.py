"""Exact search: soundness against naive enumeration, equality with the
reference kernel, small exact values, budgets, determinism."""

import random
from itertools import combinations, product
from math import comb

import pytest

from gcff.core import IncidenceMatrix, find_violation, is_g_cff
from gcff.errors import InvalidInputError
from gcff.graphs import (
    Graph,
    complete,
    cycle,
    hamming,
    loops_graph,
    matching,
    path,
    star,
    wheel,
    windmill,
)
from gcff.solver import (
    SEARCH_ROW_CAP,
    exact_t,
    exact_ts,
    exists_cff,
    longest_path_cff,
)
from gcff.solver import _problem
from gcff.solver import engine
from gcff.sperner import t1

import reference_engine


def naive_exists(g: Graph, t: int, prop: str) -> bool:
    """Ground-truth oracle: enumerate every column assignment, no symmetry
    breaking, check with the core verifier."""
    full = (1 << t) - 1
    for cols in product(range(full + 1), repeat=g.n):
        if find_violation(IncidenceMatrix(t, cols), g, prop) is None:
            return True
    return False


NAIVE_CASES = [
    (path(5), 4, "cff"), (path(4), 4, "cff"), (path(4), 3, "cff"),
    (cycle(4), 3, "cff"), (cycle(4), 4, "cff"), (cycle(5), 4, "cff"),
    (star(4), 2, "cff"), (star(4), 3, "cff"),
    (path(3), 3, "sperner"), (path(3), 1, "sperner"),
    (matching(4), 2, "ecff"), (matching(6), 3, "ecff"),
    (cycle(3), 2, "cff"), (cycle(3), 3, "cff"),
    (loops_graph(4), 3, "cff"), (loops_graph(4), 2, "cff"),
    (Graph(4, frozenset({(0, 1), (2, 3)}), frozenset({0, 2})), 3, "cff"),
]


class TestSoundness:
    @pytest.mark.parametrize("g,t,prop", NAIVE_CASES,
                             ids=[f"{g.family or 'graph'}-t{t}-{p}" for g, t, p in NAIVE_CASES])
    def test_matches_naive_enumeration(self, g, t, prop):
        assert (exists_cff(g, t, prop).status == "found") == naive_exists(g, t, prop)

    def test_witnesses_verify(self):
        for g, t, prop in NAIVE_CASES:
            out = exists_cff(g, t, prop)
            if out.status == "found":
                assert find_violation(out.witness, g, prop) is None

    def test_random_instances_match_naive(self):
        import random

        rng = random.Random(99)
        checked = 0
        while checked < 60:
            n = rng.randrange(2, 6)
            t = rng.randrange(2, 5)
            if (1 << t) ** n > 300_000:
                continue
            edges = frozenset(
                e for e in combinations(range(n), 2) if rng.random() < 0.45
            )
            loops = frozenset(v for v in range(n) if rng.random() < 0.2)
            g = Graph(n, edges, loops)
            prop = rng.choice(["cff", "ecff", "sperner"])
            fast = exists_cff(g, t, prop).status == "found"
            assert fast == naive_exists(g, t, prop), (n, t, prop, edges, loops)
            checked += 1


BUDGETS = [10 ** 9, 7, 40]
KERNEL_CASES = [
    (cycle(5), 4, "cff"), (cycle(4), 4, "cff"), (wheel(6), 5, "cff"),
    (matching(6), 4, "ecff"), (path(6), 5, "cff"), (cycle(5), 3, "sperner"),
]


def by_degree(g: Graph) -> list[int]:
    """The vertex order of exists_cff: descending degree, then label."""
    return sorted(range(g.n), key=lambda v: (-g.degree(v), v))


class TestKernelMatchesReference:
    """The bit-parallel kernel walks the reference kernel's tree in the same
    order: identical status, witness and node count, also when cut short."""

    REF_STATUS = {reference_engine.FOUND: "found", reference_engine.EXHAUSTED: "exhausted",
                  reference_engine.BUDGET: "budget-exceeded"}

    @pytest.mark.parametrize("budget", BUDGETS, ids=["uncut", "cut7", "cut40"])
    @pytest.mark.parametrize("g,t,prop", KERNEL_CASES,
                             ids=[f"{g.family}-t{t}-{p}" for g, t, p in KERNEL_CASES])
    def test_search_exists(self, g, t, prop, budget):
        problem = _problem(g, prop, by_degree(g))
        status, cols, nodes = engine.walk(t, problem, budget)
        want, want_cols, want_nodes = reference_engine.search_exists(
            t, len(problem.order), problem.prev_nbrs, problem.loops, problem.sperner,
            problem.cover, problem.zero_ok, problem.full_ok, budget)
        assert (status, nodes) == (self.REF_STATUS[want], want_nodes)
        assert (cols if status == "found" else None) == want_cols
        out = exists_cff(g, t, prop, budget=budget)
        assert (out.status, out.nodes) == (status, nodes)
        if status == "found":
            by_vertex = [0] * g.n
            for v, c in zip(problem.order, cols):
                by_vertex[v] = c
            assert IncidenceMatrix(t, tuple(by_vertex)) == out.witness

    @pytest.mark.parametrize("budget", BUDGETS, ids=["uncut", "cut7", "cut40"])
    @pytest.mark.parametrize("t", [3, 4, 5, 6])
    def test_search_longest_path(self, t, budget):
        cap = comb(t, t // 2)
        problem = _problem(path(cap), "cff", range(cap))
        status, cols, nodes = engine.walk(t, problem, budget)
        want, depth, want_cols, want_nodes = reference_engine.search_longest_path(
            t, len(problem.order), budget)
        # reaching the cap ("found") is as conclusive as a full walk
        assert (status == "budget-exceeded") == (want == reference_engine.BUDGET)
        assert (len(cols), cols, nodes) == (depth, want_cols, want_nodes)
        res = longest_path_cff(t, budget)
        assert (res.n_max, res.nodes_explored) == (depth, nodes)
        assert res.status == ("budget-exceeded" if status == "budget-exceeded" else "complete")

    def test_random_sweep(self):
        """Seeded instances from edgeless to complete, with loops and isolated
        vertices, in a shuffled vertex order: every property, t <= 6, and
        budgets from one node to uncut."""
        rng = random.Random(8)
        instances = 120
        # the largest tree the reference walks to check an uncut search;
        # larger ones are still checked at every cut budget
        oracle_cap = 3000
        checked = uncut = 0
        for _ in range(instances):
            n = rng.randrange(1, 12)
            p = rng.choice([0.0, 0.2, 0.5, 0.8, 1.0])
            edges = frozenset(e for e in combinations(range(n), 2) if rng.random() < p)
            loops = frozenset(v for v in range(n) if rng.random() < 0.2)
            prop = rng.choice(["cff", "ecff", "sperner"])
            t = rng.randrange(1, 7)
            order = list(range(n))
            rng.shuffle(order)
            problem = _problem(Graph(n, edges, loops), prop, order)
            for budget in (1, 3, 7, 50, 400, oracle_cap):
                want, want_cols, want_nodes = reference_engine.search_exists(
                    t, n, problem.prev_nbrs, problem.loops, problem.sperner,
                    problem.cover, problem.zero_ok, problem.full_ok, budget)
                if budget == oracle_cap:
                    if want == reference_engine.BUDGET:
                        continue
                    budget, uncut = 10 ** 9, uncut + 1
                status, cols, nodes = engine.walk(t, problem, budget)
                assert (status, cols if status == "found" else None, nodes) == \
                    (self.REF_STATUS[want], want_cols, want_nodes), \
                    (n, sorted(edges), sorted(loops), prop, t, order, budget)
                checked += 1
        assert uncut >= instances // 2 and checked > 5 * instances

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6, 7])
    def test_longest_path_budget_sweep(self, t):
        """At every budget the deepest assignment returned is the reference's:
        the first one reached at the deepest depth, not a later one."""
        rng = random.Random(t)
        cap = comb(t, t // 2)
        problem = _problem(path(cap), "cff", range(cap))
        # one seeded budget in each of eight log-spaced strata of [1, 2 * 10^4]
        budgets = [round(20_000 ** ((k + rng.random()) / 8)) for k in range(8)]
        for budget in budgets:
            status, cols, nodes = engine.walk(t, problem, budget)
            want, depth, want_cols, want_nodes = reference_engine.search_longest_path(
                t, cap, budget)
            assert (status == "budget-exceeded") == (want == reference_engine.BUDGET)
            assert (len(cols), cols, nodes) == (depth, want_cols, want_nodes), budget


MEMO_CASES = [(complete(7), 6), (cycle(8), 5), (wheel(8), 6), (path(10), 6)]


class TestMemoMatchesReference:
    """Trees with isomorphic subtrees, which the kernel's memo counts once
    instead of walking: the reference walks every one of them."""

    @pytest.mark.parametrize("g,t", MEMO_CASES, ids=[f"{g.family}-t{t}" for g, t in MEMO_CASES])
    def test_uncut_and_cut(self, g, t):
        problem = _problem(g, "cff", by_degree(g))
        args = (t, len(problem.order), problem.prev_nbrs, problem.loops, problem.sperner,
                problem.cover, problem.zero_ok, problem.full_ok)
        # seeded budgets in six strata of [1, min(tree, 4000)]; on these trees
        # they stop the walk both inside a subtree the memo skips uncut and
        # after one, and the cap keeps the reference's walks short
        uncut = reference_engine.search_exists(*args, 10 ** 9)
        span = min(uncut[2], 4000)
        rng = random.Random(100 * t + g.n)
        budgets = [1 + round(span * (k + rng.random()) / 6) for k in range(6)]
        runs = [(10 ** 9, uncut)] + [(b, reference_engine.search_exists(*args, b)) for b in budgets]
        for budget, (want, want_cols, want_nodes) in runs:
            status, cols, nodes = engine.walk(t, problem, budget)
            assert (status, cols if status == "found" else None, nodes) == \
                (TestKernelMatchesReference.REF_STATUS[want], want_cols, want_nodes), budget


class TestProblemRecord:
    def test_end_columns_match_edge_scan(self):
        """zero_ok/full_ok, read from degrees, equal the rule written as a
        scan over every edge and loop."""
        import random

        rng = random.Random(5)
        isolated = 0
        for _ in range(200):
            n = rng.randrange(1, 9)
            p = rng.random()
            edges = frozenset(e for e in combinations(range(n), 2) if rng.random() < p)
            loops = frozenset(v for v in range(n) if rng.random() < 0.25)
            g = Graph(n, edges, loops)
            isolated += len(g.isolated_vertices)
            order = list(range(n))
            rng.shuffle(order)
            for prop in ("cff", "ecff", "sperner"):
                problem = _problem(g, prop, order)
                for i, v in enumerate(order):
                    avoided = any(v not in e for e in g.edges) or any(w != v for w in g.loops)
                    zero = full = True
                    if prop in ("cff", "sperner") and g.adj[v]:
                        zero = full = False
                    if prop in ("cff", "ecff"):
                        if avoided:
                            zero = False
                        if (g.adj[v] and g.n >= 3) or (v in g.loops and g.n >= 2):
                            full = False
                    assert (problem.zero_ok[i], problem.full_ok[i]) == (zero, full), \
                        (n, sorted(edges), sorted(loops), prop, v)
        assert isolated > 0


class TestExactValues:
    def test_paths_and_cycles_table(self):
        want = [3, 4, 5, 5, 6, 6, 6]
        for n, w in zip(range(3, 10), want):
            assert exact_t(path(n), "cff", start=1).t_min == w
            assert exact_t(cycle(n), "cff", start=1).t_min == w

    def test_wheels_table(self):
        want = [3, 4, 5, 6, 6, 7, 7, 7]
        for n, w in zip(range(3, 11), want):
            res = exact_t(wheel(n), "cff", start=1)
            assert (res.status, res.t_min) == ("found", w), n

    def test_p10(self):
        assert exists_cff(path(10), 5).status == "exhausted"
        res = exact_t(path(10), "cff", start=1)
        assert res.t_min == 6

    def test_star_exact(self):
        for n in range(3, 11):
            assert exact_t(star(n), "cff", start=1).t_min == t1(n - 1) + 1

    def test_matchings(self):
        assert exact_t(matching(8), "cff", start=1).t_min == 5
        assert exact_t(matching(8), "ecff", start=1).t_min == 4
        assert exact_t(matching(6), "cff", start=1).t_min == 5
        assert exact_t(matching(10), "cff", start=1).t_min == 6

    def test_hypercubes(self):
        assert exact_t(hamming([2, 2]), "cff", start=1).t_min == 4
        assert exact_t(hamming([2, 2, 2]), "cff", start=1).t_min == 6

    def test_loops_equal_sperner_floor(self):
        assert exact_t(loops_graph(6), "cff", start=1).t_min == t1(6)

    def test_exact_ts(self):
        assert exact_ts(complete(4), start=1) == t1(4) == 4
        assert exact_ts(cycle(5), start=1) == t1(3) == 3
        assert exact_ts(cycle(6), start=1) == 2

    def test_min_degree_two_collapse(self):
        for g in (cycle(5), cycle(6), wheel(5), hamming([2, 2]), windmill(3, 2)):
            assert exact_t(g, "cff", start=1).t_min == exact_t(g, "ecff", start=1).t_min

    def test_within_bounds_interval(self):
        from gcff.bounds import bounds_for

        for g in (path(7), cycle(8), wheel(7), star(6), matching(8)):
            rep = bounds_for(g)
            res = exact_t(g, "cff", start=1)
            assert rep.lower("t") <= res.t_min <= rep.upper("t")

    def test_bounds_floor_used_by_default(self):
        res = exact_t(cycle(9), "cff")
        assert res.floor_source == "bounds"
        assert res.floor == 6 and res.t_min == 6
        assert res.searched_exhaustively == ()


class TestNodeCounts:
    """Tree sizes as regression values: the memo skips isomorphic subtrees
    but still counts every node of them."""

    @pytest.mark.parametrize("g,t,nodes", [
        (complete(9), 8, 761_360), (cycle(10), 6, 57_412), (path(11), 6, 57_526),
    ], ids=["complete(9)-t8", "cycle(10)-t6", "path(11)-t6"])
    def test_exhausted_tree_size(self, g, t, nodes):
        out = exists_cff(g, t)
        assert (out.status, out.nodes) == ("exhausted", nodes)

    def test_longest_path_tree_size(self):
        res = longest_path_cff(6)
        assert (res.status, res.n_max, res.nodes_explored) == ("complete", 10, 57_526)


class TestLongestPath:
    def test_ground_three(self):
        res = longest_path_cff(3)
        assert (res.status, res.n_max) == ("complete", 3)

    def test_ground_four(self):
        res = longest_path_cff(4)
        assert (res.status, res.n_max) == ("complete", 4)
        assert is_g_cff(res.witness, path(4))

    def test_ground_five(self):
        res = longest_path_cff(5)
        assert (res.status, res.n_max) == ("complete", 6)
        assert is_g_cff(res.witness, path(6))

    def test_ground_six(self):
        res = longest_path_cff(6)
        assert (res.status, res.n_max) == ("complete", 10)

    def test_range_check(self):
        for t in (1, SEARCH_ROW_CAP + 1):
            with pytest.raises(InvalidInputError):
                longest_path_cff(t)

    def test_ground_seven_within_budget(self):
        res = longest_path_cff(7, budget=10 ** 4)
        assert res.status == "budget-exceeded"
        assert res.n_max >= 2 and is_g_cff(res.witness, path(res.n_max))


class TestBudgetsAndDeterminism:
    def test_budget_exceeded_is_reported(self):
        out = exists_cff(cycle(9), 5, budget=10)
        assert out.status == "budget-exceeded"
        assert out.nodes == 11

    def test_exact_t_budget(self):
        res = exact_t(cycle(9), "cff", start=1, budget=20)
        assert res.status == "budget-exceeded"
        assert res.t_min is None and res.witness is None

    def test_exhausted_status_with_low_tmax(self):
        res = exact_t(cycle(9), "cff", start=1, t_max=5)
        assert res.status == "exhausted"
        assert res.searched_exhaustively == (1, 2, 3, 4, 5)

    def test_determinism(self):
        a = exact_t(wheel(8), "cff", start=1)
        b = exact_t(wheel(8), "cff", start=1)
        assert a.t_min == b.t_min
        assert a.nodes_explored == b.nodes_explored
        assert a.witness == b.witness

    def test_long_straight_descent(self):
        # a straight descent: one node per vertex and no step back
        g = path(100_000)
        out = exists_cff(g, 2, "sperner")
        assert (out.status, out.nodes) == ("found", 100_000)
        assert find_violation(out.witness, g, "sperner") is None

    def test_row_cap(self):
        with pytest.raises(InvalidInputError):
            exists_cff(path(3), 63)

    def test_row_cap_is_tight(self):
        assert exists_cff(path(3), SEARCH_ROW_CAP).status == "found"
        with pytest.raises(InvalidInputError):
            exists_cff(path(3), SEARCH_ROW_CAP + 1)


class TestOpenQuestionRefinements:
    """Exhaustion settles the cells the small-n table leaves unbolded."""

    def test_c10_needs_seven(self):
        assert exists_cff(cycle(10), 6).status == "exhausted"
        assert exact_t(cycle(10), "cff").t_min == 7

    def test_p11_needs_seven(self):
        assert exists_cff(path(11), 6).status == "exhausted"

    def test_w11_needs_eight(self):
        res = exact_t(wheel(11), "cff")
        assert (res.status, res.t_min) == ("found", 8)
        assert set(res.searched_exhaustively) == {6, 7}

    def test_two_disjunct_nine_columns_need_nine_rows(self):
        # independent confirmation of the literature value behind the table
        res = exact_t(complete(9), "cff", start=1)
        assert (res.status, res.t_min) == ("found", 9)
