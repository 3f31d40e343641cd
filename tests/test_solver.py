"""Exact search: soundness against naive enumeration, equality with the
reference kernel, small exact values, budgets, determinism."""

import os
import random
import subprocess
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
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
    exists_cff,
    longest_path_cff,
)
import gcff.solver as solver
from gcff.solver import _problem
from gcff.solver import engine
from gcff.sperner import t1

import reference_engine


#: Each property: (every edge must be Sperner, no other column may lie in an
#: edge's union or in a loop vertex's column), stated apart from gcff.core.
NAIVE_TERMS = {"cff": (True, True), "ecff": (False, True), "sperner": (True, False)}
NAIVE_CHUNK = 1 << 16


def naive_exists(g: Graph, t: int, prop: str) -> bool:
    """Ground-truth oracle: enumerate every column assignment, no symmetry
    breaking, one numpy chunk at a time; assignment i gives vertex v the
    column (i >> t*v) mod 2^t.  Each edge's Sperner and cover conditions and
    each loop's are array expressions over the chunk."""
    sperner, cover = NAIVE_TERMS[prop]
    total = 1 << (t * g.n)
    shifts = t * np.arange(g.n, dtype=np.int64)[:, None]
    for start in range(0, total, NAIVE_CHUNK):
        i = np.arange(start, min(start + NAIVE_CHUNK, total), dtype=np.int64)
        cols = (i >> shifts) & ((1 << t) - 1)
        ok = np.ones(len(i), dtype=bool)
        for a, b in g.edges:
            ca, cb = cols[a], cols[b]
            if sperner:
                ok &= (ca & ~cb != 0) & (cb & ~ca != 0)
            if cover:
                for c in set(range(g.n)) - {a, b}:
                    ok &= cols[c] & ~(ca | cb) != 0
        for v in g.loops if cover else ():
            for c in set(range(g.n)) - {v}:
                ok &= cols[c] & ~cols[v] != 0
        if ok.any():
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
                             ids=[f"{g.tag or 'graph'}-t{t}-{p}" for g, t, p in NAIVE_CASES])
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
    return sorted(range(g.n), key=lambda v: (-g.degrees[v], v))


def match_reference(g, t, budgets):
    """The kernel equals the reference on the cff search of (g, t) cut at
    each budget; returns the node count of the last walk."""
    problem = _problem(g, "cff", by_degree(g))
    args = (t, len(problem.order), problem.nbrs, problem.loops, problem.sperner,
            problem.cover, problem.zero_ok, problem.full_ok)
    for budget in budgets:
        want, want_cols, want_nodes = reference_engine.search_exists(*args, budget)
        status, cols, nodes, _ = engine.walk(t, problem, budget)
        assert (status, cols if status == "found" else None, nodes) == \
            (TestKernelMatchesReference.REF_STATUS[want], want_cols, want_nodes), budget
    return nodes


class TestKernelMatchesReference:
    """The bit-parallel kernel walks the reference kernel's tree in the same
    order: identical status, witness and node count, also when cut short."""

    REF_STATUS = {reference_engine.FOUND: "found", reference_engine.EXHAUSTED: "exhausted",
                  reference_engine.BUDGET: "budget-exceeded"}

    @pytest.mark.parametrize("budget", BUDGETS, ids=["uncut", "cut7", "cut40"])
    @pytest.mark.parametrize("g,t,prop", KERNEL_CASES,
                             ids=[f"{g.tag}-t{t}-{p}" for g, t, p in KERNEL_CASES])
    def test_search_exists(self, g, t, prop, budget):
        problem = _problem(g, prop, by_degree(g))
        status, cols, nodes, _ = engine.walk(t, problem, budget)
        want, want_cols, want_nodes = reference_engine.search_exists(
            t, len(problem.order), problem.nbrs, problem.loops, problem.sperner,
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
        status, cols, nodes, _ = engine.walk(t, problem, budget)
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
                    t, n, problem.nbrs, problem.loops, problem.sperner,
                    problem.cover, problem.zero_ok, problem.full_ok, budget)
                if budget == oracle_cap:
                    if want == reference_engine.BUDGET:
                        continue
                    budget, uncut = 10 ** 9, uncut + 1
                status, cols, nodes, _ = engine.walk(t, problem, budget)
                assert (status, cols if status == "found" else None, nodes) == \
                    (self.REF_STATUS[want], want_cols, want_nodes), \
                    (n, sorted(edges), sorted(loops), prop, t, order, budget)
                checked += 1
        assert uncut >= instances // 2 and checked > 5 * instances

    @pytest.mark.parametrize("g,t", [(complete(9), 8), (wheel(11), 7)],
                             ids=["complete(9)-t8", "wheel(11)-t7"])
    def test_dead_end_trees(self, g, t):
        """Trees where most nodes leave their child no candidate, so the
        cover scan stops early on most of them: cut at one seeded budget in
        each of six strata of [1, 4000], which keeps the reference's walks
        short."""
        rng = random.Random(100 * t + g.n)
        match_reference(g, t, [1 + round(4000 * (k + rng.random()) / 6) for k in range(6)])

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
            status, cols, nodes, _ = engine.walk(t, problem, budget)
            want, depth, want_cols, want_nodes = reference_engine.search_longest_path(
                t, cap, budget)
            assert (status == "budget-exceeded") == (want == reference_engine.BUDGET)
            assert (len(cols), cols, nodes) == (depth, want_cols, want_nodes), budget


MEMO_CASES = [(complete(7), 6), (cycle(8), 5), (wheel(8), 6), (path(10), 6), (complete(8), 7)]


class TestMemoMatchesReference:
    """Trees with isomorphic subtrees, which the kernel's memo counts once
    instead of walking: the reference walks every one of them."""

    @pytest.mark.parametrize("g,t", MEMO_CASES, ids=[f"{g.tag}-t{t}" for g, t in MEMO_CASES])
    def test_uncut_and_cut(self, g, t):
        # seeded budgets in six strata of [1, min(tree, 4000)]; on these trees
        # they stop the walk both inside a subtree the memo skips uncut and
        # after one, and the cap keeps the reference's walks short
        span = min(match_reference(g, t, [10 ** 9]), 4000)
        rng = random.Random(100 * t + g.n)
        match_reference(g, t, [1 + round(span * (k + rng.random()) / 6) for k in range(6)])

    @pytest.mark.parametrize("g,t", MEMO_CASES, ids=[f"{g.tag}-t{t}" for g, t in MEMO_CASES])
    def test_every_early_budget(self, g, t):
        """Each budget up to 150 nodes: the first skips of three- and
        four-column prefixes lie there, so some budgets stop inside them."""
        match_reference(g, t, range(1, 151))

    @pytest.mark.parametrize("g,t", MEMO_CASES, ids=[f"{g.tag}-t{t}" for g, t in MEMO_CASES])
    def test_memo_off_walks_every_node(self, g, t, monkeypatch):
        """With no prefix memoised the walk is the same, and every node of
        the tree is walked; with the memo fewer are."""
        problem = _problem(g, "cff", by_degree(g))
        status, cols, nodes, walked = engine.walk(t, problem, 10 ** 9)
        monkeypatch.setattr(engine, "MEMO_DEPTH", 0)
        assert engine.walk(t, problem, 10 ** 9) == (status, cols, nodes, nodes)
        assert walked < nodes


def memo_key(t: int, cols: list[int]) -> int:
    """The memo key `walk` gives the prefix `cols`, from the engine's tables:
    every 12-bit chunk of the row-pattern int looked up, the length tag in
    the field of pattern 0."""
    spread = engine._tables(t)[3]
    count = engine._counts()
    p = 0
    for d, c in enumerate(cols):
        p |= spread[c] << d
    return len(cols) - 1 + sum(count[p >> s & 4095] for s in range(0, 60, 12))


def random_prefix(rng: random.Random, t: int, length: int) -> list[int]:
    """A canonical prefix on t rows: each column takes some used rows and
    then the next lowest unused ones, and one in ten is empty."""
    cols, used = [], 0
    for _ in range(length):
        if rng.random() < 0.1:
            cols.append(0)
            continue
        old = sum(1 << r for r in range(used) if rng.random() < 0.5)
        new = min(t - used, rng.choice((0, 1, 1, 2, 3, t)))
        cols.append(old | ((1 << new) - 1) << used)
        used += new
    return cols


class TestMemoKey:
    """The memo's key is the prefix's canonical form: its length and the
    multiset of its row patterns, packed within the search caps."""

    @pytest.mark.parametrize("t", range(1, SEARCH_ROW_CAP + 1))
    def test_key_is_length_and_row_patterns(self, t):
        """Seeded prefixes of 1..MEMO_DEPTH columns, empty columns among
        them, share a key exactly when they have one length and one sorted
        tuple of row patterns."""
        rng = random.Random(t)
        by_key, by_form = {}, {}
        for _ in range(1500):
            cols = random_prefix(rng, t, rng.randrange(1, engine.MEMO_DEPTH + 1))
            form = (len(cols), tuple(sorted(
                sum(1 << d for d, c in enumerate(cols) if c >> r & 1) for r in range(t))))
            key = memo_key(t, cols)
            assert by_key.setdefault(key, form) == form, (t, cols)
            assert by_form.setdefault(form, key) == key, (t, cols)
        # distinct prefixes meet on one key, and prefixes of every length
        # are told apart
        assert len(by_key) < 1500
        assert {n for n, _ in by_form} == set(range(1, engine.MEMO_DEPTH + 1))

    def test_packing_holds_the_caps(self):
        """Five 12-bit chunks hold 15 rows of 4-bit fields, a 4-bit field a
        pattern of MEMO_DEPTH columns, and a 4-bit count field t rows, so
        raising either cap fails here instead of merging keys."""
        assert len(engine._counts()) == 1 << 12
        assert 5 * 12 // 4 >= SEARCH_ROW_CAP
        assert 4 >= engine.MEMO_DEPTH
        assert SEARCH_ROW_CAP < 16
        spread = engine._tables(SEARCH_ROW_CAP)[3]
        assert spread[-1] << engine.MEMO_DEPTH - 1 < 1 << 60

    def test_import_builds_no_table(self):
        """The kernel's tables are built on a search's first use, not when
        the CLI is imported."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        code = ("import gcff.cli; from gcff.solver import engine; "
                "print(engine._tables.cache_info().currsize, engine._counts.cache_info().currsize)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60, check=True)
        assert proc.stdout.split() == ["0", "0"]


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

    @pytest.mark.parametrize("g", [wheel(7), windmill(3, 3), Graph(5, cycle(5).edges, frozenset({2}))],
                             ids=["wheel7", "windmill3_3", "c5_loop"])
    def test_depth_ranges_only_under_cover(self, g):
        """Every record holds, per depth i, the earlier depths of its
        neighbours; cff and ecff records also hold, per such depth j, the
        other earlier depths as two ranges, most recent first.  A sperner
        record, whose walk never reads them, holds no ranges.  Under the
        cover rule only a neighbour j with no loop whose first neighbour is
        at depth i still needs its subsets ruled out there."""
        order = by_degree(g)
        pos = {v: i for i, v in enumerate(order)}
        earlier = tuple(tuple(sorted(pos[u] for u in g.adj[v] if pos[u] < i))
                        for i, v in enumerate(order))
        first = [min(pos[u] for u in g.adj[v]) for v in order]
        lone = tuple(tuple(j for j in nb if first[j] == i and order[j] not in g.loops)
                     for i, nb in enumerate(earlier))
        for prop in ("cff", "ecff", "sperner"):
            problem = _problem(g, prop, order)
            assert problem.nbrs == earlier, prop
            assert problem.lone == (lone if prop != "sperner" else earlier), prop
            want = tuple(tuple((j, range(i - 1, j, -1), range(j - 1, -1, -1)) for j in nb)
                         for i, nb in enumerate(earlier))
            assert problem.scans == (want if prop != "sperner" else ()), prop
            for i, scan in enumerate(problem.scans):
                for j, later, below in scan:
                    assert [*later, *below] == sorted(set(range(i)) - {j}, reverse=True)

    def test_long_path_record_is_linear(self):
        """The cff record of a 300,000-vertex path states every cover scan as
        two ranges, so building it is linear in n."""
        problem = _problem(path(300_000), "cff", range(300_000))
        assert len(problem.scans) == 300_000
        for i, scan in enumerate(problem.scans):
            assert len(scan) == (i > 0)
            for j, later, below in scan:
                assert (j, type(later), type(below)) == (i - 1, range, range)


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
        assert exact_t(complete(4), "sperner", start=1).t_min == t1(4) == 4
        assert exact_t(cycle(5), "sperner", start=1).t_min == t1(3) == 3
        assert exact_t(cycle(6), "sperner", start=1).t_min == 2

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
        (complete(8), 7, 13_858), (wheel(9), 6, 2_096),
    ], ids=["complete(9)-t8", "cycle(10)-t6", "path(11)-t6", "complete(8)-t7", "wheel(9)-t6"])
    def test_exhausted_tree_size(self, g, t, nodes):
        out = exists_cff(g, t)
        assert (out.status, out.nodes) == ("exhausted", nodes)

    def test_longest_path_tree_size(self):
        res = longest_path_cff(6)
        assert (res.status, res.n_max, res.nodes_explored) == ("complete", 10, 57_526)

    @pytest.mark.parametrize("g,t,status,walked", [
        (complete(9), 8, "exhausted", 59_508), (cycle(10), 6, "exhausted", 11_208),
        (path(10), 6, "found", 6_742), (complete(8), 7, "exhausted", 3_870),
    ], ids=["complete(9)-t8", "cycle(10)-t6", "path(10)-t6", "complete(8)-t7"])
    def test_walked_nodes(self, g, t, status, walked):
        """Nodes walked: the tree less the subtrees the memo skipped."""
        out = exists_cff(g, t)
        assert (out.status, out.walked) == (status, walked)

    def test_longest_path_walked_nodes(self):
        res = longest_path_cff(6)
        assert (res.status, res.n_max, res.walked) == ("complete", 10, 11_227)


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
        assert [(lv.t, lv.status, lv.nodes) for lv in res.levels] == [
            (1, "exhausted", 0), (2, "exhausted", 2), (3, "exhausted", 8),
            (4, "exhausted", 36), (5, "exhausted", 430)]

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

    def test_t_max_below_the_floor(self):
        with pytest.raises(InvalidInputError, match="t_max=3 below the starting point 5"):
            exact_t(path(5), t_max=3)

    def test_unknown_property(self):
        for call in (lambda: exists_cff(path(3), 2, "disjunct"),
                     lambda: exact_t(path(3), "disjunct")):
            with pytest.raises(InvalidInputError, match="unknown property"):
                call()

    def test_row_cap_is_tight(self):
        assert exists_cff(path(3), SEARCH_ROW_CAP).status == "found"
        with pytest.raises(InvalidInputError):
            exists_cff(path(3), SEARCH_ROW_CAP + 1)


class TestLevels:
    """A solve's record of its effort, one entry per row count searched."""

    CASES = [(cycle(9), "cff", 10 ** 9), (wheel(8), "cff", 10 ** 9), (matching(8), "ecff", 10 ** 9),
             (cycle(9), "cff", 300), (complete(5), "sperner", 10 ** 9)]

    @pytest.mark.parametrize("g,prop,budget", CASES,
                             ids=[f"{g.tag}-{p}-b{b}" for g, p, b in CASES])
    def test_levels_account_for_the_solve(self, g, prop, budget):
        """Level nodes sum to the total, level times fit in the wall time,
        and the exhausted levels are the row counts ruled out by search."""
        res = exact_t(g, prop, start=1, budget=budget)
        assert sum(lv.nodes for lv in res.levels) == res.nodes_explored
        assert all(lv.wall_s >= 0 for lv in res.levels)
        assert sum(lv.wall_s for lv in res.levels) <= res.wall_time
        ts = [lv.t for lv in res.levels]
        assert ts == list(range(res.floor, res.floor + len(ts)))
        exhausted = tuple(lv.t for lv in res.levels if lv.status == "exhausted")
        assert exhausted == res.searched_exhaustively == tuple(ts[:-1])
        assert res.levels[-1].status == res.status
        if res.status == "found":
            assert res.levels[-1].t == res.t_min

    @pytest.mark.parametrize("g,prop,budget", CASES,
                             ids=[f"{g.tag}-{p}-b{b}" for g, p, b in CASES])
    def test_levels_are_the_outcomes(self, g, prop, budget, monkeypatch):
        """Each level is the `SearchOutcome` `exists_cff` returned for its row
        count, and the last one carries the result's witness."""
        returned = []
        search = solver.exists_cff
        monkeypatch.setattr(solver, "exists_cff",
                            lambda *a, **k: returned.append(search(*a, **k)) or returned[-1])
        res = exact_t(g, prop, start=1, budget=budget)
        assert len(res.levels) == len(returned)
        assert all(lv is out for lv, out in zip(res.levels, returned))
        assert res.levels[-1].witness is res.witness


class TestSharedRecord:
    """`exists_cff` keeps the last search record it built, so the levels of
    one solve share it; results are those of a freshly built record."""

    @staticmethod
    def fresh(g, t, prop, budget=10 ** 9):
        """(status, nodes, witness) of a search on a record built anew."""
        status, cols, nodes, _ = engine.walk(t, _problem(g, prop, by_degree(g)), budget)
        witness = None
        if status == "found":
            by_vertex = [0] * g.n
            for v, c in zip(by_degree(g), cols):
                by_vertex[v] = c
            witness = IncidenceMatrix(t, tuple(by_vertex))
        return status, nodes, witness

    def test_multilevel_solve_builds_one_record(self, monkeypatch):
        calls = []
        build = solver._problem
        monkeypatch.setattr(solver, "_problem", lambda *a: calls.append(a[1]) or build(*a))
        res = exact_t(path(7), "cff", start=1)
        assert (res.t_min, len(res.levels)) == (6, 6)
        assert calls == ["cff"]
        res = exact_t(path(7), "sperner", start=1)
        assert len(res.levels) == 2 and calls == ["cff", "sperner"]

    def test_interleaved_calls_equal_fresh_ones(self):
        graphs = [cycle(7), wheel(6)]
        props = ["cff", "ecff", "sperner"]
        want = {(i, prop, t): self.fresh(g, t, prop)
                for i, g in enumerate(graphs) for prop in props for t in range(1, 6)}
        rng = random.Random(23)
        # runs of one (graph, property) pair reuse the record, and every
        # switch between pairs replaces it
        calls = [key for key in want for _ in range(rng.randrange(1, 3))]
        rng.shuffle(calls)
        for i, prop, t in calls:
            out = exists_cff(graphs[i], t, prop)
            assert (out.status, out.nodes, out.witness) == want[i, prop, t], (i, prop, t)

    def test_equal_graphs_each_solve(self):
        edges = frozenset(cycle(8).edges)
        a, b = Graph(8, edges), Graph(8, edges)
        assert a == b and a is not b
        ra, rb = exact_t(a, "cff", start=1), exact_t(b, "cff", start=1)
        assert (ra.t_min, ra.nodes_explored) == (rb.t_min, rb.nodes_explored)
        assert ra.t_min == 6 and ra.witness == rb.witness
        assert is_g_cff(rb.witness, b)

    def test_short_lived_graphs_never_share(self):
        """Graphs built and dropped in turn, which the allocator may place at
        one address, each get their own record."""
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randrange(2, 7)
            edges = frozenset(e for e in combinations(range(n), 2) if rng.random() < 0.5)
            t = rng.randrange(1, 5)
            want = self.fresh(Graph(n, edges), t, "cff")
            out = exists_cff(Graph(n, edges), t, "cff")
            assert (out.status, out.nodes, out.witness) == want, (n, sorted(edges), t)

    def test_plain_set_of_edges_solves(self):
        g = Graph(4, {(0, 1), (1, 2), (2, 3)})
        with pytest.raises(TypeError):
            hash(g)
        res = exact_t(g, "cff", start=1)
        assert (res.status, res.t_min) == ("found", 4)
        assert is_g_cff(res.witness, path(4))

    @pytest.mark.parametrize("budget,status,nodes,exhausted", [
        (1, "budget-exceeded", 2, (1,)), (5, "budget-exceeded", 6, (1, 2)),
        (40, "budget-exceeded", 41, (1, 2, 3)), (475, "budget-exceeded", 476, (1, 2, 3, 4)),
        (476, "budget-exceeded", 477, (1, 2, 3, 4, 5)), (1523, "budget-exceeded", 1524, (1, 2, 3, 4, 5)),
        (1524, "found", 1524, (1, 2, 3, 4, 5)),
    ])
    def test_budget_carried_across_levels(self, budget, status, nodes, exhausted):
        """The budget a level leaves passes to the next, and a stop counts the
        node over budget: C_9's levels hold 0, 2, 8, 36, 430 and 1,048 nodes."""
        res = exact_t(cycle(9), "cff", start=1, budget=budget)
        assert (res.status, res.nodes_explored, res.searched_exhaustively) == \
            (status, nodes, exhausted)


class TestOpenQuestionRefinements:
    """Exhaustion settles the cells the small-n table leaves unbolded."""

    def test_c10_needs_seven(self):
        assert exists_cff(cycle(10), 6).status == "exhausted"
        assert exact_t(cycle(10), "cff").t_min == 7

    def test_p11_needs_seven(self):
        assert exists_cff(path(11), 6).status == "exhausted"

    def test_w11_needs_eight(self):
        # the bounds floor is 7 (the cycle C_11 inside); start below it so
        # that search proves both levels
        res = exact_t(wheel(11), "cff", start=6)
        assert (res.status, res.t_min) == ("found", 8)
        assert set(res.searched_exhaustively) == {6, 7}

    def test_two_disjunct_nine_columns_need_nine_rows(self):
        # independent confirmation of the literature value behind the table
        res = exact_t(complete(9), "cff", start=1)
        assert (res.status, res.t_min) == ("found", 9)
