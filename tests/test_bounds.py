"""Theorem bounds, the 2-disjunct table, and max-product partitions."""

import random
from itertools import combinations
from math import comb, prod

import pytest

from gcff.bounds import Bound, bounds_for, t2_lower, t2_upper
from gcff.constructions import METHODS, class_sizes, construct, table
from gcff.errors import InvalidInputError, ResourceLimitError
from gcff.graphs import (
    Graph,
    chromatic_number,
    complete,
    complete_bipartite,
    cycle,
    friendship,
    hamming,
    loops_graph,
    make_family,
    matching,
    path,
    sperner_graph,
    star,
    wheel,
    windmill,
)
from gcff.graycode import cycle_cff_rows, path_cycle_cff
from gcff.solver import exact_t, exists_cff
from gcff.sperner import doubling_increment, t1

# Printed small-n values: (value, exact?) per family; non-exact cells print
# the best upper bound.
TABLE4 = {
    "path": {3: (3, True), 4: (4, True), 5: (5, True), 6: (5, True),
             7: (6, True), 8: (6, True), 9: (6, True), 10: (6, True),
             11: (7, False), 12: (7, False)},
    "cycle": {3: (3, True), 4: (4, True), 5: (5, True), 6: (5, True),
              7: (6, True), 8: (6, True), 9: (6, True), 10: (7, False),
              11: (7, False), 12: (7, False)},
    "wheel": {3: (3, True), 4: (4, True), 5: (5, True), 6: (6, True),
              7: (6, True), 8: (7, True), 9: (7, True), 10: (7, True),
              11: (8, False), 12: (8, False)},
    "complete": {n: (v, True)
                 for n, v in zip(range(3, 13), [3, 4, 5, 6, 7, 8, 9, 9, 9, 9])},
}

FAMILY = {"path": path, "cycle": cycle, "wheel": wheel, "complete": complete}


class TestT2Table:
    def test_exact_entries(self):
        assert t2_upper(12) == (9, True)
        assert t2_upper(13) == (10, True)
        assert t2_upper(8) == (8, True)

    def test_non_exact_entries(self):
        assert t2_upper(20) == (12, False)
        assert t2_upper(26) == (13, False)

    def test_interpolation(self):
        assert t2_upper(14) == (11, False)
        assert t2_upper(15) == (11, False)
        assert t2_upper(18) == (12, False)

    def test_monotone(self):
        vals = [t2_upper(n)[0] for n in range(3, 400)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_beyond_table(self):
        v, exact = t2_upper(254)
        assert not exact and v == 24  # one-row step from the n=253 entry
        v2, _ = t2_upper(10 ** 6)
        assert v2 <= 5.512 * 20 + 1

    def test_lower(self):
        assert t2_lower(12) == 9
        assert t2_lower(16) == 10
        assert t2_lower(400) == 11 or t2_lower(400) >= 11

    def test_requires_three(self):
        with pytest.raises(InvalidInputError):
            t2_upper(2)


# Cells the paper leaves open that the bounds close: the longest-path search
# floor t(P_n) >= 7 for n >= 11 meets the path and cycle ceilings, and W_12's
# rim C_11 is then exact one above its Sperner floor.
EXACT_BEYOND_PAPER = {("path", 11), ("path", 12), ("cycle", 11), ("cycle", 12), ("wheel", 12)}


class TestTable4Regression:
    def test_every_cell(self):
        for fam, cells in TABLE4.items():
            for n, (printed, bold) in cells.items():
                rep = bounds_for(FAMILY[fam](n))
                lo, up = rep.lower("t"), rep.upper("t")
                assert up == printed, (fam, n, lo, up)
                assert (lo == up) == (bold or (fam, n) in EXACT_BEYOND_PAPER), (fam, n, lo, up)
        assert not any(TABLE4[fam][n][1] for fam, n in EXACT_BEYOND_PAPER)


class TestFamilyBounds:
    def test_c12_figure_interval(self):
        rep = bounds_for(cycle(12))
        assert (rep.lower("t"), rep.upper("t")) == (7, 7)

    def test_k12_exact(self):
        assert bounds_for(complete(12)).exact_value("t") == 9

    def test_star_exact(self):
        for n in (3, 5, 9, 20, 64):
            rep = bounds_for(star(n))
            assert rep.exact_value("t") == t1(n - 1) + 1
            assert rep.exact_value("t_e") == t1(n - 1)

    def test_star_meets_trivial_lower_bound(self):
        # one past a central binomial: the star needs exactly the Sperner floor
        for x in (3, 4, 5):
            n = comb(x, x // 2) + 1
            rep = bounds_for(star(n))
            assert rep.exact_value("t") == t1(n)

    def test_star_plus_universal(self):
        """A hub over the star on 9 vertices is a graph no family builds: its
        ceiling is the coloring row over classes of 1, 1 and 8 vertices."""
        g = Graph(10, frozenset({(0, v) for v in range(1, 10)} | {(1, v) for v in range(2, 10)}))
        rep = bounds_for(g)
        assert g.family == (None, ()) and rep.upper("t") == t1(8) + 2
        assert Bound("t", "upper", t1(8) + 2, "coloring-construction") in rep.bounds

    def test_cataloged_p10_bounds_shorter_paths(self):
        # a sub-path of the 6x10 path witness is a witness
        for n in range(3, 21):
            explicit = [b for b in bounds_for(path(n)).bounds
                        if b.source == "explicit-path10"]
            if n <= 10:
                assert explicit == [Bound("t", "upper", 6, "explicit-path10")], n
            else:
                assert explicit == [], n

    def test_matching_brackets(self):
        rep8 = bounds_for(matching(8))
        # the cataloged 5x8 witness E8 meets the Sperner floor
        assert (rep8.lower("t"), rep8.upper("t")) == (5, 5)
        assert rep8.exact_value("t_e") == t1(4) == 4
        assert bounds_for(matching(6)).exact_value("t") == 5
        assert bounds_for(matching(10)).exact_value("t") == 6

    def test_matching_doubling_gap_exact(self):
        for m in range(2, 40):
            rep = bounds_for(matching(2 * m))
            if doubling_increment(m) == 2:
                assert rep.exact_value("t") == t1(m) + 2
            else:
                assert rep.lower("t") >= t1(m) + 1
                # m = 4 is the cataloged E8, one row below the pendant bound
                assert rep.upper("t") == (5 if m == 4 else t1(m) + 2)

    def test_windmill(self):
        rep = bounds_for(windmill(4, 3))
        assert rep.upper("t") == t1(3) + 3 + 1
        assert rep.lower("t") >= t1(9) + 1

    def test_friendship_exact_when_gap_two(self):
        for n in range(2, 40):
            rep = bounds_for(windmill(3, n))
            assert rep.upper("t") == t1(n) + 3
            if doubling_increment(n) == 2:
                assert rep.exact_value("t") == t1(n) + 3

    def test_loops(self):
        rep = bounds_for(loops_graph(12))
        assert rep.exact_value("t") == 6
        assert rep.exact_value("t_e") == 6

    def test_hypercubes(self):
        assert bounds_for(hamming([2, 2])).exact_value("t") == 4
        assert bounds_for(hamming([2, 2, 2])).exact_value("t") == 6

    def test_sperner_graph_ts(self):
        rep = bounds_for(sperner_graph(3))
        assert rep.exact_value("t_s") == 3

    def test_sperner_graph_t_upper_is_trivial_two_disjunct(self):
        # t(2, n) on the 2^z - 2 vertices left once the empty and full sets go
        for z, upper in zip(range(3, 7), (6, 11, 15, 17)):
            rep = bounds_for(sperner_graph(z))
            assert rep.is_consistent(), z
            assert rep.upper("t") == upper, z
        rep = bounds_for(sperner_graph(3))
        assert rep.lower("t") <= exact_t(sperner_graph(3)).t_min == 5 <= rep.upper("t")

    def test_ts_chromatic(self):
        assert bounds_for(cycle(9)).exact_value("t_s") == t1(3)
        assert bounds_for(complete(12)).exact_value("t_s") == t1(12)
        assert bounds_for(wheel(8)).exact_value("t_s") == t1(4)

    def test_ts_untagged_up_to_the_chromatic_solver_limit(self):
        g = Graph(18, cycle(18).edges)  # an untagged even cycle: chi = 2
        assert g.family == (None, ())
        assert bounds_for(g).exact_value("t_s") == t1(2) == 2

    def test_generic_graph_sources(self):
        g = Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)}))
        rep = bounds_for(g)
        sources = {b.source for b in rep.bounds}
        assert "trivial-sperner" in sources
        assert "trivial-two-disjunct" in sources
        assert rep.lower("t_e") == rep.lower("t")  # min degree 2 relation

    def test_isolated_vertices_stripped(self):
        g = Graph(6, cycle(4).edges)  # C_4 plus two isolated vertices
        rep = bounds_for(g)
        assert rep.upper("t") == bounds_for(cycle(4)).upper("t")


class TestDegenerateFamilyMembers:
    def test_path2_is_k2(self):
        assert bounds_for(path(2)).exact_value("t") == 2
        res = exact_t(path(2))
        assert (res.status, res.t_min) == ("found", 2)

    def test_single_blade_windmill_is_complete(self):
        for k in range(3, 7):
            rep, ref = bounds_for(windmill(k, 1)), bounds_for(complete(k))
            assert (rep.lower("t"), rep.upper("t")) == (ref.lower("t"), ref.upper("t")), k

    def test_one_edge_and_no_core(self):
        """sperner(2) is one edge and two isolated vertices: the edge's floor
        and the coloring ceiling over all four vertices bracket its t of 3."""
        g = sperner_graph(2)
        rep = bounds_for(g)
        assert (g.core, rep.lower("t"), rep.upper("t")) == (None, 2, construct(g)[0].t) == (None, 2, 4)
        assert exact_t(g, "cff", start=1, use_bounds=False).t_min == 3

    def test_edgeless_graphs_have_one_row(self):
        """With no edge one row of anything is a CFF: the report states t = 1
        exactly, and the coloring row builds it."""
        for g in (complete(1), sperner_graph(1), Graph(1), Graph(5), Graph(30)):
            rep, (m, used) = bounds_for(g), construct(g)
            assert (rep.exact_value("t"), m.t, m.n, used) == (1, 1, g.n, "coloring"), g
            assert [b.value for b in rep.bounds if b.source == "coloring-construction"] == [1], g
            assert exact_t(g, "cff", start=1, use_bounds=False).t_min == 1, g

    def test_one_edge_and_no_colouring_states_nothing(self):
        """One edge among 30 vertices of no family: beyond DSATUR's reach there
        is no colouring to count, so the report is empty."""
        assert bounds_for(Graph(30, frozenset({(0, 1)}))).bounds == ()


class TestConsistencyAndCrossChecks:
    def test_reports_consistent(self):
        graphs = [path(11), cycle(17), wheel(9), star(33), matching(14),
                  windmill(5, 4), windmill(3, 7), hamming([3, 3]),
                  complete(30), complete_bipartite(4, 7), loops_graph(9)]
        for g in graphs:
            assert bounds_for(g).is_consistent(), g.family

    def test_construction_rows_match_family_uppers(self):
        from gcff.constructions import add_universal, star_cff, windmill_cff

        for n in range(3, 30):
            assert star_cff(n).t == bounds_for(star(n)).upper("t")
        for n in range(3, 60):
            assert path_cycle_cff(n).t == cycle_cff_rows(n)
            assert cycle_cff_rows(n) == bounds_for(cycle(n)).upper("t")
        for k in range(3, 7):
            for n in range(2, 6):
                got = windmill_cff(k, n).t
                assert got == bounds_for(windmill(k, n)).upper("t")
        for n in range(4, 12):
            m = add_universal(path_cycle_cff(n), cycle(n))
            assert m.t == bounds_for(wheel(n + 1)).upper("t")

    def test_lower_bounds_below_construction_rows(self):
        from gcff.constructions import star_cff, windmill_cff

        for n in range(3, 40):
            assert bounds_for(star(n)).lower("t") <= star_cff(n).t
            assert bounds_for(cycle(n)).lower("t") <= path_cycle_cff(n).t
        for k in range(3, 7):
            for n in range(2, 6):
                assert bounds_for(windmill(k, n)).lower("t") <= windmill_cff(k, n).t


def _hamming_dims(limit: int, prefix=()) -> list[tuple[int, ...]]:
    """Every ordered tuple of dimensions >= 2 whose product is at most limit."""
    out = []
    for d in range(2, limit // prod(prefix) + 1):
        out += [prefix + (d,)] + _hamming_dims(limit, prefix + (d,))
    return out


# Every CLI family spec on at most 40 vertices, the edgeless complete:1 and
# sperner:1 among them, plus paths and cycles to 60 and the windmills where
# the two-disjunct inner block beats the identity.
TABLE_SPECS = (
    [f"path:{n}" for n in range(2, 61)] + [f"cycle:{n}" for n in range(3, 61)]
    + [f"star:{n}" for n in range(2, 41)] + [f"complete:{n}" for n in range(1, 41)]
    + [f"loops:{n}" for n in range(1, 41)] + [f"wheel:{n}" for n in range(3, 41)]
    + [f"matching:{n}" for n in range(2, 41, 2)]
    + [f"bipartite:{a},{b}" for a in range(1, 40) for b in range(1, 41 - a)]
    + [f"windmill:{k},{b}" for k in range(2, 41) for b in range(1, 40) if (k - 1) * b + 1 <= 40]
    + [f"friendship:{b}" for b in range(1, 20)] + ["windmill:30,2", "windmill:31,2"]
    + ["hamming:" + "x".join(map(str, dims)) for dims in _hamming_dims(40)]
    + [f"sperner:{z}" for z in range(1, 6)]
)
# ceilings that no construction here builds
UNBUILT = {"trivial-two-disjunct", "two-disjunct-table", "pendant-two-rows",
           "windmill-two-disjunct-inner"}


class TestEveryTableRowIsABuiltCeiling:
    def test_rows_build_and_bound(self):
        for spec in TABLE_SPECS:
            g = make_family(spec)
            name, args = g.family
            rep = bounds_for(g)
            stated = {(b.quantity, b.kind, b.value, b.source) for b in rep.bounds}
            counts = []
            for row in table(name, args, g.n):
                rows = row.rows(class_sizes(g))
                if rows is None:  # a graph with no colouring to count
                    continue
                m, used = construct(g, row.method)
                assert (used, m.t) == (row.method, rows), (spec, row.source)
                assert ("t", "upper", rows, row.source) in stated, (spec, row.source)
                assert rep.lower("t") <= rows, (spec, row.source)
                counts.append(rows)
            if counts and rep.upper("t") != min(counts):
                at_ceiling = {b.source for b in rep.bounds
                              if (b.quantity, b.kind, b.value) == ("t", "upper", rep.upper("t"))}
                assert at_ceiling & UNBUILT, (spec, rep.upper("t"), min(counts), at_ceiling)

    def test_graphs_no_family_builds(self):
        """File copies of K_{a,b}, seeded random graphs (the sparse ones with
        isolated vertices) and the Sperner graphs DSATUR colours: the stated
        coloring ceiling is the built count, also where one edge leaves no
        core, and no built row is below the smallest ceiling; an edgeless
        graph states its one row."""
        rng = random.Random(5)
        graphs = [Graph.from_text(complete_bipartite(a, b).to_text())
                  for a in range(2, 9) for b in range(a, 9)]
        for _ in range(60):
            n, p = rng.randrange(4, 21), rng.choice([0.1, 0.2, 0.5, 0.8])
            graphs.append(Graph(n, frozenset(e for e in combinations(range(n), 2) if rng.random() < p)))
        graphs += [sperner_graph(1), sperner_graph(2), sperner_graph(3), sperner_graph(4)]
        padded = 0
        for g in graphs:
            rep = bounds_for(g)
            stated = [b.value for b in rep.bounds
                      if (b.quantity, b.kind, b.source) == ("t", "upper", "coloring-construction")]
            built = {row.method: construct(g, row.method)[0].t for row in table(*g.family, g.n)}
            assert stated == [built["coloring"]], g.to_text()
            assert rep.upper("t") <= min(built.values()), g.to_text()
            padded += g.core is not None and g.core is not g
        assert padded >= 5

    @pytest.mark.parametrize("build", [path, cycle])
    def test_coloring_row_is_never_the_lowest_path_or_cycle_ceiling(self, build):
        """The path and cycle intervals the wheel, cycle and Hamming bounds read
        are counted with no colouring, which leaves the coloring row out."""
        for n in range(3, 2001):
            g = build(n)
            name, args = g.family
            rows = table(name, args, n)
            others = min(r.rows(None) for r in rows if r.method != "coloring")
            assert next(r for r in rows if r.method == "coloring").rows(class_sizes(g)) >= others, n


# Every CLI family on at most 8 vertices.
AUDIT_SPECS = (
    [f"{fam}:{n}" for fam in ("path", "star", "complete") for n in range(2, 9)]
    + [f"{fam}:{n}" for fam in ("cycle", "wheel") for n in range(3, 9)]
    + [f"matching:{n}" for n in range(2, 9, 2)]
    + [f"bipartite:{a},{b}" for a in range(1, 8) for b in range(1, 9 - a)]
    + [f"windmill:{k},{b}" for k in range(2, 9) for b in range(1, 8) if (k - 1) * b + 1 <= 8]
    + ["hamming:2x2", "hamming:2x3", "hamming:2x2x2", "loops:6", "sperner:3"]
)
PROPERTY = {"t": "cff", "t_e": "ecff", "t_s": "sperner"}


class TestEveryBoundAgainstTheSolver:
    def test_each_bound_brackets_the_exact_value(self):
        for spec in AUDIT_SPECS:
            g = make_family(spec)
            rep = bounds_for(g)
            for q, prop in PROPERTY.items():
                stated = [b for b in rep.bounds if b.quantity == q]
                if not stated:
                    continue
                value = exact_t(g, prop, start=1, use_bounds=False).t_min
                for b in stated:
                    holds = b.value <= value if b.kind == "lower" else b.value >= value
                    assert holds, (spec, b, value)
                    assert not b.exact or b.value == value, (spec, b, value)


    def test_loops_at_vertices_with_edges_add_no_cff_rule(self):
        """Seeded graphs on 3-7 vertices with loops only where a vertex has an
        edge: t is the loopless graph's, each stated bound brackets the exact
        value, and `construct` builds the stated coloring ceiling."""
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randrange(3, 8)
            edges = frozenset(e for e in combinations(range(n), 2) if rng.random() < 0.5) | {(0, 1)}
            ends = sorted({v for e in edges for v in e})
            g = Graph(n, edges, frozenset(rng.sample(ends, rng.randrange(1, len(ends) + 1))))
            value = {q: exact_t(g, prop, start=1, use_bounds=False).t_min for q, prop in PROPERTY.items()}
            assert value["t"] == exact_t(Graph(n, edges), "cff", start=1, use_bounds=False).t_min, g
            rep = bounds_for(g)
            for b in rep.bounds:
                holds = b.value <= value[b.quantity] if b.kind == "lower" else b.value >= value[b.quantity]
                assert holds, (g, b, value)
            m, used = construct(g)
            assert (used, m.t) == ("coloring", rep.upper("t")), g

class TestGraphIndependentBounds:
    def test_each_stated_once(self):
        for spec in AUDIT_SPECS + ["path:100", "wheel:30", "hamming:4x4", "sperner:5"]:
            sources = [b.source for b in bounds_for(make_family(spec)).bounds]
            if spec == "loops:6":
                assert "trivial-sperner" not in sources, spec
                continue
            assert sources.count("trivial-sperner") == 1, spec
            assert sources.count("sperner-chromatic") in (0, 2), spec
            assert sources.count("trivial-two-disjunct") == (make_family(spec).n > 2), spec

    def test_hamming_12x12_upper_is_trivial_two_disjunct(self):
        rep = bounds_for(hamming([12, 12]))
        for q in ("t", "t_e"):
            assert rep.upper(q) == 22, q  # the Gray transversal gives 24
        assert Bound("t", "upper", 22, "trivial-two-disjunct") in rep.bounds

    def test_two_blade_windmills_upper(self):
        for k in (30, 31):
            assert bounds_for(windmill(k, 2)).upper("t") == 17, k  # construction: 18

    def test_sperner3_central_binomial_floor(self):
        # six non-isolated vertices, and C(4, 2) = 6
        g = sperner_graph(3)
        rep = bounds_for(g)
        assert (rep.lower("t"), rep.lower("t_e")) == (5, 5)
        assert Bound("t", "lower", 5, "central-binomial") in rep.bounds
        assert exists_cff(g, 4).status == "exhausted"
        assert exists_cff(g, 5).status == "found"

    def test_sperner_chromatic_exactly_when_chromatic_number_answers(self):
        graphs = [make_family("sperner:3"), make_family("sperner:4"),
                  Graph(18, cycle(18).edges), Graph(21, complete(21).edges)]
        answered = []
        for g in graphs:
            stated = [(b.kind, b.value, b.exact) for b in bounds_for(g).bounds
                      if (b.quantity, b.source) == ("t_s", "sperner-chromatic")]
            try:
                want = t1(chromatic_number(g))
            except ResourceLimitError:
                assert stated == [], g.family
                continue
            assert stated == [("lower", want, True), ("upper", want, True)], g.family
            answered.append(want)
        assert answered == [3, 4, 2]  # complete(21), untagged, is past DSATUR's reach

    def test_two_vertex_reports_agree(self):
        # every spelling of K_2 gets the star's report
        want = {"t": (2, 2), "t_e": (1, 1), "t_s": (2, 2)}
        star_report = bounds_for(make_family("star:2")).bounds
        for spec in ("path:2", "complete:2", "matching:2", "hamming:2", "star:2",
                     "bipartite:1,1", "windmill:2,1"):
            rep = bounds_for(make_family(spec))
            assert {q: (rep.lower(q), rep.upper(q)) for q in want} == want, spec
            assert rep.bounds == star_report, spec
        assert bounds_for(Graph(2, frozenset({(0, 1)}))).bounds == star_report


def _answers(g: Graph):
    """g's family, full report and `construct` result for auto and every method."""
    built = {}
    for method in ("auto",) + METHODS:
        try:
            m, used = construct(g, method)
            built[method] = (used, m)
        except (InvalidInputError, ResourceLimitError) as exc:
            built[method] = str(exc)
    rep = bounds_for(g)
    return g.family, rep.graph_id, rep.bounds, built


class TestOneFamilyPerGraph:
    """A graph's family is renamed as it is built, so one labelled graph gets
    one family, one report and one matrix however it was spelled."""

    SPELLINGS = [
        [star(31), windmill(2, 30), complete_bipartite(1, 30)],
        [star(6), windmill(2, 5), complete_bipartite(1, 5)],
        [complete(3), wheel(3), windmill(3, 1), friendship(1)],
        [star(2), path(2), complete(2), matching(2), hamming([2])],
    ]

    def test_one_dimensional_hamming_is_complete(self):
        """hamming(k) is K_k with the same labels: the same family, report
        and matrices as complete(k), not a wider interval and the gray code."""
        for k in range(3, 41):
            assert _answers(hamming([k])) == _answers(complete(k)), k

    @pytest.mark.parametrize("spellings", SPELLINGS, ids=lambda gs: gs[0].tag)
    def test_every_spelling_answers_alike(self, spellings):
        answers = [_answers(g) for g in spellings]
        for g, got in zip(spellings[1:], answers[1:]):
            assert (g.n, g.edges) == (spellings[0].n, spellings[0].edges)
            assert got == answers[0], g.family
