"""Explicit constructions: coloring, star, universal vertex, doubling,
windmill, catalog entries, isolated-vertex padding."""

import random
from itertools import combinations
from math import prod

import pytest

from gcff import constructions
from gcff.constructions import (
    CATALOG,
    METHODS,
    add_universal,
    catalog,
    construct,
    double_cycle,
    double_path,
    from_coloring,
    star_cff,
    windmill_cff,
    with_isolated_vertices,
)
from gcff.core import IncidenceMatrix, find_violation, is_g_cff
from gcff.errors import InvalidInputError
from gcff.graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    make_family,
    matching,
    path,
    star,
    wheel,
    windmill,
)
from gcff.graycode import is_cyclic, path_cycle_cff, product_matrix, reflected
from gcff.sperner import t1


def random_graph(rng, n, p=0.5) -> Graph:
    edges = frozenset(e for e in combinations(range(n), 2) if rng.random() < p)
    return Graph(n, edges)


class TestFromColoring:
    def test_c6_bipartition(self):
        m = from_coloring(cycle(6))  # classes {0, 2, 4} and {1, 3, 5}
        assert m.t == 2 * t1(3) == 6
        assert is_g_cff(m, cycle(6))

    def test_k22(self):
        m = from_coloring(complete_bipartite(2, 2))
        assert m.t == t1(2) + t1(2) == 4
        assert is_g_cff(m, complete_bipartite(2, 2))

    def test_c5_three_classes(self):
        m = from_coloring(cycle(5))
        assert m.t == t1(2) + t1(2) + 1 == 5
        assert is_g_cff(m, cycle(5))

    def test_complete_graph_gives_identity_rows(self):
        m = from_coloring(complete(4))
        assert m.t == 4
        assert is_g_cff(m, complete(4))

    def test_random_graphs_row_formula(self):
        """One row block per colour class of the graph without its isolated
        vertices where at least 3 vertices remain, else of the whole graph."""
        rng = random.Random(31)
        for _ in range(25):
            g = random_graph(rng, rng.randrange(3, 15))
            m = from_coloring(g)
            assert is_g_cff(m, g)
            kept = [v for v in range(g.n) if v not in g.isolated_vertices]
            core = Graph(len(kept), frozenset((kept.index(u), kept.index(v)) for u, v in g.edges))
            colors = core.coloring if len(kept) >= 3 else g.coloring
            sizes = {}
            for c in colors:
                sizes[c] = sizes.get(c, 0) + 1
            assert m.t == sum(t1(s) for s in sizes.values())
            assert all(m.cols[v] == (1 << m.t) - 1 for v in g.isolated_vertices if len(kept) >= 3)

    def test_needs_a_simple_graph(self):
        with pytest.raises(InvalidInputError, match="needs a simple graph"):
            from_coloring(Graph(3, frozenset({(0, 1), (1, 2)}), frozenset({0})))


class TestStar:
    def test_s9_shape(self):
        m = star_cff(9)
        assert (m.t, m.n) == (6, 9)
        # hub column: zeros over the leaf block, one in the final row
        assert m.cols[0] == 1 << 5
        from gcff.sperner import optimal_1cff

        leaves = optimal_1cff(8)
        assert [c & 0b11111 for c in m.cols[1:]] == list(leaves.cols)
        assert is_g_cff(m, star(9))

    def test_s3(self):
        m = star_cff(3)
        assert m.t == t1(2) + 1 == 3
        assert is_g_cff(m, star(3))

    def test_s7(self):
        assert star_cff(7).t == t1(6) + 1 == 5

    def test_row_formula_sweep(self):
        for n in range(3, 50):
            m = star_cff(n)
            assert m.t == t1(n - 1) + 1
            assert is_g_cff(m, star(n))

    def test_needs_three_vertices(self):
        with pytest.raises(InvalidInputError):
            star_cff(2)


class TestUniversal:
    def test_wheel_6_from_c5(self):
        base = path_cycle_cff(5)
        m = add_universal(base, cycle(5))
        assert (m.t, m.n) == (6, 6)
        assert is_g_cff(m, wheel(6))

    def test_star_plus_universal(self):
        for n in (3, 5, 9):
            m = add_universal(star_cff(n), star(n))
            assert m.t == t1(n - 1) + 2
            # the new hub 0 joined to the star's hub 1 and its leaves 2..n
            hub_over_star = {(0, v) for v in range(1, n + 1)} | {(1, v) for v in range(2, n + 1)}
            assert is_g_cff(m, Graph(n + 1, frozenset(hub_over_star)))

    def test_identity_to_k4(self):
        m = add_universal(IncidenceMatrix.identity(3), complete(3))
        assert (m.t, m.n) == (4, 4)
        assert is_g_cff(m, complete(4))

    def test_rejects_bad_input(self):
        bad = IncidenceMatrix(3, (1, 1, 2))  # duplicate columns on an edge
        with pytest.raises(InvalidInputError, match="fails g-CFF"):
            add_universal(bad, cycle(3))
        with pytest.raises(InvalidInputError, match="no isolated vertex"):
            add_universal(IncidenceMatrix(2, (1, 2, 3)), Graph(3, frozenset({(0, 1)})))


class TestDoubling:
    def test_i4_to_c8(self):
        m = double_cycle(IncidenceMatrix.identity(4))
        assert (m.t, m.n) == (6, 8)
        assert is_g_cff(m, cycle(8))

    def test_i3_to_c6(self):
        m = double_cycle(IncidenceMatrix.identity(3))
        assert (m.t, m.n) == (5, 6)
        assert is_g_cff(m, cycle(6))

    def test_c8_to_c16(self):
        m = double_cycle(path_cycle_cff(8))
        assert (m.t, m.n) == (8, 16)
        assert is_g_cff(m, cycle(16))

    def test_path_doubling(self):
        m = double_path(path_cycle_cff(5))
        assert (m.t, m.n) == (7, 10)
        assert is_g_cff(m, path(10))

    def test_doubling_catalog_instance(self):
        _, p10 = catalog("P10")
        m = double_path(p10)
        assert (m.t, m.n) == (8, 20)
        assert is_g_cff(m, path(20))

    def test_path_cff_doubles_to_a_cycle(self):
        # P10 is no C_10-CFF (column 1 lies inside the union of edge (0, 9)),
        # but K_2 x P_10 holds C_20, so its double is a C_20-CFF; Gray needs 9 rows
        _, p10 = catalog("P10")
        assert not is_g_cff(p10, cycle(10))
        m = double_cycle(p10)
        assert (m.t, m.n) == (8, 20) and path_cycle_cff(20).t == 9
        assert find_violation(m, cycle(20)) is None

    def test_rejects_non_cff(self):
        with pytest.raises(InvalidInputError):
            double_cycle(IncidenceMatrix(2, (1, 1, 2)))


class TestProductLemma:
    """Blocks that are P_m-CFFs, taken along a reflected Gray code over their
    column counts, give a path-CFF on the sum of their rows; with a leading
    I_2 block the code is cyclic and the product a cycle-CFF."""

    @staticmethod
    def pool():
        _, p10 = catalog("P10")
        return ([IncidenceMatrix.identity(m) for m in (2, 3, 4)]
                + [path_cycle_cff(n) for n in range(5, 13)]
                + [IncidenceMatrix(p10.t, p10.cols[:m]) for m in range(2, 11)])

    def test_random_products_on_paths_and_cycles(self):
        rng, pool = random.Random(17), self.pool()
        cases = [(pool[-1],) * 4]  # P10^4: 10^4 columns on 24 rows
        while len(cases) < 60:
            blocks = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
            if prod(b.n for b in blocks) <= 10 ** 4:
                cases.append(blocks)
        for blocks in cases:
            code = reflected(tuple(b.n for b in blocks))
            m = product_matrix(blocks, code.array)
            assert m.t == sum(b.t for b in blocks)
            assert find_violation(m, path(m.n)) is None, [b.n for b in blocks]
            closed = (IncidenceMatrix.identity(2),) + blocks
            m = product_matrix(closed, reflected((2,) + code.radices).array)
            assert find_violation(m, cycle(m.n)) is None, [b.n for b in blocks]

    def test_the_two_value_digit_must_lead(self):
        # reflected((10, 2, 10)) is cyclic, but its closing edge changes the
        # P10 digit from 9 to 0, which P10 does not join
        _, p10 = catalog("P10")
        code = reflected((10, 2, 10))
        assert is_cyclic(code)
        m = product_matrix((p10, IncidenceMatrix.identity(2), p10), code.array)
        assert find_violation(m, path(200)) is None
        assert find_violation(m, cycle(200)).edge == (0, 199)

    def test_digits_past_a_byte(self):
        assert find_violation(windmill_cff(3, 300), windmill(3, 300)) is None
        m = double_path(path_cycle_cff(300))
        assert (m.t, m.n) == (path_cycle_cff(300).t + 2, 600)
        assert find_violation(m, cycle(600)) is None


class TestWindmill:
    def test_friendship_f9(self):
        m = windmill_cff(3, 4)
        assert (m.t, m.n) == (t1(4) + 3, 9) == (7, 9)
        assert is_g_cff(m, windmill(3, 4))

    def test_k5_two_blades_with_identity_inner(self):
        m = windmill_cff(5, 2)
        assert m.t == t1(2) + 4 + 1 == 7
        assert is_g_cff(m, windmill(5, 2))

    def test_k4_three_blades(self):
        m = windmill_cff(4, 3)
        assert m.t == t1(3) + 3 + 1 == 7
        assert is_g_cff(m, windmill(4, 3))

    def test_sweep(self):
        for k in range(3, 7):
            for n in (*range(2, 8), 20):
                m = windmill_cff(k, n)
                inner_rows = 2 if k == 3 else k - 1
                assert m.t == t1(n) + inner_rows + 1
                assert is_g_cff(m, windmill(k, n))

    def test_k4_two_blades(self):
        m = windmill_cff(4, 2)
        assert is_g_cff(m, windmill(4, 2))

    @pytest.mark.parametrize("k, n", [(2, 3), (3, 1)])
    def test_needs_three_blade_vertices_and_two_blades(self, k, n):
        with pytest.raises(InvalidInputError, match="needs k >= 3, n >= 2"):
            windmill_cff(k, n)


class TestCatalog:
    def test_e8(self):
        g, m = catalog("E8")
        assert (m.t, m.n) == (5, 8)
        assert g.edges == matching(8).edges
        assert is_g_cff(m, g)

    def test_p10(self):
        g, m = catalog("P10")
        assert (m.t, m.n) == (6, 10)
        assert is_g_cff(m, g)

    def test_p10_restriction_to_p9(self):
        _, m = catalog("P10")
        m9 = IncidenceMatrix(m.t, m.cols[:9])
        assert is_g_cff(m9, path(9))

    def test_p10_builds_every_shorter_path(self):
        # the catalog method serves path:3..10 with P10's first n columns
        _, m = catalog("P10")
        for n in range(3, 11):
            assert construct(path(n), "catalog") == (IncidenceMatrix(6, m.cols[:n]), "catalog"), n
        with pytest.raises(InvalidInputError, match=r"applicable: gray, coloring\)"):
            construct(path(11), "catalog")

    def test_unknown(self):
        with pytest.raises(InvalidInputError):
            catalog("E10")

    def test_entry_is_reverified_on_read(self, monkeypatch):
        # column 3 = {1,2} lies inside the union of edge (0,1)
        monkeypatch.setitem(CATALOG, "P4", (path(4), ("1001", "0101", "0010")))
        with pytest.raises(RuntimeError, match=r"P4 failed verification: column 3 covered"):
            catalog("P4")


class TestConstruct:
    SPECS = {"optimal-1cff": "loops:5", "gray": "hamming:2x3", "star": "windmill:2,4",
             "windmill": "friendship:3", "universal": "wheel:8", "coloring": "bipartite:3,4",
             "double": "path:12", "catalog": "matching:8"}

    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_builds(self, method):
        g = make_family(self.SPECS[method])
        m, used = construct(g, method)
        assert used == method
        assert is_g_cff(m, g)

    def test_failed_check_raises_naming_the_method(self, monkeypatch):
        # equal columns: each lies inside the union of any edge's columns
        monkeypatch.setattr(constructions, "star_cff", lambda n: IncidenceMatrix(1, (1,) * n))
        with pytest.raises(RuntimeError, match=r"construction star failed verification"):
            construct(star(5))

    @pytest.mark.parametrize("n", list(range(5, 41)) + [3001])
    def test_wheel_is_the_checked_universal_extension(self, n):
        # construct checks only the wheel; add_universal checks the rim first
        assert construct(wheel(n), "universal") == (
            add_universal(path_cycle_cff(n - 1), cycle(n - 1)), "universal")

    # auto's answer for every family spec below three vertices
    SMALL = {"path:2": ("coloring", (1, 2)), "star:2": ("coloring", (1, 2)),
             "windmill:2,1": ("coloring", (1, 2)), "hamming:2": ("coloring", (1, 2)),
             "complete:1": ("coloring", (1,)), "complete:2": ("coloring", (1, 2)),
             "bipartite:1,1": ("coloring", (1, 2)), "matching:2": ("coloring", (1, 2)),
             "loops:1": ("optimal-1cff", (0,)), "loops:2": ("optimal-1cff", (1, 2))}

    @pytest.mark.parametrize("spec", SMALL)
    def test_auto_below_three_vertices(self, spec):
        m, used = construct(make_family(spec))
        assert (used, m.cols) == self.SMALL[spec]


class TestFamilyRoutes:
    """Family members build past the exact coloring solver's 20 vertices."""

    # the family's colouring, past the exact solver's 20 vertices: one block per class
    @pytest.mark.parametrize("spec, classes", [
        ("cycle:30", (15, 15)), ("cycle:31", (15, 15, 1)), ("path:30", (15, 15)),
        ("wheel:30", (14, 14, 1, 1)), ("wheel:31", (15, 15, 1)), ("windmill:3,12", (12, 12, 1)),
        ("friendship:12", (12, 12, 1)), ("hamming:5x5", (5,) * 5)])
    def test_coloring_beyond_twenty_vertices(self, spec, classes):
        g = make_family(spec)
        m, used = construct(g, "coloring")
        assert used == "coloring" and find_violation(m, g, "cff") is None
        assert m.t == sum(t1(size) for size in classes)


class TestIsolatedVertices:
    def test_identity_plus_one(self):
        g = Graph(4, frozenset({(0, 1), (0, 2), (1, 2)}))
        m = with_isolated_vertices(IncidenceMatrix.identity(3), g)
        assert m.n == 4 and m.cols[3] == 0b111
        assert is_g_cff(m, g)

    def test_e8_plus_two(self):
        base_g, base_m = catalog("E8")
        edges = base_g.edges
        g = Graph(10, edges)
        m = with_isolated_vertices(base_m, g)
        assert is_g_cff(m, g)

    def test_cycle_plus_one(self):
        g = Graph(6, cycle(5).edges)
        m = with_isolated_vertices(path_cycle_cff(5), g)
        assert is_g_cff(m, g)

    def test_needs_three_non_isolated(self):
        g = Graph(4, frozenset({(0, 1)}))
        with pytest.raises(InvalidInputError):
            with_isolated_vertices(IncidenceMatrix(2, (1, 2)), g)


class TestMinDegreeTwoCollapse:
    def test_disjunct_implies_full_property_on_outputs(self):
        cases = [
            (path_cycle_cff(9), cycle(9)),
            (double_cycle(IncidenceMatrix.identity(4)), cycle(8)),
            (windmill_cff(3, 3), windmill(3, 3)),
            (add_universal(path_cycle_cff(6), cycle(6)), wheel(7)),
        ]
        for m, g in cases:
            assert min(g.degrees) >= 2
            assert find_violation(m, g, "ecff") is None
            assert find_violation(m, g, "sperner") is None

    def test_pendant_counterexample_exists(self):
        # min degree 1 admits disjunct-but-not-Sperner matrices: the star's
        # edge-only construction has an all-zero hub column
        from gcff.sperner import optimal_1cff

        leaves = optimal_1cff(4)
        m1 = IncidenceMatrix(leaves.t, (0,) + leaves.cols)
        g = star(5)
        assert find_violation(m1, g, "ecff") is None
        assert find_violation(m1, g, "sperner") is not None
