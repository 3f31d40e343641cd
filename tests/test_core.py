"""Incidence matrices and the verification predicates."""

import json
import random
from itertools import combinations

import pytest

from gcff.core import (
    GROUND_CAP,
    IncidenceMatrix,
    Violation,
    find_violation,
    is_d_disjunct,
    is_g_cff,
)
from gcff.errors import InvalidInputError
from gcff.graphs import Graph, complete, cycle, loops_graph, path, star

# The 6x8 cycle-CFF from the reflected binary code of length 3, blocks in
# code order: 000->{1,3,5}, 001->{1,3,6}, 011->{1,4,6}, 010->{1,4,5},
# 110->{2,4,5}, 111->{2,4,6}, 101->{2,3,6}, 100->{2,3,5}.
FIG6_BLOCKS = [
    {1, 3, 5}, {1, 3, 6}, {1, 4, 6}, {1, 4, 5},
    {2, 4, 5}, {2, 4, 6}, {2, 3, 6}, {2, 3, 5},
]
FIG6_ROWS = [
    "11110000",
    "00001111",
    "11000011",
    "00111100",
    "10011001",
    "01100110",
]


def fig6_matrix() -> IncidenceMatrix:
    return matrix_of_blocks(6, FIG6_BLOCKS)


def all_two_subsets_matrix() -> IncidenceMatrix:
    return matrix_of_blocks(4, combinations(range(1, 5), 2))


def matrix_of_blocks(t: int, blocks) -> IncidenceMatrix:
    """Each block of ground elements 1..t written as its column."""
    return IncidenceMatrix(t, tuple(sum(1 << (x - 1) for x in b) for b in blocks))


def blocks_of(m: IncidenceMatrix) -> tuple[frozenset[int], ...]:
    """Each column read back as its block of ground elements 1..t."""
    return tuple(frozenset(i + 1 for i in range(m.t) if (c >> i) & 1) for c in m.cols)


def random_matrix(rng, t, n) -> IncidenceMatrix:
    return IncidenceMatrix(t, tuple(rng.randrange(1, 1 << t) for _ in range(n)))


class TestConversions:
    def test_singleton_blocks_give_identity(self):
        assert matrix_of_blocks(3, ({1}, {2}, {3})) == IncidenceMatrix.identity(3)

    def test_two_subsets_have_column_weight_two(self):
        m = all_two_subsets_matrix()
        assert (m.t, m.n) == (4, 6)
        assert all(c.bit_count() == 2 for c in m.cols)

    def test_fig6_blocks_give_fig6_matrix(self):
        m = fig6_matrix()
        assert [m.row_string(i) for i in range(6)] == FIG6_ROWS

    def test_fig6_round_trip(self):
        m = fig6_matrix()
        assert [set(b) for b in blocks_of(m)] == FIG6_BLOCKS
        assert matrix_of_blocks(m.t, blocks_of(m)) == m

    def test_random_round_trips(self):
        rng = random.Random(7)
        for _ in range(50):
            m = random_matrix(rng, rng.randrange(1, 9), rng.randrange(1, 7))
            assert matrix_of_blocks(m.t, blocks_of(m)) == m

    def test_ground_cap(self):
        with pytest.raises(InvalidInputError):
            IncidenceMatrix(GROUND_CAP + 1, (1,))

    @pytest.mark.parametrize("t, cols, message", [
        (3, (1, 2, -1, 4, -5), "column 2 has bits outside rows 1..3"),
        (3, (7, 0, 5, 8, 1, 16), "column 3 has bits outside rows 1..3"),
        (64, (1, 1 << 64, 0), "column 1 has bits outside rows 1..64"),
    ], ids=["negative column", "over-wide column in the middle", "bit 65"])
    def test_column_outside_rows_names_the_first(self, t, cols, message):
        with pytest.raises(InvalidInputError) as err:
            IncidenceMatrix(t, cols)
        assert str(err.value) == message

    @pytest.mark.parametrize("t, cols, message", [
        (0, (0,), "need at least one row, got t=0"),
        (2, (), "need at least one column"),
    ], ids=["no row", "no column"])
    def test_needs_a_row_and_a_column(self, t, cols, message):
        with pytest.raises(InvalidInputError) as err:
            IncidenceMatrix(t, cols)
        assert str(err.value) == message


class TestTextFormat:
    def test_round_trip(self):
        m = fig6_matrix()
        assert IncidenceMatrix.from_text(m.to_text()) == m

    def test_header_line(self):
        assert fig6_matrix().to_text().splitlines()[0] == "6 8"

    def test_bad_characters(self):
        with pytest.raises(InvalidInputError):
            IncidenceMatrix.from_text("1 2\n0x\n")

    def test_wrong_row_count(self):
        with pytest.raises(InvalidInputError):
            IncidenceMatrix.from_text("2 2\n01\n")

    def test_from_rows(self):
        assert IncidenceMatrix.from_rows(FIG6_ROWS) == fig6_matrix()

    @pytest.mark.parametrize("text, message", [
        ("1\n01\n", "bad header '1', expected 't n'"),
        ("1 x\n01\n", "bad header '1 x'"),
        ("2 2\n01\n", "expected 2 matrix rows, got 1"),
        ("2 2\n01\n011\n", "row 2 is not 2 characters of 0/1: '011'"),
        ("1 2\n0x\n", "row 1 is not 2 characters of 0/1: '0x'"),
        ("1 2\n0\u00e9\n", "row 1 is not 2 characters of 0/1: '0\u00e9'"),
        ("1 2\n0\u0661\n", "row 1 is not 2 characters of 0/1: '0\u0661'"),
        ("2 2\n0x\n011\n", "row 1 is not 2 characters of 0/1: '0x'"),
        ("3 2\n01\n10\n1x\n", "row 3 is not 2 characters of 0/1: '1x'"),
        ("65 1\n" + "1\n" * 65, "ground set capped at 64, got t=65"),
        ("0 -5\n", "matrix needs at least one row and one column, header gives t = 0, n = -5"),
        # refused before an array of n columns (73 TiB) is built
        ("0 10000000000000\n",
         "matrix needs at least one row and one column, header gives t = 0, n = 10000000000000"),
        ("", "empty matrix file"),
    ], ids=["short header", "non-integer header", "wrong row count", "wrong row length",
            "non-0/1 character", "non-ASCII letter", "non-ASCII digit one",
            "bad character before bad length", "bad character in the last row", "65 rows",
            "no rows, negative columns", "no rows, huge column count", "empty file"])
    def test_malformed_text_messages(self, text, message):
        with pytest.raises(InvalidInputError) as err:
            IncidenceMatrix.from_text(text)
        assert str(err.value) == message

    def test_all_64_rows_round_trip(self):
        m = IncidenceMatrix(64, ((1 << 64) - 1, 1 << 63, 1, 0b1010 << 60))
        assert IncidenceMatrix.from_text(m.to_text()) == m


def one_edge(m, a, b, prop):
    """Whether `prop` holds on the graph whose only edge is a -- b."""
    return find_violation(m, Graph(m.n, frozenset({(a, b)})), prop) is None


class TestEdgePredicates:
    def test_identity_edge_is_sperner(self):
        assert one_edge(IncidenceMatrix.identity(3), 0, 1, "sperner")

    def test_equal_columns_not_sperner(self):
        m = IncidenceMatrix(2, (1, 1))
        assert not one_edge(m, 0, 1, "sperner")

    def test_contained_column_not_sperner(self):
        m = matrix_of_blocks(3, ({1, 2}, {1, 2, 3}))
        assert not one_edge(m, 0, 1, "sperner")

    def test_identity_edge_coverfree(self):
        assert one_edge(IncidenceMatrix.identity(3), 0, 1, "ecff")

    def test_disjoint_pair_covers_everything(self):
        m = all_two_subsets_matrix()
        # columns 0 and 5 are {1,2} and {3,4}
        assert not one_edge(m, 0, 5, "ecff")

    def test_fig6_cycle_edges_coverfree(self):
        m = fig6_matrix()
        for a in range(8):
            assert one_edge(m, *sorted((a, (a + 1) % 8)), "ecff")


class TestGraphPredicates:
    def test_identity_is_complete_sperner(self):
        assert find_violation(IncidenceMatrix.identity(5), complete(5), "sperner") is None

    def test_duplicate_columns_fail_any_joining_graph(self):
        m = IncidenceMatrix(2, (1, 1, 2))
        g = Graph(3, frozenset({(0, 1)}))
        assert find_violation(m, g, "sperner") is not None

    def test_fig6_is_c8_sperner(self):
        assert find_violation(fig6_matrix(), cycle(8), "sperner") is None

    def test_identity_is_disjunct_for_any_graph(self):
        assert find_violation(IncidenceMatrix.identity(6), complete(6), "ecff") is None

    def test_fig6_c8(self):
        m = fig6_matrix()
        assert find_violation(m, cycle(8), "ecff") is None
        assert is_g_cff(m, cycle(8))

    def test_fig6_fails_k8(self):
        m = fig6_matrix()
        assert find_violation(m, complete(8), "ecff") is not None
        assert not is_g_cff(m, complete(8))

    def test_fig6_k8_brute_force_witness(self):
        # independent oracle: some pair of blocks covers a third
        covered = [
            (a, b, v)
            for a, b in combinations(range(8), 2)
            for v in range(8)
            if v not in (a, b) and FIG6_BLOCKS[v] <= FIG6_BLOCKS[a] | FIG6_BLOCKS[b]
        ]
        assert covered  # e.g. {1,3,5} | {1,4,6} covers {1,3,6}
        assert (0, 2, 1) in covered

    def test_vertex_count_mismatch(self):
        with pytest.raises(InvalidInputError):
            is_g_cff(fig6_matrix(), cycle(5))

    def test_violation_reporting(self):
        m = IncidenceMatrix(2, (1, 1, 2))
        v = find_violation(m, Graph(3, frozenset({(0, 1)})), "sperner")
        assert v == Violation("sperner", (0, 1))
        m2 = all_two_subsets_matrix()
        v2 = find_violation(m2, complete(6), "ecff")
        assert v2 is not None and v2.kind == "cover"
        assert find_violation(fig6_matrix(), cycle(8), "cff") is None
        # cover violations are reported before Sperner ones
        m3, g3 = IncidenceMatrix(1, (1, 1, 1)), Graph(3, frozenset({(0, 1)}))
        assert [find_violation(m3, g3, p).kind for p in ("cff", "ecff", "sperner")] == \
            ["cover", "cover", "sperner"]
        with pytest.raises(InvalidInputError, match="unknown property"):
            find_violation(m3, g3, "disjunct")


class TestDDisjunct:
    def test_identity(self):
        for d in (1, 2, 3):
            assert is_d_disjunct(IncidenceMatrix.identity(5), d)

    def test_two_subsets(self):
        m = all_two_subsets_matrix()
        assert is_d_disjunct(m, 1)
        assert not is_d_disjunct(m, 2)

    def test_half_subsets_t6(self):
        m = matrix_of_blocks(6, list(combinations(range(1, 7), 3))[:12])
        assert m.n == 12
        assert is_d_disjunct(m, 1)

    def test_d_out_of_range(self):
        for d, message in ((3, "smaller than the column count 3"), (0, "d must be positive, got 0")):
            with pytest.raises(InvalidInputError, match=message):
                is_d_disjunct(IncidenceMatrix.identity(3), d)


class TestSpecInvariants:
    def test_cff_is_conjunction(self):
        rng = random.Random(11)
        g = cycle(5)
        for _ in range(200):
            m = random_matrix(rng, 4, 5)
            holds = [find_violation(m, g, p) is None for p in ("ecff", "sperner")]
            assert is_g_cff(m, g) == all(holds)

    def test_complete_graph_collapse(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randrange(3, 6)
            m = random_matrix(rng, 4, n)
            k = complete(n)
            assert is_g_cff(m, k) == is_d_disjunct(m, 2)
            assert (find_violation(m, k, "sperner") is None) == is_d_disjunct(m, 1)

    def test_gcff_implies_1cff(self):
        # graphs with no isolated vertex: any full-property matrix is 1-disjunct
        cases = [(fig6_matrix(), cycle(8)), (IncidenceMatrix.identity(4), star(4)),
                 (IncidenceMatrix.identity(5), path(5))]
        for m, g in cases:
            assert is_g_cff(m, g)
            assert is_d_disjunct(m, 1)

    def test_monotone_under_edge_removal(self):
        m = fig6_matrix()
        h = cycle(8)
        for drop in h.edges:
            g = Graph(8, h.edges - {drop})
            assert is_g_cff(m, g)

    def test_loop_graph_equals_1_disjunct(self):
        rng = random.Random(17)
        g = loops_graph(5)
        for _ in range(200):
            m = random_matrix(rng, 4, 5)
            assert is_g_cff(m, g) == is_d_disjunct(m, 1)


# The column scans that `IncidenceMatrix.inside` replaced, kept as the oracle:
# each tests "column c lies inside union u" one column at a time.

def scan_sperner_violation(m, g):
    for a, b in g.edges:
        ca, cb = m.cols[a], m.cols[b]
        if not (ca & ~cb) or not (cb & ~ca):
            return Violation("sperner", (a, b))
    return None


def scan_cover_violation(m, g):
    cols = m.cols
    for a, b in g.edges:
        u = cols[a] | cols[b]
        for v, c in enumerate(cols):
            if v != a and v != b and (c & ~u) == 0:
                return Violation("cover", (a, b), v)
    for v in g.loops:
        for w, c in enumerate(cols):
            if w != v and (c & ~cols[v]) == 0:
                return Violation("loop", (v, v), w)
    return None


def scan_violation(m, g, prop):
    if prop == "sperner":
        return scan_sperner_violation(m, g)
    cover = scan_cover_violation(m, g)
    if prop == "ecff" or cover is not None:
        return cover
    return scan_sperner_violation(m, g)


def scan_coverfree_for_edge(m, a, b):
    u = m.cols[a] | m.cols[b]
    return not any(v not in (a, b) and (c & ~u) == 0 for v, c in enumerate(m.cols))


def scan_d_disjunct(m, d):
    for chosen in combinations(range(m.n), d):
        u = 0
        for j in chosen:
            u |= m.cols[j]
        if any(v not in chosen and (m.cols[v] & ~u) == 0 for v in range(m.n)):
            return False
    return True


# The row counts `IncidenceMatrix.inside`'s tables of eight rows must handle:
# every t from one to three blocks, t not a multiple of four or eight, a last
# block of at most four rows (its 16-entry table), and the top bit at 64.
TABLE_TS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 63, GROUND_CAP]


def random_graph(rng, n) -> Graph:
    """Edges and loops at random densities; sparse draws leave isolated vertices."""
    p_edge, p_loop = rng.random(), rng.random() * 0.3
    edges = frozenset(e for e in combinations(range(n), 2) if rng.random() < p_edge)
    loops = frozenset(v for v in range(n) if rng.random() < p_loop)
    return Graph(n, edges, loops)


class TestInsideMatchesColumnScan:
    def test_tables_cached_outside_equality(self):
        m, fresh = IncidenceMatrix(5, (1, 2, 4, 8, 16)), IncidenceMatrix(5, (1, 2, 4, 8, 16))
        assert m.tables is m.tables and "tables" in vars(m)
        assert m == fresh and hash(m) == hash(fresh) and "tables" not in vars(fresh)
        assert [len(tab) for tab in IncidenceMatrix(20, (1,)).tables] == [256, 256, 16]

    def test_rows_are_the_transpose(self):
        rng = random.Random(29)
        for _ in range(200):
            t = rng.choice(TABLE_TS)
            n = rng.randrange(1, 40)
            m = IncidenceMatrix(t, tuple(rng.randrange(1 << t) for _ in range(n)))
            text = [f"{t} {n}"] + ["".join(str((m.cols[j] >> i) & 1) for j in range(n))
                                   for i in range(t)]
            assert [m.row_string(i) for i in range(t)] == text[1:]
            assert m.to_text() == "\n".join(text) + "\n"

    def test_inside_matches_column_scan(self):
        rng = random.Random(37)
        for t in TABLE_TS:
            full = (1 << t) - 1
            for n in (1, 2, 3, 5, 9, 40, 130):
                # sparse columns, so that many lie inside a random union
                m = IncidenceMatrix(t, tuple(
                    rng.randrange(1 << t) & rng.randrange(1 << t) & rng.randrange(1 << t)
                    for _ in range(n)))
                us = [0, full] + [rng.randrange(1 << t) for _ in range(20)]
                us += [m.cols[rng.randrange(n)] | m.cols[rng.randrange(n)] for _ in range(20)]
                for u in us:
                    assert m.inside(u) == sum(
                        1 << j for j, c in enumerate(m.cols) if c & ~u == 0), (m, u)

    def test_random_matrices_and_graphs(self):
        rng = random.Random(31)
        seen = {"cover": 0, "loop": 0, "sperner": 0, None: 0}
        for _ in range(3000):
            n = rng.randrange(1, 11)
            t = rng.choice(TABLE_TS)
            # sparse columns and repeats make containments common
            pool = [rng.randrange(1 << t) & rng.randrange(1 << t) for _ in range(4)]
            cols = tuple(
                rng.choice(pool) if rng.random() < 0.3 else rng.randrange(1 << t)
                for _ in range(n)
            )
            m, g = IncidenceMatrix(t, cols), random_graph(rng, n)
            for prop in ("cff", "ecff", "sperner"):
                expected = scan_violation(m, g, prop)
                assert find_violation(m, g, prop) == expected, (m, g, prop)
                seen[expected and expected.kind] += 1
            for a, b in g.edges:
                assert (m.inside(m.cols[a] | m.cols[b]) & ~(1 << a | 1 << b) == 0) == \
                    scan_coverfree_for_edge(m, a, b)
            for d in (1, 2):
                if d < n:
                    assert is_d_disjunct(m, d) == scan_d_disjunct(m, d), (m, d)
        assert min(seen.values()) > 100, seen

    def test_planted_violation_at_scale(self, tmp_path, capsys):
        from gcff.cli import main
        from gcff.graphs import make_family

        spec, out = "path:20000", tmp_path / "p.mat"
        assert main(["construct", spec, "--output", str(out)]) == 0
        g = make_family(spec)
        m = IncidenceMatrix.from_text(out.read_text())
        # Replace column b of the first edge (a, b) the scan visits by the
        # union of its neighbours, so that edge covers column b + 1.
        a, b = next((a, b) for a, b in g.edges if b + 1 < g.n)
        cols = list(m.cols)
        cols[b] = cols[a] | cols[b + 1]
        bad = IncidenceMatrix(m.t, tuple(cols))
        out.write_text(bad.to_text())
        expected = scan_violation(bad, g, "cff")
        assert expected is not None
        capsys.readouterr()
        assert main(["verify", spec, str(out), "--format", "json-lines"]) == 1
        rec = json.loads(capsys.readouterr().out)
        assert rec["violation"] == {
            "kind": expected.kind, "edge": list(expected.edge), "column": expected.column,
        }
