"""Command-line pipelines: construct/verify round trips, exit codes,
machine-readable output, and the reproduction batches."""

import argparse
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from gcff import cli
from gcff.cli import build_parser, main
from gcff.constructions import METHODS
from gcff.core import IncidenceMatrix, is_g_cff
from gcff.graphs import make_family
from gcff.graycode import modular, reflected, word_to_subset
from gcff.solver import DEFAULT_BUDGET
from test_core import matrix_of_blocks

SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv):
    return main(argv)


def cli_env(unbuffered=""):
    """The environment for `python -m gcff.cli` in a subprocess."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath, PYTHONUNBUFFERED=unbuffered)


class TestConstructVerify:
    def test_cycle12_round_trip(self, tmp_path, capsys):
        out = tmp_path / "c12.mat"
        assert run(["construct", "cycle:12", "--output", str(out)]) == 0
        m = IncidenceMatrix.from_text(out.read_text())
        assert (m.t, m.n) == (7, 12)
        assert run(["verify", "cycle:12", str(out)]) == 0

    def test_fig6_against_wrong_graph(self, tmp_path):
        out = tmp_path / "c8.mat"
        assert run(["construct", "cycle:8", "--output", str(out)]) == 0
        assert run(["verify", "cycle:8", str(out)]) == 0
        assert run(["verify", "complete:8", str(out)]) == 1

    def test_star9(self, tmp_path):
        out = tmp_path / "s9.mat"
        assert run(["construct", "star:9", "--output", str(out)]) == 0
        m = IncidenceMatrix.from_text(out.read_text())
        assert (m.t, m.n) == (6, 9)

    def test_friendship_windmill(self, tmp_path):
        out = tmp_path / "f9.mat"
        assert run(["construct", "friendship:4", "--method", "windmill",
                    "--output", str(out)]) == 0
        m = IncidenceMatrix.from_text(out.read_text())
        assert (m.t, m.n) == (7, 9)

    def test_catalog_p10(self, tmp_path):
        out = tmp_path / "p10.mat"
        assert run(["construct", "path:10", "--method", "catalog",
                    "--output", str(out)]) == 0
        assert run(["verify", "path:10", str(out)]) == 0

    def test_catalog_e8_for_matching8(self, capsys):
        # the catalog build binds the entry found for this graph, not the last one
        assert run(["construct", "matching:8", "--method", "catalog"]) == 0
        out, err = capsys.readouterr()
        assert out == "5 8\n11110000\n10001100\n01000011\n00101010\n00010101\n"
        assert "catalog: 5x8 matrix for matching(8), verified" in err

    def test_every_emitted_matrix_reverifies(self, tmp_path):
        specs = [("cycle:19", "auto"), ("wheel:8", "auto"), ("matching:8", "auto"),
                 ("hamming:2x2x3", "auto"), ("complete:5", "auto"),
                 ("cycle:16", "double"), ("bipartite:3,4", "coloring"),
                 ("loops:7", "auto"), ("loops:1", "auto"), ("windmill:4,3", "auto"),
                 ("path:2", "auto"), ("windmill:3,1", "auto"), ("friendship:1", "auto")]
        for spec, method in specs:
            out = tmp_path / f"{spec.replace(':', '_').replace(',', '_')}.mat"
            assert run(["construct", spec, "--method", method,
                        "--output", str(out)]) == 0, spec
            m = IncidenceMatrix.from_text(out.read_text())
            assert is_g_cff(m, make_family(spec)), spec

    @pytest.mark.parametrize("spec, method, rows, note", [
        ("path:2", "coloring", 2, False),
        ("path:12", "gray", 7, False),
        ("cycle:19", "gray", 9, False),
        ("hamming:2x2x3", "gray", 7, False),
        ("star:9", "star", 6, False),
        ("windmill:2,5", "star", 5, False),
        ("windmill:3,1", "coloring", 3, False),
        ("windmill:3,4", "windmill", 7, False),
        ("windmill:10,2", "windmill", 12, False),
        ("windmill:11,2", "windmill", 13, True),
        ("wheel:4", "coloring", 4, False),
        ("wheel:8", "universal", 7, False),
        ("matching:8", "coloring", 8, False),
        ("loops:1", "optimal-1cff", 1, False),
        ("bipartite:3,4", "coloring", 7, False),
        # past the exact chromatic solver's 20 vertices: the sides are the coloring
        ("bipartite:15,10", "coloring", 11, False),
    ])
    def test_auto_takes_first_construction_that_applies(self, spec, method, rows,
                                                         note, capsys):
        assert run(["construct", spec]) == 0
        err = capsys.readouterr().err
        n = make_family(spec).n
        assert f"{method}: {rows}x{n} matrix for " in err
        assert ("note: identity inner block may be suboptimal" in err) == note

    def test_method_choices_are_the_construction_table(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        method = next(a for a in sub.choices["construct"]._actions if a.dest == "method")
        assert tuple(method.choices) == ("auto",) + METHODS

    def test_named_method_reported_by_auto_is_accepted(self, capsys):
        # auto names the method it used, and that name works as --method
        assert run(["construct", "loops:5"]) == 0
        assert "optimal-1cff: 4x5 matrix" in capsys.readouterr().err
        assert run(["construct", "loops:5", "--method", "optimal-1cff"]) == 0
        assert "optimal-1cff: 4x5 matrix for loops(5), verified" in capsys.readouterr().err

    def test_inapplicable_method(self, capsys):
        # the message lists the methods that can build the graph; below three
        # vertices that is coloring alone
        for spec, method, applicable in [
                ("cycle:12", "star", "gray, coloring, double"), ("path:2", "gray", "coloring"),
                ("path:2", "double", "coloring"), ("star:2", "star", "coloring"),
                ("wheel:4", "universal", "coloring"), ("windmill:3,1", "windmill", "coloring"),
                ("path:7", "double", "gray, coloring, catalog"), ("loops:3", "coloring", "optimal-1cff"),
                ("star:9", "gray", "star, coloring"),
                ("cycle:12", "catalog", "gray, coloring, double")]:
            assert run(["construct", spec, "--method", method]) == 2, (spec, method)
            assert f"(applicable: {applicable})" in capsys.readouterr().err, (spec, method)

    def test_hamming_columns_in_vertex_order(self, tmp_path):
        # column j is the transversal block of the j-th word in lexicographic order
        out = tmp_path / "h.mat"
        assert run(["construct", "hamming:2x3x4", "--output", str(out)]) == 0
        radices = (2, 3, 4)
        blocks = tuple(word_to_subset(radices, w)
                       for w in product(*(range(m) for m in radices)))
        oracle = matrix_of_blocks(sum(radices), blocks)
        assert IncidenceMatrix.from_text(out.read_text()) == oracle

    # past the exact chromatic solver's 20 vertices, the family tag states the coloring
    @pytest.mark.parametrize("spec, rows", [("matching:22", 12), ("complete:21", 21),
                                            ("windmill:22,1", 22), ("complete:64", 64)])
    def test_coloring_from_the_family_tag(self, spec, rows, tmp_path, capsys):
        out = tmp_path / "m.mat"
        assert run(["construct", spec, "--output", str(out)]) == 0
        n = make_family(spec).n
        assert f"coloring: {rows}x{n} matrix for " in capsys.readouterr().err
        assert run(["verify", spec, str(out)]) == 0

    def test_complete_beyond_ground_cap(self, capsys):
        assert run(["construct", "complete:65"]) == 2
        assert "ground set capped at 64" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["hamming:33x33", "hamming:300x2"])
    def test_hamming_beyond_ground_cap(self, spec, capsys):
        assert run(["construct", spec]) == 2
        assert "ground set capped at 64" in capsys.readouterr().err

    def test_bad_spec(self):
        assert run(["construct", "heptagram:9"]) == 2

    def test_bad_sperner_argument(self, capsys):
        assert run(["construct", "sperner:x"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestBoundsAndSolve:
    def test_bounds_text(self, capsys):
        assert run(["bounds", "cycle:12"]) == 0
        out = capsys.readouterr().out
        assert "=> t = 7" in out
        assert "gray-cycle" in out

    def test_bounds_json_lines(self, capsys):
        assert run(["bounds", "star:9", "--format", "json-lines"]) == 0
        recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert all({"quantity", "kind", "value", "source", "exact"} <= rec.keys()
                   for rec in recs)
        exact_t_vals = {r["value"] for r in recs
                        if r["quantity"] == "t" and r["exact"]}
        assert exact_t_vals == {6}

    def test_solve_path5(self, capsys):
        assert run(["solve", "path:5"]) == 0
        out = capsys.readouterr().out
        assert "t = 5" in out

    def test_solve_edgeless(self, capsys):
        assert run(["solve", "complete:1"]) == 0
        assert "t = 1" in capsys.readouterr().out

    def test_edgeless_bounds_and_construct_agree_on_one_row(self, capsys):
        assert run(["bounds", "sperner:1"]) == 0
        assert "=> t = 1" in capsys.readouterr().out
        assert run(["construct", "sperner:1"]) == 0
        assert capsys.readouterr().out == "1 2\n11\n"

    def test_solve_single_edge_ecff(self, capsys):
        # one edge: no third column exists, so one row suffices
        for spec in ("complete:2", "path:2", "matching:2"):
            assert run(["solve", spec, "--property", "ecff",
                        "--format", "json-lines"]) == 0, spec
            rec = json.loads(capsys.readouterr().out.splitlines()[0])
            assert (rec["status"], rec["t_min"]) == ("found", 1), spec

    def test_solve_json(self, capsys):
        assert run(["solve", "matching:8", "--property", "ecff",
                    "--format", "json-lines"]) == 0
        rec = json.loads(capsys.readouterr().out.splitlines()[0])
        assert rec["t_min"] == 4 and rec["status"] == "found"

    def test_solve_json_levels(self, capsys):
        # the bounds floor for C_10 is 6, ruled out by search before t = 7
        assert run(["solve", "cycle:10", "--format", "json-lines"]) == 0
        rec = json.loads(capsys.readouterr().out.splitlines()[0])
        assert [lv[:3] for lv in rec["levels"]] == [[6, "exhausted", 57412], [7, "found", 1026]]
        assert sum(lv[2] for lv in rec["levels"]) == rec["nodes"]
        assert all(0 <= lv[3] <= rec["wall_time"] for lv in rec["levels"])

    def test_solve_writes_witness(self, tmp_path, capsys):
        out = tmp_path / "w.mat"
        assert run(["solve", "cycle:6", "--output", str(out)]) == 0
        m = IncidenceMatrix.from_text(out.read_text())
        assert is_g_cff(m, make_family("cycle:6"))

    def test_solve_budget_exit_code(self, capsys):
        assert run(["solve", "cycle:9", "--budget", "5"]) == 3

    def test_solve_budget_names_level_and_nodes(self, capsys):
        # the bounds floor for K_40 is 11; its t = 11 tree is far beyond the budget
        assert run(["solve", "complete:40", "--budget", "20000"]) == 3
        out = capsys.readouterr().out
        assert "budget exceeded at t = 11 after 20001 nodes" in out
        assert "rerun with a larger --budget" in out

    @pytest.mark.parametrize("text", ["3 x\n0 1\n", "3 1\n0 z\n"],
                             ids=["header", "edge"])
    def test_solve_malformed_graph_file(self, text, tmp_path, capsys):
        g = tmp_path / "g.txt"
        g.write_text(text)
        assert run(["solve", f"file:{g}"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_solve_default_budget(self):
        assert build_parser().parse_args(["solve", "complete:40"]).budget == 10 ** 6

    def test_solve_exhausted_up_to_tmax(self, capsys):
        # K_{3,3}'s bounds floor is 5, and t = 6 is its least row count
        assert run(["solve", "bipartite:3,3", "--tmax", "5"]) == 0
        out = capsys.readouterr().out
        assert out == "no matrix up to t_max for bipartite:3,3 (cff); exhausted [5]\n"

    def test_solve_tmax_below_the_floor_exits_2(self, capsys):
        assert run(["solve", "path:5", "--tmax", "3"]) == 2
        assert capsys.readouterr().err == "error: t_max=3 below the starting point 5\n"


C5_EDGES = "0 1\n1 2\n2 3\n3 4\n0 4\n"


class TestGraphFiles:
    """`file:` specs through every command: a C_5 with an isolated vertex,
    and a C_5 with a loop, which no construction covers and whose bounds are
    the floors of the untagged C_5 without its loop."""

    @pytest.fixture
    def c5_isolated(self, tmp_path):
        path = tmp_path / "c5_isolated.txt"
        path.write_text("6 5\n" + C5_EDGES)
        return f"file:{path}"

    @pytest.fixture
    def c5_loop(self, tmp_path):
        path = tmp_path / "c5_loop.txt"
        path.write_text("5 6\n" + C5_EDGES + "2 2\n")
        return f"file:{path}"

    def test_isolated_vertex(self, c5_isolated, tmp_path, capsys):
        mat = tmp_path / "c5.mat"
        assert run(["construct", c5_isolated, "--output", str(mat)]) == 0
        assert capsys.readouterr().err.startswith("coloring: ")
        assert run(["verify", c5_isolated, str(mat)]) == 0
        assert "cff holds" in capsys.readouterr().out
        assert run(["bounds", c5_isolated]) == 0
        assert "=> t in [4, 5]" in capsys.readouterr().out
        assert run(["solve", c5_isolated, "--format", "json-lines"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert (rec["status"], rec["t_min"], rec["floor"]) == ("found", 5, 4)

    def test_loop(self, c5_loop, tmp_path, capsys):
        # a loop at a vertex with an edge adds no cff rule: the report states the
        # loopless C_5's t and t_s bounds, and only its t_e floor
        assert run(["bounds", c5_loop]) == 0
        out = capsys.readouterr().out
        assert "=> t in [4, 5]" in out and "=> t_s = 3" in out and "=> t_e in [4, None]" in out
        assert run(["bounds", c5_loop, "--format", "json-lines"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert {"quantity": "t", "kind": "upper", "value": 5, "source": "coloring-construction",
                "exact": False} in rows
        assert rows[-1] == {"quantity": "t_e", "kind": "lower", "value": 4,
                            "source": "loopless-subgraph", "exact": False}
        assert run(["solve", c5_loop, "--format", "json-lines"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert (rec["status"], rec["t_min"], rec["floor_source"]) == ("found", 5, "bounds")
        assert [lv[:3] for lv in rec["levels"]] == [[4, "exhausted", 43], [5, "found", 5]]
        # construct builds the loopless C_5's coloring row and checks it against the loop
        mat = tmp_path / "c5_loop.mat"
        assert run(["construct", c5_loop, "--output", str(mat)]) == 0
        assert capsys.readouterr().err.startswith("coloring: 5x5 matrix")
        assert run(["verify", c5_loop, str(mat)]) == 0

    def test_loop_on_an_isolated_vertex(self, tmp_path, capsys):
        """A looped vertex with no edge is a cff rule of its own: only the
        loopless graph's t and t_e floors are stated, and nothing is built.
        Loops never enter the Sperner rule, so t_s is the loopless graph's."""
        path = tmp_path / "c5_plus_loop.txt"
        path.write_text("6 6\n" + C5_EDGES + "5 5\n")
        spec = f"file:{path}"
        assert run(["bounds", spec, "--format", "json-lines"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rows == [{"quantity": "t_s", "kind": k, "value": 3, "source": "sperner-chromatic",
                         "exact": True} for k in ("lower", "upper")] + [
            {"quantity": q, "kind": "lower", "value": 4, "source": "loopless-subgraph",
             "exact": False} for q in ("t", "t_e")]
        assert run(["solve", spec, "--property", "sperner", "--format", "json-lines"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert (rec["status"], rec["t_min"]) == ("found", 3)
        assert run(["construct", spec]) == 2
        assert capsys.readouterr().err.startswith("error: method auto does not apply to file")

    def test_negative_vertex_count_refused_before_edge_lines(self, tmp_path, capsys):
        """n + m of this header is under the size limit, so only a vertex
        check made on the header keeps its malformed edge lines unread."""
        path = tmp_path / "neg.txt"
        path.write_text("-500000 1400000\n" + "x y\n" * 1_400_000)
        assert run(["construct", f"file:{path}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: graph needs at least one vertex, header gives n = -500000")
        assert "edge line" not in err

    def test_negative_edge_count(self, tmp_path, capsys):
        path = tmp_path / "neg.txt"
        path.write_text("3 -1\nx y\n")
        assert run(["bounds", f"file:{path}"]) == 2
        assert capsys.readouterr().err == "error: bad header '3 -1', edge count is negative\n"

    def test_loop_violation(self, tmp_path, capsys):
        """Three looped vertices and no edge: column 1, {1, 2}, contains
        column 0, {1}, so the loop at vertex 1 fails."""
        path = tmp_path / "loops.txt"
        path.write_text("3 3\n0 0\n1 1\n2 2\n")
        mat = tmp_path / "loops.mat"
        mat.write_text("2 3\n110\n011\n")
        spec = f"file:{path}"
        assert run(["verify", spec, str(mat)]) == 1
        assert capsys.readouterr().out == f"cff fails for {spec}: column 0 contained in loop vertex 1\n"
        assert run(["verify", spec, str(mat), "--format", "json-lines"]) == 1
        rec = json.loads(capsys.readouterr().out)
        assert rec["violation"] == {"kind": "loop", "edge": [1, 1], "column": 0}


class TestGray:
    def test_reflected_with_map(self, tmp_path, capsys):
        out = tmp_path / "code.txt"
        assert run(["gray", "2,2,3", "--map", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 12
        assert lines[0].split("\t") == ["0,0,0", "1 3 5"]
        assert "cyclic" in capsys.readouterr().err

    def test_modular(self, capsys):
        assert run(["gray", "3,3", "--kind", "modular"]) == 0
        words = capsys.readouterr().out.splitlines()
        assert len(words) == 9 and words[:4] == ["0,0", "0,1", "0,2", "1,2"]

    def test_modular_needs_equal_radices(self):
        assert run(["gray", "2,3", "--kind", "modular"]) == 2

    @pytest.mark.parametrize("radices", ["2,x", "2,,3"])
    def test_malformed_radix_list(self, radices, capsys):
        assert run(["gray", radices]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("kind", ["reflected", "modular"])
    def test_word_cap_exits_2(self, kind, capsys):
        assert run(["gray", ",".join(["2"] * 21), "--kind", kind]) == 2
        assert capsys.readouterr() == ("", "error: code would have 2097152 words (cap 1048576)\n")

    # each line is the word's digits and, under --map, its sorted transversal
    # block, word by word through `word_to_subset`; 2^17 words span two blocks
    @pytest.mark.parametrize("map_", [False, True], ids=["plain", "map"])
    @pytest.mark.parametrize("build, radices, kind", [
        (reflected, (2, 2, 3), "reflected"),
        (reflected, (12, 3, 7), "reflected"),
        (reflected, (255, 2), "reflected"),
        (reflected, (5,), "reflected"),
        (lambda r: modular(r[0], len(r)), (3, 3, 3), "modular"),
        (reflected, (2,) * 17, "reflected"),
    ], ids=["2,2,3", "12,3,7", "255,2", "5", "modular-3,3,3", "2^17"])
    def test_lines_match_the_word_oracle(self, build, radices, kind, map_, capsys):
        argv = ["gray", ",".join(map(str, radices)), "--kind", kind] + ["--map"] * map_
        assert run(argv) == 0
        want = []
        for w in build(radices).array.tolist():
            line = ",".join(map(str, w))
            if map_:
                line += "\t" + " ".join(map(str, sorted(word_to_subset(radices, w))))
            want.append(line + "\n")
        assert capsys.readouterr().out == "".join(want)


class TestReproduce:
    def test_figures(self, tmp_path):
        outdir = tmp_path / "figs"
        assert run(["reproduce", "figures", "--outdir", str(outdir)]) == 0
        shapes = {"fig1_c12.mat": (7, 12), "fig6_c8.mat": (6, 8),
                  "fig7a_c36.mat": (10, 36), "fig7b_c27.mat": (9, 27),
                  "fig7c_c54.mat": (11, 54), "fig8_c19.mat": (9, 19)}
        for name, (t, n) in shapes.items():
            m = IncidenceMatrix.from_text((outdir / name).read_text())
            assert (m.t, m.n) == (t, n), name

    def test_table4(self, tmp_path):
        outdir = tmp_path / "t4"
        assert run(["reproduce", "table4", "--outdir", str(outdir)]) == 0
        recs = json.loads((outdir / "table4.json").read_text())
        by_key = {(r["family"], r["n"]): r for r in recs}
        assert len(recs) == 40
        for (fam, n), r in by_key.items():
            if r["printed_exact"]:
                assert r["bounds_lower"] == r["bounds_upper"] == r["printed"]
            if r["solver_status"] == "found":
                assert r["solver_t"] == r["printed"] or not r["printed_exact"]

    def test_figures_refuses_a_budget(self, tmp_path, capsys):
        """figures runs no search, so a budget would be a flag that does nothing."""
        outdir = tmp_path / "figs"
        assert run(["reproduce", "figures", "--outdir", str(outdir), "--budget", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "table4" in err
        assert not outdir.exists()

    def test_table4_default_budget(self, monkeypatch, tmp_path):
        seen = []
        monkeypatch.setattr(cli, "_reproduce_table4", lambda outdir, budget: seen.append(budget) or [])
        assert run(["reproduce", "table4", "--outdir", str(tmp_path)]) == 0
        assert seen == [DEFAULT_BUDGET]

    def test_table4_tight_budget_reports_partial(self, tmp_path):
        outdir = tmp_path / "t4b"
        code = run(["reproduce", "table4", "--outdir", str(outdir), "--budget", "3"])
        assert code == 3
        report = (outdir / "table4.txt").read_text()
        assert "budget-exceeded" in report


class TestFileErrors:
    """A path that cannot be read or written as text is an input error (exit
    2 with an `error:` line), not a traceback with the property-failure code."""

    @pytest.mark.parametrize("argv", [
        ["construct", "path:5", "--output", "{dir}"],
        ["verify", "path:5", "{dir}"],
        ["verify", "path:5", "{binary}"],
        ["bounds", "file:{dir}"],
        ["solve", "file:{dir}"],
        ["gray", "2,2", "--output", "{dir}"],
        ["reproduce", "figures", "--outdir", "{binary}"],
    ], ids=["construct-output-dir", "verify-dir", "verify-binary", "bounds-dir",
            "solve-dir", "gray-output-dir", "reproduce-outdir-file"])
    def test_exit_2(self, argv, tmp_path, capsys):
        binary = tmp_path / "m.bin"
        binary.write_bytes(bytes(range(256)))
        argv = [a.format(dir=tmp_path, binary=binary) for a in argv]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestMatrixHeader:
    """A matrix header with no row or no column is refused before any row is
    read: exit 2 with an `error:` line, not a traceback."""

    @pytest.mark.parametrize("header", ["0 -5", "0 10000000000000"])
    def test_exit_2(self, header, tmp_path, capsys):
        mat = tmp_path / "m.mat"
        mat.write_text(header + "\n")
        assert run(["verify", "path:3", str(mat)]) == 2
        assert capsys.readouterr().err.startswith("error: matrix needs at least one row")


class TestOutputFiles:
    """Every file the CLI writes is rewritten in place and cut to length: an
    existing, longer file ends up holding exactly the new bytes."""

    LONGER = "9" * 20_000 + "\n"

    @pytest.mark.parametrize("argv", [
        ["construct", "path:5"],
        ["construct", "wheel:9", "--method", "coloring"],
        ["gray", "2,2,3", "--map"],
        ["gray", "3,3", "--kind", "modular"],
        ["gray", ",".join(["2"] * 17), "--map"],
    ], ids=["construct", "construct-coloring", "gray-map", "gray-modular", "gray-map-blocks"])
    def test_output_equals_stdout(self, argv, tmp_path, capsys):
        out = tmp_path / "out.txt"
        out.write_text(self.LONGER)
        assert run(argv + ["--output", str(out)]) == 0
        capsys.readouterr()
        assert run(argv) == 0
        assert out.read_bytes() == capsys.readouterr().out.encode()

    def test_solve_output_equals_stdout_witness(self, tmp_path, capsys):
        out = tmp_path / "w.mat"
        out.write_text(self.LONGER)
        assert run(["solve", "cycle:6", "--output", str(out)]) == 0
        assert capsys.readouterr().out.startswith("t = 5 for cycle:6")
        assert run(["solve", "cycle:6"]) == 0
        _result, witness = capsys.readouterr().out.split("\n", 1)
        assert out.read_bytes() == witness.encode()

    def test_second_reproduce_into_same_outdir(self, tmp_path, capsys):
        fresh, again = tmp_path / "fresh", tmp_path / "again"
        assert run(["reproduce", "figures", "--outdir", str(fresh)]) == 0
        assert run(["reproduce", "figures", "--outdir", str(again)]) == 0
        names = sorted(f.name for f in again.iterdir())
        assert names == sorted(f.name for f in fresh.iterdir())
        for name in names:
            (again / name).write_text((again / name).read_text() + self.LONGER)
        capsys.readouterr()
        assert run(["reproduce", "figures", "--outdir", str(again)]) == 0
        report = capsys.readouterr().out
        for name in names:
            want = report.encode() if name == "figures.txt" else (fresh / name).read_bytes()
            assert (again / name).read_bytes() == want, name

    def test_dev_null(self, capsys):
        assert run(["construct", "path:5", "--output", "/dev/null"]) == 0
        out, err = capsys.readouterr()
        assert out == "" and err == "gray: 5x5 matrix for path(5), verified\n"

    def test_through_symlink(self, tmp_path, capsys):
        target, link = tmp_path / "target.mat", tmp_path / "link.mat"
        target.write_text(self.LONGER)
        link.symlink_to(target)
        assert run(["construct", "path:5", "--output", str(link)]) == 0
        capsys.readouterr()
        assert run(["construct", "path:5"]) == 0
        assert link.is_symlink() and link.readlink() == target
        assert target.read_bytes() == capsys.readouterr().out.encode()

    @pytest.mark.parametrize("argv", [
        ["construct", "path:5", "--output", "{missing}/o.mat"],
        ["solve", "path:5", "--output", "{missing}/o.mat"],
        ["gray", "2,2", "--output", "{missing}/o.txt"],
    ], ids=["construct", "solve", "gray"])
    def test_missing_parent_directory(self, argv, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert run([a.format(missing=missing) for a in argv]) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")
        assert not missing.exists()


class TestClosedStdout:
    """A reader that closes stdout first, as `gcff bounds ... | head -0` does,
    is no input error: exit 141 (128 + SIGPIPE) with nothing on stderr,
    whether stdout is buffered or not."""

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["bounds", "windmill:3,100"], ["solve", "path:10"],
                                      ["construct", "path:20000"]], ids=["bounds", "solve", "construct"])
    def test_exit_141_and_no_error_line(self, argv, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader, before the CLI writes a byte
        try:
            proc = subprocess.run([sys.executable, "-m", "gcff.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=cli_env(unbuffered), timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr.decode()) == (141, "")


class TestReaderLeavesPartWay:
    """A reader that takes one line and closes stdout, as `| head -1` does,
    stops the output at the write it cuts short: exit 141 with nothing on
    stderr, not the rest formatted and exit 0.  Unbuffered, that write
    returns its part count, and writing the rest fails; this holds for a
    multi-block Gray code and for `construct`'s one-block matrix alike."""

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ["gray", ",".join(["2"] * 17)],  # 131,072 words: two blocks
        ["gray", ",".join(["2"] * 17), "--map"],
        ["construct", "path:20000"],  # one block of about 560 kB
    ], ids=["words", "map", "construct"])
    def test_exit_141_after_one_line(self, argv, unbuffered):
        proc = subprocess.Popen([sys.executable, "-m", "gcff.cli", *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=cli_env(unbuffered))
        try:
            assert proc.stdout.readline()
            proc.stdout.close()
            _out, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert (proc.returncode, err.decode()) == (141, "")


class TestOversizedSpecs:
    """A graph spec beyond the size limit is refused before anything is
    built: exit 2 with an `error:` line, not a MemoryError or a hang."""

    @pytest.mark.parametrize("argv", [
        ["construct", "path:1000000000"],
        ["verify", "path:1000000000", "{matrix}"],
        ["bounds", "path:1000000000"],
        ["construct", "star:100000000"],
        ["bounds", "complete:100000"],
        ["construct", "hamming:" + "x".join(["2"] * 33)],
        ["solve", "cycle:1000000"],
    ], ids=["construct-path", "verify-path", "bounds-path", "construct-star",
            "bounds-complete", "construct-hamming", "solve-cycle"])
    def test_exit_2(self, argv, tmp_path, capsys):
        matrix = tmp_path / "m.mat"
        matrix.write_text("1 1\n1\n")
        assert run([a.format(matrix=matrix) for a in argv]) == 2
        assert "limited to" in capsys.readouterr().err


class TestBudgetArgument:
    @pytest.mark.parametrize("argv", [
        ["solve", "path:5", "--budget", "0"],
        ["solve", "path:5", "--budget", "-1"],
        ["solve", "path:5", "--budget", "x"],
        ["reproduce", "table4", "--budget", "0"],
    ])
    def test_non_positive_budget_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "--budget" in capsys.readouterr().err


class TestParserReuse:
    """`main` builds its parser once; no call's arguments reach the next."""

    def test_output_does_not_leak(self, tmp_path, capsys):
        out = tmp_path / "p6.mat"
        assert run(["construct", "path:6", "--output", str(out)]) == 0
        written = out.read_text()
        capsys.readouterr()
        assert run(["construct", "path:6"]) == 0
        assert capsys.readouterr().out == written

    def test_format_does_not_leak(self, tmp_path, capsys):
        out = tmp_path / "c8.mat"
        assert run(["construct", "cycle:8", "--output", str(out)]) == 0
        assert run(["verify", "cycle:8", str(out), "--format", "json-lines"]) == 0
        assert json.loads(capsys.readouterr().out)["holds"] is True
        assert run(["verify", "cycle:8", str(out)]) == 0
        assert capsys.readouterr().out == "cff holds for cycle:8 (6x8)\n"

    def test_budget_does_not_leak(self, capsys):
        assert run(["solve", "cycle:9", "--budget", "5"]) == 3
        assert "budget exceeded" in capsys.readouterr().out
        assert run(["solve", "cycle:9"]) == 0
        assert "t = 6 for cycle:9" in capsys.readouterr().out
        assert build_parser().parse_args(["solve", "complete:40"]).budget == 10 ** 6
        assert build_parser() is build_parser()
