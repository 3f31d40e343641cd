"""Graph family generators and the small exact solvers."""

import random
from itertools import combinations, product
from math import comb, prod

import pytest

from gcff.errors import InvalidInputError, ResourceLimitError
from gcff.graphs import (
    COLORINGS,
    SPEC_FAMILIES,
    SPEC_SIZE_LIMIT,
    Graph,
    chromatic_number,
    clique_number,
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


def random_graph(rng, n, p=0.5) -> Graph:
    return Graph(n, frozenset(e for e in combinations(range(n), 2) if rng.random() < p))


class TestGenerators:
    def test_counts(self):
        cases = [
            (path(7), 7, 6), (cycle(8), 8, 8), (star(9), 9, 8),
            (complete(6), 6, 15), (complete_bipartite(2, 3), 5, 6),
            (matching(8), 8, 4), (wheel(6), 6, 10), (wheel(3), 3, 3),
            (windmill(3, 4), 9, 12), (windmill(5, 4), 17, 40),
            (friendship(4), 9, 12), (sperner_graph(3), 8, 9),
            (hamming([2, 2, 2]), 8, 12),
        ]
        for g, n, m in cases:
            assert (g.n, len(g.edges)) == (n, m), g.family

    def test_handshake(self):
        for g in [path(9), cycle(10), wheel(8), windmill(4, 3), matching(6),
                  sperner_graph(4), hamming([2, 3])]:
            assert sum(len(g.adj[v]) for v in range(g.n)) == 2 * len(g.edges)

    def test_windmill_vertex_formula(self):
        for k in range(3, 7):
            for n in range(2, 5):
                assert windmill(k, n).n == n * (k - 1) + 1

    def test_matching_pairs(self):
        assert matching(8).edges == frozenset({(0, 1), (2, 3), (4, 5), (6, 7)})

    def test_wheel_is_cycle_plus_universal(self):
        # hub 0 joined to every vertex of a cycle shifted up by one
        rim = {(u + 1, v + 1) for u, v in cycle(5).edges}
        assert wheel(6).edges == rim | {(0, v) for v in range(1, 6)}

    def test_sperner_graph_edges_are_incomparable_pairs(self):
        for z in (3, 4, 5):
            g = sperner_graph(z)
            for x in range(1 << z):
                for y in range(x + 1, 1 << z):
                    incomparable = bool(x & ~y) and bool(y & ~x)
                    assert ((x, y) in g.edges) == incomparable

    def test_sperner_graph_isolated_vertices(self):
        # the empty set and the full set compare with everything
        assert sperner_graph(3).isolated_vertices == frozenset({0, 7})

    def test_loops(self):
        g = loops_graph(4)
        assert g.loops == frozenset(range(4)) and not g.edges

    def test_hamming_adjacency_is_distance_one(self):
        from itertools import product as iproduct

        dims = (2, 3, 2)
        g = hamming(dims)
        words = list(iproduct(*(range(d) for d in dims)))
        for i, j in combinations(range(len(words)), 2):
            d = sum(1 for a, b in zip(words[i], words[j]) if a != b)
            assert ((i, j) in g.edges) == (d == 1)

    def test_size_preconditions(self):
        for bad in (lambda: path(1), lambda: cycle(2), lambda: matching(5),
                    lambda: wheel(2), lambda: windmill(1, 3)):
            with pytest.raises(InvalidInputError):
                bad()

    @pytest.mark.parametrize("edges, loops, message", [
        ({(1, 2), (2, 2)}, (), r"loop \(2,2\) must go in `loops`, not `edges`"),
        ({(0, 1), (3, 1)}, (), r"bad edge \(3,1\) for n=4"),
        ({(0, 4)}, (), r"bad edge \(0,4\) for n=4"),
        ({(-1, 2)}, (), r"bad edge \(-1,2\) for n=4"),
        ({(0, 1)}, (1, 4), "bad loop vertex 4 for n=4"),
        ((), (-1,), "bad loop vertex -1 for n=4"),
    ])
    def test_bad_edges_are_named(self, edges, loops, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            Graph(4, frozenset(edges), frozenset(loops))

    def test_first_bad_edge_is_named(self):
        """Of several bad edges, the message names the first in edge order."""
        edges = frozenset({(0, 1), (5, 2), (1, 9), (3, 3), (2, 3)})
        u, v = next(e for e in edges if e not in {(0, 1), (2, 3)})
        with pytest.raises(InvalidInputError, match=rf"\({u},{v}\)"):
            Graph(6, edges)

    def test_isolated_detection(self):
        g = Graph(4, frozenset({(0, 1)}))
        assert g.isolated_vertices == frozenset({2, 3}) and g.core is None  # under 3 remain
        g = Graph(6, frozenset({(0, 3), (3, 5)}), frozenset({5}))
        assert g.isolated_vertices == frozenset({1, 2, 4})
        assert (g.core.n, g.core.edges, g.core.loops, g.core.family) == (
            3, frozenset({(0, 1), (1, 2)}), frozenset({2}), (None, ()))
        p = path(5)
        assert p.core is p


class TestHamming:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (3, 3), (5,), (2, 3, 4), (4, 3, 2),
                                      (3, 2, 2, 2), (2, 2, 2, 2, 2)],
                             ids=lambda dims: "x".join(map(str, dims)))
    def test_edges_are_the_word_pairs_at_distance_one(self, dims):
        words = list(product(*(range(d) for d in dims)))
        oracle = frozenset((i, j) for i, j in combinations(range(len(words)), 2)
                           if sum(a != b for a, b in zip(words[i], words[j])) == 1)
        g = hamming(dims)
        assert (g.n, g.edges, g.loops) == (len(words), oracle, frozenset())
        # one dimension is K_k, named so
        assert g.family == (("complete", dims) if len(dims) == 1 else ("hamming", dims))


class TestFileAndSpec:
    def test_text_round_trip(self):
        g = windmill(3, 3)
        g2 = Graph.from_text(g.to_text())
        assert (g2.n, g2.edges, g2.loops) == (g.n, g.edges, g.loops)

    def test_loops_in_file(self):
        g = Graph.from_text("3 2\n0 1\n2 2\n")
        assert g.loops == frozenset({2}) and g.edges == frozenset({(0, 1)})

    def test_make_family(self, tmp_path):
        assert make_family("bipartite:2,3").n == 5
        assert make_family("hamming:2x2x3").n == 12
        assert make_family("windmill:3,4").n == 9
        f = tmp_path / "g.txt"
        f.write_text("3 1\n0 1\n")
        # each family's text, as the reports and messages print it
        tags = {"path:5": "path(5)", "cycle:12": "cycle(12)", "star:4": "star(4)",
                "wheel:6": "wheel(6)", "complete:5": "complete(5)",
                "bipartite:2,3": "bipartite(2,3)", "matching:6": "matching(6)",
                "windmill:3,4": "windmill(3,4)", "friendship:4": "windmill(3,4)",
                "loops:3": "loops(3)", "hamming:2x2x3": "hamming(2,2,3)",
                "sperner:3": "sperner(3)", f"file:{f}": "file"}
        assert {spec.partition(":")[0] for spec in tags} == SPEC_FAMILIES.keys() | {"file"}
        for spec, tag in tags.items():
            assert make_family(spec).tag == tag, spec
        # a tag names the family whose theorems apply, renamed as it is built
        assert make_family("windmill:2,5").tag == "star(6)"

    def test_make_family_errors(self):
        for spec in ("nope:3", "cycle", "cycle:x", "bipartite:3", "hamming:2,3", "path:3x4",
                     "windmill:3", "cycle:3,4", "sperner:99999999999999999999"):
            with pytest.raises(InvalidInputError):
                make_family(spec)


#: Specs far beyond SPEC_SIZE_LIMIT; building any of them would exhaust
#: memory or run for minutes.
OVERSIZED_SPECS = ["path:1000000000", "star:100000000", "complete:100000",
                   "hamming:" + "x".join(["2"] * 33), "bipartite:1000,1000",
                   "windmill:1000,1000", "loops:600000"]


class TestSpecSizeLimit:
    SMALL_ARGS = {
        "path": [(2,), (3,), (9,)], "cycle": [(3,), (8,)], "star": [(2,), (7,)],
        "wheel": [(3,), (4,), (5,), (9,)], "complete": [(1,), (2,), (6,)],
        "bipartite": [(1, 1), (2, 5)], "matching": [(2,), (8,)],
        "windmill": [(2, 1), (3, 4), (5, 3)], "friendship": [(1,), (4,)],
        "loops": [(1,), (5,)],
        "hamming": [(2,), (5,), (2, 3), (3, 3, 2), (4, 2, 2, 2)],
    }

    def test_size_formulas_match_built_graphs(self):
        sized = {name for name, (_, _, _, size) in SPEC_FAMILIES.items() if size is not None}
        assert self.SMALL_ARGS.keys() == sized == SPEC_FAMILIES.keys() - {"sperner"}
        for name, cases in self.SMALL_ARGS.items():
            fn, _, _, size = SPEC_FAMILIES[name]
            for args in cases:
                g = fn(*args)
                assert size(*args) == (g.n, len(g.edges) + len(g.loops)), (name, args)

    @pytest.mark.parametrize("spec", OVERSIZED_SPECS)
    def test_oversized_spec_raises_before_building(self, spec):
        with pytest.raises(ResourceLimitError, match="limited to"):
            make_family(spec)

    def test_large_inputs_in_use_fit(self):
        for name, args in [("hamming", (4,) * 8), ("path", (300_000,)), ("wheel", (100_000,))]:
            assert sum(SPEC_FAMILIES[name][3](*args)) <= SPEC_SIZE_LIMIT, (name, args)

    def test_oversized_graph_file(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text(f"{SPEC_SIZE_LIMIT} 1\n0 1\n")
        with pytest.raises(ResourceLimitError):
            make_family(f"file:{f}")

    def test_oversized_file_header_refused_before_any_edge_line(self, tmp_path):
        """The header's counts are checked first, so the malformed edge lines
        behind an oversized header are never parsed."""
        f = tmp_path / "g.txt"
        f.write_text("600000 600000\n" + "x y\n" * 600_000)
        with pytest.raises(ResourceLimitError, match="limited to"):
            make_family(f"file:{f}")


def _rebuild(parsed) -> Graph:
    name, args = parsed
    return SPEC_FAMILIES[name][0](*args)


class TestParseFamily:
    """A graph's family names a generator and its arguments, renamed or not,
    so calling the generator again rebuilds the graph."""

    SAMPLE_ARGS = {"path": (5,), "cycle": (7,), "star": (4,), "wheel": (6,),
                   "complete": (5,), "bipartite": (2, 3), "matching": (6,),
                   "windmill": (3, 4), "friendship": (4,), "loops": (3,),
                   "hamming": (2, 2, 3), "sperner": (3,)}

    def test_every_generator_round_trips(self):
        assert self.SAMPLE_ARGS.keys() == SPEC_FAMILIES.keys()
        graphs = [entry[0](*self.SAMPLE_ARGS[name]) for name, entry in SPEC_FAMILIES.items()]
        graphs += [hamming([4]), windmill(2, 5), wheel(3), path(2)]
        for g in graphs:
            assert _rebuild(g.family) == g, g.tag

    def test_parsed_values(self):
        assert windmill(3, 4).family == ("windmill", (3, 4))
        assert friendship(2).family == ("windmill", (3, 2))
        assert hamming([2, 2, 3]).family == ("hamming", (2, 2, 3))

    def test_untagged_and_unknown_forms(self):
        """A graph no generator built has the family (None, ()), even where
        a generator builds its edges; a read file has the family "file", which
        builds nothing.  A K_2 is star(2) however it was built."""
        read = Graph.from_text("3 1\n0 1\n")
        assert read.family == ("file", ()) and read.tag == "file"
        untagged = [Graph(3, frozenset({(0, 1)})), Graph(4, wheel(4).edges),
                    Graph(2, frozenset({(0, 1)}), frozenset({0}))]
        for g in untagged:
            assert g.family == (None, ()) and g.tag is None
        for g in (Graph(2, frozenset({(0, 1)})), Graph.from_text("2 1\n1 0\n"), complete(2)):
            assert g.family == ("star", (2,)), g


def _small_specs(limit: int = 12) -> list[str]:
    """Every CLI family spec whose graph has at most `limit` vertices."""
    specs = []
    for name, (fn, arity, sep, _) in SPEC_FAMILIES.items():
        for args in product(range(1, limit + 1), repeat=arity or 3):
            if name == "hamming":  # one to three dimensions, each above one
                args = tuple(d for d in args if d > 1)
                if prod(args) > limit:
                    continue
            try:
                if fn(*args).n > limit:
                    continue
            except InvalidInputError:
                continue
            specs.append(f"{name}:" + sep.join(map(str, args)))
    return sorted(set(specs))


class TestFamilyOf:
    """The family of a graph, as `Graph.family` holds it, is renamed when the
    graph is built, so that every layer reads the family whose theorems
    apply and one graph gets one family however it was spelled."""

    def test_every_rename_keeps_the_labels(self):
        """For every small CLI spec the family is one whose own generator
        builds the same labelled graph, with integer arguments."""
        renamed = 0
        for spec in _small_specs():
            g = make_family(spec)
            name = spec.partition(":")[0]
            assert _rebuild(g.family) == g, (spec, g.tag)
            assert all(isinstance(a, int) for a in g.family[1]), spec
            renamed += g.family[0] != ("windmill" if name == "friendship" else name)
        # 22 stars (bipartite:1,b and windmill:2,b, 11 each), 21 complete graphs
        # (hamming:K, windmill:K,1, friendship:1 and wheel:3) and five K_2
        assert renamed == 48

    def test_renamed_values(self):
        cases = [
            (Graph(2, frozenset({(0, 1)})), ("star", (2,))),
            (hamming([2]), ("star", (2,))),
            (windmill(2, 5), ("star", (6,))),
            (complete_bipartite(1, 4), ("star", (5,))),
            (complete_bipartite(4, 1), ("bipartite", (4, 1))),  # hub last
            (windmill(4, 1), ("complete", (4,))),
            (wheel(3), ("complete", (3,))),
            (hamming([5]), ("complete", (5,))),
            (Graph(3, frozenset({(0, 1)})), (None, ())),
            (loops_graph(2), ("loops", (2,))),
        ]
        for g, want in cases:
            assert g.family == want, g.tag


def colored_specs():
    """Every CLI spec of at most 20 vertices whose family states a colouring,
    each with the generator call it makes as its id (friendship:4 calls
    windmill(3,4))."""
    specs = [f"{name}:{n}" for name in ("path", "cycle", "star", "wheel", "complete", "matching")
             for n in range(1, 21)]
    specs += [f"bipartite:{a},{b}" for a in range(1, 20) for b in range(1, 21 - a)]
    specs += [f"windmill:{k},{b}" for k in range(2, 21) for b in range(1, 20)
              if (k - 1) * b < 20]
    specs += [f"friendship:{b}" for b in range(1, 10)]
    specs += ["hamming:" + "x".join(map(str, dims)) for k in (1, 2, 3, 4)
              for dims in product(range(2, 21), repeat=k) if prod(dims) <= 20]
    params = []
    for spec in specs:
        try:
            g = make_family(spec)
        except InvalidInputError:  # below the family's least n, or an odd matching
            continue
        name, _, arg = spec.partition(":")
        if name == "friendship":
            name, arg = "windmill", f"3,{arg}"
        params.append(pytest.param(g, id=f"{name}({arg.replace('x', ',')})"))
    return params


#: chi of each family that states a colouring, from (n, args) as `Graph.family`
#: holds them: a wheel's hub takes a colour of its own beside its rim cycle.
CHI = {
    "path": lambda n, args: 2,
    "matching": lambda n, args: 2,
    "cycle": lambda n, args: 2 + n % 2,
    "wheel": lambda n, args: 4 - n % 2,
    "star": lambda n, args: 2,
    "bipartite": lambda n, args: 2,
    "complete": lambda n, args: n,
    "windmill": lambda n, args: args[0],
    "hamming": lambda n, args: max(args),
}


def large_colored_graphs():
    """Members of every family in `COLORINGS` past DSATUR's 20 vertices, up to
    about 2,000, with each rename `_tagged` makes among them."""
    specs = ["path:21", "path:2000", "matching:22", "matching:2000", "cycle:1999",
             "cycle:2000", "wheel:1999", "wheel:2000", "wheel:3", "star:2000",
             "bipartite:40,50", "bipartite:1,1999", "bipartite:1999,1", "complete:21",
             "complete:60", "windmill:5,400", "windmill:2,1999", "windmill:40,1",
             "friendship:999", "hamming:4x4x4x4x4", "hamming:3x5x7x11",
             "hamming:2x2x2x2x2x2x2x2x2x2"]
    return [make_family(spec) for spec in specs]


class TestFamilyColorings:
    @pytest.mark.parametrize("g", colored_specs())
    def test_proper_in_exactly_chi_colours(self, g):
        name, args = g.family
        colors = COLORINGS[name](g.n, args)
        assert len(colors) == g.n
        assert all(colors[u] != colors[v] for u, v in g.edges)
        k = chromatic_number(Graph(g.n, g.edges))  # untagged: DSATUR, or star(2) for K_2
        assert set(colors) == set(range(k)) and CHI[name](g.n, args) == k
        assert chromatic_number(g) == k and g.coloring == tuple(colors)

    def test_proper_in_exactly_chi_colours_past_dsatur(self):
        """`Graph.coloring` trusts the tag, so each family's formula is proved
        here on its generator's edges, past the sizes DSATUR can check."""
        graphs = large_colored_graphs()
        assert {g.family[0] for g in graphs} == COLORINGS.keys()
        for g in graphs:
            name, args = g.family
            colors = g.coloring
            assert len(colors) == g.n, g.family
            assert all(colors[u] != colors[v] for u, v in g.edges), g.family
            assert set(colors) == set(range(CHI[name](g.n, args))), g.family

    def test_only_a_generator_writes_a_tag(self):
        """A tag states its generator's edges, so no caller can write one, and
        an untagged K_12 gets K_12's bounds: t(K_12) = 9."""
        from gcff.bounds import bounds_for

        with pytest.raises(TypeError):
            Graph(5, frozenset({(0, 1), (0, 2), (1, 2)}), family=("path", (5,)))
        report = bounds_for(Graph(12, complete(12).edges))
        assert report.lower() <= 9 <= report.upper()


class CountedColors(list):
    """A colouring that counts its reads by index, as an edge check makes them."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


class TestOneColoringPerGraph:
    @pytest.mark.parametrize("spec", ["cycle:1001", "bipartite:30,40", "hamming:3x4"])
    def test_built_once_and_never_read_by_index(self, monkeypatch, spec):
        """Every reader of a graph's colouring, the coloring-row count in the
        bounds included, shares one build, nothing checks it on the edges,
        and no colour is read by index."""
        from gcff import bounds
        from gcff.constructions import construct
        from gcff.sperner import g_sperner_witness

        g = make_family(spec)
        name, _ = g.family
        built, entry = [], COLORINGS[name]

        def counted(n, args):
            built.append(CountedColors(entry(n, args)))
            return built[-1]

        monkeypatch.setitem(COLORINGS, name, counted)
        chromatic_number(g)
        bounds.bounds_for(g)
        construct(g, "coloring")
        g_sperner_witness(g)
        assert len(built) == 1
        assert built[0].reads == 0


class TestExactSolvers:
    def test_chromatic_spot_values(self):
        assert chromatic_number(cycle(5)) == 3
        assert chromatic_number(cycle(6)) == 2
        assert chromatic_number(complete(4)) == 4
        assert chromatic_number(complete_bipartite(3, 4)) == 2
        assert chromatic_number(sperner_graph(3)) == 3

    def test_chromatic_witness_is_proper(self):
        rng = random.Random(3)
        for _ in range(25):
            g = random_graph(rng, rng.randrange(2, 9))
            k, colors = chromatic_number(g), g.coloring
            assert max(colors) + 1 == k
            assert all(colors[u] != colors[v] for u, v in g.edges)

    def test_chromatic_is_the_least_proper_coloring(self):
        """chi by exhausting subsets: the fewest independent sets covering V."""
        rng = random.Random(11)
        graphs = [random_graph(rng, rng.randrange(1, 9), rng.choice([0.2, 0.4, 0.6, 0.8]))
                  for _ in range(150)]
        # greedy DSATUR alone gives 4 colours here; the branch and bound finds 3
        graphs.append(Graph(7, frozenset({(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 4),
                                          (2, 6), (3, 5), (3, 6), (5, 6)})))
        for g in graphs:
            full = (1 << g.n) - 1
            independent = [not any(s >> u & 1 and s >> v & 1 for u, v in g.edges)
                           for s in range(full + 1)]
            fewest = [0] * (full + 1)
            for s in range(1, full + 1):
                low, best, i = s & -s, g.n, s
                while i:  # the independent subsets of s holding its lowest vertex
                    if i & low and independent[i]:
                        best = min(best, 1 + fewest[s & ~i])
                    i = (i - 1) & s
                fewest[s] = best
            k, colors = chromatic_number(g), g.coloring
            assert k == fewest[full], sorted(g.edges)
            assert len(colors) == g.n and set(colors) == set(range(k))
            assert all(colors[u] != colors[v] for u, v in g.edges)

    def test_clique_spot_values(self):
        assert clique_number(complete(5))[0] == 5
        assert clique_number(cycle(6))[0] == 2
        assert clique_number(sperner_graph(3))[0] == 3
        assert clique_number(wheel(6))[0] == 3

    def test_clique_le_chromatic(self):
        rng = random.Random(5)
        for _ in range(25):
            g = random_graph(rng, rng.randrange(2, 9))
            assert clique_number(g)[0] <= chromatic_number(g)

    def test_sperner_graph_theorem_orders_3_and_4(self):
        for z in (3, 4):
            g = sperner_graph(z)
            want = comb(z, z // 2)
            assert clique_number(g)[0] == want
            assert chromatic_number(g) == want

    def test_resource_limits(self):
        # the family states complete(21)'s colouring; untagged, DSATUR refuses it
        assert chromatic_number(complete(21)) == 21
        with pytest.raises(ResourceLimitError):
            chromatic_number(Graph(21, complete(21).edges))
        with pytest.raises(InvalidInputError):
            chromatic_number(loops_graph(3))
