"""Lower/upper bounds for the minimum ground size of a cover-free family on
a graph, plus the small-n table of 2-disjunct optima behind the
complete-graph bounds and the trivial upper bound t <= t(2, n).

Each bound carries the quantity it constrains ("t" for the full property,
"t_e" for the edge-only variant, "t_s" for the Sperner-only variant), a
short source tag, and an exactness flag.  A report aggregates the menu of
applicable theorems; consumers take max of lowers / min of uppers.

This module states theorems only: floors, exact values, and the ceilings
no construction here builds.  Every construction that applies to a family
member is a t ceiling, read from `constructions.table` with the row count
stated there (the coloring row's from `constructions.class_sizes`).  Every
simple graph G on n vertices, none isolated, has t(1, n) <= t(G) <= t(2, n)
and t_s(G) = t(1, chi(G)), chi the number of those colour classes where
there are any; `_family` states these once for
every graph, with the central-binomial floor.  The dispatch reads
`Graph.family`, renamed when the graph was built, as `construct` does, and
adds one rename up to isomorphism: K_{a,1} is a star, hub last.  `_family`
caches each complete list, and the cycle, wheel and Hamming bounds read the
path and cycle intervals from it, so a new fact is one entry in one list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Optional, Sequence

from .constructions import class_sizes, loopless, table
from .errors import InvalidInputError
from .graphs import Graph
from .sperner import doubling_increment, t1

# ---------------------------------------------------------------------------
# Known minimum ground sizes for 2-disjunct matrices with n columns.
# Exact entries are literature values; the rest are upper bounds only.
# ---------------------------------------------------------------------------

_T2_TABLE: list[tuple[int, int, bool]] = [
    (3, 3, True), (4, 4, True), (5, 5, True), (6, 6, True), (7, 7, True),
    (8, 8, True), (9, 9, True), (10, 9, True), (11, 9, True), (12, 9, True),
    (13, 10, True), (17, 11, True), (20, 12, False), (26, 13, False),
    (28, 14, False), (42, 15, False), (48, 16, False), (68, 17, False),
    (69, 18, False), (76, 19, False), (90, 20, False), (120, 21, False),
    (176, 22, False), (253, 23, False),
]


def t2_upper(n: int) -> tuple[int, bool]:
    """Best known upper bound on the 2-disjunct minimum for n columns.

    Table entries interpolate by adding one row per extra column; beyond the
    table the 5.512*log2(n) estimate caps the growth.  The flag is True only
    for literature-exact entries.
    """
    if n < 3:
        raise InvalidInputError("2-disjunct minimum needs n >= 3")
    for m, v, exact in _T2_TABLE:
        if m == n:
            return v, exact
    best = min(v if m >= n else v + (n - m) for m, v, _ in _T2_TABLE)
    if n > _T2_TABLE[-1][0]:
        best = min(best, math.ceil(5.512 * math.log2(n)))
    return best, False


def t2_lower(n: int) -> int:
    """Valid lower bound on the 2-disjunct minimum: monotonicity from the
    largest exact table entry at or below n, and the 1-disjunct floor."""
    if n < 3:
        raise InvalidInputError("2-disjunct minimum needs n >= 3")
    best = t1(n)
    for m, v, exact in _T2_TABLE:
        if exact and m <= n:
            best = max(best, v)
    return best


# ---------------------------------------------------------------------------
# Bound reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bound:
    quantity: str  # "t" | "t_e" | "t_s"
    kind: str  # "lower" | "upper"
    value: int
    source: str
    exact: bool = False


def _extremes(bounds: Sequence[Bound],
              quantity: str = "t") -> tuple[Optional[int], Optional[int]]:
    """Max of the lower and min of the upper values stated for quantity."""
    lows = [b.value for b in bounds if b.quantity == quantity and b.kind == "lower"]
    ups = [b.value for b in bounds if b.quantity == quantity and b.kind == "upper"]
    return (max(lows) if lows else None), (min(ups) if ups else None)


@dataclass(frozen=True)
class BoundsReport:
    graph_id: str
    bounds: tuple[Bound, ...]

    def lower(self, quantity: str = "t") -> Optional[int]:
        return _extremes(self.bounds, quantity)[0]

    def upper(self, quantity: str = "t") -> Optional[int]:
        return _extremes(self.bounds, quantity)[1]

    def exact_value(self, quantity: str = "t") -> Optional[int]:
        lo, up = _extremes(self.bounds, quantity)
        return lo if lo is not None and lo == up else None

    def is_consistent(self) -> bool:
        for q in ("t", "t_e", "t_s"):
            lo, up = _extremes(self.bounds, q)
            if lo is not None and up is not None and lo > up:
                return False
        return True


def _pair(quantity: str, value: int, source: str) -> list[Bound]:
    """An exact value expressed as a matching lower/upper pair."""
    return [
        Bound(quantity, "lower", value, source, exact=True),
        Bound(quantity, "upper", value, source, exact=True),
    ]


def _interval(bounds: Sequence[Bound]) -> list[Bound]:
    """The "interval" pair when a list's lower and upper t values meet and
    no exact entry on t says so already."""
    if any(b.exact for b in bounds if b.quantity == "t"):
        return []
    lo, up = _extremes(bounds)
    return _pair("t", lo, "interval") if lo == up else []


def _central_binomial(n: int) -> list[Bound]:
    """n = C(x, floor(x/2)) with x >= 4 needs x + 1 ground points."""
    x = t1(n)
    if x >= 4 and comb(x, x // 2) == n:
        return [Bound("t", "lower", x + 1, "central-binomial")]
    return []


def _read(name: str, n: int) -> tuple[Optional[int], Optional[int]]:
    """The t interval of the path or cycle on n vertices, from its list with no colouring."""
    return _extremes(_family(name, (n,), n, None))


# -- family theorems --------------------------------------------------------

def _wheel_bounds(n: int) -> list[Bound]:
    """Wheel on n vertices: hub plus a rim cycle of length n-1."""
    rim = n - 1
    rim_lo, rim_up = _read("cycle", rim)
    out = [
        Bound("t", "lower", t1(rim) + 1, "universal-vertex-lower"),
        Bound("t", "lower", rim_lo, "rim-subgraph"),
        Bound("t", "lower", _read("cycle", n)[0], "hamilton-cycle"),
    ]
    # When the rim value is exact and sits one above its Sperner floor, the
    # universal-vertex increment is forced.
    if rim_lo == rim_up and rim_lo == t1(rim) + 1:
        out += _pair("t", rim_up + 1, "universal-increment-exact")
    return out


def _matching_bounds(n: int) -> list[Bound]:
    m = n // 2
    out = [Bound("t", "upper", t1(m) + 2, "pendant-two-rows")]
    if m >= 2:
        out += _pair("t_e", t1(m), "disjoint-edge-ecff-exact")
        if doubling_increment(m) == 2:
            out += _pair("t", t1(m) + 2, "doubling-gap-exact")
    return out


def smaller_inner_block(k: int) -> bool:
    """Is a 2-disjunct block known on k - 1 columns and under k - 1 rows?"""
    return k > 3 and t2_upper(k - 1)[0] < k - 1


def _windmill_bounds(k: int, n: int) -> list[Bound]:
    """n >= 2 blades of K_k, k >= 3."""
    out = [Bound("t", "lower", t1((k - 1) * n) + 1, "star-subgraph")]
    if k == 3 and doubling_increment(n) == 2:
        out += _pair("t", t1(n) + 3, "friendship-exact")
    if smaller_inner_block(k):  # which nothing here builds
        out.append(Bound("t", "upper", t1(n) + t2_upper(k - 1)[0] + 1, "windmill-two-disjunct-inner"))
    return out


def _complete_bounds(n: int) -> list[Bound]:
    """K_n with n >= 3."""
    v, exact = t2_upper(n)
    lo = t2_lower(n)
    return [
        Bound("t", "upper", v, "two-disjunct-table", exact=exact),
        Bound("t", "lower", lo, "two-disjunct-table", exact=exact),
        Bound("t_e", "upper", v, "complete-ecff", exact=exact),
        Bound("t_e", "lower", lo, "complete-ecff", exact=exact),
    ]


# -- family dispatch --------------------------------------------------------

@lru_cache(maxsize=512)
def _family(name: Optional[str], args, n: int, sizes: Optional[tuple]) -> tuple[Bound, ...]:
    """The t and t_s bounds of a graph on n >= 2 vertices, none isolated, with
    these `class_sizes`: the family's own theorems (none for a graph no
    family builds), a ceiling per construction `constructions.table` lists
    for it, then the bounds every graph obeys, then "interval"."""
    own: list[Bound] = []
    if name == "path" and n >= 5:
        # the exhaustive short-ground lemmas: a path CFF on 4 ground points
        # has at most 4 blocks, on 5 at most 6
        own = [Bound("t", "lower", 6 if n >= 7 else 5, "short-ground-lemma")]
        if n >= 11:
            # `longest_path_cff(6)` completes with n_max = 10 (57,526 nodes,
            # re-proved in tier-1), and P_11 lies in every longer path
            own.append(Bound("t", "lower", 7, "longest-path-search"))
    elif name == "cycle":  # a path is a subgraph of the cycle
        own = [Bound("t", "lower", _read("path", n)[0], "path-subgraph")]
    elif name == "wheel":
        own = _wheel_bounds(n)
    elif name == "star":
        own = [Bound("t", "lower", t1(n - 1) + 1, "star-exact", exact=True)]
        own += _pair("t_e", t1(n - 1), "star-ecff-exact")
    elif name == "matching":
        own = _matching_bounds(n)
    elif name == "complete":
        own = _complete_bounds(n)
    elif name == "windmill":
        own = _windmill_bounds(*args)
    elif name == "hamming":
        own = [Bound("t", "lower", _read("cycle", n)[0], "hamilton-cycle")]
    elif name == "sperner":  # t_s is stated, though no family colouring is
        own = _pair("t_s", args[0], "sperner-graph-exact")
    # each construction is a ceiling; one that meets an exact floor is exact
    exact = {b.source for b in own if b.exact}
    for c in table(name, args, n):
        rows = c.rows(sizes)
        if rows is not None:
            own.append(Bound("t", "upper", rows, c.source, exact=c.source in exact))
    # every simple graph: t(1, n) <= t <= t(2, n) and t_s = t(1, chi)
    out = own + [Bound("t", "lower", t1(n), "trivial-sperner")] + _central_binomial(n)
    if n >= 3:
        out.append(Bound("t", "upper", t2_upper(n)[0], "trivial-two-disjunct"))
    if sizes is not None:  # chi is the number of colour classes
        out += _pair("t_s", t1(len(sizes)), "sperner-chromatic")
    return tuple(out + _interval(out))


def bounds_for(g: Graph) -> BoundsReport:
    """All applicable theorem bounds for the graph.

    A graph a family builds gets its family's theorems.  Every graph then
    gets the bounds that hold for all graphs (the chromatic Sperner value
    wherever `Graph.coloring` has a colouring) and the minimum-degree
    relations between the full and edge-only quantities, all of `Graph.core`
    under g's family (no core, one edge's floor and the coloring row over g;
    no edge, t = 1 exactly).  A graph with loops gets the t_e floor and the
    t_s bounds of the graph without them (loops never enter the Sperner
    rule), and its t bounds where `loopless` says the loops add no cff rule,
    else its t floor.
    """
    graph_id = g.tag or f"graph(n={g.n},m={len(g.edges)})"
    name, args = g.family

    if name == "loops":
        b = _pair("t", t1(g.n), "loops-exact") + _pair("t_e", t1(g.n), "loops-exact")
        return BoundsReport(graph_id, tuple(b))

    if g.loops:  # a matrix for g is one for g without its loops
        plain = loopless(g)
        rep = bounds_for(plain or Graph(g.n, g.edges))
        # loops never enter the Sperner rule, so t_s is always the loopless
        # graph's; t is too where the loops add no cff rule
        same = ("t", "t_s") if plain else ("t_s",)
        floors = ((q, rep.lower(q)) for q in ("t", "t_e") if q not in same)
        return BoundsReport(graph_id, tuple([b for b in rep.bounds if b.quantity in same] + [
            Bound(q, "lower", v, "loopless-subgraph") for q, v in floors if v is not None]))

    if g.core is None:  # one edge at most: its floor, and the coloring row over all of g
        row = next(r for r in table(name, args, g.n) if r.method == "coloring")
        rows = row.rows(class_sizes(g))
        if rows is None:  # no colouring to count
            return BoundsReport(graph_id, ())
        out = [Bound("t", "lower", t1(2) if g.edges else 1, "trivial-sperner"),
               Bound("t", "upper", rows, row.source)]
        return BoundsReport(graph_id, tuple(out + _interval(out)))

    g, sizes = g.core, class_sizes(g)

    if name == "bipartite" and args[1] == 1:  # K_{a,1}: a star, hub last
        name, args = "star", (g.n,)
    out = list(_family(name, args, g.n, sizes))

    # Minimum-degree relations between the full and edge-only quantities.
    if not any(b.quantity == "t_e" for b in out):
        t_lo, t_up = _extremes(out)
        if t_up is not None:
            out.append(Bound("t_e", "upper", t_up, "ecff-below-cff"))
        if t_lo is not None:
            deg = g.degrees
            if min(deg) >= 2:
                out.append(Bound("t_e", "lower", t_lo, "min-degree-two"))
            elif not any(deg[u] == deg[v] == 1 for u, v in g.edges):
                # no component is a single edge
                out.append(Bound("t_e", "lower", t_lo - 1, "pendant-one-row"))
            else:
                out.append(Bound("t_e", "lower", max(t_lo - 2, 1), "pendant-two-rows"))

    return BoundsReport(graph_id, tuple(out))
