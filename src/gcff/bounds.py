"""Theorem-backed lower/upper bounds for the minimum ground size of a
cover-free family on a graph, plus the small-n table of 2-disjunct optima
behind the complete-graph bounds and the trivial upper bound t <= t(2, n).

Each bound carries the quantity it constrains ("t" for the full property,
"t_e" for the edge-only variant, "t_s" for the Sperner-only variant), a
short source tag, and an exactness flag.  A report aggregates the menu of
applicable theorems; consumers take max of lowers / min of uppers.

Each theorem is stated once, as an entry in its family's bound list.  An
interval is read from those lists by `_extremes`, never re-derived: the
wheel and Hamming bounds read the path and cycle lists, and so does the
"interval" entry, so a new path or cycle fact is one entry in
`_path_bounds` or `_cycle_bounds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Optional, Sequence

from .constructions import CATALOG
from .errors import InvalidInputError
from .graphs import EXACT_VERTEX_LIMIT, Graph, parse_family
from .graycode import cycle_cff_rows
from .sperner import doubling_increment, t1, t_s

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
    best = None
    for m, v, _ in _T2_TABLE:
        cand = v if m >= n else v + (n - m)
        best = cand if best is None else min(best, cand)
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
    """The "interval" pair when a list's own lower and upper values meet."""
    lo, up = _extremes(bounds)
    return _pair("t", lo, "interval") if lo == up else []


def _central_binomial(n: int) -> list[Bound]:
    """n = C(x, floor(x/2)) with x >= 4 needs x + 1 ground points."""
    x = t1(n)
    if x >= 4 and comb(x, x // 2) == n:
        return [Bound("t", "lower", x + 1, "central-binomial")]
    return []


# -- paths and cycles -------------------------------------------------------

def _short_ground_floor(n: int) -> Optional[int]:
    """Lower bounds from the exhaustive short-ground lemmas: a path CFF on
    4 ground points has at most 4 blocks, on 5 at most 6."""
    if n >= 7:
        return 6
    if n >= 5:
        return 5
    return None


# Wheels and Hamming graphs read these lists again, so keep one copy per n.
@lru_cache(maxsize=256)
def _path_bounds(n: int) -> tuple[Bound, ...]:
    out = [Bound("t", "lower", t1(n), "trivial-sperner")]
    out += _central_binomial(n)
    floor = _short_ground_floor(n)
    if floor is not None:
        out.append(Bound("t", "lower", floor, "short-ground-lemma"))
    out.append(Bound("t", "upper", cycle_cff_rows(n), "gray-cycle"))
    # a sub-path of a cataloged path witness is a witness
    for g, rows in CATALOG.values():
        if parse_family(g.family)[0] == "path" and n <= g.n:
            out.append(Bound("t", "upper", len(rows), f"explicit-path{g.n}"))
    return tuple(out + _interval(out))


@lru_cache(maxsize=256)
def _cycle_bounds(n: int) -> tuple[Bound, ...]:
    out = [
        Bound("t", "lower", t1(n), "trivial-sperner"),
        # a path is a subgraph of the cycle
        Bound("t", "lower", _extremes(_path_bounds(n))[0], "path-subgraph"),
        Bound("t", "upper", cycle_cff_rows(n), "gray-cycle"),
    ]
    out += _central_binomial(n)
    return tuple(out + _interval(out))


def _wheel_bounds(n: int) -> list[Bound]:
    """Wheel on n vertices: hub plus a rim cycle of length n-1."""
    rim = n - 1
    rim_lo, rim_up = _extremes(_cycle_bounds(rim))
    out = [
        Bound("t", "lower", t1(rim) + 1, "universal-vertex-lower"),
        Bound("t", "lower", rim_lo, "rim-subgraph"),
        Bound("t", "lower", _extremes(_cycle_bounds(n))[0], "hamilton-cycle"),
        Bound("t", "upper", rim_up + 1, "universal-vertex-upper"),
    ]
    # When the rim value is exact and sits one above its Sperner floor, the
    # universal-vertex increment is forced.
    if rim_lo == rim_up and rim_lo == t1(rim) + 1:
        out += _pair("t", rim_up + 1, "universal-increment-exact")
    return out


# -- family dispatch --------------------------------------------------------

def _star_bounds(n: int) -> list[Bound]:
    out = _pair("t", t1(n - 1) + 1, "star-exact")
    out += _pair("t_e", t1(n - 1), "star-ecff-exact")
    out += _pair("t_s", t1(2), "sperner-chromatic")
    out.append(Bound("t", "lower", t1(n), "trivial-sperner"))
    return out


def _matching_bounds(n: int) -> list[Bound]:
    m = n // 2
    out = [
        Bound("t", "lower", t1(n), "trivial-sperner"),
        Bound("t", "upper", t1(m) + 2, "pendant-two-rows"),
    ]
    out += _central_binomial(n)
    if m >= 2:
        out += _pair("t_e", t1(m), "disjoint-edge-ecff-exact")
        if doubling_increment(m) == 2:
            out += _pair("t", t1(m) + 2, "doubling-gap-exact")
    out += _pair("t_s", t1(2), "sperner-chromatic")
    return out


def _windmill_bounds(k: int, n: int) -> list[Bound]:
    total = n * (k - 1) + 1
    out = [
        Bound("t", "lower", t1(total), "trivial-sperner"),
        Bound("t", "lower", t1((k - 1) * n) + 1, "star-subgraph"),
    ]
    if k == 3:
        out.append(Bound("t", "lower", t1(2 * n) + 1, "star-subgraph"))
        out.append(Bound("t", "upper", t1(n) + 3, "windmill-construction"))
        if doubling_increment(n) == 2:
            out += _pair("t", t1(n) + 3, "friendship-exact")
    else:
        v, exact = t2_upper(k - 1)
        out.append(Bound("t", "upper", t1(n) + v + 1, "windmill-construction"))
    out += _pair("t_s", t1(k), "sperner-chromatic")
    return out


def _complete_bounds(n: int) -> list[Bound]:
    if n < 3:
        return _pair("t", 2, "two-incomparable") if n == 2 else []
    v, exact = t2_upper(n)
    out = [
        Bound("t", "upper", v, "two-disjunct-table", exact=exact),
        Bound("t", "lower", t2_lower(n), "two-disjunct-table", exact=exact),
        Bound("t_e", "upper", v, "complete-ecff", exact=exact),
        Bound("t_e", "lower", t2_lower(n), "complete-ecff", exact=exact),
    ]
    out += _pair("t_s", t1(n), "sperner-chromatic")
    return out


def _bipartite_bounds(n1: int, n2: int) -> list[Bound]:
    if 1 in (n1, n2):
        return _star_bounds(n1 + n2)
    n = n1 + n2
    out = [
        Bound("t", "lower", t1(n), "trivial-sperner"),
        Bound("t", "upper", t1(n1) + t1(n2), "coloring-construction"),
    ]
    out += _central_binomial(n)
    out += _pair("t_s", t1(2), "sperner-chromatic")
    return out


def _hamming_bounds(dims: tuple[int, ...]) -> list[Bound]:
    n = math.prod(dims)
    out = [
        Bound("t", "lower", t1(n), "trivial-sperner"),
        Bound("t", "upper", sum(dims), "gray-transversal"),
    ]
    if n >= 3:
        out.append(Bound("t", "lower", _extremes(_cycle_bounds(n))[0], "hamilton-cycle"))
    out += _central_binomial(n)
    out += _pair("t_s", t1(max(dims)), "sperner-chromatic")
    return out


def bounds_for(g: Graph) -> BoundsReport:
    """All applicable theorem bounds for the graph.

    Family-tagged graphs get their family's menu; untagged simple graphs get
    the trivial bounds, the minimum-degree relations between the full and
    edge-only quantities, and the chromatic Sperner value when the exact
    coloring solver can reach the graph.  Graphs with fewer than three
    non-isolated vertices get an empty report.
    """
    graph_id = g.family or f"graph(n={g.n},m={len(g.edges)})"
    name, args = parse_family(g.family) or (None, None)

    if name == "loops" and not g.edges:
        b = _pair("t", t1(g.n), "loops-exact") + _pair("t_e", t1(g.n), "loops-exact")
        return BoundsReport(graph_id, tuple(b))

    if g.loops:
        return BoundsReport(graph_id, ())

    if g.isolated_vertices:
        if g.n - len(g.isolated_vertices) < 3:
            return BoundsReport(graph_id, ())
        stripped, _ = g.without_isolated()
        return BoundsReport(graph_id, bounds_for(stripped).bounds)

    n = g.n
    out: list[Bound] = []

    if name == "universal":
        inner_name, inner_args = args
        if inner_name == "star":
            sn = inner_args[0]
            out += _pair("t", t1(sn - 1) + 2, "star-universal-exact")
        elif inner_name == "cycle":
            out += _wheel_bounds(inner_args[0] + 1)
        elif inner_name == "complete":
            out += _complete_bounds(inner_args[0] + 1)
        else:
            name = None
    elif (name == "path" and n == 2) or (name == "wheel" and n == 3):
        out += _complete_bounds(n)
    elif name == "path":
        out += _path_bounds(n)
        out += _pair("t_s", t1(2), "sperner-chromatic")
    elif name == "cycle":
        out += _cycle_bounds(n)
        out += _pair("t_s", t1(2 + n % 2), "sperner-chromatic")  # chi(C_n)
    elif name == "wheel":
        out += _wheel_bounds(n)
        out += _pair("t_s", t1(4 - n % 2), "sperner-chromatic")  # chi(W_n)
    elif name == "star":
        out += _star_bounds(n)
    elif name == "complete":
        out += _complete_bounds(n)
    elif name == "bipartite":
        out += _bipartite_bounds(*args)
    elif name == "matching":
        out += _matching_bounds(n)
    elif name == "windmill":
        k, blades = args
        if k == 2:
            out += _star_bounds(n)
        elif blades == 1:  # a single blade is K_k
            out += _complete_bounds(k)
        else:
            out += _windmill_bounds(k, blades)
    elif name == "sperner":
        out += _pair("t_s", args[0], "sperner-graph-exact")
        out.append(Bound("t", "lower", t1(n), "trivial-sperner"))
        out.append(Bound("t", "upper", t2_upper(n)[0], "trivial-two-disjunct"))
    elif name == "hamming":
        out += _hamming_bounds(args)

    if name is None:
        out.append(Bound("t", "lower", t1(n), "trivial-sperner"))
        if n >= 3:
            v, exact = t2_upper(n)
            out.append(Bound("t", "upper", v, "trivial-two-disjunct", exact=False))
        out += _central_binomial(n)
        if n <= EXACT_VERTEX_LIMIT:
            out += _pair("t_s", t_s(g), "sperner-chromatic")

    # Minimum-degree relations between the full and edge-only quantities.
    if not any(b.quantity == "t_e" for b in out):
        t_lo, t_up = _extremes(out)
        if t_up is not None:
            out.append(Bound("t_e", "upper", t_up, "ecff-below-cff"))
        if t_lo is not None:
            if g.min_degree() >= 2:
                out.append(Bound("t_e", "lower", t_lo, "min-degree-two"))
            elif not any(g.degree(u) == g.degree(v) == 1 for u, v in g.edges):
                # no component is a single edge
                out.append(Bound("t_e", "lower", t_lo - 1, "pendant-one-row"))
            else:
                out.append(Bound("t_e", "lower", max(t_lo - 2, 1), "pendant-two-rows"))

    return BoundsReport(graph_id, tuple(out))
