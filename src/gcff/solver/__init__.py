"""Exact exhaustive solver for minimum ground sizes.

The search kernel (``engine``) assigns bitmask columns to vertices in
descending-degree order with canonical-row symmetry breaking, filtering all
2^t candidate columns of a depth at once as bits of one Python int.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb
from typing import Optional

from ..core import IncidenceMatrix, find_violation
from ..errors import InvalidInputError
from ..graphs import Graph
from .engine import EXHAUSTED, FOUND, search_exists, search_longest_path

#: Default node budget; "exhausted" is only ever claimed for completed trees.
DEFAULT_BUDGET = 10 ** 9

#: The kernel's candidate tables take about 2^(2t) bits: 3.5 MB at t = 12,
#: 13 MB at t = 13 and 52 MB at t = 14, so cap the row count.
SEARCH_ROW_CAP = 13

_QUANTITY = {"cff": "t", "ecff": "t_e", "sperner": "t_s"}


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "found" | "exhausted" | "budget-exceeded"
    witness: Optional[IncidenceMatrix]
    nodes: int


@dataclass(frozen=True)
class SolveResult:
    status: str  # "found" | "exhausted" | "budget-exceeded"
    t_min: Optional[int]
    witness: Optional[IncidenceMatrix]
    nodes_explored: int
    wall_time: float
    searched_exhaustively: tuple[int, ...]  # row counts ruled out by search
    floor: int  # first row count searched
    floor_source: str  # "bounds" | "caller" | "minimum"


def _order_vertices(g: Graph) -> list[int]:
    return sorted(range(g.n), key=lambda v: (-g.degree(v), v))


def _build_problem(g: Graph, prop: str):
    if prop not in _QUANTITY:
        raise InvalidInputError(f"unknown property {prop!r}")
    order = _order_vertices(g)
    pos = {v: i for i, v in enumerate(order)}
    prev_nbrs: list[tuple[int, ...]] = []
    for i, v in enumerate(order):
        prev_nbrs.append(tuple(sorted(pos[u] for u in g.adj[v] if pos[u] < i)))
    loops = [order[i] in g.loops for i in range(g.n)]
    need_sperner = prop in ("cff", "sperner")
    need_cover = prop in ("cff", "ecff")

    zero_ok, full_ok = [], []
    for i, v in enumerate(order):
        edge_avoiding_v = any(v not in e for e in g.edges) or any(
            w != v for w in g.loops
        )
        z = True
        f = True
        if need_sperner and g.adj[v]:
            z = f = False
        if need_cover:
            if edge_avoiding_v:
                z = False
            if (g.adj[v] and g.n >= 3) or (v in g.loops and g.n >= 2):
                f = False
        zero_ok.append(z)
        full_ok.append(f)
    return order, prev_nbrs, loops, need_sperner, need_cover, zero_ok, full_ok


def exists_cff(g: Graph, t: int, prop: str = "cff",
               budget: int = DEFAULT_BUDGET) -> SearchOutcome:
    """Search for a t-row matrix with the property on g; complete search.

    A "found" outcome carries a verified witness; "exhausted" is a proof of
    nonexistence at t rows.
    """
    if t < 1 or t > SEARCH_ROW_CAP:
        raise InvalidInputError(f"search supports 1 <= t <= {SEARCH_ROW_CAP}, got {t}")
    order, prev_nbrs, loops, need_sperner, need_cover, zero_ok, full_ok = \
        _build_problem(g, prop)
    status, cols, nodes = search_exists(
        t, g.n, prev_nbrs, loops, need_sperner, need_cover, zero_ok, full_ok,
        budget,
    )
    if status == FOUND:
        by_vertex = [0] * g.n
        for i, v in enumerate(order):
            by_vertex[v] = cols[i]
        witness = IncidenceMatrix(t, tuple(by_vertex))
        bad = find_violation(witness, g, prop)
        if bad is not None:
            raise RuntimeError(f"solver produced an invalid witness: {bad}")
        return SearchOutcome("found", witness, nodes)
    if status == EXHAUSTED:
        return SearchOutcome("exhausted", None, nodes)
    return SearchOutcome("budget-exceeded", None, nodes)


def exact_t(g: Graph, prop: str = "cff", t_max: Optional[int] = None,
            budget: int = DEFAULT_BUDGET, start: Optional[int] = None,
            use_bounds: bool = True) -> SolveResult:
    """Minimum row count for the property on g.

    Iterates t upward from the best known theorem lower bound (or `start`),
    so row counts below the floor are ruled out by the bounds module rather
    than by search; every level between the floor and the answer is ruled out
    by completed exhaustive search.
    """
    from ..bounds import bounds_for

    quantity = _QUANTITY.get(prop)
    if quantity is None:
        raise InvalidInputError(f"unknown property {prop!r}")

    floor, floor_source = 1, "minimum"
    upper_hint: Optional[int] = None
    if use_bounds:
        report = bounds_for(g)
        lo = report.lower(quantity)
        if lo is not None:
            floor, floor_source = lo, "bounds"
        upper_hint = report.upper(quantity)
    if start is not None:
        floor, floor_source = start, "caller"
    if t_max is None:
        t_max = upper_hint if upper_hint is not None else SEARCH_ROW_CAP
    if t_max < floor:
        raise InvalidInputError(f"t_max={t_max} below the starting point {floor}")

    begin = time.perf_counter()
    total_nodes = 0
    exhausted: list[int] = []
    for t in range(floor, t_max + 1):
        outcome = exists_cff(g, t, prop, budget=budget - total_nodes)
        total_nodes += outcome.nodes
        if outcome.status == "found":
            return SolveResult(
                "found", t, outcome.witness, total_nodes,
                time.perf_counter() - begin, tuple(exhausted), floor, floor_source,
            )
        if outcome.status == "budget-exceeded":
            return SolveResult(
                "budget-exceeded", None, None, total_nodes,
                time.perf_counter() - begin, tuple(exhausted), floor, floor_source,
            )
        exhausted.append(t)
    return SolveResult(
        "exhausted", None, None, total_nodes,
        time.perf_counter() - begin, tuple(exhausted), floor, floor_source,
    )


def exact_ts(g: Graph, budget: int = DEFAULT_BUDGET,
             start: Optional[int] = None) -> int:
    """Minimum rows of a g-Sperner matrix, by search.

    Pass start=1 to make the search prove the infeasible levels itself
    instead of starting from the theorem floor.
    """
    res = exact_t(g, "sperner", budget=budget, start=start)
    if res.status != "found":
        raise InvalidInputError(f"Sperner search did not finish: {res.status}")
    return res.t_min


@dataclass(frozen=True)
class LongestPathResult:
    status: str  # "complete" | "budget-exceeded"
    n_max: int
    witness: Optional[IncidenceMatrix]
    nodes_explored: int
    wall_time: float


def longest_path_cff(t: int, budget: int = DEFAULT_BUDGET) -> LongestPathResult:
    """Largest n admitting a path-CFF on t ground rows, by complete search.

    The depth cap is the Sperner bound C(t, t//2); reaching it ends the
    search early since no deeper assignment can exist.
    """
    if not 2 <= t <= 6:
        raise InvalidInputError("longest-path search supports 2 <= t <= 6")
    cap = comb(t, t // 2)
    begin = time.perf_counter()
    status, depth, cols, nodes = search_longest_path(t, cap, budget)
    wall = time.perf_counter() - begin
    witness = None
    if depth >= 2:
        witness = IncidenceMatrix(t, tuple(cols))
        from ..graphs import path

        bad = find_violation(witness, path(depth), "cff")
        if bad is not None:
            raise RuntimeError(f"longest-path witness invalid: {bad}")
    label = "complete" if status == EXHAUSTED else "budget-exceeded"
    return LongestPathResult(label, depth, witness, nodes, wall)
