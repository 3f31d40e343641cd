"""Exact exhaustive solver for minimum ground sizes.

One builder, `_problem(g, prop, order)`, states a search instance as the
kernel's `Problem` record, and `engine.walk` searches it: assigning bitmask
columns to the vertices in the given order with canonical-row symmetry
breaking, filtering all 2^t candidate columns of a depth at once as bits of
one Python int.  `exists_cff` orders the vertices by descending degree;
`longest_path_cff` walks the path on C(t, t//2) vertices in traversal order.
Every witness either entry point returns is checked by `find_violation`.

A record does not depend on t, so `exists_cff` keeps the last one it built,
for one (graph, property) pair: the levels `exact_t` searches one by one
build it once.  The cache holds that single record, and the graph with it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb
from typing import Iterable, Optional

from ..bounds import bounds_for
from ..core import IncidenceMatrix, find_violation, property_terms
from ..errors import InvalidInputError
from ..graphs import Graph, path
from .engine import Problem, walk

#: Default node budget; "exhausted" is only ever claimed for completed trees.
DEFAULT_BUDGET = 10 ** 9

#: The kernel's two candidate tables (the subsets and the non-supersets of
#: each column; the in-place filter reads no other) take about 2^(2t) bits:
#: 3.6 MB at t = 12, 13.9 MB at t = 13 and 54.6 MB at t = 14, so cap the row
#: count.  The memo's spread table adds 2^t ints, and its key has room for 15
#: rows.
SEARCH_ROW_CAP = 13

@dataclass(frozen=True)
class SearchOutcome:
    """The one record of a searched row count: `exists_cff` returns it and
    `exact_t` keeps it in `levels`.  Only a "found" level has a witness."""

    t: int
    status: str  # "found" | "exhausted" | "budget-exceeded"
    nodes: int  # tree nodes counted, the subtrees the memo skipped included
    walked: int  # nodes less the subtrees the kernel's memo skipped
    wall_s: float
    witness: Optional[IncidenceMatrix]


@dataclass(frozen=True)
class SolveResult:
    status: str  # "found" | "exhausted" | "budget-exceeded"
    t_min: Optional[int]
    witness: Optional[IncidenceMatrix]
    nodes_explored: int
    wall_time: float
    levels: tuple[SearchOutcome, ...]  # one per row count searched, in order
    floor: int  # first row count searched
    floor_source: str  # "bounds" | "caller" | "minimum"

    @property
    def searched_exhaustively(self) -> tuple[int, ...]:
        """Row counts ruled out by search."""
        return tuple(lv.t for lv in self.levels if lv.status == "exhausted")


def _check_rows(t: int, least: int, what: str) -> None:
    if not least <= t <= SEARCH_ROW_CAP:
        raise InvalidInputError(f"{what} supports {least} <= t <= {SEARCH_ROW_CAP}, got {t}")


def _problem(g: Graph, prop: str, order: Iterable[int]) -> Problem:
    """The search record for the property on g, vertices taken in `order`."""
    _, sperner, cover = property_terms(prop)
    order = tuple(order)
    pos = {v: i for i, v in enumerate(order)}
    loops = tuple(v in g.loops for v in order)
    zero_ok, full_ok, earlier, lone, scans = [], [], [], [], []
    # settled[j]: a completed union already holds column j, as one does once
    # the vertex has a loop or a neighbour at an earlier depth
    settled = list(loops)
    for i, v in enumerate(order):
        linked, looped = bool(g.adj[v]), loops[i]
        # The empty and the full column are comparable to every column.
        ends = not (sperner and linked)
        # An empty column at v lies inside the union of any edge or loop
        # that misses v.
        missed = len(g.edges) - len(g.adj[v]) + len(g.loops) - looped
        zero_ok.append(ends and not (cover and missed))
        full_ok.append(ends and not (
            cover and ((linked and g.n >= 3) or (looped and g.n >= 2))))
        nb = tuple(sorted(pos[u] for u in g.adj[v] if pos[u] < i))
        earlier.append(nb)
        if cover:
            lone.append(tuple(j for j in nb if not settled[j]))
            # the other depths of each edge, most recent first
            scans.append(tuple((j, range(i - 1, j, -1), range(j - 1, -1, -1)) for j in nb))
            for j in nb:
                settled[j] = True
            settled[i] = looped or bool(nb)
    nbrs = tuple(earlier)
    return Problem(
        order=order,
        loops=loops,
        sperner=sperner,
        cover=cover,
        zero_ok=tuple(zero_ok),
        full_ok=tuple(full_ok),
        nbrs=nbrs,
        lone=tuple(lone) if cover else nbrs,
        scans=tuple(scans),
    )


def _witness(t: int, g: Graph, prop: str, order: Iterable[int],
             cols: list[int]) -> IncidenceMatrix:
    """The matrix giving vertex order[i] the column cols[i], checked on g."""
    by_vertex = [0] * g.n
    for v, c in zip(order, cols):
        by_vertex[v] = c
    witness = IncidenceMatrix(t, tuple(by_vertex))
    bad = find_violation(witness, g, prop)
    if bad is not None:
        raise RuntimeError(f"solver produced an invalid witness: {bad}")
    return witness


#: (graph, property, record) of the last `exists_cff` call.  The graph is
#: matched by identity, so a Graph whose edges are a plain set, which cannot
#: be hashed, still solves; holding it keeps its id from being reused.
_last: Optional[tuple[Graph, str, Problem]] = None


def _degree_problem(g: Graph, prop: str) -> Problem:
    """The record `exists_cff` searches: vertices by descending degree, then
    label; built once for consecutive calls on one graph and property."""
    global _last
    last = _last
    if last is None or last[0] is not g or last[1] != prop:
        last = _last = (g, prop, _problem(
            g, prop, sorted(range(g.n), key=lambda v: (-g.degrees[v], v))))
    return last[2]


def exists_cff(g: Graph, t: int, prop: str = "cff",
               budget: int = DEFAULT_BUDGET) -> SearchOutcome:
    """Search for a t-row matrix with the property on g; complete search.

    Returns the record of this one level: t, status, nodes, nodes walked
    and the wall time of the call.  A "found" outcome carries a verified
    witness; "exhausted" is a proof of nonexistence at t rows.  The search
    record is reused from the previous call when that call had the same
    graph object and property.
    """
    begin = time.perf_counter()
    _check_rows(t, 1, "search")
    problem = _degree_problem(g, prop)
    status, cols, nodes, walked = walk(t, problem, budget)
    witness = _witness(t, g, prop, problem.order, cols) if status == "found" else None
    return SearchOutcome(t, status, nodes, walked, time.perf_counter() - begin, witness)


def exact_t(g: Graph, prop: str = "cff", t_max: Optional[int] = None,
            budget: int = DEFAULT_BUDGET, start: Optional[int] = None,
            use_bounds: bool = True) -> SolveResult:
    """Minimum row count for the property on g.

    Iterates t upward from the best known theorem lower bound (or `start`),
    so row counts below the floor are ruled out by the bounds module rather
    than by search; every level between the floor and the answer is ruled out
    by completed exhaustive search.  `levels` holds the `SearchOutcome` of
    each level as `exists_cff` returned it, and the last one gives the
    result's status, t_min and witness.
    """
    quantity = property_terms(prop)[0]
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
    levels: list[SearchOutcome] = []
    total_nodes = 0
    for t in range(floor, t_max + 1):
        levels.append(exists_cff(g, t, prop, budget=budget - total_nodes))
        total_nodes += levels[-1].nodes
        if levels[-1].status != "exhausted":
            break
    last = levels[-1]
    return SolveResult(
        last.status, last.t if last.status == "found" else None, last.witness,
        total_nodes, time.perf_counter() - begin, tuple(levels), floor, floor_source,
    )


@dataclass(frozen=True)
class LongestPathResult:
    status: str  # "complete" | "budget-exceeded"
    n_max: int
    witness: Optional[IncidenceMatrix]
    nodes_explored: int
    walked: int  # nodes_explored less the subtrees the kernel's memo skipped
    wall_time: float


def longest_path_cff(t: int, budget: int = DEFAULT_BUDGET) -> LongestPathResult:
    """Largest n admitting a path-CFF on t ground rows, by complete search.

    The depth cap is the Sperner bound C(t, t//2); reaching it ends the
    search early since no deeper assignment can exist.  From t = 7 on the
    tree is large and the budget may stop the search first; a
    "budget-exceeded" result still carries the deepest verified assignment.
    """
    _check_rows(t, 2, "longest-path search")
    cap = comb(t, t // 2)
    problem = _problem(path(cap), "cff", range(cap))
    begin = time.perf_counter()
    status, cols, nodes, walked = walk(t, problem, budget)
    wall = time.perf_counter() - begin
    depth = len(cols)
    witness = _witness(t, path(depth), "cff", problem.order, cols) if depth >= 2 else None
    label = "budget-exceeded" if status == "budget-exceeded" else "complete"
    return LongestPathResult(label, depth, witness, nodes, walked, wall)
