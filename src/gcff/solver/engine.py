"""Search kernel: exhaustive column assignment with canonical-row symmetry
breaking, bit-parallel over the candidate columns.

Columns are assigned to vertices in a fixed order; a column is a bitmask over
the t ground rows.  The candidates still allowed at a depth are held as one
Python int with 2^t bits, bit c standing for column c, so every filter acts on
all candidates at once and the next candidate is the lowest set bit.  This is
the bitboard technique of exact maximum-clique search (San Segundo et al.,
"An exact bit-parallel algorithm for the maximum clique problem", Comput.
Oper. Res. 2011).

Ground-element relabeling symmetry is broken by requiring each column's new
rows to be exactly the lowest unused ones, so the used rows are always the
lowest k and every row-permutation class is visited once.  Cover constraints
are kept incrementally: each completed edge (and each loop) forbids, for all
later columns, the subsets of its union.

The per-depth work is stated once per call, in O(n + |E|): for each earlier
neighbour j of a depth, the ranges of depths below j and between j and the
depth, so the edge (j, depth) forbids the supersets of every other earlier
column minus column j without testing w != j; and one mask for the end-column
rules.  A loop at a depth forbids the supersets of every earlier column, read
from a prefix up[d] kept as the walk descends.  The deepest assignment is
copied once per record, on the first step back from it or at a budget stop,
never on the way down, so a descent with no step back pays no O(depth) copy
per node: solving a long path for the Sperner property is linear in n.

The one entry point is `walk(t, problem, budget)`.  A frozen `Problem` record
states the instance depth by depth (vertex order, earlier neighbours, loops,
which properties apply, whether the empty and the full column are allowed),
and `walk` answers with the status strings of the solver's result types.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class Problem:
    """One search instance, stated per depth of the walk.

    Depth i assigns the column of vertex order[i].  prev_nbrs[i] holds the
    depths of its neighbours assigned before it and loops[i] whether it has a
    loop; zero_ok[i] and full_ok[i] say whether the empty and the full column
    may go there.  sperner asks neighbouring columns to be incomparable, cover
    asks no column to lie inside the union of an edge (or the column of a
    loop) that misses its vertex.
    """

    order: tuple[int, ...]
    prev_nbrs: tuple[tuple[int, ...], ...]
    loops: tuple[bool, ...]
    sperner: bool
    cover: bool
    zero_ok: tuple[bool, ...]
    full_ok: tuple[bool, ...]


@lru_cache(maxsize=None)
def _tables(t: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Candidate masks over the 2^t columns on t rows: (sub, sup, canon).

    sub[u] holds the columns that are subsets of u, sup[m] the columns that
    are supersets of m, and canon[k] the columns whose rows outside the lowest
    k are the next lowest ones (the canonical candidates once rows 0..k-1 are
    used).  Built on first use for each t; they take about 2^(2t) bits.
    """
    full = (1 << t) - 1
    sub = [1] * (full + 1)
    for u in range(1, full + 1):
        low = u & -u
        s = sub[u ^ low]
        sub[u] = s | s << low
    sup = tuple(sub[full ^ m] << m for m in range(full + 1))
    canon = []
    for k in range(t + 1):
        below = sub[(1 << k) - 1]
        mask = 0
        for j in range(t - k + 1):
            mask |= below << (((1 << j) - 1) << k)
        canon.append(mask)
    return tuple(sub), sup, tuple(canon)


def walk(t: int, problem: Problem, budget: int) -> tuple[str, list[int], int]:
    """Depth-first search over column assignments, lowest candidate first.

    Returns (status, best, nodes): status is "found" once every depth has a
    column, "exhausted" when the whole tree holds no such assignment, and
    "budget-exceeded" when node budget + 1 was reached; `best` is the deepest
    assignment reached, indexed by depth.
    """
    prev_nbrs, loops = problem.prev_nbrs, problem.loops
    need_sperner, need_cover = problem.sperner, problem.cover
    n = len(problem.order)
    sub, sup, canon = _tables(t)
    top = 1 << ((1 << t) - 1)  # candidate bit of the full column
    # Per depth: the candidates the end-column rules leave, and for each
    # earlier neighbour j the depths below it and between it and this one.
    ends = [(-1 if z else ~1) & (-1 if f else ~top)
            for z, f in zip(problem.zero_ok, problem.full_ok)]
    nbrs = [tuple((j, range(j), range(j + 1, d)) for j in nb)
            for d, nb in enumerate(prev_nbrs)]
    cols = [0] * n
    used = [0] * (n + 1)
    forb = [0] * (n + 1)  # candidates inside a completed edge's or loop's union
    up = [0] * (n + 1)  # up[d]: candidates containing one of the first d columns
    left = [0] * n  # candidates not yet tried at each depth
    best: list[int] = []
    reach = 0  # deepest depth reached; best is cols[:reach] once left behind
    nodes = 0
    depth = 0

    while True:
        bad = forb[depth]
        for j, before, after in nbrs[depth]:
            cj = cols[j]
            if need_sperner:
                bad |= sub[cj] | sup[cj]
            if need_cover:
                keep = ~cj
                for w in before:
                    bad |= sup[cols[w] & keep]
                for w in after:
                    bad |= sup[cols[w] & keep]
        if need_cover and loops[depth]:
            bad |= up[depth]
        m = canon[used[depth].bit_length()] & ends[depth] & ~bad

        while not m:
            if depth == reach > len(best):
                best = cols[:reach]
            if depth == 0:
                return "exhausted", best, nodes
            depth -= 1
            m = left[depth]
        low = m & -m
        left[depth] = m ^ low
        c = low.bit_length() - 1

        nodes += 1
        if nodes > budget:
            if reach > len(best):
                best = cols[:reach]
            return "budget-exceeded", best, nodes
        cols[depth] = c
        used[depth + 1] = used[depth] | c
        if need_cover:
            f = forb[depth]
            for j in prev_nbrs[depth]:
                f |= sub[cols[j] | c]
            if loops[depth]:
                f |= sub[c]
            forb[depth + 1] = f
            up[depth + 1] = up[depth] | sup[c]
        depth += 1
        if depth > reach:
            reach = depth
            if depth == n:
                return "found", cols, nodes
