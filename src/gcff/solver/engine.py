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

Row symmetry is broken only for unused rows, so rows lying in exactly the
same earlier columns stay interchangeable and the tree holds isomorphic
subtrees.  A memo that lives for one `walk` call counts each of them once, in
the manner of isomorph rejection (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 1998).  Its key is the canonical form of a prefix
of at most MEMO_DEPTH columns: the sizes of the intersections of every
nonempty subset of its columns.  They give the size of every Venn region, and
the used rows are the lowest ones, so two prefixes with one key differ by a
permutation of their used rows.  Every filter of the walk (sub, sup, canon,
the end-column masks, forb, up) commutes with that permutation, so it maps
the subtree below one prefix onto the subtree below the other.  Once the
subtree below a prefix is exhausted its node count is stored under the key;
a later prefix with the same key whose count fits the remaining budget adds
the count and takes the next candidate instead.  The skipped subtree is an
isomorphic copy of an exhausted one: it holds no complete assignment and
reaches no deeper than its twin, so statuses, witnesses, deepest assignments
and node counts are those of the full walk, and "exhausted" still rules out
the whole tree.  A node count is therefore the size of the tree, not the
number of nodes walked, and nodes per second of wall time (perfbench's
solver.nodes_per_s) rise accordingly.

The one entry point is `walk(t, problem, budget)`.  A frozen `Problem` record
states the instance depth by depth (vertex order, earlier neighbours, loops,
which properties apply, whether the empty and the full column are allowed),
and `walk` answers with the status strings of the solver's result types.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

#: Longest prefix, in columns, whose exhausted subtree the memo records.  A
#: node above the limit pays for a key of 2^k - 1 fields, and longer prefixes
#: repeat less often.  perfbench table4-proofs, 4-s runs on a 2-core host
#: (no memo: wall_s 0.36-0.42 s, op_p50_ms median 0.93): limit 2 gave wall_s
#: 0.18-0.20 s, 3 gave 0.13-0.15 s, 4 gave 0.11-0.13 s and 5 gave 0.15-0.16 s;
#: op_p50_ms, set by small searches, had a median of 0.81 at 3 and 0.86 at 4
#: (six runs each).  Three keeps both below the no-memo values with the
#: smaller memo.
MEMO_DEPTH = 3


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
    assignment reached, indexed by depth.  `nodes` counts the nodes of every
    subtree the memo skips, as if it had been walked.
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
    # Memo of exhausted subtrees, keyed by the canonical form of their prefix
    # (see the module docstring).  For d <= MEMO_DEPTH, meets[d] holds the
    # intersections of the nonempty subsets of cols[:d]; key[d] packs their
    # sizes in fields of `width` bits after a leading 1, so keys of different
    # prefix lengths differ; start[d] is the node count on entering depth d.
    memo_depth = MEMO_DEPTH
    memo: dict[int, int] = {}
    meets: list[list[int]] = [[]] * (memo_depth + 1)
    key = [1] * (memo_depth + 1)
    start = [0] * (memo_depth + 1)
    width = t.bit_length()
    popcount = int.bit_count
    m = canon[0] & ends[0]  # depth 0 has no earlier column to filter against

    while True:
        while not m:
            if depth == reach > len(best):
                best = cols[:reach]
            if depth == 0:
                return "exhausted", best, nodes
            if depth <= memo_depth:
                memo[key[depth]] = nodes - start[depth]
            depth -= 1
            m = left[depth]
        low = m & -m
        m ^= low
        left[depth] = m
        c = low.bit_length() - 1

        nodes += 1
        if nodes > budget:
            if reach > len(best):
                best = cols[:reach]
            return "budget-exceeded", best, nodes
        if depth < memo_depth:
            k = key[depth] << width | popcount(c)
            fresh = [c]
            for x in meets[depth]:
                x &= c
                fresh.append(x)
                k = k << width | popcount(x)
            skip = memo.get(k)
            if skip is not None and nodes + skip <= budget:
                nodes += skip  # an isomorphic copy of this subtree is exhausted
                continue
            meets[depth + 1] = meets[depth] + fresh
            key[depth + 1] = k
            start[depth + 1] = nodes
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
