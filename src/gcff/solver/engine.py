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
lowest k and every row-permutation class is visited once.  The cover
constraints of completed edges are kept incrementally: each completed edge
(and each loop) forbids, for all later columns, the subsets of its union.

A child's candidates are filtered in place, in the manner of forward checking
(Haralick and Elliott, "Increasing tree search efficiency for constraint
satisfaction problems", Artif. Intell. 1980).  The set starts from the
canonical candidates the end-column rules and the completed unions leave, and
each further rule ANDs in one table entry: under the Sperner rule, the columns
that are not supersets of an earlier neighbour's column, and those that are
not its subsets unless a completed union already forbids these; under the
cover rule, for each earlier neighbour j and every other earlier column w, the
columns that are not supersets of column w minus column j, so that the edge's
union does not cover w.  The cover scan stops at the first filter that leaves
no candidate.  Most nodes of an exhausted tree are such dead ends (6,659 of
the 11,208 walked for cycle:10 at t = 6), and each now pays for the filters up
to its first empty set, not for the whole O(deg * depth) scan.  The order of
the filters changes when an empty set is seen, never which set is left, so
the tree is the same.

The per-depth lists are stated once per `Problem`, in O(n + |E|): the depths
of the earlier neighbours, those whose subsets are still to be ruled out, and,
under the cover rule, for each earlier neighbour two ranges of the other
earlier depths, most recent first, so the scan tests w != j nowhere.  A record
serves every t, so the levels of one solve share it; `walk` adds per call only
the end-column masks, which depend on t.  A loop at a depth forbids the
supersets of every earlier column, read from a prefix free[d] of the
candidates containing none of the first d columns, which a walk keeps only
when the record has loops.  The deepest assignment is copied once per record,
on the first step back from it or at a budget stop, never on the way down, so
a descent with no step back pays no O(depth) copy per node: solving a long
path for the Sperner property is linear in n.

Row symmetry is broken only for unused rows, so rows lying in exactly the
same earlier columns stay interchangeable and the tree holds isomorphic
subtrees.  A memo that lives for one `walk` call counts each of them once, in
the manner of isomorph rejection (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 1998).  Its key is the canonical form of a prefix
of at most MEMO_DEPTH columns, built from its row classes: a class is a set of
used rows that lie in exactly the same prefix columns, and the classes are
kept in a fixed order.  Each column appends, for every class of the shorter
prefix in that order, how many of its rows the column holds, and then how
many new rows it takes; the classes of the longer prefix are each class split
into its rows inside and outside the column (empty parts dropped), followed
by the new rows.  A column thus adds at most one field per used row, plus
one.  Equal keys give equal class sizes for every pattern of membership, and
the used rows are the lowest ones, so two prefixes with one key differ by a
permutation of their used rows.  Every filter of the walk (sub, out, canon,
the end-column masks, forb, free) commutes with that permutation, so it maps
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
states the instance depth by depth (vertex order, earlier neighbours and
the depth ranges of their cover scans, loops, which properties apply,
whether the empty and the full column are allowed), and `walk` answers with
the status strings of the solver's result types.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

#: Longest prefix, in columns, whose exhausted subtree the memo records.  Each
#: column adds to a node's key one field per row class plus one, and longer
#: prefixes repeat less often.  Nodes walked for cycle:10 at t = 6 (tree size
#: 57,412): 14,351 at limit 3, 11,208 at 4, 10,485 at 5 and 10,395 with no
#: limit; for K_9 at t = 8 (761,360): 119,420, 59,508, 52,314 and 51,674.
#: perfbench table4-proofs with the in-place filter, 6-s runs on a 2-core
#: host, seeds 31-38 each, medians [ranges]: wall_s 0.121 [0.115-0.129] s at
#: limit 3, 0.106 [0.098-0.115] s at 4 and 0.124 [0.114-0.126] s at 5;
#: op_p90_ms 14.9, 13.2 and 15.0; op_p50_ms 0.58, 0.63 and 0.69.  A limit of
#: 3 makes the many small cells cheaper but the proofs dearer, and beyond four
#: columns the keys cost more than the few extra skips save.
MEMO_DEPTH = 4


@dataclass(frozen=True)
class Problem:
    """One search instance, stated per depth of the walk.

    Depth i assigns the column of vertex order[i].  nbrs[i] holds the earlier
    depths of its neighbours, in increasing order, and lone[i] those of them
    whose subsets the Sperner rule must still exclude at depth i: all of them
    without the cover rule, and under it only the j with no loop and no
    neighbour before depth i, since otherwise a completed union holding
    column j already forbids them.  Under the cover rule, scans[i] holds for
    each earlier neighbour j the triple (j, range(i - 1, j, -1),
    range(j - 1, -1, -1)): the earlier depths other than j, most recent first,
    whose columns the union of the edge (j, i) must not cover; without it
    scans is empty.  loops[i] says whether the vertex has a loop; zero_ok[i]
    and full_ok[i] say whether the empty and the full column may go there.
    sperner asks neighbouring columns to be incomparable, cover asks no
    column to lie inside the union of an edge (or the column of a loop) that
    misses its vertex.  No field depends on t, so one record serves a search
    at every row count.
    """

    order: tuple[int, ...]
    loops: tuple[bool, ...]
    sperner: bool
    cover: bool
    zero_ok: tuple[bool, ...]
    full_ok: tuple[bool, ...]
    nbrs: tuple[tuple[int, ...], ...]
    lone: tuple[tuple[int, ...], ...]
    scans: tuple[tuple[tuple[int, range, range], ...], ...]


@lru_cache(maxsize=None)
def _tables(t: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Candidate masks over the 2^t columns on t rows: (sub, out, canon).

    sub[u] holds the columns that are subsets of u, out[m] the columns that
    are not supersets of m, and canon[k] the columns whose rows outside the
    lowest k are the next lowest ones (the canonical candidates once rows
    0..k-1 are used).  Built on first use for each t; they take about
    2^(2t) bits.
    """
    full = (1 << t) - 1
    every = (1 << (full + 1)) - 1
    sub = [1] * (full + 1)
    for u in range(1, full + 1):
        low = u & -u
        s = sub[u ^ low]
        sub[u] = s | s << low
    out = tuple(every ^ (sub[full ^ m] << m) for m in range(full + 1))
    canon = []
    for k in range(t + 1):
        below = sub[(1 << k) - 1]
        mask = 0
        for j in range(t - k + 1):
            mask |= below << (((1 << j) - 1) << k)
        canon.append(mask)
    return tuple(sub), out, tuple(canon)


def walk(t: int, problem: Problem, budget: int) -> tuple[str, list[int], int]:
    """Depth-first search over column assignments, lowest candidate first.

    Returns (status, best, nodes): status is "found" once every depth has a
    column, "exhausted" when the whole tree holds no such assignment, and
    "budget-exceeded" when node budget + 1 was reached; `best` is the deepest
    assignment reached, indexed by depth.  `nodes` counts the nodes of every
    subtree the memo skips, as if it had been walked.
    """
    nbrs, lone, scans, loops = problem.nbrs, problem.lone, problem.scans, problem.loops
    need_sperner, need_cover = problem.sperner, problem.cover
    looped = need_cover and any(loops)
    n = len(problem.order)
    sub, out, canon = _tables(t)
    top = 1 << ((1 << t) - 1)  # candidate bit of the full column
    # Per depth: the candidates the end-column rules leave.
    ends = [(-1 if z else ~1) & (-1 if f else ~top)
            for z, f in zip(problem.zero_ok, problem.full_ok)]
    cols = [0] * n
    used = [0] * (n + 1)
    forb = [0] * (n + 1)  # candidates inside a completed edge's or loop's union
    # free[d]: candidates containing none of the first d columns (loops only)
    free = [-1] * (n + 1) if looped else None
    left = [0] * n  # candidates not yet tried at each depth
    best: list[int] = []
    reach = 0  # deepest depth reached; best is cols[:reach] once left behind
    nodes = 0
    depth = 0
    # Memo of exhausted subtrees, keyed by the canonical form of their prefix
    # (see the module docstring).  For d <= MEMO_DEPTH, classes[d] holds the
    # row classes of cols[:d] as row masks, in order; key[d] packs the sizes the
    # columns gave in fields of `width` bits after a leading 1.  The fields
    # read so far fix the class sizes and so how many fields the next column
    # adds, so keys of different prefix lengths differ; start[d] is the node
    # count on entering depth d.
    memo_depth = MEMO_DEPTH
    memo: dict[int, int] = {}
    classes: list[list[int]] = [[]] * (memo_depth + 1)
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
            k = key[depth]
            parts = []
            for x in classes[depth]:
                y = x & c
                k = k << width | popcount(y)
                if y:
                    parts.append(y)
                if x != y:
                    parts.append(x ^ y)
            y = c & ~used[depth]
            k = k << width | popcount(y)
            skip = memo.get(k)
            if skip is not None and nodes + skip <= budget:
                nodes += skip  # an isomorphic copy of this subtree is exhausted
                continue
            if y:
                parts.append(y)
            classes[depth + 1] = parts
            key[depth + 1] = k
            start[depth + 1] = nodes
        cols[depth] = c
        used[depth + 1] = used[depth] | c
        if need_cover:
            f = forb[depth]
            for j in nbrs[depth]:
                f |= sub[cols[j] | c]
            if loops[depth]:
                f |= sub[c]
            forb[depth + 1] = f
            if looped:
                free[depth + 1] = free[depth] & out[c]
        depth += 1
        if depth > reach:
            reach = depth
            if depth == n:
                return "found", cols, nodes

        # The child's candidates, filtered in place; the cover scan stops at
        # the first filter that leaves none.
        m = canon[used[depth].bit_length()] & ends[depth] & ~forb[depth]
        if need_sperner:
            for j in lone[depth]:
                m &= ~sub[cols[j]]
            if not need_cover:
                for j in nbrs[depth]:
                    m &= out[cols[j]]
        if need_cover and m:
            if loops[depth]:
                m &= free[depth]
            for j, later, earlier in scans[depth]:
                cj = cols[j]
                if need_sperner:  # no superset of column j either
                    m &= out[cj]
                keep = ~cj
                for w in later:
                    m &= out[cols[w] & keep]
                    if not m:
                        break
                else:
                    for w in earlier:
                        m &= out[cols[w] & keep]
                        if not m:
                            break
                if not m:
                    break
