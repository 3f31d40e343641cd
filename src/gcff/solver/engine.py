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
of at most MEMO_DEPTH columns: its length and the multiset of its row
patterns, a row's pattern being the set of prefix columns that hold it.  The
walk keeps the patterns in one int, a 4-bit field per row, and column c at
depth d ORs in spread[c] << d.  The key sums one lookup per 12-bit chunk
(three rows) in a 4,096-entry table, which puts a 4-bit count at bit 4p for
each nonzero pattern p, and skips the chunks above row 5 while they are
zero; an empty column leaves the multiset as it was, so the length goes in
the free field of pattern 0.  Fifteen fields hold SEARCH_ROW_CAP rows, a
field a pattern of MEMO_DEPTH columns and a count field t, so two prefixes
with one key have one length and one multiset of patterns.  The
used rows, those with a nonzero pattern, are the lowest ones, so the two
differ by a permutation of their used rows.  Every filter of the walk (sub,
out, canon, the end-column masks, forb, free) commutes with that
permutation, so it maps the subtree below one prefix onto the subtree below
the other.  Once the subtree below a prefix is exhausted its node count is
stored under the key; a later prefix with the same key whose count fits the
remaining budget adds the count and takes the next candidate instead.  The
skipped subtree is an isomorphic copy of an exhausted one: it holds no
complete assignment and reaches no deeper than its twin, so statuses,
witnesses, deepest assignments and node counts are those of the full walk,
and "exhausted" still rules out the whole tree.  A node count is therefore
the size of the tree; the nodes walked leave out the skipped subtrees.

The one entry point is `walk(t, problem, budget)`.  A frozen `Problem` record
states the instance depth by depth (vertex order, earlier neighbours and
the depth ranges of their cover scans, loops, which properties apply,
whether the empty and the full column are allowed), and `walk` answers with
the status strings of the solver's result types.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

#: Longest prefix, in columns, whose exhausted subtree the memo records; a
#: row's 4-bit pattern field holds four.  Nodes walked for cycle:10 at t = 6
#: (tree size 57,412): 14,351 at limit 3, 11,208 at 4, 10,485 at 5 and 10,395
#: with no limit; for K_9 at t = 8 (761,360): 119,420, 59,508, 52,314 and
#: 51,674.  perfbench table4-proofs with the row-pattern key, 6-s runs on a
#: 2-core host, seeds 31-38 each, medians [ranges]: wall_s 0.104 [0.103-0.121]
#: s at limit 3 and 0.087 [0.086-0.089] s at 4; op_p90_ms 12.4 and 10.2;
#: op_p50_ms 0.47 and 0.48.  Limit 5 needs 5-bit fields; with the old
#: class-split key it cost more than its few extra skips saved.
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
def _tables(t: int) -> tuple[tuple[int, ...], ...]:
    """Candidate masks over the 2^t columns on t rows, and the memo's
    spreads: (sub, out, canon, spread).

    sub[u] holds the columns that are subsets of u, out[m] the columns that
    are not supersets of m, and canon[k] the columns whose rows outside the
    lowest k are the next lowest ones (the canonical candidates once rows
    0..k-1 are used).  spread[c] moves bit r of column c to bit 4r, row r's
    field.  Built on first use for each t; the masks take about 2^(2t) bits,
    the spreads 2^t ints.
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
    # the binary digits of c read as hexadecimal ones
    spread = tuple(int(f"{c:b}", 16) for c in range(full + 1))
    return tuple(sub), out, tuple(canon), spread


@lru_cache(maxsize=1)
def _counts() -> tuple[int, ...]:
    """Per 12-bit chunk of a row-pattern int (three 4-bit row fields), how
    many of its rows have each nonzero pattern p, at bit 4p.  Built on first
    use; its 816 distinct values are shared, a third of the memory."""
    seen: dict[int, int] = {}
    return tuple(seen.setdefault(v, v) for v in (
        sum(1 << 4 * p for p in (x & 15, x >> 4 & 15, x >> 8) if p) for x in range(1 << 12)))


def walk(t: int, problem: Problem, budget: int) -> tuple[str, list[int], int, int]:
    """Depth-first search over column assignments, lowest candidate first.

    Returns (status, best, nodes, walked): status is "found" once every depth
    has a column, "exhausted" when the whole tree holds no such assignment,
    and "budget-exceeded" when node budget + 1 was reached; `best` is the
    deepest assignment reached, indexed by depth.  `nodes` counts the nodes
    of every subtree the memo skips, as if walked; `walked` leaves them out.
    """
    nbrs, lone, scans, loops = problem.nbrs, problem.lone, problem.scans, problem.loops
    need_sperner, need_cover = problem.sperner, problem.cover
    looped = need_cover and any(loops)
    n = len(problem.order)
    sub, out, canon, spread = _tables(t)
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
    nodes = skipped = 0
    depth = 0
    # Memo of exhausted subtrees (see the module docstring).  For d <=
    # MEMO_DEPTH: the row patterns of cols[:d], its key, and the node count on
    # entering depth d.
    memo_depth = MEMO_DEPTH
    memo: dict[int, int] = {}
    count = _counts()
    rowpat = [0] * (memo_depth + 1)
    key = [0] * (memo_depth + 1)
    start = [0] * (memo_depth + 1)
    m = canon[0] & ends[0]  # depth 0 has no earlier column to filter against

    while True:
        while not m:
            if depth == reach > len(best):
                best = cols[:reach]
            if depth == 0:
                return "exhausted", best, nodes, nodes - skipped
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
            return "budget-exceeded", best, nodes, nodes - skipped
        if depth < memo_depth:
            p = rowpat[depth] | spread[c] << depth
            k = depth + count[p & 4095] + count[p >> 12 & 4095]
            if p >> 24:  # a row above 5 is used
                k += count[p >> 24 & 4095] + count[p >> 36 & 4095] + count[p >> 48]
            skip = memo.get(k)
            if skip is not None and nodes + skip <= budget:
                nodes += skip  # an isomorphic copy of this subtree is exhausted
                skipped += skip
                continue
            rowpat[depth + 1] = p
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
                return "found", cols, nodes, nodes - skipped

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
