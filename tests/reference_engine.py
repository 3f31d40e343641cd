"""Reference search kernel: exhaustive column assignment with canonical-row
symmetry breaking, one candidate column at a time.

Columns are assigned to vertices in a fixed order; a candidate column is a
bitmask over the t ground rows.  Ground-element relabeling symmetry is broken
by requiring each column's new rows to be exactly the lowest unused ones, so
every row-permutation class is visited once.  Cover constraints are kept
incrementally: each completed edge (and each loop) pushes a forbidden union
that later columns must escape.

This is the straightforward form of ``gcff.solver.engine``, kept as a test
oracle: the bit-parallel kernel must walk the same tree in the same order and
so report identical statuses, witnesses and node counts.
"""

from __future__ import annotations

FOUND = 0
EXHAUSTED = 1
BUDGET = 2


def search_exists(t, n, prev_nbrs, loops, need_sperner, need_cover,
                  zero_ok, full_ok, budget):
    """First complete assignment, or proof by exhaustion that none exists.

    Returns (status, cols-or-None, nodes); `cols` is indexed by position.
    """
    full = (1 << t) - 1
    cols = [0] * n
    used = [0] * (n + 1)
    unions: list[int] = []
    ucount = [0] * (n + 1)
    nxt = [0] * (n + 1)
    nodes = 0
    depth = 0

    while True:
        c = nxt[depth]
        u0 = used[depth]
        nb = prev_nbrs[depth]
        ulim = ucount[depth]
        accept = -1
        while c <= full:
            if c == 0 and not zero_ok[depth]:
                c += 1
                continue
            if c == full and not full_ok[depth]:
                c += 1
                continue
            new = c & ~u0
            if new:
                un = ~u0 & full
                if (un & ((1 << new.bit_length()) - 1)) != new:
                    c += 1
                    continue
            ok = True
            if need_sperner:
                for j in nb:
                    cj = cols[j]
                    if not (c & ~cj) or not (cj & ~c):
                        ok = False
                        break
            if ok and need_cover:
                for k in range(ulim):
                    if c & ~unions[k] == 0:
                        ok = False
                        break
                if ok:
                    for j in nb:
                        u2 = cols[j] | c
                        for w in range(depth):
                            if w != j and cols[w] & ~u2 == 0:
                                ok = False
                                break
                        if not ok:
                            break
                if ok and loops[depth]:
                    for w in range(depth):
                        if cols[w] & ~c == 0:
                            ok = False
                            break
            if ok:
                accept = c
                break
            c += 1

        if accept < 0:
            if depth == 0:
                return EXHAUSTED, None, nodes
            depth -= 1
            del unions[ucount[depth]:]
            continue

        nodes += 1
        if nodes > budget:
            return BUDGET, None, nodes
        cols[depth] = accept
        nxt[depth] = accept + 1
        used[depth + 1] = u0 | accept
        for j in nb:
            unions.append(cols[j] | accept)
        if loops[depth]:
            unions.append(accept)
        ucount[depth + 1] = len(unions)
        depth += 1
        if depth == n:
            return FOUND, cols[:], nodes
        nxt[depth] = 0


def search_longest_path(t, cap, budget):
    """Deepest path-CFF assignment reachable on t rows, by complete search.

    Position i is adjacent to position i-1 only.  Returns
    (status, best_depth, best_cols, nodes); EXHAUSTED means the whole tree was
    explored (or the cap was hit, which is equally conclusive).
    """
    full = (1 << t) - 1
    n = cap
    cols = [0] * n
    used = [0] * (n + 1)
    unions: list[int] = []
    nxt = [0] * (n + 1)
    nodes = 0
    depth = 0
    best_depth = 0
    best_cols: list[int] = []

    while True:
        c = nxt[depth]
        u0 = used[depth]
        accept = -1
        while c <= full:
            if c == 0 or c == full:
                c += 1
                continue
            new = c & ~u0
            if new:
                un = ~u0 & full
                if (un & ((1 << new.bit_length()) - 1)) != new:
                    c += 1
                    continue
            ok = True
            if depth > 0:
                cj = cols[depth - 1]
                if not (c & ~cj) or not (cj & ~c):
                    ok = False
                if ok:
                    for k in range(depth - 1):
                        if c & ~unions[k] == 0:
                            ok = False
                            break
                if ok:
                    u2 = cols[depth - 1] | c
                    for w in range(depth - 1):
                        if cols[w] & ~u2 == 0:
                            ok = False
                            break
            if ok:
                accept = c
                break
            c += 1

        if accept < 0:
            if depth == 0:
                return EXHAUSTED, best_depth, best_cols, nodes
            depth -= 1
            del unions[max(depth - 1, 0):]
            continue

        nodes += 1
        if nodes > budget:
            return BUDGET, best_depth, best_cols, nodes
        cols[depth] = accept
        nxt[depth] = accept + 1
        used[depth + 1] = u0 | accept
        if depth > 0:
            unions.append(cols[depth - 1] | accept)
        depth += 1
        if depth > best_depth:
            best_depth = depth
            best_cols = cols[:depth]
            if best_depth == cap:
                return EXHAUSTED, best_depth, best_cols, nodes
        nxt[depth] = 0
