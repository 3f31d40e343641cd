"""Binary incidence matrices, set systems, and the verification predicates.

A family of n subsets of the ground set [1, t] is stored column-wise: column
j is a t-bit integer whose bit i (0-based) is set iff ground element i+1
belongs to block j.  Columns are indexed by graph vertices 0..n-1, in label
order.  Every containment test is `IncidenceMatrix.inside(u)`.  It reads one
table per block of four rows (row i is an n-bit integer, bit j = entry (i, j);
each table holds, for every subset of its block, the columns absent from all
rows of that subset), so it costs one lookup and one big-integer AND per block,
ceil(t / 4) in all, instead of a scan over the n columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, repeat
from operator import xor
from typing import Iterable, Optional

import numpy as np

from .errors import InvalidInputError
from .graphs import Graph

#: Columns must fit in one machine word.
GROUND_CAP = 64


@dataclass(frozen=True)
class IncidenceMatrix:
    """A t x n binary matrix, column j <-> vertex j."""

    t: int
    cols: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.t < 1:
            raise InvalidInputError(f"need at least one row, got t={self.t}")
        if self.t > GROUND_CAP:
            raise InvalidInputError(f"ground set capped at {GROUND_CAP}, got t={self.t}")
        if not self.cols:
            raise InvalidInputError("need at least one column")
        full = (1 << self.t) - 1
        for j, c in enumerate(self.cols):
            if c < 0 or c & ~full:
                raise InvalidInputError(f"column {j} has bits outside rows 1..{self.t}")

    @property
    def n(self) -> int:
        return len(self.cols)

    def entry(self, row: int, col: int) -> int:
        """Entry in row `row` (0-based) and the column of vertex `col`."""
        return (self.cols[col] >> row) & 1

    @cached_property
    def tables(self) -> tuple[tuple[int, ...], ...]:
        """One table per block of four rows (the last padded with empty rows):
        entry s of table k holds, as bits of an n-bit int, the columns absent
        from every row 4k + i with bit i of s set.  Entry 0 is every column,
        and row 4k + i is entry 0 XOR entry 1 << i."""
        t, full = self.t, (1 << len(self.cols)) - 1
        # Each column as "0b1" and its t complemented digits (XOR with
        # 2^(t+1) - 1 flips them and sets the bit above), last column first;
        # row i's digits, every (t + 3)-th character, spell in binary the
        # columns absent from row i.
        s = "".join(map(bin, map(xor, reversed(self.cols), repeat((2 << t) - 1))))
        step = t + 3
        absent = [int(s[step - 1 - i::step], 2) for i in range(t)]
        absent += [full] * (-t % 4)
        tables = []
        for a, b, c, d in zip(*[iter(absent)] * 4):
            ab, cd = a & b, c & d
            tables.append((full, a, b, ab, c, a & c, b & c, ab & c,
                           d, a & d, b & d, ab & d, cd, a & cd, b & cd, ab & cd))
        return tuple(tables)

    @property
    def rows(self) -> tuple[int, ...]:
        """The dual set system: bit j of row i is entry (i, j)."""
        return tuple(tab[0] ^ tab[1 << i] for tab in self.tables for i in range(4))[:self.t]

    def inside(self, u: int) -> int:
        """Columns whose block lies inside row set u, as bits of an int: those
        absent from every row outside u, one table lookup per block of rows."""
        # ~u is negative, so shifting it keeps ones above row t: those index
        # the padded rows of the last block, which exclude no column
        inside, rest = -1, ~u
        for tab in self.tables:
            inside &= tab[rest & 15]
            rest >>= 4
        return inside

    def row_string(self, row: int) -> str:
        tab = self.tables[row >> 2]
        return format(tab[0] ^ tab[1 << (row & 3)], f"0{self.n}b")[::-1]

    def column_weight(self, col: int) -> int:
        return bin(self.cols[col]).count("1")

    def restrict_columns(self, keep: Iterable[int]) -> "IncidenceMatrix":
        return IncidenceMatrix(self.t, tuple(self.cols[j] for j in keep))

    def to_text(self) -> str:
        lines = [f"{self.t} {self.n}"]
        lines.extend(self.row_string(i) for i in range(self.t))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "IncidenceMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip() != ""]
        if not lines:
            raise InvalidInputError("empty matrix file")
        head = lines[0].split()
        if len(head) != 2:
            raise InvalidInputError(f"bad header {lines[0]!r}, expected 't n'")
        try:
            t, n = int(head[0]), int(head[1])
        except ValueError:
            raise InvalidInputError(f"bad header {lines[0]!r}") from None
        if len(lines) != t + 1:
            raise InvalidInputError(f"expected {t} matrix rows, got {len(lines) - 1}")
        rows = [line.strip() for line in lines[1:]]
        # the first bad row is reported: rows before the first one of the wrong
        # length or with a non-ASCII character are encoded, then scanned for
        # bytes other than "0" and "1", which differ only in their last bit
        good = next((i for i, row in enumerate(rows) if len(row) != n or not row.isascii()), t)
        data = np.frombuffer("".join(rows[:good]).encode("ascii"), dtype=np.uint8)
        bad = np.flatnonzero((data | 1) != ord("1"))
        first = int(bad[0]) // n if len(bad) else good
        if first < t:
            raise InvalidInputError(f"row {first + 1} is not {n} characters of 0/1: {rows[first]!r}")
        if t > GROUND_CAP:
            raise InvalidInputError(f"ground set capped at {GROUND_CAP}, got t={t}")
        # one array op per row over all columns: row i sets bit i
        cols = np.zeros(n, dtype=np.uint64)
        for i, row in enumerate(data.reshape(t, n) & 1):
            cols |= row.astype(np.uint64) << np.uint64(i)
        return cls(t, tuple(cols.tolist()))

    @classmethod
    def from_rows(cls, rows: list[str]) -> "IncidenceMatrix":
        """Build from a list of equal-length 0/1 strings (top row first)."""
        return cls.from_text(f"{len(rows)} {len(rows[0])}\n" + "\n".join(rows))

    @classmethod
    def identity(cls, n: int) -> "IncidenceMatrix":
        return cls(n, tuple(1 << i for i in range(n)))


@dataclass(frozen=True)
class SetSystem:
    """n blocks over the ground set [1, t]; block i corresponds to vertex i."""

    ground_size: int
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.ground_size < 1:
            raise InvalidInputError("ground set must be non-empty")
        for i, b in enumerate(self.blocks):
            for x in b:
                if not 1 <= x <= self.ground_size:
                    raise InvalidInputError(
                        f"block {i} contains {x}, outside [1, {self.ground_size}]"
                    )


def matrix_from_sets(s: SetSystem) -> IncidenceMatrix:
    cols = tuple(sum(1 << (x - 1) for x in b) for b in s.blocks)
    return IncidenceMatrix(s.ground_size, cols)


def sets_from_matrix(m: IncidenceMatrix) -> SetSystem:
    blocks = tuple(
        frozenset(i + 1 for i in range(m.t) if (c >> i) & 1) for c in m.cols
    )
    return SetSystem(m.t, blocks)


# ---------------------------------------------------------------------------
# Verification predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    """First failure found by a verifier, for debugging constructions.

    kind is one of "sperner", "cover", "loop"; `edge` is the offending edge
    (or (v, v) for a loop) and `column` the covered/contained vertex, when
    one is involved.
    """

    kind: str
    edge: tuple[int, int]
    column: Optional[int] = None

    def __str__(self) -> str:
        if self.kind == "sperner":
            return f"not Sperner for edge {self.edge}"
        if self.kind == "loop":
            return f"column {self.column} contained in loop vertex {self.edge[0]}"
        return f"column {self.column} covered by edge {self.edge}"


def _check_vertex(m: IncidenceMatrix, v: int) -> None:
    if not 0 <= v < m.n:
        raise InvalidInputError(f"vertex {v} is not a column label (n={m.n})")


def _check_graph(m: IncidenceMatrix, g: Graph) -> None:
    if g.n != m.n:
        raise InvalidInputError(
            f"graph has {g.n} vertices but matrix has {m.n} columns"
        )


def is_sperner_for_edge(m: IncidenceMatrix, a: int, b: int) -> bool:
    """Neither endpoint's block contains the other's."""
    _check_vertex(m, a)
    _check_vertex(m, b)
    if a == b:
        raise InvalidInputError("Sperner test needs a proper edge, got a loop")
    ca, cb = m.cols[a], m.cols[b]
    return bool(ca & ~cb) and bool(cb & ~ca)


def is_coverfree_for_edge(m: IncidenceMatrix, a: int, b: int) -> bool:
    """No other block is contained in the union of the two endpoint blocks."""
    _check_vertex(m, a)
    _check_vertex(m, b)
    if a == b:
        raise InvalidInputError("cover test needs a proper edge, got a loop")
    return not m.inside(m.cols[a] | m.cols[b]) & ~(1 << a | 1 << b)


def find_sperner_violation(m: IncidenceMatrix, g: Graph) -> Optional[Violation]:
    _check_graph(m, g)
    cols = m.cols
    for a, b in g.edges:
        ca, cb = cols[a], cols[b]
        if not (ca & ~cb) or not (cb & ~ca):
            return Violation("sperner", (a, b))
    return None


def find_cover_violation(m: IncidenceMatrix, g: Graph) -> Optional[Violation]:
    _check_graph(m, g)
    cols, inside = m.cols, m.inside
    # The columns inside an edge's union always include its own two, so
    # counting bits finds a violation without masking them out first.
    for a, b in g.edges:
        hit = inside(cols[a] | cols[b])
        if hit.bit_count() > 2:
            hit &= ~(1 << a | 1 << b)
            return Violation("cover", (a, b), (hit & -hit).bit_length() - 1)
    # A loop on v forbids any other column from being contained in column v.
    for v in g.loops:
        hit = inside(cols[v])
        if hit.bit_count() > 1:
            hit &= ~(1 << v)
            return Violation("loop", (v, v), (hit & -hit).bit_length() - 1)
    return None


def find_violation(m: IncidenceMatrix, g: Graph, prop: str = "cff") -> Optional[Violation]:
    """First violation of `prop` in {"cff", "ecff", "sperner"}, or None."""
    if prop == "sperner":
        return find_sperner_violation(m, g)
    if prop == "ecff":
        return find_cover_violation(m, g)
    if prop == "cff":
        return find_cover_violation(m, g) or find_sperner_violation(m, g)
    raise InvalidInputError(f"unknown property {prop!r}")


def is_g_sperner(m: IncidenceMatrix, g: Graph) -> bool:
    return find_sperner_violation(m, g) is None


def is_g_disjunct(m: IncidenceMatrix, g: Graph) -> bool:
    return find_cover_violation(m, g) is None


def is_g_cff(m: IncidenceMatrix, g: Graph) -> bool:
    return find_cover_violation(m, g) is None and find_sperner_violation(m, g) is None


def is_d_disjunct(m: IncidenceMatrix, d: int) -> bool:
    """No column contained in the union of any d others (exact, exponential in d)."""
    if d < 1:
        raise InvalidInputError(f"d must be positive, got {d}")
    if d >= m.n:
        raise InvalidInputError(f"d={d} must be smaller than the column count {m.n}")
    cols = m.cols
    for chosen in combinations(range(m.n), d):
        u = mask = 0
        for j in chosen:
            u |= cols[j]
            mask |= 1 << j
        if m.inside(u) & ~mask:
            return False
    return True
