"""Set systems as binary incidence matrices, and the verification predicates.

A family of n subsets of the ground set [1, t] is stored column-wise: column
j is a t-bit integer whose bit i (0-based) is set iff ground element i+1
belongs to block j.  Columns are indexed by graph vertices 0..n-1, in label
order.  Every containment test is `IncidenceMatrix.inside(u)`, or its loop
inlined in the edge scan of `find_violation`.  It reads one table per
block of up to eight rows (row i is an n-bit integer, bit j = entry (i, j); a
block of r rows has a table of 2^r entries, one for every subset of the
block, holding the columns absent from all rows of that subset, built by
doubling once per row), so it costs one lookup and one big-integer AND per
block, ceil(t / 8) in all, instead of a scan over the n columns.

`find_violation` tests a property's rules in one scan: each edge's union
U = cols[a] | cols[b] is formed once, compared with the edge's two blocks
(Sperner) and counted through the tables (cover).  A cover violation returns
at once and loops follow the edges, so both come before Sperner ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional

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
        # one pass each for the sign and the width; the loop only names the culprit
        if min(self.cols) < 0 or max(self.cols).bit_length() > self.t:
            j = next(j for j, c in enumerate(self.cols) if c < 0 or c.bit_length() > self.t)
            raise InvalidInputError(f"column {j} has bits outside rows 1..{self.t}")

    @property
    def n(self) -> int:
        return len(self.cols)

    @cached_property
    def tables(self) -> tuple[tuple[int, ...], ...]:
        """One table per block of r <= 8 rows: entry s of table k holds, as
        bits of an n-bit int, the columns absent from every row 8k + i with
        bit i of s set.  A table starts as [every column], and each row of
        its block appends every entry so far ANDed with the columns absent
        from that row, giving 2^r entries; row 8k + i is entry 0 XOR entry
        1 << i."""
        t, full = self.t, (1 << len(self.cols)) - 1
        # The complemented columns shifted by 0..t-1 in one broadcast; the
        # low bits of shift i, packed eight columns a byte little-endian,
        # spell in binary the columns absent from row i.
        bits = ~np.array(self.cols, dtype=np.uint64) >> np.arange(t, dtype=np.uint64)[:, None]
        packed = np.packbits(bits.astype(np.uint8) & 1, axis=1, bitorder="little")
        data, width = packed.tobytes(), packed.shape[1]
        absent = [int.from_bytes(data[i:i + width], "little") for i in range(0, t * width, width)]
        tables = []
        for k in range(0, t, 8):
            tab = [full]
            for row in absent[k:k + 8]:
                tab += [entry & row for entry in tab]
            tables.append(tuple(tab))
        return tuple(tables)

    def inside(self, u: int) -> int:
        """Columns whose block lies inside row set u, as bits of an int: those
        absent from every row outside u, one table lookup per block of rows."""
        # only rows below t index the tables, so a last table of r rows is
        # indexed below 2^r
        inside, rest = -1, ~u & ((1 << self.t) - 1)
        for tab in self.tables:
            inside &= tab[rest & 255]
            rest >>= 8
        return inside

    def row_string(self, row: int) -> str:
        tab = self.tables[row >> 3]
        return format(tab[0] ^ tab[1 << (row & 7)], f"0{self.n}b")[::-1]

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
        if t < 1 or n < 1:  # before any row is read, or an array sized by n built
            raise InvalidInputError(
                f"matrix needs at least one row and one column, header gives t = {t}, n = {n}")
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


#: Each property: (the quantity bounds report for it, whether each edge must
#: be Sperner, whether no other column may lie in an edge's union).
PROPERTIES = {"cff": ("t", True, True), "ecff": ("t_e", False, True),
              "sperner": ("t_s", True, False)}


def property_terms(prop: str) -> tuple[str, bool, bool]:
    """`PROPERTIES[prop]`, refusing an unknown property name."""
    if prop not in PROPERTIES:
        raise InvalidInputError(f"unknown property {prop!r}")
    return PROPERTIES[prop]


def find_violation(m: IncidenceMatrix, g: Graph, prop: str = "cff") -> Optional[Violation]:
    """First violation of `prop` in `PROPERTIES`, or None: cover, then loop,
    then Sperner, each the first in edge order."""
    _, sperner, cover = property_terms(prop)
    if g.n != m.n:
        raise InvalidInputError(f"graph has {g.n} vertices but matrix has {m.n} columns")
    cols, rows = m.cols, (1 << m.t) - 1
    if cover:  # a Sperner-only scan builds no tables
        first, *tables = m.tables
    # the first comparable edge; False where the property waives the Sperner rule
    comparable = None if sperner else False
    for a, b in g.edges:
        ca, cb = cols[a], cols[b]
        u = ca | cb
        if comparable is None and (u == ca or u == cb):
            comparable = a, b
            if not cover:
                break
        if cover:
            # `inside` inlined; the columns inside U always include the edge's
            # own two, so counting bits finds a violation without masking them
            rest = u ^ rows
            hit = first[rest & 255]
            for tab in tables:
                rest >>= 8
                hit &= tab[rest & 255]
            if hit.bit_count() > 2:
                hit &= ~(1 << a | 1 << b)
                return Violation("cover", (a, b), (hit & -hit).bit_length() - 1)
    # A loop on v forbids any other column from being contained in column v.
    for v in g.loops if cover else ():
        hit = m.inside(cols[v])
        if hit.bit_count() > 1:
            hit &= ~(1 << v)
            return Violation("loop", (v, v), (hit & -hit).bit_length() - 1)
    return Violation("sperner", comparable) if comparable else None


def is_g_cff(m: IncidenceMatrix, g: Graph) -> bool:
    return find_violation(m, g) is None


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
