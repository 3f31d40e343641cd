"""Expected answers computed by the benchmark itself, never by gcff.

Two kinds of check live here:

* closed-form values from the paper's theorems (Sperner's t1, the 3k / 3k+1 /
  3k+2 interval rule of the Gray-code path/cycle construction, and the radix
  pattern that construction shortens);
* an independent verifier.  It stores the matrix as t row bitsets over the n
  columns, so "column v lies inside the union of edge (a, b)" is one AND-NOT
  over the rows outside the union.  It reports the same *first* violation as
  ``gcff.core.find_violation`` by scanning edges in the graph's iteration
  order and columns in label order, but shares no code with it.
"""

from __future__ import annotations

from math import comb, prod


def t1(m: int) -> int:
    """Smallest t with C(t, floor(t/2)) >= m (Sperner's theorem)."""
    t = 1
    while comb(t, t // 2) < m:
        t += 1
    return t


def interval(n: int) -> tuple[int, int]:
    """(k, case) with n in case 1: (2*3^(k-1), 3^k], case 2: (3^k, 4*3^(k-1)],
    case 3: (4*3^(k-1), 2*3^k]."""
    k = 1
    while n > 2 * 3 ** k:
        k += 1
    if n > 4 * 3 ** (k - 1):
        return k, 3
    if n > 3 ** k:
        return k, 2
    return k, 1


def cycle_rows(n: int) -> int:
    """Rows of the Gray-code C_n-CFF: identity for n = 3, 4, else 3k + case - 1."""
    if n <= 4:
        return n
    k, case = interval(n)
    return 3 * k + case - 1


def cycle_radices(n: int) -> tuple[int, ...]:
    """Radices of the cyclic code the construction shortens to n words."""
    k, case = interval(n)
    if case == 1:
        return (3,) * k
    if case == 2:
        return (2, 2) + (3,) * (k - 1)
    return (2,) + (3,) * k


def reflected_cyclic(radices: tuple[int, ...]) -> bool:
    """Criterion 1: a reflected code is cyclic iff it has one radix or an even first radix."""
    return len(radices) == 1 or radices[0] % 2 == 0


def radix_vectors(limit: int = 4096, digits=(2, 3, 4, 5)) -> list[tuple[int, ...]]:
    """Every radix vector over `digits` with product <= limit (22,502 for the defaults)."""
    out = []
    stack = [()]
    while stack:
        prefix = stack.pop()
        for m in digits:
            vec = prefix + (m,)
            if prod(vec) <= limit:
                out.append(vec)
                stack.append(vec)
    return out


def construct_rows(family: str, args: tuple[int, ...]) -> int:
    """Row count of `gcff construct` (auto method) by the paper's formulas."""
    if family in ("path", "cycle"):
        return cycle_rows(args[0])
    if family == "star":
        return t1(args[0] - 1) + 1
    if family == "wheel":  # universal vertex over the rim cycle
        return cycle_rows(args[0] - 1) + 1
    if family == "windmill":  # t1(blades) + identity inner block + hub row
        k, n = args
        return t1(n) + (2 if k == 3 else k - 1) + 1
    if family == "hamming":  # transversal code: one row per radix symbol
        return sum(args)
    if family == "bipartite":  # two colour classes, one antichain each
        return t1(args[0]) + t1(args[1])
    if family == "matching":
        return 2 * t1(args[0] // 2)
    if family == "loops":
        return t1(args[0])
    if family == "complete":  # n singleton colour classes
        return args[0]
    raise ValueError(f"no row formula for {family}")


class Matrix:
    """A t x n 0/1 matrix held both by columns and by row bitsets."""

    def __init__(self, t: int, cols: list[int]):
        self.t = t
        self.n = len(cols)
        self.cols = cols
        self.rows = [0] * t
        for v, c in enumerate(cols):
            bit = 1 << v
            while c:
                low = c & -c
                self.rows[low.bit_length() - 1] |= bit
                c ^= low

    @classmethod
    def parse(cls, text: str) -> "Matrix":
        """Read the `t n` + rows text format without gcff's parser."""
        lines = text.split()
        t, n = int(lines[0]), int(lines[1])
        rows = lines[2:]
        if len(rows) != t or any(len(r) != n for r in rows):
            raise ValueError("malformed matrix text")
        cols = [0] * n
        for i, row in enumerate(rows):
            bits = int(row[::-1], 2)
            while bits:
                low = bits & -bits
                cols[low.bit_length() - 1] |= 1 << i
                bits ^= low
        return cls(t, cols)

    def text(self) -> str:
        lines = [f"{self.t} {self.n}"]
        for r in self.rows:
            lines.append(format(r, f"0{self.n}b")[::-1])
        return "\n".join(lines) + "\n"

    def _inside(self, u: int) -> int:
        """Bitset of the columns whose block is a subset of u."""
        outside = 0
        for r in range(self.t):
            if not (u >> r) & 1:
                outside |= self.rows[r]
        return ((1 << self.n) - 1) & ~outside

    def first_violation(self, edges, loops, prop: str = "cff"):
        """(kind, (a, b), column) of the first violation, or None.

        Cover violations come first (edges in iteration order, then loops),
        Sperner violations last, the order gcff's verifier reports them in.
        """
        cols = self.cols
        if prop in ("cff", "ecff"):
            for a, b in edges:
                hit = self._inside(cols[a] | cols[b]) & ~(1 << a) & ~(1 << b)
                if hit:
                    return "cover", (a, b), (hit & -hit).bit_length() - 1
            for v in loops:
                hit = self._inside(cols[v]) & ~(1 << v)
                if hit:
                    return "loop", (v, v), (hit & -hit).bit_length() - 1
        if prop in ("cff", "sperner"):
            for a, b in edges:
                ca, cb = cols[a], cols[b]
                if not (ca & ~cb) or not (cb & ~ca):
                    return "sperner", (a, b), None
        return None
