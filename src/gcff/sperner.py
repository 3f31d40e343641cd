"""Closed-form Sperner quantities and optimal antichain constructions.

The minimum ground size t1(n) admitting n pairwise-incomparable subsets is
min{t : C(t, floor(t/2)) >= n}; the optimal family takes the first n
floor(t/2)-subsets in lexicographic order.  All binomials are exact integer
arithmetic via math.comb.
"""

from __future__ import annotations

from itertools import combinations, islice
from math import comb

from .core import IncidenceMatrix, find_violation
from .errors import InvalidInputError
from .graphs import Graph, chromatic_number


def t1(n: int) -> int:
    """Smallest t >= 1 with C(t, floor(t/2)) >= n."""
    if n < 1:
        raise InvalidInputError(f"need n >= 1, got {n}")
    t = 1
    while comb(t, t // 2) < n:
        t += 1
    return t


def nbar(n: int) -> int:
    """Smallest central binomial coefficient >= n."""
    if n < 1:
        raise InvalidInputError(f"need n >= 1, got {n}")
    return comb(t1(n), t1(n) // 2)


def doubling_increment(n: int) -> int:
    """Predicted t1(2n) - t1(n): 1 below the half-next-central-binomial knee, else 2."""
    if n < 2:
        raise InvalidInputError(f"need n >= 2, got {n}")
    knee = nbar(nbar(n) + 1) // 2
    return 1 if n <= knee else 2


def half_subsets(t: int):
    """All floor(t/2)-subsets of [1, t] in lexicographic order, as bitmasks:
    the sums of the floor(t/2)-combinations of the t single bits."""
    return map(sum, combinations([1 << i for i in range(t)], t // 2))


def optimal_1cff(n: int) -> IncidenceMatrix:
    """Minimum-ground 1-disjunct matrix: first n half-size subsets of [1, t1(n)]."""
    t = t1(n)
    cols = tuple(islice(half_subsets(t), n))
    return IncidenceMatrix(t, cols)


def g_sperner_witness(g: Graph) -> IncidenceMatrix:
    """A checked g-Sperner matrix on t1(chi) rows, the minimum (`bounds_for`'s
    "sperner-chromatic"): color classes get distinct half-size subsets."""
    classes = optimal_1cff(chromatic_number(g))
    m = IncidenceMatrix(classes.t, tuple(classes.cols[c] for c in g.coloring))
    bad = find_violation(m, g, "sperner")
    if bad is not None:
        raise RuntimeError(f"g-Sperner witness failed verification: {bad}")
    return m
