"""Explicit cover-free-family constructions, and `construct`, which owns the
method table: the names in `METHODS`, the families each applies to, as
`graphs.family_of` reads them (windmill(2, b) is a star), and the order
`auto` tries them in.  Every matrix `construct` returns is checked.

Layout conventions shared with the graph generators: hub vertices occupy
column 0, clique/leaf columns follow in vertex order, and stacked blocks
appear top-down in construction order, so test fixtures can be bit-exact.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import IncidenceMatrix, find_violation, is_d_disjunct, is_g_cff
from .errors import InvalidInputError
from .graphs import Graph, chromatic_number, family_of, matching, path
from .graycode import path_cycle_cff, product_matrix
from .sperner import optimal_1cff


def from_coloring(g: Graph, coloring: Optional[list[int]] = None) -> IncidenceMatrix:
    """Block-diagonal construction over the color classes of a proper coloring.

    Each class of size n_i > 1 contributes an optimal 1-disjunct block on its
    own rows; singleton classes contribute one row with a single 1.  Without
    an explicit coloring it takes `chromatic_number`'s, so a family that
    states its colouring builds at any size.  Classes are laid out largest
    first, ties broken by lowest vertex id.  The layout is a
    product: each class's block gains a leading zero column, which every
    vertex outside the class takes.
    """
    if g.loops:
        raise InvalidInputError("coloring construction needs a simple graph")
    if coloring is None:
        _, coloring = chromatic_number(g, with_witness=True)  # checked there
    elif len(coloring) != g.n:
        raise InvalidInputError("coloring must assign a color to every vertex")
    else:
        for u, v in g.edges:
            if coloring[u] == coloring[v]:
                raise InvalidInputError(f"coloring is not proper on edge ({u},{v})")

    classes: dict[int, list[int]] = {}
    for v in range(g.n):
        classes.setdefault(coloring[v], []).append(v)
    ordered = sorted(classes.values(), key=lambda vs: (-len(vs), min(vs)))

    blocks, words = [], np.zeros((g.n, len(ordered)), dtype=np.uint32)
    for i, vs in enumerate(ordered):
        block = IncidenceMatrix.identity(1) if len(vs) == 1 else optimal_1cff(len(vs))
        blocks.append(IncidenceMatrix(block.t, (0, *block.cols)))
        words[vs, i] = range(1, len(vs) + 1)
    return product_matrix(blocks, words)


def star_cff(n: int) -> IncidenceMatrix:
    """Optimal star CFF: zero hub column over an optimal 1-disjunct leaf block,
    plus one row that is 1 only at the hub."""
    if n < 3:
        raise InvalidInputError("star construction needs n >= 3")
    return _universal(optimal_1cff(n - 1))


def add_universal(m: IncidenceMatrix, g: Graph) -> IncidenceMatrix:
    """Extend a verified g-CFF to one for g plus a universal vertex (column 0)."""
    if g.loops or g.isolated_vertices:
        raise InvalidInputError("universal extension needs a simple graph with no isolated vertex")
    if not is_g_cff(m, g):
        raise InvalidInputError("input matrix fails g-CFF verification")
    return _universal(m)


def _universal(m: IncidenceMatrix) -> IncidenceMatrix:
    return IncidenceMatrix(m.t + 1, (1 << m.t, *m.cols))


def _double(m: IncidenceMatrix) -> IncidenceMatrix:
    """[A | reversed A] over two marker rows: the product of (A, I_2) along
    (0, 0), ..., (n-1, 0), (n-1, 1), ..., (0, 1), a Hamiltonian cycle of
    K_2 x P_n.  So a P_n-CFF A becomes a C_2n-CFF."""
    i = np.arange(m.n)
    words = np.column_stack((np.r_[i, i[::-1]], np.repeat((0, 1), m.n)))
    return product_matrix((m, IncidenceMatrix.identity(2)), words)


def double_path(m: IncidenceMatrix) -> IncidenceMatrix:
    """[A | reversed A] over two marker rows that split the old columns from
    the new.  Read on cycles, a P_n-CFF (a C_n-CFF is one) becomes a
    C_2n-CFF; read on paths, a P_2n-CFF, since P_2n lies inside C_2n.  Both
    readings need only the path check, so `double_cycle` is this function."""
    if not is_g_cff(m, path(m.n)):
        raise InvalidInputError("input matrix fails path-CFF verification")
    return _double(m)


double_cycle = double_path


def windmill_cff(k: int, n: int, inner: Optional[IncidenceMatrix] = None) -> IncidenceMatrix:
    """CFF for n copies of K_k glued at a hub.

    Stacks three bands: blades share a 1-disjunct column per blade, blade
    members get distinct columns of a 2-disjunct inner block, and a final row
    isolates the hub.  Rows: t1(n) + rows(inner) + 1.
    """
    if k < 3 or n < 2:
        raise InvalidInputError("windmill construction needs k >= 3, n >= 2")
    if inner is None:
        inner = IncidenceMatrix.identity(k - 1)
    if inner.n != k - 1:
        raise InvalidInputError(f"inner matrix needs {k - 1} columns, got {inner.n}")
    need_d = 1 if k == 3 else 2
    if not is_d_disjunct(inner, need_d):
        raise InvalidInputError(f"inner matrix is not {need_d}-disjunct")

    # blade i's member j is vertex 1 + i * (k - 1) + j: word (i, j) in lexicographic order
    words = np.indices((n, k - 1)).reshape(2, -1).T
    return _universal(product_matrix((optimal_1cff(n), inner), words))


def with_isolated_vertices(m: IncidenceMatrix, g: Graph) -> IncidenceMatrix:
    """Extend a CFF on g minus its isolated vertices to all of g by giving
    each isolated vertex an all-ones column."""
    isolated = g.isolated_vertices
    if g.n - len(isolated) < 3:
        raise InvalidInputError("need at least 3 non-isolated vertices")
    if m.n != g.n - len(isolated):
        raise InvalidInputError(
            f"matrix has {m.n} columns but g has {g.n - len(isolated)} non-isolated vertices"
        )
    cols = []
    next_col = 0
    for v in range(g.n):
        if v in isolated:
            cols.append((1 << m.t) - 1)
        else:
            cols.append(m.cols[next_col])
            next_col += 1
    return IncidenceMatrix(m.t, tuple(cols))


# ---------------------------------------------------------------------------
# Cataloged explicit instances
# ---------------------------------------------------------------------------

#: Certified optimal instances: entry name -> (graph, matrix rows top row
#: first, as `IncidenceMatrix.to_text` writes them).  A new witness is one
#: entry.  The bounds layer reads every entry straight from this table: an
#: entry bounds its own graph, and P_m on t rows gives t(P_n) <= t, n <= m.
CATALOG: dict[str, tuple[Graph, tuple[str, ...]]] = {
    "E8": (matching(8), (
        "11110000",
        "10001100",
        "01000011",
        "00101010",
        "00010101",
    )),
    "P10": (path(10), (
        "1111100000",
        "1110001110",
        "1000111100",
        "0100010011",
        "0011111001",
        "0001000111",
    )),
}


def catalog(name: str) -> tuple[Graph, IncidenceMatrix]:
    """A cataloged instance, re-verified on every read: the 5x8 matching-CFF
    E8 and the 6x10 path-CFF P10."""
    key = name.strip().upper()
    if key not in CATALOG:
        raise InvalidInputError(f"unknown catalog entry {name!r}")
    g, rows = CATALOG[key]
    m = IncidenceMatrix.from_rows(list(rows))
    bad = find_violation(m, g, "cff")
    if bad is not None:
        raise RuntimeError(f"catalog entry {key} failed verification: {bad}")
    return g, m


# ---------------------------------------------------------------------------
# Choosing a construction
# ---------------------------------------------------------------------------

#: The methods `construct` knows, in the order `auto` tries them.  `double`
#: and `catalog` follow the coloring fallback, so only an explicit method reaches them.
METHODS = ("optimal-1cff", "gray", "star", "windmill", "universal", "coloring", "double", "catalog")


def construct(g: Graph, method: str = "auto") -> tuple[IncidenceMatrix, str]:
    """Build a g-CFF by the named method, or for `auto` by the first
    construction that applies; return (matrix, method used).  The matrix is
    checked with `find_violation` first, and RuntimeError names a method
    whose matrix fails; InvalidInputError names the methods that apply."""
    name, args = family_of(g) or (None, ())
    n = g.n
    entry = next((key for key, (cg, _) in CATALOG.items() if cg.family == g.family), None)
    table = [
        ("optimal-1cff", name == "loops", lambda: optimal_1cff(n)),
        ("gray", name in ("path", "cycle"), lambda: path_cycle_cff(n)),
        # identity blocks in the graph's lexicographic vertex order
        ("gray", name == "hamming", lambda: product_matrix(
            tuple(map(IncidenceMatrix.identity, args)), np.indices(args).reshape(len(args), -1).T)),
        ("star", name == "star" and n >= 3, lambda: star_cff(n)),
        ("windmill", name == "windmill", lambda: windmill_cff(*args)),
        # the wheel's own check below covers every rim edge and rim column
        ("universal", name == "wheel" and n >= 5, lambda: _universal(path_cycle_cff(n - 1))),
        ("universal", name == "universal" and n >= 4, lambda: _universal(star_cff(n - 1))),
        ("coloring", not g.loops, lambda: from_coloring(g)),
        # the check below covers the half, as it does the wheel's rim
        ("double", name in ("path", "cycle") and n % 2 == 0 and n >= 6,
         lambda: _double(path_cycle_cff(n // 2))),
        ("catalog", entry is not None, lambda: catalog(entry)[1]),
    ]
    for used, applies, build in table:
        if applies and method in ("auto", used):
            m = build()
            bad = find_violation(m, g, "cff")
            if bad is not None:
                raise RuntimeError(f"construction {used} failed verification: {bad}")
            return m, used
    names = ", ".join(used for used, applies, _ in table if applies) or "none"
    raise InvalidInputError(
        f"method {method} does not apply to {g.family or 'this graph'} (applicable: {names})"
    )
