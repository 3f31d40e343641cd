"""Explicit cover-free-family constructions and `table`, the one list of
those that apply to a member of a family, as `Graph.family` names it:
method, bound source, row count and builder.  `construct` builds and checks
from it, and `bounds.bounds_for` states each row count as a ceiling.  The coloring
row builds over, and counts, the colour classes `class_sizes` reads.

Layout conventions shared with the graph generators: hub vertices occupy
column 0, clique/leaf columns follow in vertex order, and stacked blocks
appear top-down in construction order, so test fixtures can be bit-exact.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from typing import Optional

import numpy as np

from .core import IncidenceMatrix, find_violation, is_d_disjunct, is_g_cff
from .errors import InvalidInputError
from .graphs import Graph, chromatic_number, matching, path
from .graycode import cycle_cff_rows, path_cycle_cff, product_matrix
from .sperner import optimal_1cff, t1


def from_coloring(g: Graph) -> IncidenceMatrix:
    """Block-diagonal construction over the color classes of `Graph.coloring`
    on `Graph.core` (or g), padded by `with_isolated_vertices`, at any size.

    Each class of size n_i > 1 contributes an optimal 1-disjunct block on its
    own rows; singleton classes contribute one row with a single 1.  Classes
    are laid out largest first, ties broken by lowest vertex id, as a
    product: each class's block gains a leading zero column, which every
    vertex outside the class takes.
    """
    if g.loops:
        raise InvalidInputError("coloring construction needs a simple graph")
    if not g.edges:  # no class needs a row: one row, every vertex an all-ones column
        return IncidenceMatrix(1, (1,) * g.n)
    if g.core is not None and g.core is not g:  # the core, then its isolated vertices
        return with_isolated_vertices(from_coloring(g.core), g)
    chromatic_number(g)  # raises where g has no colouring

    classes: dict[int, list[int]] = {}
    for v, c in enumerate(g.coloring):
        classes.setdefault(c, []).append(v)
    ordered = sorted(classes.values(), key=lambda vs: (-len(vs), min(vs)))

    blocks, words = [], np.zeros((g.n, len(ordered)), dtype=np.uint32)
    for i, vs in enumerate(ordered):
        block = IncidenceMatrix.identity(1) if len(vs) == 1 else optimal_1cff(len(vs))
        blocks.append(IncidenceMatrix(block.t, (0, *block.cols)))
        words[vs, i] = range(1, len(vs) + 1)
    return product_matrix(blocks, words)


def class_sizes(g: Graph) -> Optional[tuple[int, ...]]:
    """The colour-class sizes `from_coloring` builds over, of `Graph.core` or of g
    with no core, largest first; () for a simple graph with no edge, where no
    class needs a row (t = 1, any row); None for none."""
    if not (g.edges or g.loops):
        return ()
    colors = (g.core or g).coloring
    return None if colors is None else tuple(sorted(Counter(colors).values(), reverse=True))


def loopless(g: Graph) -> Optional[Graph]:
    """g without its loops where each sits on a vertex with an edge (v, u): the
    cover rule then keeps every column but X_u out of X_v and the Sperner rule
    keeps X_u out, so the loops add no cff rule and g has the loopless graph's
    t and matrices; g where it has no loop; None where a loop sits on a vertex
    with no edge, a rule of its own."""
    if not g.loops:
        return g
    return Graph(g.n, g.edges) if all(g.adj[v] for v in g.loops) else None


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
    """Extend a CFF on `Graph.core` to all of g by giving each isolated vertex
    an all-ones column."""
    if g.core is None or m.n != g.core.n:
        raise InvalidInputError(f"need a matrix on g's (3 or more) non-isolated vertices, got {m.n} columns")
    kept, isolated = iter(m.cols), g.isolated_vertices
    return IncidenceMatrix(m.t, tuple((1 << m.t) - 1 if v in isolated else next(kept) for v in range(g.n)))


# ---------------------------------------------------------------------------
# Cataloged explicit instances
# ---------------------------------------------------------------------------

#: Certified optimal instances: entry name -> (graph, matrix rows top row
#: first, as `IncidenceMatrix.to_text` writes them).  A new witness is one
#: entry.  `table`'s catalog row builds an entry's own graph, and from a
#: path entry P_m every P_n with n <= m, as the first n columns.
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
# The construction table
# ---------------------------------------------------------------------------

#: The methods `construct` knows.  `double` and `catalog` follow the
#: coloring fallback in `table`, so only an explicit method reaches them.
METHODS = ("optimal-1cff", "gray", "star", "windmill", "universal", "coloring", "double", "catalog")

#: A row of `table`.  `rows(sizes)` is the row count given `class_sizes`, which
#: only the coloring row reads, and `build(g)` the g-CFF; both run when called.
Construction = namedtuple("Construction", "method source rows build")


def table(name: Optional[str], args: tuple, n: int) -> list[Construction]:
    """The constructions that apply to a family member on n vertices (name
    None or "file" for a graph no family builds), in the order `auto` tries them."""
    # a cataloged witness serves its own graph; a path witness, every shorter path
    entry, size = next(((key, cg.n) for key, (cg, _) in CATALOG.items() if cg.family == (name, args)
                        or name == "path" == cg.family[0] and n <= cg.n), (None, 0))
    candidates = [
        ("optimal-1cff", "loops-exact", name == "loops", lambda _: t1(n), lambda g: optimal_1cff(n)),
        ("gray", "gray-cycle", name in ("path", "cycle"), lambda _: cycle_cff_rows(n),
         lambda g: path_cycle_cff(n)),
        # identity blocks in the graph's lexicographic vertex order
        ("gray", "gray-transversal", name == "hamming", lambda _: sum(args), lambda g: product_matrix(
            tuple(map(IncidenceMatrix.identity, args)), np.indices(args).reshape(len(args), -1).T)),
        ("star", "star-exact", name == "star" and n >= 3, lambda _: t1(n - 1) + 1, lambda g: star_cff(n)),
        # blades, an identity inner block on k - 1 rows, and the hub row
        ("windmill", "windmill-construction", name == "windmill", lambda _: t1(args[1]) + args[0],
         lambda g: windmill_cff(*args)),
        # the wheel's own check in `construct` covers every rim edge and rim column
        ("universal", "universal-vertex-upper", name == "wheel" and n >= 5,
         lambda _: cycle_cff_rows(n - 1) + 1, lambda g: _universal(path_cycle_cff(n - 1))),
        ("coloring", "coloring-construction", name != "loops",
         # no class (no edge): the one row every matrix has
         lambda sizes: None if sizes is None else sum(map(t1, sizes)) or 1, from_coloring),
        # the check in `construct` covers the half, as it does the wheel's rim
        ("double", "double-cycle", name in ("path", "cycle") and n % 2 == 0 and n >= 6,
         lambda _: cycle_cff_rows(n // 2) + 2, lambda g: _double(path_cycle_cff(n // 2))),
        ("catalog", f"explicit-{name}{size}", entry is not None, lambda _: len(CATALOG[entry][1]),
         lambda g: IncidenceMatrix(len(CATALOG[entry][1]), catalog(entry)[1].cols[:n])),
    ]
    return [Construction(method, source, rows, build)
            for method, source, applies, rows, build in candidates if applies]


def construct(g: Graph, method: str = "auto") -> tuple[IncidenceMatrix, str]:
    """Build a g-CFF by the named method, or for `auto` by the first row of
    `table` for g's family; return (matrix, method used).  The matrix is
    checked with `find_violation` first, and RuntimeError names a method
    whose matrix fails; InvalidInputError names the methods that apply.  A
    graph with loops outside the loops family is built as its `loopless`
    graph, and has none where that is None."""
    name, args = g.family
    plain = g if name == "loops" else loopless(g)
    rows = [] if plain is None else table(name, args, g.n)
    for row in rows:
        if method in ("auto", row.method):
            m = row.build(plain)
            bad = find_violation(m, g, "cff")
            if bad is not None:
                raise RuntimeError(f"construction {row.method} failed verification: {bad}")
            return m, row.method
    names = ", ".join(row.method for row in rows) or "none"
    raise InvalidInputError(
        f"method {method} does not apply to {g.tag or 'this graph'} (applicable: {names})"
    )
