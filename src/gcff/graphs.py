"""Graph families, the colouring each states, and small exact graph solvers.

Vertices are 0-based; hub vertices (star, wheel, windmill) are vertex 0,
paths and cycles are numbered in traversal order.  A graph's `family`, as
(name, args) such as ("cycle", (8,)), names the family whose generator
builds it with its own vertex labels.  Only the generators write it, through
`_tagged`, which applies every rename once as the graph is built (such as
windmill(2, b) = star(b + 1); `Graph` itself names every K_2 star(2)), so
every layer reads it unchecked; `Graph.tag` is its text.  chi is the colour
count of `Graph.coloring`, the one colouring all layers read.  The set
operations building `Graph.edges` fix its order, which picks the first violation found.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product, repeat
from math import prod
from typing import Iterable, Optional

from .errors import InvalidInputError, ResourceLimitError

#: Exact chromatic/clique solvers refuse larger instances.
EXACT_VERTEX_LIMIT = 20

#: `make_family` refuses a spec whose graph would have more vertices plus
#: edges (loops counted as edges) than this, before building anything; a
#: graph file is refused on its header, before any edge line is read.
#: hamming:4x4x4x4x4x4x4x4 (851,968) and path:300000 (599,999) fit; building
#: a graph of this size takes 1-2 s and about 300 MB, and verifying a matrix
#: on it takes time quadratic in n.
SPEC_SIZE_LIMIT = 10 ** 6


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph, optionally with loop edges."""

    n: int
    edges: frozenset[tuple[int, int]] = frozenset()
    loops: frozenset[int] = frozenset()
    family: tuple = field(default=(None, ()), init=False)

    def __post_init__(self) -> None:
        if self.n == 2 and self.edges and not self.loops:  # K_2, however it was built
            object.__setattr__(self, "family", ("star", (2,)))
        if self.n < 1:
            raise InvalidInputError("graph needs at least one vertex")
        # one pass checks every edge; a second names the first bad one
        n = self.n
        if not all(0 <= u < v < n for u, v in self.edges):
            u, v = next((u, v) for u, v in self.edges if not 0 <= u < v < n)
            if u == v:
                raise InvalidInputError(f"loop ({u},{u}) must go in `loops`, not `edges`")
            raise InvalidInputError(f"bad edge ({u},{v}) for n={n}")
        for v in self.loops:
            if not 0 <= v < n:
                raise InvalidInputError(f"bad loop vertex {v} for n={n}")

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours, in increasing order."""
        nbr: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbr[u].append(v)
            nbr[v].append(u)
        return tuple(tuple(sorted(s)) for s in nbr)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Each vertex's degree, a loop counting one."""
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        for v in self.loops:
            deg[v] += 1
        return tuple(deg)

    @property
    def tag(self) -> Optional[str]:
        """The family as text, such as "cycle(8)", "universal(star(8))" or "file";
        None where no family builds the graph."""
        return _tag(self.family)

    @cached_property
    def coloring(self) -> Optional[tuple[int, ...]]:
        """The colouring in chi colours every layer reads: the family's, as only its generator
        writes the family, else DSATUR's up to `EXACT_VERTEX_LIMIT` vertices."""
        if self.loops:
            return None
        name, args = self.family
        if name in COLORINGS:
            return tuple(COLORINGS[name](self.n, args))
        return tuple(_dsatur(self)) if self.n <= EXACT_VERTEX_LIMIT else None

    @cached_property
    def isolated_vertices(self) -> frozenset[int]:
        return frozenset(v for v, d in enumerate(self.degrees) if d == 0)

    @cached_property
    def core(self) -> Optional["Graph"]:
        """g without its isolated vertices or family, the graph the bounds and the
        coloring construction read; g where it has none (as has every family member
        with a stated colouring on 2 or more vertices), None where under 3 remain."""
        if self.n > 1 and self.family[0] in COLORINGS or not self.isolated_vertices:
            return self
        keep = [v for v, d in enumerate(self.degrees) if d > 0]
        relabel = {v: i for i, v in enumerate(keep)}
        edges = frozenset(_norm_edge(relabel[u], relabel[v]) for u, v in self.edges)
        loops = frozenset(relabel[v] for v in self.loops)
        return Graph(len(keep), edges, loops) if len(keep) >= 3 else None

    def to_text(self) -> str:
        lines = [f"{self.n} {len(self.edges) + len(self.loops)}"]
        lines.extend(f"{u} {v}" for u, v in sorted(self.edges))
        lines.extend(f"{v} {v}" for v in sorted(self.loops))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        lines = [ln for ln in text.splitlines() if ln.strip() != ""]
        if not lines:
            raise InvalidInputError("empty graph file")
        try:  # two integers, or ValueError
            n, m = map(int, lines[0].split())
        except ValueError:
            raise InvalidInputError(f"bad header {lines[0]!r}, expected 'n m'") from None
        if n < 1:  # before the size check, which a negative n would pass
            raise InvalidInputError(f"graph needs at least one vertex, header gives n = {n}")
        if m < 0:
            raise InvalidInputError(f"bad header {lines[0]!r}, edge count is negative")
        _check_size("graph file", n, m)
        if len(lines) != m + 1:
            raise InvalidInputError(f"expected {m} edge lines, got {len(lines) - 1}")
        edges: set[tuple[int, int]] = set()
        loops: set[int] = set()
        for ln in lines[1:]:
            try:
                u, v = map(int, ln.split())
            except ValueError:
                raise InvalidInputError(f"bad edge line {ln!r}") from None
            if u == v:
                loops.add(u)
            else:
                edges.add(_norm_edge(u, v))
        return _tagged(cls(n, frozenset(edges), frozenset(loops)), "file", ())


# ---------------------------------------------------------------------------
# Family generators
# ---------------------------------------------------------------------------

def _tagged(g: Graph, name: str, args: tuple) -> Graph:
    """Give g the family (name, args) its generator was called with, renamed
    to the one whose generator builds g with g's own labels: a K_2 keeps the
    star(2) `Graph` gave it, windmill(2, b) and bipartite(1, b) are stars,
    windmill(k, 1), W_3 and a one-dimensional hamming(k) complete, and a
    universal vertex over the (renamed) inner family args is a wheel over a
    cycle, complete over a complete graph or K_2, "universal" over another
    star, and (None, ()) over the rest."""
    if g.family != (None, ()):
        return g
    if name == "universal":
        inner = "complete" if args == ("star", (2,)) else args[0]
        name, args = {"star": (name, args), "cycle": ("wheel", (g.n,)),
                      "complete": ("complete", (g.n,))}.get(inner, (None, ()))
    elif (name, args[:1]) in (("windmill", (2,)), ("bipartite", (1,))):
        name, args = "star", (g.n,)
    elif (name, args[-1:]) == ("windmill", (1,)) or (name, g.n) == ("wheel", 3) \
            or (name, args) == ("hamming", (g.n,)):
        name, args = "complete", (g.n,)
    object.__setattr__(g, "family", (name, args))
    return g


def _tag(family: tuple) -> Optional[str]:
    name, args = family
    if name is None:
        return None
    inside = _tag(args) if name == "universal" else ",".join(map(str, args))
    return f"{name}({inside})" if inside else name


def path(n: int) -> Graph:
    if n < 2:
        raise InvalidInputError("path needs n >= 2")
    return _tagged(Graph(n, frozenset(zip(range(n - 1), range(1, n)))), "path", (n,))


def cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidInputError("cycle needs n >= 3")
    edges = {*zip(range(n - 1), range(1, n))} | {(0, n - 1)}
    return _tagged(Graph(n, frozenset(edges)), "cycle", (n,))


def star(n: int) -> Graph:
    """K_{1,n-1}: hub 0 joined to leaves 1..n-1."""
    if n < 2:
        raise InvalidInputError("star needs n >= 2")
    return _tagged(Graph(n, frozenset(zip(repeat(0), range(1, n)))), "star", (n,))


def complete(n: int) -> Graph:
    return _tagged(Graph(n, frozenset(combinations(range(n), 2))), "complete", (n,))


def wheel(n: int) -> Graph:
    """Hub 0 joined to a cycle 1..n-1.  n=3 degenerates to a triangle."""
    if n < 3:
        raise InvalidInputError("wheel needs n >= 3")
    rim = {*zip(range(1, n - 1), range(2, n)), (1, n - 1)}
    hub = {*zip(repeat(0), range(1, n))}
    return _tagged(Graph(n, frozenset(rim | hub)), "wheel", (n,))


def complete_bipartite(n1: int, n2: int) -> Graph:
    if n1 < 1 or n2 < 1:
        raise InvalidInputError("bipartite parts must be non-empty")
    edges = frozenset((a, n1 + b) for a in range(n1) for b in range(n2))
    return _tagged(Graph(n1 + n2, edges), "bipartite", (n1, n2))


def matching(n: int) -> Graph:
    """n vertices, n/2 disjoint edges 2i -- 2i+1."""
    if n < 2 or n % 2:
        raise InvalidInputError("matching needs even n >= 2")
    return _tagged(Graph(n, frozenset((2 * i, 2 * i + 1) for i in range(n // 2))), "matching", (n,))


def windmill(k: int, n: int) -> Graph:
    """n copies of K_k glued at the shared universal vertex 0."""
    if k < 2 or n < 1:
        raise InvalidInputError("windmill needs k >= 2, n >= 1")
    edges: set[tuple[int, int]] = set()
    for i in range(n):
        blade = [0] + [1 + i * (k - 1) + j for j in range(k - 1)]
        edges.update(combinations(blade, 2))
    return _tagged(Graph(n * (k - 1) + 1, frozenset(edges)), "windmill", (k, n))


def friendship(n: int) -> Graph:
    """F_{2n+1}: n triangles sharing vertex 0."""
    return windmill(3, n)


def loops_graph(n: int) -> Graph:
    return _tagged(Graph(n, loops=frozenset(range(n))), "loops", (n,))


def hamming(dims: Iterable[int]) -> Graph:
    """Cartesian product of complete graphs; tuples adjacent iff Hamming distance 1.

    Vertex order is lexicographic over the digit tuples, so v is joined to
    v + a*place whenever the digit of size d at that place is below d - a.
    """
    dims = tuple(dims)
    if not dims or any(d < 2 for d in dims):
        raise InvalidInputError("hamming graph needs every dimension >= 2")
    n = place = prod(dims)
    edges: set[tuple[int, int]] = set()
    for d in dims:
        place //= d
        for v in range(n):
            edges.update((v, v + a * place) for a in range(1, d - v // place % d))
    return _tagged(Graph(n, frozenset(edges)), "hamming", dims)


def sperner_graph(z: int) -> Graph:
    """All subsets of [1,z]; edges between incomparable pairs.

    Vertex i is the subset with characteristic bits of i.
    """
    if z < 1:
        raise InvalidInputError("sperner graph needs z >= 1")
    if z > 6:
        raise InvalidInputError("sperner graph beyond z=6 is too large to be useful here")
    n = 1 << z
    edges = set()
    for x in range(n):
        for y in range(x + 1, n):
            if (x & ~y) and (y & ~x):
                edges.add((x, y))
    return _tagged(Graph(n, frozenset(edges)), "sperner", (z,))


def add_universal_vertex(g: Graph) -> Graph:
    """New universal vertex becomes vertex 0; old vertices shift up by one."""
    if g.loops:
        raise InvalidInputError("universal-vertex extension needs a simple graph")
    edges = {(_norm_edge(u + 1, v + 1)) for u, v in g.edges}
    edges.update((0, v + 1) for v in range(g.n))
    return _tagged(Graph(g.n + 1, frozenset(edges)), "universal", g.family)


#: Each spec family: (generator, argument count, argument separator,
#: (vertices, edges + loops) from the arguments), so that `make_family` can
#: refuse an oversized spec before building it.  Hamming specs take any
#: number of dimensions (count 0); Sperner graphs carry no size because
#: `sperner_graph` refuses z > 6 before forming any power of z.
SPEC_FAMILIES = {
    "path": (path, 1, ",", lambda n: (n, n - 1)),
    "cycle": (cycle, 1, ",", lambda n: (n, n)),
    "star": (star, 1, ",", lambda n: (n, n - 1)),
    "wheel": (wheel, 1, ",", lambda n: (n, 2 * n - 2 if n > 3 else 3)),
    "complete": (complete, 1, ",", lambda n: (n, n * (n - 1) // 2)),
    "bipartite": (complete_bipartite, 2, ",", lambda n1, n2: (n1 + n2, n1 * n2)),
    "matching": (matching, 1, ",", lambda n: (n, n // 2)),
    "windmill": (windmill, 2, ",", lambda k, n: (n * (k - 1) + 1, n * (k * (k - 1) // 2))),
    "friendship": (friendship, 1, ",", lambda n: (2 * n + 1, 3 * n)),
    "loops": (loops_graph, 1, ",", lambda n: (n, n)),
    "hamming": (lambda *dims: hamming(dims), 0, "x",
                lambda *d: (prod(d), prod(d) * sum(x - 1 for x in d) // 2)),
    "sperner": (sperner_graph, 1, ",", None),
}


def _check_size(spec: str, n: int, m: int) -> None:
    if n + m > SPEC_SIZE_LIMIT:
        raise ResourceLimitError(
            f"{spec} would have {n:,} vertices and {m:,} edges; graph specs are "
            f"limited to {SPEC_SIZE_LIMIT:,} vertices plus edges"
        )


def make_family(spec: str) -> Graph:
    """Build a graph from a spec string such as "cycle:12" or "hamming:2x2x3"."""
    name, sep, arg = spec.partition(":")
    name = name.strip().lower()
    if not sep:
        raise InvalidInputError(f"graph spec {spec!r} needs the form family:args")
    if name == "file":
        with open(arg) as f:
            return Graph.from_text(f.read())
    if name not in SPEC_FAMILIES:
        raise InvalidInputError(f"unknown graph family {name!r}")
    fn, arity, sep, size = SPEC_FAMILIES[name]
    try:
        args = [int(x) for x in arg.lower().split(sep)]
    except ValueError:
        raise InvalidInputError(f"bad arguments {arg!r} for {name}") from None
    if arity and len(args) != arity:
        raise InvalidInputError(f"{name} takes {arity} argument(s), got {len(args)}")
    if size is not None:
        # arguments below zero are refused by the generator, not reported as a size
        _check_size(spec, *size(*(max(a, 0) for a in args)))
    return fn(*args)


# ---------------------------------------------------------------------------
# Exact solvers: chromatic number and clique number
# ---------------------------------------------------------------------------

def _hamming_coloring(n: int, dims: tuple) -> list[int]:
    """Digit sums modulo the largest dimension, by which no digit changes."""
    modulus = max(dims)
    return [sum(w) % modulus for w in product(*map(range, dims))]


#: The colouring in chi colours each family states, from (n, args) as
#: `Graph.family` holds them (a universal family is over a star).
COLORINGS = {
    "path": lambda n, args: [v % 2 for v in range(n)],
    "matching": lambda n, args: [v % 2 for v in range(n)],
    "cycle": lambda n, args: [v % 2 for v in range(n - 1)] + [1 + n % 2],
    "wheel": lambda n, args: [0] + [1 + c for c in COLORINGS["cycle"](n - 1, ())],
    "star": lambda n, args: [0] + [1] * (n - 1),
    "bipartite": lambda n, args: [0] * args[0] + [1] * args[1],
    "complete": lambda n, args: list(range(n)),
    "windmill": lambda n, args: [0] + list(range(1, args[0])) * args[1],
    "hamming": _hamming_coloring,
    "universal": lambda n, args: [0, 1] + [2] * (n - 2),
}


def _require_small_simple(g: Graph, what: str) -> None:
    if g.loops:
        raise InvalidInputError(f"{what} is defined for simple graphs only")
    if g.n > EXACT_VERTEX_LIMIT:
        raise ResourceLimitError(f"{what} limited to {EXACT_VERTEX_LIMIT} vertices, got {g.n}")


def clique_number(g: Graph) -> tuple[int, list[int]]:
    """Exact max clique by branch and bound, branching on the lowest
    candidate vertex first: its size and its vertices."""
    _require_small_simple(g, "clique number")
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = [0, 0]  # size, vertex mask

    def grow(clique_mask: int, size: int, cand: int) -> None:
        if size + bin(cand).count("1") <= best[0]:
            return
        if cand == 0:
            if size > best[0]:
                best[0], best[1] = size, clique_mask
            return
        while cand:
            if size + bin(cand).count("1") <= best[0]:
                return
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            grow(clique_mask | (1 << v), size + 1, cand & adj[v])

    grow(0, 0, (1 << g.n) - 1)
    return best[0], [v for v in range(g.n) if (best[1] >> v) & 1]


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number: the colour count of `Graph.coloring`."""
    if g.coloring is None:  # loops, or too large for DSATUR: say which
        _require_small_simple(g, "chromatic number")
    return max(g.coloring) + 1


def _dsatur(g: Graph) -> list[int]:
    """A colouring in chi(g) colours, by DSATUR branch and bound (Brelaz 1979)."""
    n, adj = g.n, g.adj
    lb, clique = clique_number(g)
    colors = [-1] * n

    def solve(num_colored: int, used: int, limit: int) -> Optional[list[int]]:
        if num_colored == n:
            return colors[:]
        # most distinct neighbour colours, then highest degree, then lowest label
        v = max(
            (x for x in range(n) if colors[x] < 0),
            key=lambda x: (len({colors[u] for u in adj[x]} - {-1}), len(adj[x])),
        )
        forbidden = {colors[u] for u in adj[v]}
        for c in range(min(used + 1, limit)):
            if c in forbidden:
                continue
            colors[v] = c
            got = solve(num_colored + 1, max(used, c + 1), limit)
            if got is not None:
                return got
            colors[v] = -1
        return None

    # With n colours allowed the first branch always succeeds: greedy DSATUR,
    # each vertex taking its smallest free colour, gives the first upper bound.
    greedy = solve(0, 0, n)
    # Branch and bound below it; the max clique is pre-colored to break symmetry.
    colors[:] = [-1] * n
    for i, v in enumerate(clique):
        colors[v] = i
    for k in range(lb, max(greedy) + 1):
        got = solve(len(clique), len(clique), k)
        if got is not None:
            return got
    return greedy
