"""Generators for the matroid families used throughout the toolkit:
uniform matroids, parallel blow-ups, the six counting families that
separate the description kinds, bicircular matroids, and the rank-3
graph encodings used by the hardness reductions.

numpy and ``tables`` load only in the table sources of :func:`uniform`
and :func:`bicircular`, when a table is built, so the graph records, the
graph text format and the graph transforms never load them.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Tuple

# ``np`` in annotations is never evaluated
from . import FAMILY_TAGS
from .bitsets import check_ground
from .core import MatroidView, add_parallel, direct_sum, parallel_blowup
from .descriptions import canonical, int_records, to_view


class _MultiGraphFields(NamedTuple):
    v: int
    edges: Tuple[Tuple[int, int], ...]


class MultiGraph(_MultiGraphFields):
    """Vertices 0..v-1 plus an ordered edge list; loops (u == w) and
    parallel edges are allowed."""

    __slots__ = ()

    def __new__(cls, v: int, edges: Tuple[Tuple[int, int], ...]):
        if v < 0:
            raise ValueError(f"negative vertex count {v}")
        for u, w in edges:
            if not (0 <= u < v and 0 <= w < v):
                raise ValueError(f"edge ({u}, {w}) outside {v} vertices")
        return super().__new__(cls, v, edges)

    @property
    def m(self) -> int:
        return len(self.edges)

    def is_simple(self) -> bool:
        """No loops and no two edges on the same unordered pair."""
        pairs = {(min(u, w), max(u, w)) for u, w in self.edges if u != w}
        return len(pairs) == self.m


def multigraph(v: int, edges) -> MultiGraph:
    return MultiGraph(v, tuple((min(u, w), max(u, w)) for u, w in edges))


def parse_graph(text) -> MultiGraph:
    """Graph text format: 'graph n=<v>' then one 'u w' line per edge."""
    v, edges = int_records(text, "graph", "n", 2)
    return multigraph(v, edges)


def serialize_graph(g: MultiGraph) -> str:
    lines = [f"graph n={g.v}"] + [f"{u} {w}" for u, w in g.edges]
    return "\n".join(lines) + "\n"


# -- basic matroids ------------------------------------------------------


def uniform(r: int, n: int) -> MatroidView:
    """U_{r,n}: every set of at most r elements is independent.  A
    table-only view: its one rule is the table ``popcounts <= r``."""
    if not 0 <= r <= n:
        raise ValueError(f"uniform matroid needs 0 <= r <= n, got r={r}, n={n}")

    def table() -> np.ndarray:
        from .tables import popcounts

        return popcounts(n) <= r

    return MatroidView(n, table_source=table)


#: tag -> (smallest n, builder).  L15's sum has rank n + 1; T truncates it to n.
_FAMILIES = {
    "L10": (1, lambda n: uniform(n - 1, n)),
    "L11": (1, lambda n: uniform(1, n)),
    "L15": (
        3,
        lambda n: direct_sum(parallel_blowup(uniform(n - 1, n), n), uniform(2, 2)).truncate(n),
    ),
    "L17": (2, lambda n: add_parallel(uniform(n, 2 * n), 0)),
    "L18": (3, lambda n: parallel_blowup(uniform(n - 1, n), 2)),
    "L20": (1, lambda n: uniform(n, 2 * n)),
}


def separation_family(tag: str, n: int) -> MatroidView:
    """The counting family named by ``tag`` at parameter ``n``.

    L10: U_{n-1,n}              (few spanning sets, many flats)
    L11: U_{1,n}                (few independent sets, many spanning sets)
    L15: T(nU_{n-1,n} + U_{2,2}) (few flats, many non-spanning circuits)
    L17: U_{n,2n} plus one parallel element (3 cyclic flats, many
         dependent hyperplanes)
    L18: 2U_{n-1,n}             (few hyperplanes, many cyclic flats)
    L20: U_{n,2n}               (no non-spanning circuits, many circuits)
    """
    if tag not in _FAMILIES:
        raise ValueError(f"unknown family tag {tag!r}; expected one of {FAMILY_TAGS}")
    smallest, build = _FAMILIES[tag]
    if n < smallest:
        raise ValueError(f"{tag} needs n >= {smallest}")
    return build(n)


# -- graph-derived matroids ----------------------------------------------


def bicircular(g: MultiGraph) -> MatroidView:
    """Bicircular matroid on the edge set of ``g``.

    An edge set is independent iff every connected component of the
    subgraph it induces contains at most one cycle; loops and parallel
    pairs count as cycles.

    A table-only view.  Its table source uses that the bicircular
    matroid is transversal, each edge standing for its set of endpoints
    (Matthews, "Bicircular matroids", Quart. J. Math. 1977).  By Hall's
    theorem a set is independent iff none of its subsets S has more
    edges than the vertices V(S) they touch, so the dependent sets are
    the supersets of {S : |S| > |V(S)|}: an image table of the endpoint
    masks and one up-closure, O(m * 2**m) in numpy passes.
    """

    def table() -> np.ndarray:
        import numpy as np

        from .tables import image_table, popcounts, subset_fold

        # number the touched vertices densely so their masks fit in 48 bits
        slot: dict = {}
        ends = [
            1 << slot.setdefault(u, len(slot)) | 1 << slot.setdefault(w, len(slot))
            for u, w in g.edges
        ]
        touched = np.bitwise_count(image_table(ends))
        return ~subset_fold(popcounts(g.m) > touched, g.m, np.bitwise_or)

    return MatroidView(g.m, table_source=table)


def add_loops(g: MultiGraph, per_vertex: int) -> MultiGraph:
    """Append ``per_vertex`` loops at every vertex, after the original
    edges (vertex 0's loops first)."""
    if per_vertex < 0:
        raise ValueError("per_vertex must be >= 0")
    loops = tuple((u, u) for u in range(g.v) for _ in range(per_vertex))
    return MultiGraph(g.v, g.edges + loops)


def subdivide(g: MultiGraph, t: int) -> MultiGraph:
    """Replace each non-loop edge with a path of length ``t``; loops are
    untouched.  New vertices are appended after the original ones, and
    each path's edges replace the original edge in place in the edge
    order."""
    if t < 1:
        raise ValueError("path length t must be >= 1")
    next_vertex = g.v
    edges: List[Tuple[int, int]] = []
    for u, w in g.edges:
        if u == w or t == 1:
            edges.append((u, w))
            continue
        prev = u
        for _ in range(t - 1):
            edges.append((prev, next_vertex))
            prev = next_vertex
            next_vertex += 1
        edges.append((prev, w))
    return multigraph(next_vertex, edges)


def phi(g: MultiGraph) -> MatroidView:
    """Rank-3 matroid on 2v + m elements built from a simple graph.

    Elements 0..v-1 and v..2v-1 are the two members of each vertex's
    parallel pair; element 2v+k stands for edge k.  The non-spanning
    circuits are the v parallel pairs plus, for each edge, the four
    triples combining one member from each endpoint's pair with the edge
    element.
    """
    if not g.is_simple():
        raise ValueError("phi is defined for simple graphs")
    if g.v < 3:
        raise ValueError("phi needs at least 3 vertices")
    n = check_ground(2 * g.v + g.m)  # before the circuit list is built
    circuits = []
    for i in range(g.v):
        circuits.append((1 << i) | (1 << (g.v + i)))
    for k, (i, j) in enumerate(g.edges):
        y = 1 << (2 * g.v + k)
        for zi in (i, g.v + i):
            for zj in (j, g.v + j):
                circuits.append((1 << zi) | (1 << zj) | y)
    return to_view(canonical("nsc", n, circuits, r=3))


def phi_r(g: MultiGraph, r: int) -> MatroidView:
    """Truncation to rank ``r`` of the bicircular matroid of the
    loop-added, subdivided graph; path length t = ceil((r-1)/2)."""
    if not g.is_simple():
        raise ValueError("phi_r is defined for simple graphs")
    if r <= 2:
        raise ValueError("phi_r needs r > 2")
    h = subdivide(add_loops(g, 1), subdivision_length(r))
    base = bicircular(h)
    if base.full_rank < r:
        raise ValueError(
            f"bicircular rank {base.full_rank} below target rank {r}"
        )
    return base.truncate(r)


def subdivision_length(r: int) -> int:
    """The path length t = ceil((r-1)/2) used by :func:`phi_r`."""
    return math.ceil((r - 1) / 2)
