"""Generators for the matroid families used throughout the toolkit:
uniform matroids, parallel blow-ups, the six counting families that
separate the description kinds, bicircular matroids, and the rank-3
graph encodings used by the hardness reductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from . import FAMILY_TAGS
from .bitsets import check_ground
from .core import MatroidView, add_parallel, direct_sum, parallel_blowup
from .descriptions import description, int_records, to_view
from .tables import image_table, popcounts, up_closure


@dataclass(frozen=True)
class MultiGraph:
    """Vertices 0..v-1 plus an ordered edge list; loops (u == w) and
    parallel edges are allowed."""

    v: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        if self.v < 0:
            raise ValueError(f"negative vertex count {self.v}")
        for u, w in self.edges:
            if not (0 <= u < self.v and 0 <= w < self.v):
                raise ValueError(f"edge ({u}, {w}) outside {self.v} vertices")

    @property
    def m(self) -> int:
        return len(self.edges)

    def is_simple(self) -> bool:
        seen = set()
        for u, w in self.edges:
            if u == w or (u, w) in seen:
                return False
            seen.add((u, w))
        return True


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
    check_ground(n)
    return MatroidView(n, table_source=lambda: popcounts(n) <= r, name=f"U({r},{n})")


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
    if tag == "L10":
        if n < 1:
            raise ValueError("L10 needs n >= 1")
        return uniform(n - 1, n)
    if tag == "L11":
        if n < 1:
            raise ValueError("L11 needs n >= 1")
        return uniform(1, n)
    if tag == "L15":
        if n < 3:
            raise ValueError("L15 needs n >= 3")
        blown = parallel_blowup(uniform(n - 1, n), n)
        summed = direct_sum(blown, uniform(2, 2))
        view = summed.truncate(summed.full_rank - 1)
        view.name = f"T({n}U({n - 1},{n})(+)U(2,2))"
        return view
    if tag == "L17":
        if n < 2:
            raise ValueError("L17 needs n >= 2")
        view = add_parallel(uniform(n, 2 * n), 0)
        view.name = f"U({n},{2 * n})+parallel(0)"
        return view
    if tag == "L18":
        if n < 3:
            raise ValueError("L18 needs n >= 3")
        return parallel_blowup(uniform(n - 1, n), 2)
    if tag == "L20":
        if n < 1:
            raise ValueError("L20 needs n >= 1")
        return uniform(n, 2 * n)
    raise ValueError(f"unknown family tag {tag!r}; expected one of {FAMILY_TAGS}")


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
    check_ground(g.m)

    def table() -> np.ndarray:
        # number the touched vertices densely so their masks fit in 48 bits
        slot: dict = {}
        ends = [
            1 << slot.setdefault(u, len(slot)) | 1 << slot.setdefault(w, len(slot))
            for u, w in g.edges
        ]
        touched = np.bitwise_count(image_table(g.m, ends))
        return ~up_closure(popcounts(g.m) > touched, g.m)

    name = f"B(graph v={g.v} m={g.m})"
    return MatroidView(g.m, table_source=table, name=name)


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
    n = 2 * g.v + g.m
    check_ground(n)
    circuits = []
    for i in range(g.v):
        circuits.append((1 << i) | (1 << (g.v + i)))
    for k, (i, j) in enumerate(g.edges):
        y = 1 << (2 * g.v + k)
        for zi in (i, g.v + i):
            for zj in (j, g.v + j):
                circuits.append((1 << zi) | (1 << zj) | y)
    desc = description("nsc", n, circuits, r=3)
    view = to_view(desc)
    view.name = f"Phi(graph v={g.v} m={g.m})"
    return view


def phi_r(g: MultiGraph, r: int) -> MatroidView:
    """Truncation to rank ``r`` of the bicircular matroid of the
    loop-added, subdivided graph; path length t = ceil((r-1)/2)."""
    if not g.is_simple():
        raise ValueError("phi_r is defined for simple graphs")
    if r <= 2:
        raise ValueError("phi_r needs r > 2")
    t = math.ceil((r - 1) / 2)
    h = subdivide(add_loops(g, 1), t)
    base = bicircular(h)
    if base.full_rank < r:
        raise ValueError(
            f"bicircular rank {base.full_rank} below target rank {r}"
        )
    view = base.truncate(r)
    view.name = f"Phi_{r}(graph v={g.v} m={g.m})"
    return view


def subdivision_length(r: int) -> int:
    """The path length t = ceil((r-1)/2) used by :func:`phi_r`."""
    return math.ceil((r - 1) / 2)
