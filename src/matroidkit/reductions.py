"""Algorithmic problems over described matroids: minor detection,
matroid isomorphism (direct checker and the graph encoding), 3-matroid
intersection, and the instance builders that tie them to 3-dimensional
matching, subgraph isomorphism, and independent set.

Every positive decision carries a checkable certificate so tests can
verify answers independently of the search that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import tables
from .bitsets import elements, from_elements, full_mask, maximal_sets
from .core import MatroidView, contract_circuits, restrict_circuits
from .descriptions import Description, description, encode_from_oracle, int_records, to_view
from .families import MultiGraph, phi, phi_r, subdivision_length

if TYPE_CHECKING:
    import networkx as nx


# -- matroid isomorphism -------------------------------------------------


def _element_invariants(view: MatroidView, circuits: Sequence[int]):
    rank = tables.rank_table(view)
    invs = []
    for e in range(view.n):
        bit = 1 << e
        loop = rank[bit] == 0
        cl_size = sum(
            1 for f in range(view.n) if rank[bit | (1 << f)] == rank[bit]
        )
        through = sorted(c.bit_count() for c in circuits if c & bit)
        invs.append((bool(loop), cl_size, len(through), tuple(through)))
    return invs


def isomorphic(a: MatroidView, b: MatroidView) -> Optional[Tuple[int, ...]]:
    """A rank-preserving element bijection from ``a`` to ``b``, or None.

    Backtracking over element assignments, pruned by per-element
    invariants (loop status, parallel-closure size, circuit membership
    profile) and by incremental circuit correspondence.  Exact but
    exponential in the worst case; intended for desk-scale inputs.
    """
    if a.n != b.n or a.full_rank != b.full_rank:
        return None
    if tables.rank_signature(a) != tables.rank_signature(b):
        return None
    n = a.n
    ca = tables.family_masks(a, "circuits")
    cb = tables.family_masks(b, "circuits")
    if len(ca) != len(cb):
        return None
    inv_a = _element_invariants(a, ca)
    inv_b = _element_invariants(b, cb)
    by_inv_b: Dict[tuple, List[int]] = {}
    for f, inv in enumerate(inv_b):
        by_inv_b.setdefault(inv, []).append(f)
    counts_a: Dict[tuple, int] = {}
    for inv in inv_a:
        counts_a[inv] = counts_a.get(inv, 0) + 1
    if {k: len(v) for k, v in by_inv_b.items()} != counts_a:
        return None

    cb_set = set(cb)
    circ_through_a = [[c for c in ca if c >> e & 1] for e in range(n)]
    circ_through_b = [[c for c in cb if c >> f & 1] for f in range(n)]
    # assign scarcest invariant classes first
    order = sorted(range(n), key=lambda e: (len(by_inv_b[inv_a[e]]), e))
    mapping = [-1] * n

    def image(mask: int) -> int:
        out = 0
        for e in elements(mask):
            out |= 1 << mapping[e]
        return out

    def extend(pos: int, domain: int, used: int) -> bool:
        if pos == n:
            return True
        e = order[pos]
        for f in by_inv_b[inv_a[e]]:
            if used >> f & 1:
                continue
            mapping[e] = f
            new_domain = domain | (1 << e)
            new_used = used | (1 << f)
            ok = True
            seen = 0
            for c in circ_through_a[e]:
                if c & new_domain == c:
                    seen += 1
                    if image(c) not in cb_set:
                        ok = False
                        break
            if ok:
                mirrored = sum(
                    1 for c in circ_through_b[f] if c & new_used == c
                )
                ok = mirrored == seen
            if ok and extend(pos + 1, new_domain, new_used):
                return True
            mapping[e] = -1
        return False

    if extend(0, 0, 0):
        return tuple(mapping)
    return None


# -- minor detection -----------------------------------------------------


@dataclass(frozen=True)
class MinorWitness:
    """Certificate for a minor: contract ``x``, delete ``y``, then map
    the minor's element ``i`` to the pattern's element ``iso[i]``."""

    x: int
    y: int
    iso: Tuple[int, ...]


def verify_minor_witness(
    host: MatroidView, pattern: MatroidView, w: MinorWitness
) -> bool:
    minor = host.minor(w.x, w.y)
    if minor.n != pattern.n or sorted(w.iso) != list(range(pattern.n)):
        return False
    rt = tables.rank_table(minor)
    pt = tables.rank_table(pattern)
    for m in range(1 << minor.n):
        img = from_elements(w.iso[i] for i in elements(m))
        if rt[m] != pt[img]:
            return False
    return True


def _distinct_unions(circuits: Sequence[int], t: int) -> List[int]:
    """Distinct unions of exactly ``t`` of the listed circuits, ascending.

    Dynamic programme over the circuit list on boolean tables over the
    ``2**n`` masks: after the first j circuits, level k marks the unions
    of exactly k of them.  Each circuit costs one numpy pass per level,
    however many of the C(c, t) combinations share a union: c * t passes
    over ``2**n`` masks, in (t + 1) * 2**n bytes, however few the unions.
    """
    if t > len(circuits):
        return []
    levels = np.zeros((t + 1, 1 << max(circuits, default=0).bit_length()), dtype=bool)
    levels[0, 0] = True
    for j, c in enumerate(circuits):
        for k in range(min(t, j + 1), 0, -1):
            levels[k, np.flatnonzero(levels[k - 1]) | c] = True
    return np.flatnonzero(levels[t]).tolist()


def detect_minor_fixed(
    host: Description, pattern: MatroidView
) -> Optional[MinorWitness]:
    """Fixed-pattern minor detection on a circuits or hyperplanes
    description.

    Searches size-|N| element subsets A combined with unions of t host
    circuits (t = number of pattern circuits); the contract set is the
    part x of a union outside A.  The minor itself is built by the
    circuit contraction/deletion rules.  Hyperplane hosts are handled by
    dualising both matroids.  A host rank table is memoised as a
    desk-scale accelerator for the rank prefilter.

    Cost: the unions take one pass over a ``2**n`` boolean table per
    circuit and level; each A takes one numpy pass over the unions.  The
    contracted circuit list is memoised per x, so each distinct x pays
    for its contraction once and each (A, x) pair that passes the rank
    prefilter only for the deletion and renumbering.  A minor whose
    circuit sizes differ from the pattern's is dropped before any table
    is built.
    """
    if host.kind == "hyperplanes":
        full = full_mask(host.n)
        dual_host = description("circuits", host.n, [full & ~h for h in host.sets])
        w = detect_minor_fixed(dual_host, pattern.dual())
        if w is None:
            return None
        # (M* / X \ Y)* = M / Y \ X, with the same element bijection
        return MinorWitness(x=w.y, y=w.x, iso=w.iso)
    if host.kind != "circuits":
        raise ValueError(f"host must be circuits or hyperplanes, got {host.kind!r}")

    n = host.n
    full = full_mask(n)
    s = pattern.n
    if s > n:
        return None
    host_view = to_view(host)
    rt = tables.rank_table(host_view)
    pattern_circuits = tables.family_masks(pattern, "circuits")
    t = len(pattern_circuits)
    pr = pattern.full_rank

    if t == 0:
        # free pattern: present iff the host rank reaches the pattern size
        if int(rt[full]) < s:
            return None
        basis = host_view.basis_of(full)
        amask = 0
        for e in elements(basis):
            amask |= 1 << e
            if amask.bit_count() == s:
                break
        return MinorWitness(x=0, y=full & ~amask, iso=tuple(range(s)))

    host_circuits = list(host.sets)
    if len(host_circuits) < t:
        return None
    unions = np.array(_distinct_unions(host_circuits, t), dtype=np.int64)
    pattern_sizes = [c.bit_count() for c in pattern_circuits]
    pattern_sig = tables.rank_signature(pattern)
    contracted: Dict[int, List[int]] = {}

    for combo in combinations(range(n), s):
        amask = from_elements(combo)
        outside = unions & ~amask
        _, first = np.unique(outside, return_index=True)
        xs = outside[np.sort(first)]  # distinct, in order of first occurrence
        for x in xs[rt[amask | xs] - rt[xs] == pr].tolist():
            if x not in contracted:
                contracted[x] = contract_circuits(host_circuits, x)
            circ = restrict_circuits(contracted[x], combo)
            # isomorphic matroids have the same circuit sizes: no table needed
            if [c.bit_count() for c in circ] != pattern_sizes:
                continue
            minor_view = to_view(description("circuits", s, circ))
            if tables.rank_signature(minor_view) != pattern_sig:
                continue
            sigma = isomorphic(minor_view, pattern)
            if sigma is not None:
                return MinorWitness(x=x, y=full & ~amask & ~x, iso=sigma)
    return None


#: Contract sets, or cells of candidate minor rank tables, handled at once.
_MINOR_CELLS = 1 << 20


def detect_minor_exhaustive(
    host: MatroidView, pattern: MatroidView
) -> Optional[MinorWitness]:
    """Brute force over all disjoint (contract, delete) pairs; the
    correctness oracle for :func:`detect_minor_fixed`.

    For each set A of |N| kept elements, in combinations order, the
    contract sets x run over the subsets of E - A in ascending order.
    numpy passes keep the x with r(A + x) - r(x) = r(N), gather the
    minors' rank tables r(S + x) - r(x) as rows, and compare each row's
    (size, rank) histogram with the pattern's; only rows that match
    reach :func:`isomorphic`.  The first witness is the one the
    per-x loop in that order would find.  Cost: C(n, |N|) * 2**n table
    cells in numpy.  Memory: besides the rank table, a few int64 arrays
    of at most ``_MINOR_CELLS`` entries, as the x and the rows are
    walked in blocks of that size.
    """
    s = pattern.n
    if s > host.n:
        return None
    rt = tables.rank_table(host)
    pr = pattern.full_rank
    width = s + 1
    pattern_sig = np.array(tables.rank_signature(pattern))
    # histogram bin of (size, rank) is size * width + rank
    size_bins = tables.popcounts(s).astype(np.int64) * width
    full = full_mask(host.n)
    chunk = max(1, _MINOR_CELLS >> s)
    low_count = _MINOR_CELLS.bit_length() - 1

    for combo in combinations(range(host.n), s):
        amask = from_elements(combo)
        rest = full & ~amask
        bits = [1 << e for e in elements(rest)]
        # x = high | low lists the subsets of E - A in ascending order,
        # one block of low subsets per high subset
        low_bits, high_bits = bits[:low_count], bits[low_count:]
        low = tables.image_table(len(low_bits), low_bits)
        for high in tables.image_table(len(high_bits), high_bits).tolist():
            xs = low | high
            xs = xs[rt[amask | xs] - rt[xs] == pr]
            if not len(xs):
                continue
            expand = tables.image_table(s, [1 << e for e in combo])
            for lo in range(0, len(xs), chunk):
                part = xs[lo : lo + chunk]
                rows = rt[expand[None, :] | part[:, None]] - rt[part, None]
                bins = np.arange(len(part))[:, None] * width * width + size_bins + rows
                hist = np.bincount(bins.ravel(), minlength=len(part) * width * width)
                matches = (hist.reshape(len(part), -1) == pattern_sig).all(axis=1)
                for i in np.flatnonzero(matches).tolist():
                    sigma = isomorphic(tables.table_view(s, rows[i]), pattern)
                    if sigma is not None:
                        x = int(part[i])
                        return MinorWitness(x=x, y=rest & ~x, iso=sigma)
    return None


# -- graph encoding of descriptions --------------------------------------


@dataclass
class EncodedBipartiteGraph:
    """Bipartite set/element core plus role gadgets.

    Triangles occur only inside gadgets (the core is bipartite), so the
    unlabelled graph determines every vertex's role: the anchor carries
    three marker triangles, each set-vertex one, and rank values hang
    off their owners as paths (length = bit position + 1) ending in a
    double triangle.  ``roles`` records the intended role of every
    vertex for self-checks only.
    """

    graph: nx.Graph
    roles: Dict[object, str]


def _attach_triangle(g: nx.Graph, roles, hub, tag) -> None:
    t0, t1 = ("t", tag, 0), ("t", tag, 1)
    g.add_edges_from([(hub, t0), (hub, t1), (t0, t1)])
    roles[t0] = roles[t1] = "gadget"


def _attach_rank_branches(g: nx.Graph, roles, hub, value: int, tag) -> None:
    for p in range(value.bit_length()):
        if not value >> p & 1:
            continue
        prev = hub
        for j in range(p + 1):
            node = ("b", tag, p, j)
            g.add_edge(prev, node)
            roles[node] = "gadget"
            prev = node
        _attach_triangle(g, roles, prev, ("b", tag, p, "end0"))
        _attach_triangle(g, roles, prev, ("b", tag, p, "end1"))


def encode_bipartite(desc: Description) -> EncodedBipartiteGraph:
    """Isomorphism-preserving graph encoding of a description.

    Characteristic vectors become the adjacency of set-vertices and
    element-vertices; an anchor vertex adjacent to every element fixes
    the ground set, and rank data (per-set or header) is encoded in
    unary-of-binary branch gadgets.
    """
    import networkx as nx  # deferred: the only networkx user, slow to import

    g = nx.Graph()
    roles: Dict[object, str] = {}
    anchor = ("anchor",)
    g.add_node(anchor)
    roles[anchor] = "anchor"
    for e in range(desc.n):
        node = ("e", e)
        g.add_edge(anchor, node)
        roles[node] = "element"
    _attach_triangle(g, roles, anchor, ("anchor", 0))
    _attach_triangle(g, roles, anchor, ("anchor", 1))
    _attach_triangle(g, roles, anchor, ("anchor", 2))
    if desc.r is not None:
        _attach_rank_branches(g, roles, anchor, desc.r, "anchor")
    for idx, mask in enumerate(desc.sets):
        node = ("s", idx)
        g.add_node(node)
        roles[node] = "set"
        for e in elements(mask):
            g.add_edge(node, ("e", e))
        _attach_triangle(g, roles, node, ("s", idx))
        if desc.set_ranks is not None:
            _attach_rank_branches(g, roles, node, desc.set_ranks[idx], ("s", idx))
    return EncodedBipartiteGraph(graph=g, roles=roles)


# -- 3-matroid intersection ----------------------------------------------


def intersect3_bruteforce(
    m1: MatroidView, m2: MatroidView, m3: MatroidView, k: int
) -> Optional[int]:
    """First k-subset independent in all three matroids, or None."""
    if not m1.n == m2.n == m3.n:
        raise ValueError("matroids do not share a ground set")
    if k < 0:
        raise ValueError(f"negative target size {k}")
    if k > m1.n:
        return None
    for combo in combinations(range(m1.n), k):
        a = from_elements(combo)
        if m1.is_independent(a) and m2.is_independent(a) and m3.is_independent(a):
            return a
    return None


def intersect3_bases(
    d1: Description, d2: Description, d3: Description, k: int
) -> Optional[int]:
    """Polynomial route for bases input: the largest common independent
    set is the largest intersection B1 & B2 & B3 over triples of bases.

    Output-sensitive: every pairwise intersection B1 & B2 lies inside a
    maximal one, so only the maximal pairwise intersections S12 meet the
    third list.  Cost k1*k2 + |S12|*k3 set operations instead of
    k1*k2*k3.  Returns the first largest s & B3, with S12 in canonical
    order and the third list in its own, if it has at least k elements.
    """
    for d in (d1, d2, d3):
        if d.kind != "bases":
            raise ValueError(f"expected bases descriptions, got {d.kind!r}")
    if not d1.n == d2.n == d3.n:
        raise ValueError("matroids do not share a ground set")
    if k < 0:
        raise ValueError(f"negative target size {k}")
    pairs = {b1 & b2 for b1 in d1.sets for b2 in d2.sets}
    meets = [s & b3 for s in maximal_sets(pairs) for b3 in d3.sets]
    best = max(meets, key=int.bit_count, default=None)
    return best if best is not None and best.bit_count() >= k else None


# -- 3-dimensional matching ----------------------------------------------


@dataclass(frozen=True)
class TripleSystem:
    """Triples over three disjoint sides of size ``s``; entry ``(a, b,
    c)`` picks element a of side 1, b of side 2, c of side 3."""

    s: int
    triples: Tuple[Tuple[int, int, int], ...]

    def __post_init__(self):
        if len(self.triples) < 1:
            raise ValueError("a triple system needs at least one triple")
        for tr in self.triples:
            if len(tr) != 3 or any(not 0 <= v < self.s for v in tr):
                raise ValueError(f"triple {tr} outside side size {self.s}")


def parse_3dm(text) -> TripleSystem:
    """3DM text format: '3dm s=<s>' then one 'a b c' line per triple."""
    s, triples = int_records(text, "3dm", "s", 3)
    return TripleSystem(s, tuple(triples))


def has_matching(ts: TripleSystem) -> Optional[Tuple[int, ...]]:
    """Brute-force matching: s triples covering every side element
    exactly once.  Returns the triple indices or None."""
    for combo in combinations(range(len(ts.triples)), ts.s):
        cover = 0
        ok = True
        for idx in combo:
            a, b, c = ts.triples[idx]
            mask = (1 << a) | (1 << (ts.s + b)) | (1 << (2 * ts.s + c))
            if cover & mask:
                ok = False
                break
            cover |= mask
        if ok and cover == full_mask(3 * ts.s):
            return combo
    return None


@dataclass(frozen=True)
class ThreePartitionReduction:
    """Output of the 3DM reduction: one partition matroid per dimension,
    each given both as circuits and as hyperplanes, plus any side
    elements covered by no triple (these make the target size
    unreachable)."""

    circuits: Tuple[Description, Description, Description]
    hyperplanes: Tuple[Description, Description, Description]
    uncovered: Tuple[Tuple[int, int], ...]


def reduce_3dm(ts: TripleSystem) -> ThreePartitionReduction:
    """Three partition matroids on the triple set: matroid i groups the
    triples by their side-i element, so a common independent set of size
    s is exactly a matching."""
    t = len(ts.triples)
    full = full_mask(t)
    circuit_descs = []
    hyperplane_descs = []
    uncovered = []
    for dim in range(3):
        classes = [0] * ts.s
        for idx, tr in enumerate(ts.triples):
            classes[tr[dim]] |= 1 << idx
        for j, cls in enumerate(classes):
            if not cls:
                uncovered.append((dim, j))
        circuits = [
            (1 << i) | (1 << j)
            for cls in classes
            for i, j in combinations(list(elements(cls)), 2)
        ]
        circuit_descs.append(description("circuits", t, circuits))
        hyperplanes = [full & ~cls for cls in classes if cls]
        hyperplane_descs.append(description("hyperplanes", t, set(hyperplanes)))
    return ThreePartitionReduction(
        circuits=tuple(circuit_descs),
        hyperplanes=tuple(hyperplane_descs),
        uncovered=tuple(uncovered),
    )


# -- graph problems ------------------------------------------------------


def graph_has_independent_set(g: MultiGraph, k: int) -> Optional[Tuple[int, ...]]:
    """Brute-force independent vertex set of size k, or None."""
    adjacent = {(u, w) for u, w in g.edges}
    for combo in combinations(range(g.v), k):
        if all(
            (u, w) not in adjacent
            for i, u in enumerate(combo)
            for w in combo[i + 1 :]
        ):
            return combo
    return None


def subgraph_contains(g: MultiGraph, h: MultiGraph) -> bool:
    """Brute-force subgraph isomorphism: an injection of h's vertices
    into g's mapping every h-edge onto a g-edge."""
    g_edges = {(u, w) for u, w in g.edges}
    from itertools import permutations

    for injection in permutations(range(g.v), h.v):
        if all(
            (min(injection[u], injection[w]), max(injection[u], injection[w]))
            in g_edges
            for u, w in h.edges
        ):
            return True
    return False


def reduce_subgraph_iso(g: MultiGraph, h: MultiGraph) -> Tuple[Description, Description]:
    """Subgraph isomorphism as minor containment: G has an H-subgraph
    iff the rank-3 encoding of G has a minor isomorphic to that of H.
    Both encodings are returned as independent-set descriptions."""
    return (
        encode_from_oracle(phi(g), "independent"),
        encode_from_oracle(phi(h), "independent"),
    )


def reduce_independent_set(
    g: MultiGraph, k: int, r: int
) -> Tuple[Description, Tuple[int, int]]:
    """Independent set as uniform-minor detection: G has k independent
    vertices iff the rank-r construction on G has a U_{r, k+mt} minor.
    Returns the matroid as an independent-set description and the
    uniform target (rank, size)."""
    t = subdivision_length(r)
    view = phi_r(g, r)
    return encode_from_oracle(view, "independent"), (r, k + g.m * t)
