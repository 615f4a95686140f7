"""Algorithmic problems over described matroids: minor detection,
matroid isomorphism (direct checker and the graph encoding), 3-matroid
intersection, and the instance builders that tie them to 3-dimensional
matching, subgraph isomorphism, and independent set.

Every positive decision carries a checkable certificate so tests can
verify answers independently of the search that produced them.

numpy and ``tables`` load only in the functions that build rank tables:
isomorphism of views or of long listings, and minor detection.  The
listed-data routines (isomorphism of short listings, the graph encoding,
3-matroid intersection, the 3DM reduction and its brute-force check)
import neither; a brute-force intersection loads numpy only if one of
its views answers from a table.  ``families`` loads only in the two
builders that take graphs, and ``conversions`` only for an isomorphism
of two descriptions of different kinds.
"""

from __future__ import annotations

from itertools import combinations, islice
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

# ``np`` and ``MultiGraph`` in annotations are never evaluated
from .bitsets import check_ground, elements, from_elements, full_mask, maximal_sets
from .core import MatroidView, relabel
from .descriptions import Description, canonical, dual, encode_from_oracle, int_records, to_view


# -- matroid isomorphism -------------------------------------------------


#: Lattice edges whose rule walks O(k * |output|) subset tests
#: (``bitsets.minimal_sets`` / ``maximal_sets``): a conversion through
#: one can cost far more than the table route.  In process, the flats of
#: U(6,18), a listing short enough for the listed search, take 1.35 s to
#: convert to hyperplanes; the table route decides the pair in 0.30 s.
_WALK_EDGES = frozenset({("spanning", "bases"), ("independent", "bases"), ("flats", "hyperplanes")})


class IsoRoute(NamedTuple):
    """How :func:`isomorphic` decides a pair of descriptions: a search
    over the listed sets of ``kind``, after one side is converted along
    ``steps``, or, when ``kind`` is None, the table route for ``reason``."""

    kind: Optional[str]
    steps: Tuple[Tuple[str, str], ...] = ()
    reason: str = ""

    def describe(self) -> str:
        if self.kind is None:
            return f"table ({self.reason})"
        if not self.steps:
            return f"listed {self.kind}"
        from .conversions import ConversionPlan

        return f"listed {self.kind} after {ConversionPlan(self.steps).describe()}"


def _listing_size(desc: Description) -> int:
    """Elements in the family the listed search reads: the listed sets or
    their complements, whichever hold fewer."""
    total = sum(m.bit_count() for m in desc.sets)
    return min(total, desc.n * len(desc.sets) - total)


#: Listed elements the search reads in about the time the table route
#: takes on the smallest ground sets, where its numpy calls cost more
#: than their cells: 1.3 to 2.7 ms in process at n = 10 to 14.
_LISTED_FLOOR = 2048


def _listed_is_cheaper(n: int, size: int) -> bool:
    """The routing rule of :func:`isomorphic`: search ``size`` listed
    elements when ``size <= 4 * 2**n / n + _LISTED_FLOOR``."""
    return (size - _LISTED_FLOOR) * n <= 4 << n


def iso_route(a: Description, b: Description) -> IsoRoute:
    """The route :func:`isomorphic` takes for two descriptions.

    Same kinds are searched as listed.  Otherwise the side whose kind
    reaches the other's along the lattice is converted to it; with no
    lattice route either way, or a route through one of the walk edges
    (``_WALK_EDGES``), the pair goes to the tables.  A listed search
    whose size fails the rule of :func:`isomorphic` goes to the tables
    too.  The size is read off the sides that are not converted, so the
    route is found without converting: on a matroid the converted side
    lists a family of the same size, or the pair is not isomorphic.
    """
    kind, steps = a.kind, ()
    if a.kind != b.kind:
        from .conversions import plan

        forward, backward = plan(a.kind, b.kind), plan(b.kind, a.kind)
        if forward.exhaustive and backward.exhaustive:
            return IsoRoute(None, reason=f"no lattice route between {a.kind} and {b.kind}")
        route = backward if forward.exhaustive else forward
        walks = [f"{src} -> {dst}" for src, dst in route.steps if (src, dst) in _WALK_EDGES]
        if walks:
            return IsoRoute(None, reason=f"walk edge {walks[0]}")
        kind, steps = route.steps[-1][1], route.steps
    for d in (a, b):
        # each listed set but the empty one holds an element and each but
        # the full one lacks one, so most long listings show in their length
        if d.kind == kind and not (
            _listed_is_cheaper(d.n, len(d.sets) - 1) and _listed_is_cheaper(d.n, _listing_size(d))
        ):
            return IsoRoute(None, reason=f"long listing: {len(d.sets)} sets at n = {d.n}")
    return IsoRoute(kind, steps)


def _family_map(n: int, fa: Dict[int, int], fb: Dict[int, int]) -> Optional[Tuple[int, ...]]:
    """An element bijection that maps the labelled family ``fa`` (set ->
    label) onto ``fb``, or None.

    Backtracking over element assignments.  The quick reject compares the
    families' multisets of (size, label); an element's invariant is the
    sorted (size, label) pairs of the sets that contain it, and only
    elements of equal invariant are paired, scarcest invariant first.
    Each assignment checks that every set of ``fa`` now inside the
    assigned elements maps onto a set of ``fb`` with its label, and that
    as many sets of ``fb`` lie inside the used images.  Exact but
    exponential in the worst case.
    """
    if len(fa) != len(fb):
        return None
    shapes = [sorted((m.bit_count(), label) for m, label in f.items()) for f in (fa, fb)]
    if shapes[0] != shapes[1]:
        return None
    through_a: List[List[int]] = [[] for _ in range(n)]
    through_b: List[List[int]] = [[] for _ in range(n)]
    for f, through in ((fa, through_a), (fb, through_b)):
        for m in f:
            for e in elements(m):
                through[e].append(m)
    inv_a = [tuple(sorted((m.bit_count(), fa[m]) for m in ms)) for ms in through_a]
    by_inv_b: Dict[tuple, List[int]] = {}
    for f, ms in enumerate(through_b):
        by_inv_b.setdefault(tuple(sorted((m.bit_count(), fb[m]) for m in ms)), []).append(f)
    counts_a: Dict[tuple, int] = {}
    for inv in inv_a:
        counts_a[inv] = counts_a.get(inv, 0) + 1
    if {k: len(v) for k, v in by_inv_b.items()} != counts_a:
        return None

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
            for m in through_a[e]:
                if m & new_domain == m:
                    seen += 1
                    if fb.get(image(m)) != fa[m]:
                        ok = False
                        break
            if ok:
                mirrored = sum(1 for m in through_b[f] if m & new_used == m)
                ok = mirrored == seen
            if ok and extend(pos + 1, new_domain, new_used):
                return True
            mapping[e] = -1
        return False

    if extend(0, 0, 0):
        return tuple(mapping)
    return None


def _labelled(desc: Description, flip: bool) -> Dict[int, int]:
    """The listed sets, or their complements if ``flip``, each with its
    rank for the per-set rank kinds and 0 otherwise."""
    full = full_mask(desc.n) if flip else 0
    labels = desc.set_ranks or [0] * len(desc.sets)
    return {m ^ full: label for m, label in zip(desc.sets, labels)}


def isomorphic(
    a: MatroidView | Description, b: MatroidView | Description
) -> Optional[Tuple[int, ...]]:
    """A rank-preserving element bijection from ``a`` to ``b``, or None;
    ``a`` and ``b`` are two views or two descriptions.

    Both routes run one search (:func:`_family_map`) over two labelled
    set families; they differ in where the families come from.

    - **Table route** (views): the circuits, labelled 0, read from the
      rank tables once the tables' (size, rank) histograms agree.  It
      costs a few ns per cell of n * 2**n to build and classify the
      tables, and a fixed 1 to 3 ms of numpy calls, then the search over
      the circuits; a command line process also pays about 60 ms for
      numpy's import.
    - **Listed route** (descriptions): the listed sets, labelled by their
      rank for ``rank`` and ``cyclicflats`` and 0 otherwise, once one
      side is converted to the other's kind along the lattice and the
      header ranks agree.  The search reads the sets or their
      complements, whichever hold fewer elements in total, L; it costs
      1 to 2 µs per element of L, in pure Python, and loads no numpy.

    Two descriptions take the listed route when :func:`iso_route` finds
    one: their kinds are joined by a lattice route that runs no walk edge
    (``spanning -> bases``, ``independent -> bases``,
    ``flats -> hyperplanes``), and L <= 4 * 2**n / n + 2048.  The rule
    was fitted in process, with numpy loaded, on relabelled pairs of
    uniform, bicircular and separation matroids of 10 to 18 elements
    and every kind: there the listed search took about 1 µs per element,
    and the table route 1.3 to 40 ms.  Under the rule the listed route
    costs at most about twice the table route in process; in a command
    line process, which pays numpy's import on the table route only, it
    is the faster one.  Other pairs are decoded and take the table route.
    On a matroid the listing of a kind is a function of the matroid, so
    both routes find a map exactly when one exists; on other inputs
    they may disagree.
    """
    if isinstance(a, Description) and isinstance(b, Description):
        if a.n != b.n:
            return None
        route = iso_route(a, b)
        if route.kind is None:
            return _table_map(to_view(a), to_view(b))
        if a.kind != b.kind:
            from .conversions import convert

            a, b = (convert(d, route.kind)[0] if d.kind != route.kind else d for d in (a, b))
        if a.r != b.r:
            return None
        flip = 2 * sum(m.bit_count() for m in a.sets) > a.n * len(a.sets)
        return _family_map(a.n, _labelled(a, flip), _labelled(b, flip))
    return _table_map(a, b)


def _table_map(a: MatroidView, b: MatroidView) -> Optional[Tuple[int, ...]]:
    """The table route of :func:`isomorphic`: the rank signatures hold
    r(E), so equal signatures mean equal ranks."""
    from . import tables

    if a.n != b.n or tables.rank_signature(a) != tables.rank_signature(b):
        return None
    circuits = [dict.fromkeys(tables.family_masks(v, "circuits").tolist(), 0) for v in (a, b)]
    return _family_map(a.n, *circuits)


# -- minor detection -----------------------------------------------------


class MinorWitness(NamedTuple):
    """Certificate for a minor: contract ``x``, delete ``y``, then map
    the minor's element ``i`` to the pattern's element ``iso[i]``."""

    x: int
    y: int
    iso: Tuple[int, ...]


def verify_minor_witness(
    host: MatroidView, pattern: MatroidView, w: MinorWitness
) -> bool:
    from . import tables

    minor = host.minor(w.x, w.y)
    if minor.n != pattern.n or sorted(w.iso) != list(range(pattern.n)):
        return False
    return tables.views_equal(relabel(minor, w.iso), pattern)


def _distinct_unions(circuits: Sequence[int], t: int) -> List[int]:
    """Distinct unions of exactly ``t`` of the listed circuits, ascending.

    Level by level: a union of k circuits is a union of k - 1 of them
    joined with a later circuit.  A table over the ``2**n`` masks keeps,
    for each union of the level, the earliest circuit that can end it,
    so the unions a circuit may join are a prefix of the level below
    when that level is ordered by its table entries.  Each level takes
    two passes over the table and joins every circuit with its prefix in
    blocks of at most ``_MINOR_CELLS`` cells, a few numpy passes per
    block, however many of the C(c, t) combinations share a union.
    Memory: the int32 table, two levels and one block.
    """
    import numpy as np

    if t > len(circuits):
        return []
    c = len(circuits)
    cs = np.array(circuits, dtype=np.int64)
    first = np.empty(1 << max(circuits, default=0).bit_length(), dtype=np.int32)
    # level 0 is the empty union, which every circuit may join
    level = found = np.zeros(1, dtype=np.int64)
    ends = np.ones(c, dtype=np.int64)
    for _ in range(t):
        first[:] = c  # c stands for no circuit
        rows = max(1, _MINOR_CELLS // max(1, int(ends[-1])))
        for j in range(0, c, rows):
            part = slice(j, j + rows)
            joined = level[None, : ends[part][-1]] | cs[part, None]
            new = (np.arange(joined.shape[1]) < ends[part, None]) & (first[joined] == c)
            owners = np.broadcast_to(np.arange(j, j + len(joined), dtype=np.int32)[:, None], joined.shape)
            np.minimum.at(first, joined[new], owners[new])
        found = np.flatnonzero(first < c)
        order = np.argsort(first[found], kind="stable")
        level = found[order]
        # circuit j may join the unions that an earlier circuit ends
        ends = np.searchsorted(first[level], np.arange(c))
    return found.tolist()


#: The most cells one array of a minor search holds: a block of
#: (kept set, contract set) pairs or of circuit joins, the expand tables
#: of a batch of kept sets, or the minor rank tables gathered at once.
#: 2**14 int64 cells are 128 KB, and a search's temporaries stay under
#: 1 MB by tracemalloc.  Larger blocks save few numpy calls and show in
#: the peak RSS of every minor command; smaller ones cost calls on hosts
#: with many unions.  Only a single minor table of more cells is
#: gathered whole.
_MINOR_CELLS = 1 << 14


def _first_minor(
    rt: np.ndarray,
    pattern: MatroidView,
    width: int,
    contract_sets: Callable[[np.ndarray], Iterator[np.ndarray]],
) -> Optional[MinorWitness]:
    """The minor test of both minor searches.

    The kept sets A of |N| elements are taken in combinations order, in
    batches of k: as many as fit in ``_MINOR_CELLS`` cells both with
    their ``width`` contract sets each and with their 2**|N|-cell expand
    tables.  For the int64 masks of a batch, ``contract_sets`` yields
    int64 blocks of contract sets x disjoint from them, row i for the
    i-th A, in the route's order; only a batch of one A is split over
    several blocks.  A block is thus a run of (A, x) pairs in search
    order, row-major: combinations order, then the route's order.

    The minor for (A, x) has the rank table r(S + x) - r(x) over S within
    A, read from the host's rank table ``rt``: the minor that
    :func:`verify_minor_witness` checks.  Each block takes a few numpy
    passes: the rank filter passes the pairs with r(A + x) - r(x) = r(N)
    and drops repeats; the expand tables of a batch, which map each S
    within A to its mask in E, are built once, by one
    :func:`tables.image_table` doubling, when a first pair of the batch
    passes; and the minor tables of the pairs that pass are gathered as
    rows, at most ``_MINOR_CELLS`` cells at a time, for a (size, rank)
    histogram against the pattern's.  Only rows that match reach
    :func:`isomorphic`, in row-major order, so the witness is the first
    pair in search order that passes, and it deletes the rest of E.

    Cost: a fixed number of numpy calls per block and per gathered chunk,
    over at most ``_MINOR_CELLS`` cells each.  Memory: besides ``rt``, a
    few arrays of at most ``_MINOR_CELLS`` cells.
    """
    import numpy as np

    from . import tables

    s = pattern.n
    pr = pattern.full_rank
    cells = _MINOR_CELLS
    side = s + 1
    pattern_sig = np.array(tables.rank_signature(pattern))
    # histogram bin of (size, rank) is size * side + rank
    size_bins = tables.popcounts(s).astype(np.int64) * side
    full = len(rt) - 1  # rt has one entry per subset of E
    chunk = max(1, cells >> s)
    per_batch = max(1, cells >> max(s, (width - 1).bit_length()))
    combos = combinations(range(full.bit_length()), s)
    while batch := list(islice(combos, per_batch)):
        kept = 1 << np.array(batch, dtype=np.int64)  # element bits, one row per A
        amasks = np.bitwise_or.reduce(kept, axis=1)
        expand = None
        for xs in contract_sets(amasks):
            hits = np.flatnonzero(rt[xs | amasks[:, None]] - rt[xs] == pr)
            if not len(hits):
                continue
            owners = hits // xs.shape[1]
            xs = xs.ravel()[hits]
            # a repeated (A, x) fails or passes just as its first occurrence
            # did; a stable sort puts each first occurrence before its repeats
            key = owners * len(rt) + xs
            order = np.argsort(key, kind="stable")
            first = np.ones(len(key), dtype=bool)
            first[order[1:]] = key[order[1:]] != key[order[:-1]]
            owners, xs = owners[first], xs[first]
            if expand is None:
                expand = tables.image_table(kept)
            for lo in range(0, len(xs), chunk):
                part, owner = xs[lo : lo + chunk], owners[lo : lo + chunk]
                at = expand[owner]
                at |= part[:, None]
                rows = rt[at] - rt[part, None]
                # the histogram bins of each row, in place of ``at``
                np.add(size_bins, rows, out=at)
                at += np.arange(len(part))[:, None] * side * side
                hist = np.bincount(at.ravel(), minlength=len(part) * side * side)
                matches = (hist.reshape(len(part), -1) == pattern_sig).all(axis=1)
                for i in np.flatnonzero(matches).tolist():
                    sigma = isomorphic(tables.table_view(s, rows[i]), pattern)
                    if sigma is not None:
                        amask, x = int(amasks[owner[i]]), int(part[i])
                        return MinorWitness(x=x, y=full & ~amask & ~x, iso=sigma)
    return None


def detect_minor_fixed(
    host: Description, pattern: MatroidView
) -> Optional[MinorWitness]:
    """Fixed-pattern minor detection on a circuits or hyperplanes
    description.

    Candidates: for each set A of |N| kept elements, in combinations
    order, the contract sets x are the parts outside A of the distinct
    unions of t host circuits, in ascending order of the union (t =
    number of pattern circuits; a free pattern has t = 0 and the empty
    union alone).  Each x goes through the minor test that
    :func:`detect_minor_exhaustive` shares (:func:`_first_minor`), on
    the host's rank table, built once per call from ``to_view(host)``.
    So on a host that is not a matroid the minor is the one
    :func:`verify_minor_witness` checks.  Hyperplane hosts are handled
    by dualising both matroids (:func:`~matroidkit.descriptions.dual`
    for the host).

    Cost: the unions take a few numpy passes per circuit and level over
    the unions found so far (:func:`_distinct_unions`).  The minor test
    then filters C(n, |N|) * u pairs (A, x), u the number of unions, in
    blocks of at most ``_MINOR_CELLS`` pairs: the x of as many A as fit,
    or of one A in slices of the unions.  Each distinct pair that passes
    costs 2**|N| table cells.  Memory: besides the rank table, the unions
    and the boolean table over ``2**n`` masks that finds them, a few
    arrays of at most ``_MINOR_CELLS`` cells.
    """
    import numpy as np

    from . import tables

    if host.kind == "hyperplanes":
        w = detect_minor_fixed(dual(host), pattern.dual())
        if w is None:
            return None
        # (M* / X \ Y)* = M / Y \ X, with the same element bijection
        return MinorWitness(x=w.y, y=w.x, iso=w.iso)
    if host.kind != "circuits":
        raise ValueError(f"host must be circuits or hyperplanes, got {host.kind!r}")
    s = pattern.n
    if s > host.n:
        return None
    t = len(tables.family_masks(pattern, "circuits"))
    if len(host.sets) < t:
        return None
    rt = tables.rank_table(to_view(host))
    unions = np.array(_distinct_unions(list(host.sets), t), dtype=np.int64)

    def contract_sets(amasks):
        for lo in range(0, len(unions), _MINOR_CELLS):
            yield unions[lo : lo + _MINOR_CELLS] & ~amasks[:, None]

    return _first_minor(rt, pattern, len(unions), contract_sets)


def detect_minor_exhaustive(
    host: MatroidView, pattern: MatroidView
) -> Optional[MinorWitness]:
    """Brute force over all disjoint (contract, delete) pairs; the
    correctness oracle for :func:`detect_minor_fixed`.

    Candidates: for each set A of |N| kept elements, in combinations
    order, the contract sets x are the subsets of E - A in ascending
    order.  Each x goes through the minor test that
    :func:`detect_minor_fixed` shares (:func:`_first_minor`), so on a
    host that is not a matroid the minor is the one
    :func:`verify_minor_witness` checks.  The first witness is the one
    a per-x loop in that order would find.

    Cost: C(n, |N|) * 2**n table cells at most, in blocks of at most
    ``_MINOR_CELLS`` pairs (A, x).  The contract sets of a batch of A
    take two :func:`tables.image_table` doublings, which deposit the
    masks below 2**(n - |N|) onto the bits of each E - A.  Where E - A
    has more elements than a block has bits, a batch holds one A, and
    its x come as one block of low subsets per subset of the high bits.
    Memory: besides the rank table, a few arrays of at most
    ``_MINOR_CELLS`` cells.
    """
    import numpy as np

    from . import tables

    s = pattern.n
    if s > host.n:
        return None
    rest = host.n - s
    bits = 1 << np.arange(host.n, dtype=np.int64)
    low_count = min(rest, _MINOR_CELLS.bit_length() - 1)

    def contract_sets(amasks):
        outside = np.broadcast_to(bits, (len(amasks), host.n))[(amasks[:, None] & bits) == 0]
        outside = outside.reshape(len(amasks), rest)
        # x = high | low lists the subsets of E - A in ascending order, one
        # block of low subsets per high subset; a batch of more than one A
        # has no high bits
        low = tables.image_table(outside[:, :low_count])
        for high in tables.image_table(outside[:, low_count:]).T:
            yield low | high[:, None]

    return _first_minor(tables.rank_table(host), pattern, 1 << rest, contract_sets)


# -- graph encoding of descriptions --------------------------------------


class EncodedBipartiteGraph:
    """Bipartite set/element core plus role gadgets.

    Triangles occur only inside gadgets (the core is bipartite), so the
    unlabelled graph determines every vertex's role: the anchor carries
    three marker triangles, each set-vertex one, and rank values hang
    off their owners as paths (length = bit position + 1) ending in a
    double triangle.  ``roles`` lists every vertex, in the order it was
    added, with its intended role (for self-checks only); ``edges``
    holds each edge once.  The encoder fills both in place, so the
    record is mutable and unhashable.
    """

    __slots__ = ("edges", "roles")
    __hash__ = None

    def __init__(self, edges: Set[Tuple[object, object]], roles: Dict[object, str]):
        self.edges = edges
        self.roles = roles

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(edges={self.edges!r}, roles={self.roles!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.edges, self.roles) == (other.edges, other.roles)


def _attach_triangle(enc: EncodedBipartiteGraph, hub, tag) -> None:
    t0, t1 = ("t", tag, 0), ("t", tag, 1)
    enc.roles[t0] = enc.roles[t1] = "gadget"
    enc.edges.update([(hub, t0), (hub, t1), (t0, t1)])


def _attach_rank_branches(enc: EncodedBipartiteGraph, hub, value: int, tag) -> None:
    for p in range(value.bit_length()):
        if not value >> p & 1:
            continue
        prev = hub
        for j in range(p + 1):
            node = ("b", tag, p, j)
            enc.roles[node] = "gadget"
            enc.edges.add((prev, node))
            prev = node
        _attach_triangle(enc, prev, ("b", tag, p, "end0"))
        _attach_triangle(enc, prev, ("b", tag, p, "end1"))


def encode_bipartite(desc: Description) -> EncodedBipartiteGraph:
    """Isomorphism-preserving graph encoding of a description.

    Characteristic vectors become the adjacency of set-vertices and
    element-vertices; an anchor vertex adjacent to every element fixes
    the ground set, and rank data (per-set or header) is encoded in
    unary-of-binary branch gadgets.
    """
    anchor = ("anchor",)
    enc = EncodedBipartiteGraph(edges=set(), roles={anchor: "anchor"})
    for e in range(desc.n):
        node = ("e", e)
        enc.roles[node] = "element"
        enc.edges.add((anchor, node))
    for i in range(3):
        _attach_triangle(enc, anchor, ("anchor", i))
    if desc.r is not None:
        _attach_rank_branches(enc, anchor, desc.r, "anchor")
    for idx, mask in enumerate(desc.sets):
        node = ("s", idx)
        enc.roles[node] = "set"
        enc.edges.update((node, ("e", e)) for e in elements(mask))
        _attach_triangle(enc, node, ("s", idx))
        if desc.set_ranks is not None:
            _attach_rank_branches(enc, node, desc.set_ranks[idx], ("s", idx))
    return enc


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
        if m1._independent(a) and m2._independent(a) and m3._independent(a):
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


class _TripleSystemFields(NamedTuple):
    s: int
    triples: Tuple[Tuple[int, int, int], ...]


class TripleSystem(_TripleSystemFields):
    """Triples over three disjoint sides of size ``s``; entry ``(a, b,
    c)`` picks element a of side 1, b of side 2, c of side 3."""

    __slots__ = ()

    def __new__(cls, s: int, triples: Tuple[Tuple[int, int, int], ...]):
        if len(triples) < 1:
            raise ValueError("a triple system needs at least one triple")
        for tr in triples:
            if len(tr) != 3 or any(not 0 <= v < s for v in tr):
                raise ValueError(f"triple {tr} outside side size {s}")
        return super().__new__(cls, s, triples)


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


class ThreePartitionReduction(NamedTuple):
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
    t = check_ground(len(ts.triples))
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
        circuit_descs.append(canonical("circuits", t, circuits))
        hyperplanes = [full & ~cls for cls in classes if cls]
        hyperplane_descs.append(canonical("hyperplanes", t, hyperplanes))
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
    from .families import phi

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
    from .families import phi_r, subdivision_length

    if k < 0:
        raise ValueError(f"negative target size {k}")
    t = subdivision_length(r)
    view = phi_r(g, r)
    return encode_from_oracle(view, "independent"), (r, k + g.m * t)
