"""Matroids the benchmark knows without asking matroidkit.

Rank functions are written here from the definitions of the families,
and listed families are read off them, so the benchmark can write its
inputs and check every command's output against answers derived
independently of the code it times.

Masks follow the matroidkit text format: element ``j`` is bit ``1 << j``
and the leftmost bitstring character is element 0.  Listed sets are in
canonical order, by (cardinality, mask value).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable, Dict, List, Optional, Sequence, Tuple

KINDS = (
    "rank", "independent", "spanning", "bases", "flats",
    "circuits", "hyperplanes", "nsc", "dephyp", "cyclicflats",
)
RANKED_KINDS = ("rank", "cyclicflats")
HEADER_RANK_KINDS = ("nsc", "dephyp")


def canon_key(mask: int) -> Tuple[int, int]:
    return mask.bit_count(), mask


def from_elements(items) -> int:
    m = 0
    for e in items:
        m |= 1 << e
    return m


def bits(mask: int, n: int) -> str:
    return "".join("1" if mask >> j & 1 else "0" for j in range(n))


def relabel(mask: int, perm: Sequence[int]) -> int:
    """Element ``i`` becomes element ``perm[i]``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


# -- listed families -----------------------------------------------------


@dataclass(frozen=True)
class Listed:
    """One description: kind, ground-set size, canonical sets, and the
    per-set ranks or header rank its kind carries."""

    kind: str
    n: int
    sets: Tuple[int, ...]
    ranks: Optional[Tuple[int, ...]] = None
    r: Optional[int] = None

    def text(self) -> str:
        header = f"matroid {self.kind} n={self.n}"
        if self.r is not None:
            header += f" r={self.r}"
        lines = [header]
        for i, m in enumerate(self.sets):
            line = bits(m, self.n)
            if self.ranks is not None:
                line += f":{self.ranks[i]}"
            lines.append(line)
        return "\n".join(lines) + "\n"


def listed(kind: str, n: int, sets, rank_of=None, r=None) -> Listed:
    ordered = tuple(sorted(set(sets), key=canon_key))
    ranks = tuple(rank_of(m) for m in ordered) if kind in RANKED_KINDS else None
    return Listed(kind, n, ordered, ranks, r if kind in HEADER_RANK_KINDS else None)


class Matroid:
    """A matroid on ``{0..n-1}`` given by its full rank table, computed
    from a closed-form rank function.  Only for ground sets small enough
    to enumerate in Python (n <= 16)."""

    def __init__(self, n: int, rank: Callable[[int], int]):
        self.n = n
        self.full = (1 << n) - 1
        self.table = [rank(m) for m in range(1 << n)]
        self.r = self.table[self.full]

    @classmethod
    def from_independence(cls, n: int, indep: Callable[[int], bool]) -> "Matroid":
        table = [0] * (1 << n)
        for m in range(1, 1 << n):
            if indep(m):
                table[m] = m.bit_count()
            else:
                best, rest = 0, m
                while rest:
                    low = rest & -rest
                    best = max(best, table[m ^ low])
                    rest ^= low
                table[m] = best
        return cls(n, table.__getitem__)

    def relabelled(self, perm: Sequence[int]) -> "Matroid":
        inverse = [0] * self.n
        for old, new in enumerate(perm):
            inverse[new] = old
        table = self.table
        return Matroid(self.n, lambda m: table[relabel(m, inverse)])

    def is_independent(self, m: int) -> bool:
        return self.table[m] == m.bit_count()

    def family(self, kind: str) -> Listed:
        t, n, r = self.table, self.n, self.r
        masks = range(1 << n)
        if kind == "rank":
            return listed(kind, n, masks, t.__getitem__)

        def one_more(m):  # ranks of m + e for each e outside m
            return [t[m | 1 << e] for e in range(n) if not m >> e & 1]

        def one_less(m):  # ranks of m - e for each e in m
            return [t[m & ~(1 << e)] for e in range(n) if m >> e & 1]

        def is_flat(m):
            return all(v > t[m] for v in one_more(m))

        def is_circuit(m):
            k = m.bit_count()
            return t[m] == k - 1 and all(v == k - 1 for v in one_less(m))

        tests = {
            "independent": lambda m: t[m] == m.bit_count(),
            "spanning": lambda m: t[m] == r,
            "bases": lambda m: t[m] == r == m.bit_count(),
            "flats": is_flat,
            "circuits": is_circuit,
            "hyperplanes": lambda m: t[m] == r - 1 and is_flat(m),
            "nsc": lambda m: m.bit_count() <= r and is_circuit(m),
            "dephyp": lambda m: t[m] == r - 1 < m.bit_count() and is_flat(m),
            "cyclicflats": lambda m: is_flat(m) and all(v == t[m] for v in one_less(m)),
        }
        return listed(kind, n, [m for m in masks if tests[kind](m)], t.__getitem__, r)


# -- the families --------------------------------------------------------


def uniform_rank(r: int):
    return lambda m: min(m.bit_count(), r)


def blowup_rank(classes: int, size: int, inner_rank: int):
    """Rank of ``size`` parallel copies of each element of U(inner_rank,
    classes); copies of element ``e`` are ``e*size .. e*size+size-1``,
    as in matroidkit's ``parallel_blowup``."""
    class_mask = (1 << size) - 1

    def rank(m: int) -> int:
        touched = sum(1 for e in range(classes) if m >> (e * size) & class_mask)
        return min(touched, inner_rank)

    return rank


def l15_rank(n: int):
    """T(nU(n-1,n) + U(2,2)): n classes of n parallel elements, two
    coloops, truncated to rank n."""
    blown = blowup_rank(n, n, n - 1)
    coloops = 0b11 << (n * n)
    return lambda m: min(blown(m & ~coloops) + (m & coloops).bit_count(), n)


def l17_rank(n: int):
    """U(n,2n) plus element 2n parallel to element 0."""
    new = 1 << (2 * n)
    return lambda m: min(((m & ~new) | (1 if m & new else 0)).bit_count(), n)


def phi_circuits(v: int, edges: Sequence[Tuple[int, int]]) -> List[int]:
    """Non-spanning circuits of the rank-3 matroid Phi(G): the vertex
    pairs {i, v+i}, and for edge k = (i, j) the four triples taking one
    member of each endpoint's pair together with element 2v+k."""
    out = [(1 << i) | (1 << (v + i)) for i in range(v)]
    for k, (i, j) in enumerate(edges):
        y = 1 << (2 * v + k)
        out += [(1 << a) | (1 << b) | y for a in (i, v + i) for b in (j, v + j)]
    return out


def phi_matroid(v: int, edges) -> Matroid:
    circuits = phi_circuits(v, edges)
    return Matroid.from_independence(
        2 * v + len(edges),
        lambda m: m.bit_count() <= 3 and not any(m & c == c for c in circuits),
    )


def bicircular_matroid(v: int, edges) -> Matroid:
    """Edge sets whose every component has at most as many edges as
    vertices (loops and parallel pairs count as cycles)."""

    def indep(m: int) -> bool:
        parent = list(range(v))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        chosen = [edges[i] for i in range(len(edges)) if m >> i & 1]
        for a, b in chosen:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        edge_count: Dict[int, int] = {}
        vertex_count: Dict[int, int] = {}
        for a, b in chosen:
            root = find(a)
            edge_count[root] = edge_count.get(root, 0) + 1
        for x in {x for e in chosen for x in e}:
            vertex_count[find(x)] = vertex_count.get(find(x), 0) + 1
        return all(edge_count[k] <= vertex_count[k] for k in edge_count)

    return Matroid.from_independence(len(edges), indep)


# -- uniform matroids in closed form -------------------------------------


def uniform_sizes(kind: str, r: int, n: int) -> Tuple[Tuple[int, ...], bool]:
    """For U(r,n) with 0 < r < n: the cardinalities of the listed sets of
    ``kind``, and whether the ground set is listed besides them."""
    return {
        "rank": (tuple(range(n + 1)), False),
        "independent": (tuple(range(r + 1)), False),
        "spanning": (tuple(range(r, n + 1)), False),
        "bases": ((r,), False),
        "circuits": ((r + 1,), False),
        "flats": (tuple(range(r)), True),
        "hyperplanes": ((r - 1,), False),
        "nsc": ((), False),
        "dephyp": ((), False),
        "cyclicflats": ((0,), True),
    }[kind]


def uniform_family(kind: str, r: int, n: int) -> Listed:
    sizes, with_full = uniform_sizes(kind, r, n)
    sets = [from_elements(c) for k in sizes for c in combinations(range(n), k)]
    if with_full:
        sets.append((1 << n) - 1)
    return listed(kind, n, sets, uniform_rank(r), r)


@dataclass(frozen=True)
class Expected:
    """What a description output must be: its header, and exactly the
    ``count`` sets that ``member`` accepts, each once, in canonical
    order.  ``member`` gets the mask and its rank annotation (None for
    unranked kinds)."""

    kind: str
    n: int
    r: Optional[int]
    count: int
    member: Callable[[int, Optional[int]], bool]


def expect_listed(desc: Listed) -> Expected:
    want = dict(zip(desc.sets, desc.ranks or [None] * len(desc.sets)))
    return Expected(
        desc.kind, desc.n, desc.r, len(want),
        lambda m, rk: m in want and want[m] == rk,
    )


def expect_uniform(kind: str, r: int, n: int) -> Expected:
    """Closed form for U(r,n), checked without listing it: the sizes
    admitted by ``kind`` and the number of such sets."""
    sizes, with_full = uniform_sizes(kind, r, n)
    full = (1 << n) - 1
    count = sum(comb(n, k) for k in sizes) + (1 if with_full and n not in sizes else 0)

    def member(m: int, rk) -> bool:
        k = m.bit_count()
        if not (k in sizes or (with_full and m == full)):
            return False
        return kind not in RANKED_KINDS or rk == min(k, r)

    return Expected(kind, n, r if kind in HEADER_RANK_KINDS else None, count, member)


def check_description(text: str, want: Expected) -> Optional[str]:
    """None when ``text`` is exactly the described family, else why not."""
    lines = text.splitlines()
    header = f"matroid {want.kind} n={want.n}" + (f" r={want.r}" if want.r is not None else "")
    if not lines or lines[0] != header:
        return f"header {lines[:1]!r}, expected {header!r}"
    prev = None
    for i, line in enumerate(lines[1:], start=2):
        field, _, annot = line.partition(":")
        if len(field) != want.n or field.strip("01"):
            return f"line {i}: bad bitstring {line!r}"
        mask = int(field[::-1], 2)
        rank = int(annot) if annot else None
        if prev is not None and canon_key(mask) <= canon_key(prev):
            return f"line {i}: {field} out of canonical order or repeated"
        if not want.member(mask, rank):
            return f"line {i}: {line} does not belong to the expected family"
        prev = mask
    if len(lines) - 1 != want.count:
        return f"{len(lines) - 1} sets listed, expected {want.count}"
    return None


# -- description sizes of the separation families ------------------------


def l18_sizes(n: int) -> Dict[str, int]:
    """Listed-set counts of every kind for L18 = 2U(n-1,n), n >= 3:
    n classes of two parallel elements, rank n-1.  A set touching t
    classes, each in one of its three non-empty ways, has rank
    min(t, n-1)."""
    return {
        "rank": 4 ** n,
        "independent": 3 ** n - 2 ** n,
        "spanning": n * 3 ** (n - 1) + 3 ** n,
        "bases": n * 2 ** (n - 1),
        "flats": 2 ** n - n,
        "circuits": n + 2 ** n,
        "hyperplanes": comb(n, 2),
        "nsc": n,
        "dephyp": comb(n, 2),
        "cyclicflats": 2 ** n - n,
    }


def l15_sizes(n: int) -> Dict[str, int]:
    """Listed-set counts of every kind for L15 = T(nU(n-1,n) + U(2,2)),
    n >= 3.  A set meets t of the n classes of n parallel elements (each
    in 2^n - 1 ways) and c of the two coloops; its rank is
    min(min(t, n-1) + c, n)."""
    below = lambda k: sum(comb(n, j) for j in range(k + 1))  # unions of <= k classes
    spanning = sum(
        comb(2, c) * comb(n, t) * (2 ** n - 1) ** t
        for c in range(3) for t in range(n + 1) if min(t, n - 1) + c >= n
    )
    independent = sum(
        comb(2, c) * comb(n, t) * n ** t
        for c in range(3) for t in range(n) if t + c <= n
    )
    return {
        "rank": 2 ** (n * n + 2),
        "independent": independent,
        "spanning": spanning,
        "bases": 2 * n ** n + comb(n, 2) * n ** (n - 2),
        "flats": 3 * below(n - 2) + below(n - 3) + 2,
        "circuits": n * comb(n, 2) + 2 * n ** n,
        "hyperplanes": 1 + 2 * comb(n, 2) + comb(n, 3),
        "nsc": n * comb(n, 2) + n ** n,
        "dephyp": 1 + 2 * comb(n, 2) + (comb(n, 3) if n >= 4 else 0),
        "cyclicflats": 2 ** n - n + 1,
    }
