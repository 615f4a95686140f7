"""Exhaustive subset tables for a matroid view.

Everything here enumerates all ``2**n`` subsets, which the ground-set
cap keeps affordable.  These tables are the independent oracle against
which the listed-data algorithms are checked, and the engine behind
exhaustive re-encoding.

Tables are indexed by mask and built with Yates-style subset transforms:
one vectorised pass per element over the two halves of the table that
differ only in that element, O(n * 2**n) work in all.  A view without a
table source falls back to one ``is_independent`` query per mask.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import MatroidView


@lru_cache(maxsize=None)
def popcounts(n: int) -> np.ndarray:
    """Bit-count of every mask below ``2**n``; one read-only array per
    ``n``, shared by every caller."""
    pc = np.zeros(1 << n, dtype=np.int8)
    for b in range(n):
        pc[1 << b : 1 << (b + 1)] = pc[: 1 << b] + 1
    pc.flags.writeable = False
    return pc


def halves(table: np.ndarray, b: int) -> Tuple[np.ndarray, np.ndarray]:
    """Views of the masks without and with bit ``b``, aligned so that
    entry ``i`` of the second is entry ``i`` of the first plus ``b``.
    Writing to either view writes to ``table``."""
    split = table.reshape(-1, 2, 1 << b)
    return split[:, 0, :], split[:, 1, :]


def indicator(n: int, sets) -> np.ndarray:
    """Boolean table that is true exactly on the listed masks."""
    out = np.zeros(1 << n, dtype=bool)
    out[np.fromiter(sets, dtype=np.int64)] = True
    return out


def image_table(n: int, images: Sequence[int]) -> np.ndarray:
    """The OR of ``images[e]`` over the elements e of every mask below
    ``2**n``, by doubling: one pass per element over :func:`halves`.
    Images must fit in 63 bits."""
    out = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        without, with_b = halves(out, b)
        np.bitwise_or(without, images[b], out=with_b)
    return out


def down_closure(table: np.ndarray, n: int) -> np.ndarray:
    """In place: true on every subset of a set where ``table`` is true."""
    for b in range(n):
        without, with_b = halves(table, b)
        without |= with_b
    return table


def up_closure(table: np.ndarray, n: int) -> np.ndarray:
    """In place: true on every superset of a set where ``table`` is true."""
    for b in range(n):
        without, with_b = halves(table, b)
        with_b |= without
    return table


def strict_up_closure(table: np.ndarray, n: int) -> np.ndarray:
    """True on every proper superset of a set where ``table`` is true."""
    closed = up_closure(table.copy(), n)
    out = np.zeros_like(table)
    for b in range(n):
        closed_without, _ = halves(closed, b)
        _, out_with = halves(out, b)
        out_with |= closed_without
    return out


def subset_max(table: np.ndarray, n: int) -> np.ndarray:
    """In place: the maximum of ``table`` over the subsets of each mask."""
    for b in range(n):
        without, with_b = halves(table, b)
        np.maximum(with_b, without, out=with_b)
    return table


def superset_and(table: np.ndarray, n: int) -> np.ndarray:
    """In place: the bitwise AND of ``table`` over the supersets of each
    mask."""
    for b in range(n):
        without, with_b = halves(table, b)
        without &= with_b
    return table


def independence_table(view: MatroidView) -> np.ndarray:
    """Boolean array over all masks; cached on the view.

    Built by the view's table source when it has one; otherwise by
    querying ``is_independent`` once per mask, which is also the
    reference the table sources are tested against.
    """
    cached = view._tables
    if cached is not None and "indep" in cached:
        return cached["indep"]
    if view.table_source is not None:
        indep = view.table_source()
    else:
        size = 1 << view.n
        indep = np.fromiter(
            (view.is_independent(m) for m in range(size)), dtype=bool, count=size
        )
    if cached is None:
        cached = view._tables = {}
    cached["indep"] = indep
    return indep


def rank_from_independence(indep: np.ndarray, n: int) -> np.ndarray:
    """r(A) = the largest independent subset of A: a subset-max
    transform of the independent sets' cardinalities."""
    return subset_max(np.where(indep, popcounts(n), np.int8(0)), n)


def rank_table(view: MatroidView) -> np.ndarray:
    """Rank of every mask, derived from the independence table."""
    cached = view._tables
    if cached is not None and "rank" in cached:
        return cached["rank"]
    rank = rank_from_independence(independence_table(view), view.n)
    view._tables["rank"] = rank
    return rank


def matroid_violation(view: MatroidView) -> Optional[Tuple[str, int, Tuple[int, ...]]]:
    """The first matroid axiom the view's independence table breaks, as
    ``(axiom, A, elements)``, or None for a matroid.

    ``("hereditary", A, (e,))``: A+e is independent but A is not; A = 0
    with no elements when even the empty set is dependent.
    ``("exchange", A, (e, f))``: the derived rank breaks the local
    submodular inequality r(A+e) + r(A+f) >= r(A+e+f) + r(A).  With
    r(0) = 0 and unit increase, which a hereditary table gives its
    derived rank, this local inequality characterises matroid rank
    functions (Oxley, *Matroid Theory*).
    """
    n = view.n
    indep = independence_table(view)
    if not indep[0]:
        return "hereditary", 0, ()
    for b in range(n):
        without, with_b = halves(indep, b)
        bad = np.argwhere(with_b & ~without)
        if len(bad):
            high, low = bad[0]
            return "hereditary", int(high) << (b + 1) | int(low), (b,)
    rank = rank_table(view)
    for f in range(n):
        for e in range(f):
            # axes: masks above f, bit f, masks between e and f, bit e, masks
            # below e; ranks are at most 24, so the int8 sums cannot wrap
            split = rank.reshape(-1, 2, 1 << (f - e - 1), 2, 1 << e)
            bad = np.argwhere(
                split[:, 0, :, 1, :] + split[:, 1, :, 0, :]
                < split[:, 1, :, 1, :] + split[:, 0, :, 0, :]
            )
            if len(bad):
                high, mid, low = bad[0]
                a = int(high) << (f + 1) | int(mid) << (e + 1) | int(low)
                return "exchange", a, (e, f)
    return None


def classify(view: MatroidView) -> Dict[str, np.ndarray]:
    """Characteristic boolean arrays for every family of subsets the
    description formats can list."""
    cached = view._tables
    if cached is not None and "families" in cached:
        return cached["families"]
    n = view.n
    indep = independence_table(view)
    rank = rank_table(view)
    pc = popcounts(n)
    r = int(rank[-1])

    spanning = rank == r
    bases = indep & (pc == r)

    # circuit: dependent, every single-element deletion independent
    circuits = ~indep
    # flat: no outside element keeps the rank fixed
    flats = np.ones(1 << n, dtype=bool)
    # cyclic: no inside element drops the rank (no coloop of the restriction)
    cyclic = np.ones(1 << n, dtype=bool)
    for b in range(n):
        indep_without, _ = halves(indep, b)
        rank_without, rank_with = halves(rank, b)
        _, circuits_with = halves(circuits, b)
        circuits_with &= indep_without
        same = rank_without == rank_with
        _, cyclic_with = halves(cyclic, b)
        cyclic_with &= same
        flats_without, _ = halves(flats, b)
        flats_without &= ~same

    hyperplanes = flats & (rank == r - 1)
    out = {
        "independent": indep,
        "spanning": spanning,
        "bases": bases,
        "flats": flats,
        "circuits": circuits,
        "hyperplanes": hyperplanes,
        "nsc": circuits & (pc <= r),
        "dephyp": hyperplanes & ~indep,
        "cyclicflats": flats & cyclic,
    }
    view._tables["families"] = out
    return out


def family_masks(view: MatroidView, family: str) -> List[int]:
    """Masks of one family, in canonical (cardinality, value) order."""
    flags = classify(view)[family]
    masks = np.nonzero(flags)[0]
    pc = popcounts(view.n)[masks]
    order = np.lexsort((masks, pc))
    return masks[order].tolist()


def rank_signature(view: MatroidView) -> Tuple[int, ...]:
    """Isomorphism-invariant histogram of (cardinality, rank) pairs."""
    rank = rank_table(view)
    pc = popcounts(view.n)
    width = view.n + 1
    return tuple(np.bincount(pc.astype(np.int64) * width + rank, minlength=width * width))


def table_view(n: int, rank: np.ndarray, name=None) -> MatroidView:
    """A view backed directly by a precomputed rank array."""
    pc = popcounts(n)
    view = MatroidView(n, rank=lambda a: int(rank[a]), name=name)
    view._tables = {"rank": np.asarray(rank, dtype=np.int8), "indep": np.asarray(rank) == pc}
    return view


def views_equal(a: MatroidView, b: MatroidView) -> bool:
    """Exhaustive rank-function equality (identical element labels)."""
    if a.n != b.n:
        raise ValueError(f"ground sets differ: {a.n} vs {b.n}")
    return bool(np.array_equal(rank_table(a), rank_table(b)))
