"""Exhaustive subset tables: the decode and the encode of every kind.

Everything here enumerates all ``2**n`` subsets, which the ground-set
cap keeps affordable.  These tables are the independent oracle against
which the listed-data algorithms are checked, and the engine behind
exhaustive re-encoding.  Both directions of each kind's rule live here:
:func:`decode` reads a description's listed sets into its independence
table, and :func:`family_table` reads a view's tables back into the
sets a description of a kind lists.

Tables are indexed by mask.  :func:`subset_fold` and :func:`superset_fold`
fold a table in one vectorised pass per element over its two halves that
differ only in that element, O(n * 2**n) work in all.  Every table
starts from a view's table source; a view without one has no table.
A view caches its independence and rank tables, and no family's table.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import KINDS
from .bitsets import full_mask
from .core import MatroidView
from .descriptions import Description, _unlisted_intersection, dual


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


def image_table(images) -> np.ndarray:
    """For the w images on the last axis of ``images``, the OR of
    ``images[..., e]`` over the elements e of every mask below ``2**w``:
    one row of ``2**w`` entries per leading index (a ``(k, w)`` array
    gives k rows), by doubling, one pass per element.  Images must fit
    in 63 bits."""
    images = np.asarray(images, dtype=np.int64)
    w = images.shape[-1]
    out = np.zeros((*images.shape[:-1], 1 << w), dtype=np.int64)
    for b in range(w):
        # mask (1 << b) | m, for m below 1 << b, adds images[b] to mask m
        np.bitwise_or(out[..., : 1 << b], images[..., b, None], out=out[..., 1 << b : 2 << b])
    return out


def subset_fold(table: np.ndarray, n: int, op: np.ufunc) -> np.ndarray:
    """In place: fold each mask's subsets into it with the binary ufunc
    ``op``; ``np.bitwise_or`` gives the up-closure of a boolean table and
    ``np.maximum`` the maximum over the subsets of each mask."""
    for b in range(n):
        without, with_b = halves(table, b)
        op(with_b, without, out=with_b)
    return table


def superset_fold(table: np.ndarray, n: int, op: np.ufunc) -> np.ndarray:
    """In place: fold each mask's supersets into it with the binary ufunc
    ``op``; ``np.bitwise_or`` gives the down-closure of a boolean table,
    and ``np.bitwise_and`` or ``np.minimum`` the AND or minimum over them."""
    for b in range(n):
        without, with_b = halves(table, b)
        op(without, with_b, out=without)
    return table


def strict_up_closure(table: np.ndarray, n: int) -> np.ndarray:
    """True on every proper superset of a set where ``table`` is true."""
    closed = subset_fold(table.copy(), n, np.bitwise_or)
    out = np.zeros_like(table)
    for b in range(n):
        closed_without, _ = halves(closed, b)
        _, out_with = halves(out, b)
        out_with |= closed_without
    return out


def independence_table(view: MatroidView) -> np.ndarray:
    """Boolean array over all masks, built by the view's table source;
    cached on the view."""
    if view.table_source is None:
        raise ValueError("this view has no table source")
    if view._tables is None:
        view._tables = {}
    if "indep" not in view._tables:
        view._tables["indep"] = view.table_source()
    return view._tables["indep"]


def rank_from_independence(indep: np.ndarray, n: int) -> np.ndarray:
    """r(A) = the largest independent subset of A: a subset-max
    fold of the independent sets' cardinalities."""
    return subset_fold(np.where(indep, popcounts(n), np.int8(0)), n, np.maximum)


def rank_table(view: MatroidView) -> np.ndarray:
    """Rank of every mask, derived from the independence table."""
    if view._tables is None or "rank" not in view._tables:
        indep = independence_table(view)
        view._tables["rank"] = rank_from_independence(indep, view.n)
    return view._tables["rank"]


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


def flat_closure(n: int, flats: Sequence[int]) -> np.ndarray:
    """The intersection of the listed flats containing each mask (the
    ground set where none does): a superset-AND fold.  ``ValueError``
    naming the closure of the lowest mask whose closure is not listed."""
    closure = np.full(1 << n, full_mask(n), dtype=np.int32)
    closure[np.array(flats, dtype=np.int64)] = flats
    unlisted = np.flatnonzero(~indicator(n, flats)[superset_fold(closure, n, np.bitwise_and)])
    if len(unlisted):
        raise _unlisted_intersection(n, int(closure[unlisted[0]]))
    return closure


def decode(desc: Description, closure: Optional[np.ndarray] = None) -> np.ndarray:
    """The independence table of a description, read from its listed
    sets alone by :func:`subset_fold` and :func:`superset_fold` in
    n * 2**n cells whatever their number: the table source of every view
    ``descriptions.to_view`` returns.  Hyperplane-side kinds decode their
    :func:`~matroidkit.descriptions.dual`, and A is independent iff E - A
    spans it; flats give the closure (``closure``, where the caller has
    built :func:`flat_closure` of the listing already), and A is
    independent iff no e in A lies in cl(A - e); cyclic flats, iff
    |A & Z| <= r(Z) for every listed Z, with equality for some."""
    n, kind, sets = desc.n, desc.kind, desc.sets
    if kind == "independent":
        return indicator(n, sets)
    if kind in ("spanning", "bases"):
        listed = indicator(n, sets)
        if kind == "spanning":  # the minimal listed sets
            listed &= ~strict_up_closure(listed, n)
        return superset_fold(listed, n, np.bitwise_or)
    if kind in ("circuits", "nsc"):
        r = n if kind == "circuits" else desc.r
        return ~subset_fold(indicator(n, sets), n, np.bitwise_or) & (popcounts(n) <= r)
    if kind in ("hyperplanes", "dephyp"):
        co_rank = rank_from_independence(decode(dual(desc)), n)
        # full ^ m == 2^n - 1 - m, so the reversal reads r*(E - A)
        return co_rank[::-1] == co_rank[-1]
    if kind == "flats":
        if closure is None:
            closure = flat_closure(n, sets)
        out = np.ones(1 << n, dtype=bool)
        for b in range(n):
            closed_without, _ = halves(closure, b)
            _, out_with = halves(out, b)
            out_with &= (closed_without & (1 << b)) == 0
        return out
    if kind not in ("rank", "cyclicflats"):
        raise ValueError(f"unknown description kind {kind!r}")
    ranks = np.full(1 << n, 0 if kind == "rank" else 127, dtype=np.int8)
    ranks[np.array(sets, dtype=np.int64)] = desc.set_ranks
    if kind == "rank":
        return ranks == popcounts(n)
    # ranks(B) becomes the least r(Z) over the listed Z containing B, so the
    # largest |B| - ranks(B) over the B inside A is the largest |A & Z| - r(Z)
    superset_fold(ranks, n, np.minimum)
    return subset_fold(popcounts(n) - ranks, n, np.maximum) == 0


def family_table(view: MatroidView, kind: str) -> np.ndarray:
    """Boolean array over all masks, true on the sets that a description
    of ``kind`` lists; the cached table itself for ``independent``."""
    n = view.n
    indep = independence_table(view)
    rank = rank_table(view)
    r = int(rank[-1])
    if kind == "independent":
        return indep
    if kind == "spanning":
        return rank == r
    if kind == "bases":
        return indep & (popcounts(n) == r)
    if kind in ("circuits", "nsc"):
        # circuit: dependent, every single-element deletion independent
        out = ~indep
        for b in range(n):
            indep_without, _ = halves(indep, b)
            _, out_with = halves(out, b)
            out_with &= indep_without
        if kind == "nsc":
            out &= popcounts(n) <= r
        return out
    if kind not in ("flats", "cyclicflats", "hyperplanes", "dephyp"):
        raise ValueError(f"unknown description kind {kind!r}")
    out = np.ones(1 << n, dtype=bool) if kind in ("flats", "cyclicflats") else rank == r - 1
    if kind == "dephyp":
        out &= ~indep
    for b in range(n):
        rank_without, rank_with = halves(rank, b)
        grows = rank_without != rank_with
        out_without, out_with = halves(out, b)
        # flat: every outside element raises the rank
        out_without &= grows
        if kind == "cyclicflats":
            # cyclic: no inside element drops the rank
            out_with &= ~grows
    return out


def classify(view: MatroidView) -> Dict[str, np.ndarray]:
    """Characteristic boolean arrays for every family of subsets the
    description formats can list."""
    return {kind: family_table(view, kind) for kind in KINDS if kind != "rank"}


def family_masks(view: MatroidView, family: str) -> np.ndarray:
    """The int64 masks a description of kind ``family`` lists, in (cardinality, value) order."""
    pc = popcounts(view.n)
    if family == "rank":
        # a stable sort by cardinality keeps values ascending
        return np.argsort(pc, kind="stable")
    masks = np.flatnonzero(family_table(view, family))
    # cardinality into each mask's high word: one in-place sort, no second array
    high = masks.view(np.int32)[np.little_endian :: 2]
    high[...] = pc[masks]
    masks.sort()
    high[...] = 0
    return masks


def rank_signature(view: MatroidView) -> Tuple[int, ...]:
    """Isomorphism-invariant histogram of (cardinality, rank) pairs."""
    rank = rank_table(view)
    pc = popcounts(view.n)
    width = view.n + 1
    return tuple(np.bincount(pc.astype(np.int64) * width + rank, minlength=width * width))


def table_view(n: int, rank: np.ndarray) -> MatroidView:
    """A table-only view of a precomputed rank array; its independence
    table is read off the ranks on first use."""
    rank = np.asarray(rank, dtype=np.int8)
    view = MatroidView(n, table_source=lambda: rank == popcounts(n))
    view._tables = {"rank": rank}
    return view


def views_equal(a: MatroidView, b: MatroidView) -> bool:
    """Exhaustive rank-function equality (identical element labels)."""
    if a.n != b.n:
        raise ValueError(f"ground sets differ: {a.n} vs {b.n}")
    return bool(np.array_equal(rank_table(a), rank_table(b)))
