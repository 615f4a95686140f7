"""Subsets of a small ground set packed into machine integers.

Element ``j`` of the ground set corresponds to bit ``1 << j``.  Union,
intersection, difference, subset test and cardinality are single-word
integer operations, and the whole subset lattice of a ground set can be
enumerated because the element count is capped at :data:`WORD_BITS`.
"""

from __future__ import annotations

import os
from itertools import combinations
from typing import Iterable, Iterator, List, Sequence, Set

#: Hard ceiling on the ground-set size.  Keeps every mask in one machine
#: word and every ``2**n`` enumeration affordable.
WORD_BITS = 24


class CapacityError(ValueError):
    """The ground set does not fit the fixed mask width."""


def max_ground() -> int:
    """Current element-count cap.

    The environment variable ``MATROID_MAX_N`` may lower the cap, never
    raise it.
    """
    cap = os.environ.get("MATROID_MAX_N")
    if cap is None:
        return WORD_BITS
    try:
        value = strict_int(cap)
    except ValueError:
        raise CapacityError(f"MATROID_MAX_N is not an integer: {cap!r}") from None
    return min(value, WORD_BITS)


def check_ground(n: int) -> int:
    if n < 0:
        raise ValueError(f"negative ground-set size: {n}")
    if n > max_ground():
        raise CapacityError(
            f"ground set of {n} elements exceeds the cap of {max_ground()}"
        )
    return n


def full_mask(n: int) -> int:
    return (1 << n) - 1


def check_mask(mask: int, n: int) -> int:
    if mask < 0 or mask & ~full_mask(n):
        raise ValueError(f"mask {bin(mask)} has bits outside a ground set of size {n}")
    return mask


def elements(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def from_elements(items: Iterable[int]) -> int:
    m = 0
    for e in items:
        m |= 1 << e
    return m


def submasks(mask: int) -> Iterator[int]:
    """All subsets of ``mask`` in ascending numeric order."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def masks_of_size(n: int, k: int) -> Iterator[int]:
    """All ``k``-subsets of ``{0..n-1}``, in lexicographic element order."""
    for combo in combinations(range(n), k):
        yield from_elements(combo)


def canonical_order(sets: Iterable[int], reverse: bool = False) -> List[int]:
    """Sets sorted by (cardinality, numeric value), the canonical order
    of a description, by two stable C-keyed sorts."""
    return sorted(sorted(sets, reverse=reverse), key=int.bit_count, reverse=reverse)


#: The walk of :func:`minimal_sets` and :func:`maximal_sets` keeps this
#: many sets per ground element before it asks :func:`_closed`.  A family
#: with a short output stays on the walk, whose k * |output| subset tests
#: then cost less than the check's k * n lookups: in process, the 13 bases
#: among 8,191 spanning sets of L11 took 1.1 ms by the walk and 16.5 ms by
#: the check and the local rule.
_WALK_KEPT = 8


def _closed(listed: Set[int]) -> bool:
    """Whether a family is down-closed, or up-closed within the union of
    its members, by at most k * n lookups.  Then between two listed sets
    T < S lies a listed S - e and a listed T + e, so a member is minimal
    iff no S - e is listed, and maximal iff no S + e is.

    A down-closed family holds the empty set.  A family with every S + e
    inside its largest mask listed holds the union of each member with
    that mask, so the largest mask is the union of all members."""
    if 0 in listed and all(s & ~(1 << e) in listed for s in listed for e in elements(s)):
        return True
    top = max(listed, default=0)
    return all(s | 1 << e in listed for s in listed for e in elements(top & ~s))


def minimal_sets(sets: Iterable[int]) -> List[int]:
    """The inclusion-minimal members of distinct sets, in canonical order.

    The walk visits the sets in canonical order, which puts the proper
    subsets of a set first, and keeps those that contain no kept set:
    O(k * |output|) subset tests.  Once it has kept ``_WALK_KEPT`` * n + 1
    sets, a closed family (:func:`_closed`) keeps instead each set with no
    listed S - e, so the whole costs O(k * n) lookups."""
    order = canonical_order(sets)
    switch = _WALK_KEPT * max(order, default=0).bit_length() + 1
    kept: List[int] = []
    for s in order:
        for m in kept:
            if m & s == m:
                break
        else:
            kept.append(s)
            if len(kept) == switch:
                listed = set(order)
                if _closed(listed):
                    return [
                        s for s in order if not any(s & ~(1 << e) in listed for e in elements(s))
                    ]
    return kept


def maximal_sets(sets: Iterable[int]) -> List[int]:
    """The inclusion-maximal members of distinct sets, in canonical
    order: :func:`minimal_sets`'s walk in descending order, and on a
    closed family the sets with no listed S + e."""
    order = canonical_order(sets, reverse=True)
    n = max(order, default=0).bit_length()
    switch = _WALK_KEPT * n + 1
    kept: List[int] = []
    for s in order:
        for m in kept:
            if s & m == s:
                break
        else:
            kept.append(s)
            if len(kept) == switch:
                listed, ground = set(order), full_mask(n)
                if _closed(listed):
                    kept = [
                        s for s in order
                        if not any(s | 1 << e in listed for e in elements(ground & ~s))
                    ]
                    break
    return kept[::-1]


def format_bits(mask: int, n: int) -> str:
    """Characteristic vector as text; leftmost character is element 0.
    ``mask`` must lie within the ``n`` elements."""
    # bin() writes '0b1' then the bits from n-1 down to 0; reverse and
    # stop before the marker bit
    return bin(mask | 1 << n)[:2:-1]


def columns(sets: Sequence[int], n: int) -> List[int]:
    """The listing read by elements: entry e has bit i set when
    ``sets[i]`` holds e.  The sets' bit strings are transposed, so the
    cost is linear in the listing's n * len(sets) cells."""
    rows = [format_bits(m, n) for m in reversed(sets)]
    return [int("".join(col), 2) for col in zip(*rows)] if rows else [0] * n


def strict_int(text: str) -> int:
    """``int`` of ASCII digits with an optional leading ``-`` only; plain
    ``int`` would also take ``_``, ``+``, spaces and non-ASCII digits."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError
    return int(text)


def parse_bits(text: str) -> int:
    """Inverse of :func:`format_bits`.  Only ``0`` and ``1`` pass; ``int``
    alone would also take ``_``, a sign, spaces and non-ASCII digits."""
    bad = text.strip("01")
    if bad:
        raise ValueError(f"bad character {bad[0]!r} in bitstring {text!r}")
    return int(text[::-1] or "0", 2)
