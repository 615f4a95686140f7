"""Subsets of a small ground set packed into machine integers.

Element ``j`` of the ground set corresponds to bit ``1 << j``.  Union,
intersection, difference, subset test and cardinality are single-word
integer operations, and the whole subset lattice of a ground set can be
enumerated because the element count is capped at :data:`WORD_BITS`.
"""

from __future__ import annotations

import os
from itertools import combinations
from typing import Iterable, Iterator, List, Tuple

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
        value = int(cap)
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


def canonical_key(mask: int) -> Tuple[int, int]:
    return mask.bit_count(), mask


def canonical_order(sets: Iterable[int], reverse: bool = False) -> List[int]:
    """``sorted(sets, key=canonical_key)`` by two stable C-keyed sorts."""
    return sorted(sorted(sets, reverse=reverse), key=int.bit_count, reverse=reverse)


def minimal_sets(sets: Iterable[int]) -> List[int]:
    """The inclusion-minimal members of distinct sets, in canonical order,
    by O(k * |output|) subset tests: canonical order visits the proper
    subsets of a set first, so a non-minimal set contains a kept one."""
    kept: List[int] = []
    for s in canonical_order(sets):
        for m in kept:
            if m & s == m:
                break
        else:
            kept.append(s)
    return kept


def maximal_sets(sets: Iterable[int]) -> List[int]:
    """The inclusion-maximal members of distinct sets, in canonical
    order: :func:`minimal_sets` walked in descending order."""
    kept: List[int] = []
    for s in canonical_order(sets, reverse=True):
        for m in kept:
            if s & m == s:
                break
        else:
            kept.append(s)
    return kept[::-1]


def format_bits(mask: int, n: int) -> str:
    """Characteristic vector as text; leftmost character is element 0.
    ``mask`` must lie within the ``n`` elements."""
    # bin() writes '0b1' then the bits from n-1 down to 0; reverse and
    # stop before the marker bit
    return bin(mask | 1 << n)[:2:-1]


def parse_bits(text: str) -> int:
    """Inverse of :func:`format_bits`.  Only ``0`` and ``1`` pass; ``int``
    alone would also take ``_``, a sign, spaces and non-ASCII digits."""
    bad = text.strip("01")
    if bad:
        raise ValueError(f"bad character {bad[0]!r} in bitstring {text!r}")
    return int(text[::-1] or "0", 2)
