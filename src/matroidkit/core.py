"""Matroid views: rank / independence / closure queries and the standard
constructions (dual, minors, truncation, direct sums, parallel
extensions).

A view wraps either an independence predicate or a rank function over
bit masks.  All derived quantities are obtained through the greedy
algorithm, so any structure that can answer "is this subset
independent?" yields the full query interface.  A view may also carry a
table source: a function that builds its whole independence table with
vectorised subset transforms, which the exhaustive layer in
:mod:`matroidkit.tables` calls instead of querying every mask.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .bitsets import (
    CapacityError,
    check_ground,
    check_mask,
    elements,
    from_elements,
    full_mask,
)


class MatroidView:
    """A queryable matroid on the ground set ``{0 .. n-1}``.

    Immutable after construction.  The internal rank memo only ever
    stores deterministic values, so views may be shared across threads.
    ``table_source``, when given, returns the boolean independence table
    over all ``2**n`` masks of the matroid that ``indep``/``rank`` query.
    """

    __slots__ = (
        "n",
        "full",
        "full_rank",
        "table_source",
        "name",
        "index_map",
        "_indep",
        "_rank",
        "_memo",
        "_tables",
    )

    def __init__(
        self,
        n: int,
        indep: Optional[Callable[[int], bool]] = None,
        rank: Optional[Callable[[int], int]] = None,
        table_source: Optional[Callable[[], np.ndarray]] = None,
        name: Optional[str] = None,
        index_map: Optional[Tuple[int, ...]] = None,
    ):
        if indep is None and rank is None:
            raise ValueError("need an independence predicate or a rank function")
        check_ground(n)
        self.n = n
        self.full = full_mask(n)
        self.table_source = table_source
        self.name = name
        self.index_map = index_map
        self._indep = indep
        self._rank = rank
        self._memo: dict = {}
        self._tables = None
        self.full_rank = self.rank(self.full)

    def __repr__(self):
        label = self.name or "matroid"
        return f"<MatroidView {label}: n={self.n} r={self.full_rank}>"

    # -- queries ---------------------------------------------------------

    def is_independent(self, a: int) -> bool:
        check_mask(a, self.n)
        if self._indep is not None:
            return self._indep(a)
        return self._rank(a) == a.bit_count()

    def rank(self, a: int) -> int:
        check_mask(a, self.n)
        if self._rank is not None:
            return self._rank(a)
        got = self._memo.get(a)
        if got is None:
            got = self.basis_of(a).bit_count()
            self._memo[a] = got
        return got

    def basis_of(self, a: int) -> int:
        """A maximal independent subset of ``a``, grown greedily in
        ascending element order."""
        check_mask(a, self.n)
        picked = 0
        for e in elements(a):
            trial = picked | (1 << e)
            if self.is_independent(trial):
                picked = trial
        return picked

    def closure(self, a: int) -> int:
        check_mask(a, self.n)
        basis = self.basis_of(a)
        out = a
        rest = self.full & ~a
        for e in elements(rest):
            if not self.is_independent(basis | (1 << e)):
                out |= 1 << e
        return out

    def spans(self, a: int) -> bool:
        return self.rank(a) == self.full_rank

    # -- constructions ---------------------------------------------------

    def dual(self) -> "MatroidView":
        """The dual matroid, via r*(A) = |A| + r(E-A) - r(E)."""
        full, r = self.full, self.full_rank
        return MatroidView(
            self.n,
            rank=lambda a: a.bit_count() + self.rank(full & ~a) - r,
            name=f"dual({self.name})" if self.name else None,
        )

    def minor(self, x: int, y: int) -> "MatroidView":
        """M / x \\ y on the surviving elements, re-indexed 0..n'-1 in
        their original order.  ``index_map[i]`` is the original index of
        the minor's element ``i``."""
        check_mask(x, self.n)
        check_mask(y, self.n)
        if x & y:
            raise ValueError("contracted and deleted sets overlap")
        keep = tuple(elements(self.full & ~x & ~y))
        rx = self.rank(x)

        def expand(a: int) -> int:
            m = 0
            for i in elements(a):
                m |= 1 << keep[i]
            return m

        return MatroidView(
            len(keep),
            rank=lambda a: self.rank(expand(a) | x) - rx,
            name=f"minor({self.name})" if self.name else None,
            index_map=keep,
        )

    def delete(self, y: int) -> "MatroidView":
        return self.minor(0, y)

    def contract(self, x: int) -> "MatroidView":
        return self.minor(x, 0)

    def truncate(self, target_rank: int) -> "MatroidView":
        if not 0 <= target_rank <= self.full_rank:
            raise ValueError(
                f"truncation rank {target_rank} outside [0, {self.full_rank}]"
            )
        return MatroidView(
            self.n,
            rank=lambda a: min(self.rank(a), target_rank),
            name=f"T({self.name})" if self.name else None,
        )


def direct_sum(a: MatroidView, b: MatroidView) -> MatroidView:
    """Disjoint union; b's elements are shifted up by a.n."""
    n = a.n + b.n
    check_ground(n)  # raises CapacityError past the mask width
    low = a.full

    def rank(m: int) -> int:
        return a.rank(m & low) + b.rank(m >> a.n)

    name = f"{a.name}(+){b.name}" if a.name and b.name else None
    return MatroidView(n, rank=rank, name=name)


def parallel_blowup(view: MatroidView, m: int) -> MatroidView:
    """Replace every element with a parallel class of size ``m``.

    Copies of original element ``e`` occupy indices ``e*m .. e*m+m-1``.
    A set is independent iff it picks at most one copy per class and the
    touched classes form an independent set of the original.
    """
    if m < 1:
        raise ValueError(f"parallel class size must be >= 1, got {m}")
    n = view.n * m
    check_ground(n)
    class_masks = [((1 << m) - 1) << (e * m) for e in range(view.n)]

    def indep(a: int) -> bool:
        touched = 0
        for e, cm in enumerate(class_masks):
            hit = (a & cm).bit_count()
            if hit > 1:
                return False
            if hit:
                touched |= 1 << e
        return view.is_independent(touched)

    def rank(a: int) -> int:
        touched = 0
        for e, cm in enumerate(class_masks):
            if a & cm:
                touched |= 1 << e
        return view.rank(touched)

    name = f"{m}{view.name}" if view.name else None
    out = MatroidView(n, indep=indep, rank=rank, name=name)
    return out


def add_parallel(view: MatroidView, e: int) -> MatroidView:
    """Append one new element parallel to ``e``."""
    if not 0 <= e < view.n:
        raise ValueError(f"element {e} outside ground set of size {view.n}")
    if view.rank(1 << e) == 0:
        raise ValueError(f"element {e} is a loop; parallel extension undefined")
    n = view.n + 1
    check_ground(n)
    new_bit = 1 << view.n
    e_bit = 1 << e

    def rank(a: int) -> int:
        if a & new_bit:
            a = (a & ~new_bit) | e_bit
        return view.rank(a)

    name = f"{view.name}+parallel({e})" if view.name else None
    return MatroidView(n, rank=rank, name=name)


def relabel(view: MatroidView, perm: Sequence[int]) -> MatroidView:
    """Rename elements: new element ``perm[i]`` behaves like old ``i``."""
    if sorted(perm) != list(range(view.n)):
        raise ValueError("perm is not a permutation of the ground set")
    inverse = [0] * view.n
    for old, new in enumerate(perm):
        inverse[new] = old

    def back(a: int) -> int:
        m = 0
        for i in elements(a):
            m |= 1 << inverse[i]
        return m

    return MatroidView(view.n, rank=lambda a: view.rank(back(a)), name=view.name)


def minor_circuits(
    circuits: Sequence[int], n: int, x: int, y: int
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Circuit-rule minor: contract ``x`` element by element (circuits of
    M/e are the minimal nonempty members of {C - e}), then delete ``y``
    (keep circuits avoiding it).  Returns the re-indexed circuit masks
    and the index map of surviving elements.
    """
    check_mask(x, n)
    check_mask(y, n)
    if x & y:
        raise ValueError("contracted and deleted sets overlap")
    work = list(dict.fromkeys(circuits))
    for e in elements(x):
        bit = 1 << e
        stripped = sorted({c & ~bit for c in work if c & ~bit}, key=lambda c: (c.bit_count(), c))
        minimal = []
        for c in stripped:
            if not any(m != c and m & c == m for m in stripped):
                minimal.append(c)
        work = minimal
    work = [c for c in work if not c & y]
    keep = tuple(e for e in range(n) if not (x | y) >> e & 1)
    pos = {old: i for i, old in enumerate(keep)}

    def compress(c: int) -> int:
        m = 0
        for e in elements(c):
            m |= 1 << pos[e]
        return m

    out = sorted({compress(c) for c in work}, key=lambda c: (c.bit_count(), c))
    return tuple(out), keep
