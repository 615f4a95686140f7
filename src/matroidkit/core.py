"""Matroid views: rank / independence / closure queries and the standard
constructions (dual, minors, truncation, direct sums, parallel
extensions).

A view is built from a table source, from an independence predicate or
a rank function, or from both.  The table source builds the whole
independence table with vectorised subset transforms; the exhaustive
layer in :mod:`matroidkit.tables` builds tables only through it.  A
view given a predicate but no rank function answers ``rank`` by the
greedy algorithm.

Table-only views answer every query from their rank table: the uniform
and bicircular families, the ``rank`` description kind, and the table
views the constructions return.  Each construction builds its parent's
rank table and returns a table view of one numpy transform of it (a
reversal, a cap, an outer sum, or a gather through an image table).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

# numpy and ``tables`` load in the functions that build tables, so the
# listed-data rules never load them; ``np`` in annotations is never evaluated
from .bitsets import check_ground, check_mask, elements, full_mask


class MatroidView:
    """A queryable matroid on the ground set ``{0 .. n-1}``.

    ``table_source``, when given, returns the boolean independence table
    over all ``2**n`` masks.  A view with neither ``indep`` nor ``rank``
    is table-only: its rank reads :func:`matroidkit.tables.rank_table`
    and its independence follows from that.  The public queries check
    their mask once and then run unchecked private steps; library code
    that built or already checked a mask calls those private steps.
    """

    __slots__ = (
        "n",
        "full",
        "table_source",
        "_indep",
        "_rank",
        "_tables",
        "_full_rank",
    )

    def __init__(
        self,
        n: int,
        indep: Optional[Callable[[int], bool]] = None,
        rank: Optional[Callable[[int], int]] = None,
        table_source: Optional[Callable[[], np.ndarray]] = None,
    ):
        if indep is None and rank is None and table_source is None:
            raise ValueError(
                "need an independence predicate, a rank function or a table source"
            )
        check_ground(n)
        self.n = n
        self.full = full_mask(n)
        self.table_source = table_source
        self._indep = indep
        self._rank = rank
        self._tables = None
        self._full_rank: Optional[int] = None

    @property
    def full_rank(self) -> int:
        """r(E), computed on first use."""
        if self._full_rank is None:
            self._full_rank = self._rank_of(self.full)
        return self._full_rank

    def __repr__(self):
        return f"<MatroidView n={self.n}>"

    # -- queries ---------------------------------------------------------

    def is_independent(self, a: int) -> bool:
        check_mask(a, self.n)
        return self._independent(a)

    def rank(self, a: int) -> int:
        check_mask(a, self.n)
        return self._rank_of(a)

    def basis_of(self, a: int) -> int:
        """A maximal independent subset of ``a``, grown greedily in
        ascending element order."""
        check_mask(a, self.n)
        return self._basis(a)

    def closure(self, a: int) -> int:
        check_mask(a, self.n)
        basis = self._basis(a)
        out = a
        for e in elements(self.full & ~a):
            if not self._independent(basis | (1 << e)):
                out |= 1 << e
        return out

    def _independent(self, a: int) -> bool:
        if self._indep is not None:
            return self._indep(a)
        return self._rank_of(a) == a.bit_count()

    def _rank_of(self, a: int) -> int:
        if self._rank is not None:
            return self._rank(a)
        if self._indep is not None:
            return self._basis(a).bit_count()
        # only here: a view with a predicate answers without numpy
        from . import tables

        return int(tables.rank_table(self)[a])

    def _basis(self, a: int) -> int:
        picked = 0
        for e in elements(a):
            trial = picked | (1 << e)
            if self._independent(trial):
                picked = trial
        return picked

    def spans(self, a: int) -> bool:
        return self.rank(a) == self.full_rank

    # -- constructions ---------------------------------------------------

    def dual(self) -> "MatroidView":
        """The dual matroid, via r*(A) = |A| + r(E-A) - r(E)."""
        from . import tables  # tables builds on this module

        rank = tables.rank_table(self)
        return tables.table_view(self.n, tables.popcounts(self.n) + rank[::-1] - rank[-1])

    def minor(self, x: int, y: int) -> "MatroidView":
        """M / x \\ y on the surviving elements, re-indexed 0..n'-1 in
        their original order.  r'(A) = r(A | x) - r(x), gathered through
        a transient int64 image array (128 MB at n' = 24)."""
        return _pull_back(self, [1 << e for e in _survivors(self.n, x, y)], x)

    def delete(self, y: int) -> "MatroidView":
        return self.minor(0, y)

    def contract(self, x: int) -> "MatroidView":
        return self.minor(x, 0)

    def truncate(self, target_rank: int) -> "MatroidView":
        """Truncation to ``target_rank``: r(A) capped at the target."""
        if not 0 <= target_rank <= self.full_rank:
            raise ValueError(
                f"truncation rank {target_rank} outside [0, {self.full_rank}]"
            )
        import numpy as np

        from . import tables

        return tables.table_view(self.n, np.minimum(tables.rank_table(self), target_rank))


def _survivors(n: int, x: int, y: int) -> Tuple[int, ...]:
    """The ascending elements left by contracting ``x`` and deleting
    ``y``; both masks are checked, and they must be disjoint."""
    check_mask(x, n)
    check_mask(y, n)
    if x & y:
        raise ValueError("contracted and deleted sets overlap")
    return tuple(elements(full_mask(n) & ~x & ~y))


def _pull_back(view: MatroidView, images: Sequence[int], x: int = 0) -> MatroidView:
    """The matroid on ``len(images)`` elements in which element ``i``
    acts as the set ``images[i]`` of ``view`` contracted by ``x``:
    r'(A) = r(x | OR of images[i] over A) - r(x).  One gather from the
    parent's rank table through a transient int64 image array of
    ``2**len(images)`` entries, 128 MB at 24 elements."""
    from . import tables

    rank = tables.rank_table(view)
    at = tables.image_table(images)
    at |= x
    return tables.table_view(len(images), rank[at] - rank[x])


def direct_sum(a: MatroidView, b: MatroidView) -> MatroidView:
    """Disjoint union; b's elements are shifted up by a.n."""
    import numpy as np

    from . import tables

    n = check_ground(a.n + b.n)  # raises CapacityError past the mask width
    # mask m splits as (m >> a.n, m & a.full): the outer sum's row and column
    rank = np.add.outer(tables.rank_table(b), tables.rank_table(a)).ravel()
    return tables.table_view(n, rank)


def parallel_blowup(view: MatroidView, m: int) -> MatroidView:
    """Replace every element with a parallel class of size ``m``.

    Copies of original element ``e`` occupy indices ``e*m .. e*m+m-1``.
    A set is independent iff it picks at most one copy per class and the
    touched classes form an independent set of the original.
    """
    if m < 1:
        raise ValueError(f"parallel class size must be >= 1, got {m}")
    n = check_ground(view.n * m)
    return _pull_back(view, [1 << (j // m) for j in range(n)])


def add_parallel(view: MatroidView, e: int) -> MatroidView:
    """Append one new element parallel to ``e``."""
    if not 0 <= e < view.n:
        raise ValueError(f"element {e} outside ground set of size {view.n}")
    if view._rank_of(1 << e) == 0:
        raise ValueError(f"element {e} is a loop; parallel extension undefined")
    check_ground(view.n + 1)
    return _pull_back(view, [1 << i for i in range(view.n)] + [1 << e])


def relabel(view: MatroidView, perm: Sequence[int]) -> MatroidView:
    """Rename elements: new element ``perm[i]`` behaves like old ``i``."""
    if sorted(perm) != list(range(view.n)):
        raise ValueError("perm is not a permutation of the ground set")
    images = [0] * view.n
    for old, new in enumerate(perm):
        images[new] = 1 << old
    return _pull_back(view, images)
