"""The table-backed constructions against the per-query closures they
replace, copied here as references: each reference answers one mask at a
time by querying its parent's ``rank``/``is_independent``, and never
reads a table.  Every construction must give the same rank table and
independence table as its reference, on every corpus view and on random
arguments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidkit import (
    MatroidView,
    add_parallel,
    direct_sum,
    parallel_blowup,
    relabel,
)
from matroidkit.bitsets import elements
from matroidkit.tables import independence_table, rank_table

from conftest import corpus, corpus_params

#: Largest ground set a construction under test may build; the
#: references answer 2**n masks one Python query at a time.
MAX_N = 10

SMALL = sorted(name for name, view in corpus().items() if view.n <= 3)


# -- references ------------------------------------------------------------


def dual_reference(view):
    full, r = view.full, view.full_rank
    return MatroidView(
        view.n, rank=lambda a: a.bit_count() + view.rank(full & ~a) - r
    )


def minor_reference(view, x, y):
    """The minor's view and its index map."""
    keep = tuple(elements(view.full & ~x & ~y))
    rx = view.rank(x)

    def expand(a):
        m = 0
        for i in elements(a):
            m |= 1 << keep[i]
        return m

    return MatroidView(len(keep), rank=lambda a: view.rank(expand(a) | x) - rx), keep


def truncate_reference(view, target_rank):
    return MatroidView(view.n, rank=lambda a: min(view.rank(a), target_rank))


def direct_sum_reference(a, b):
    low = a.full

    def rank(m):
        return a.rank(m & low) + b.rank(m >> a.n)

    return MatroidView(a.n + b.n, rank=rank)


def parallel_blowup_reference(view, m):
    class_masks = [((1 << m) - 1) << (e * m) for e in range(view.n)]

    def indep(a):
        touched = 0
        for e, cm in enumerate(class_masks):
            hit = (a & cm).bit_count()
            if hit > 1:
                return False
            if hit:
                touched |= 1 << e
        return view.is_independent(touched)

    def rank(a):
        touched = 0
        for e, cm in enumerate(class_masks):
            if a & cm:
                touched |= 1 << e
        return view.rank(touched)

    return MatroidView(view.n * m, indep=indep, rank=rank)


def add_parallel_reference(view, e):
    new_bit = 1 << view.n
    e_bit = 1 << e

    def rank(a):
        if a & new_bit:
            a = (a & ~new_bit) | e_bit
        return view.rank(a)

    return MatroidView(view.n + 1, rank=rank)


def relabel_reference(view, perm):
    inverse = [0] * view.n
    for old, new in enumerate(perm):
        inverse[new] = old

    def back(a):
        m = 0
        for i in elements(a):
            m |= 1 << inverse[i]
        return m

    return MatroidView(view.n, rank=lambda a: view.rank(back(a)))


def assert_matches_reference(built, reference):
    """Both tables of ``built`` against one query per mask of
    ``reference``."""
    assert built.n == reference.n
    size = 1 << reference.n
    want_indep = np.array([reference.is_independent(m) for m in range(size)])
    want_rank = np.array([reference.rank(m) for m in range(size)], dtype=np.int8)
    np.testing.assert_array_equal(rank_table(built), want_rank)
    np.testing.assert_array_equal(independence_table(built), want_indep)
    assert built.full_rank == reference.full_rank


# -- each construction against its reference -------------------------------


@pytest.mark.parametrize("view", corpus_params())
def test_dual_matches_reference(view):
    assert_matches_reference(view.dual(), dual_reference(view))


@settings(max_examples=15, deadline=None)
@pytest.mark.parametrize("view", corpus_params())
@given(data=st.data())
def test_minor_matches_reference(view, data):
    x = data.draw(st.integers(0, view.full), label="x")
    y = data.draw(st.integers(0, view.full & ~x), label="y") & ~x
    reference, _ = minor_reference(view, x, y)
    assert_matches_reference(view.minor(x, y), reference)


@settings(max_examples=10, deadline=None)
@pytest.mark.parametrize("view", corpus_params())
@given(data=st.data())
def test_truncate_matches_reference(view, data):
    t = data.draw(st.integers(0, view.full_rank), label="t")
    assert_matches_reference(view.truncate(t), truncate_reference(view, t))


@settings(max_examples=10, deadline=None)
@pytest.mark.parametrize("view", corpus_params())
@given(data=st.data())
def test_direct_sum_matches_reference(view, data):
    other = corpus()[data.draw(st.sampled_from(SMALL), label="other")]
    assert_matches_reference(direct_sum(view, other), direct_sum_reference(view, other))
    assert_matches_reference(direct_sum(other, view), direct_sum_reference(other, view))


@settings(max_examples=5, deadline=None)
@pytest.mark.parametrize("view", corpus_params())
@given(data=st.data())
def test_parallel_blowup_matches_reference(view, data):
    m = data.draw(st.integers(1, max(1, MAX_N // view.n)), label="m")
    assert_matches_reference(
        parallel_blowup(view, m), parallel_blowup_reference(view, m)
    )


@settings(max_examples=5, deadline=None)
@pytest.mark.parametrize("view", corpus_params())
@given(data=st.data())
def test_add_parallel_matches_reference(view, data):
    non_loops = [e for e in range(view.n) if view.rank(1 << e) == 1]
    if not non_loops:
        with pytest.raises(ValueError, match="is a loop"):
            add_parallel(view, 0)
        return
    e = data.draw(st.sampled_from(non_loops), label="e")
    assert_matches_reference(add_parallel(view, e), add_parallel_reference(view, e))


@settings(max_examples=10, deadline=None)
@pytest.mark.parametrize("view", corpus_params())
@given(data=st.data())
def test_relabel_matches_reference(view, data):
    perm = data.draw(st.permutations(range(view.n)), label="perm")
    assert_matches_reference(relabel(view, perm), relabel_reference(view, perm))


def test_constructions_chain_against_references():
    """A construction of a construction of a construction, both ways."""
    base = corpus()["U(2,4)"]
    built = relabel(parallel_blowup(base.dual(), 2).minor(0b1, 0b100), range(6)[::-1])
    reference, _ = minor_reference(
        parallel_blowup_reference(dual_reference(base), 2), 0b1, 0b100
    )
    assert_matches_reference(built, relabel_reference(reference, range(6)[::-1]))


def test_independence_table_needs_a_table_source():
    view = MatroidView(3, indep=lambda a: a.bit_count() <= 1)
    with pytest.raises(ValueError, match="no table source"):
        independence_table(view)
