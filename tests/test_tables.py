import functools
import operator
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matroidkit import (
    KINDS,
    descriptions,
    tables,
    bicircular,
    description,
    encode_from_oracle,
    multigraph,
    separation_family,
    to_view,
    uniform,
)
from matroidkit.bitsets import elements, full_mask, submasks
from matroidkit.tables import (
    classify,
    decode,
    family_masks,
    family_table,
    independence_table,
    popcounts,
    rank_signature,
    rank_table,
    subset_fold,
    superset_fold,
    table_view,
    views_equal,
)

from conftest import corpus, corpus_params


def test_popcounts():
    pc = popcounts(4)
    assert [int(pc[m]) for m in (0, 1, 0b11, 0b1111)] == [0, 1, 2, 4]


def test_popcounts_is_one_read_only_array_per_n():
    pc = popcounts(5)
    assert popcounts(5) is pc
    assert not pc.flags.writeable
    with pytest.raises(ValueError):
        pc[3] = 0
    assert pc.tolist() == [m.bit_count() for m in range(32)]


@pytest.mark.parametrize("view", corpus_params())
def test_tables_match_view_queries(view):
    indep = independence_table(view)
    rank = rank_table(view)
    for mask in range(1 << view.n):
        assert bool(indep[mask]) == view.is_independent(mask)
    assert int(rank[view.full]) == view.full_rank


def _bruteforce_families(view):
    """From-definition classification, independent of the numpy path."""
    n, full = view.n, full_mask(view.n)
    r = view.full_rank
    out = {name: set() for name in (
        "independent", "spanning", "bases", "flats", "circuits",
        "hyperplanes", "nsc", "dephyp", "cyclicflats",
    )}
    for a in range(1 << n):
        ra = view.rank(a)
        indep = view.is_independent(a)
        if indep:
            out["independent"].add(a)
        if ra == r:
            out["spanning"].add(a)
        if indep and ra == r:
            out["bases"].add(a)
        is_circuit = not indep and all(
            view.is_independent(a & ~(1 << e)) for e in elements(a)
        )
        if is_circuit:
            out["circuits"].add(a)
            if a.bit_count() <= r:
                out["nsc"].add(a)
        is_flat = all(
            view.rank(a | (1 << e)) > ra for e in elements(full & ~a)
        )
        if is_flat:
            out["flats"].add(a)
            if ra == r - 1:
                out["hyperplanes"].add(a)
                if not indep:
                    out["dephyp"].add(a)
            if all(view.rank(a & ~(1 << e)) == ra for e in elements(a)):
                out["cyclicflats"].add(a)
    return out


@pytest.mark.parametrize("view", corpus_params())
def test_classify_against_bruteforce(view):
    families = classify(view)
    expected = _bruteforce_families(view)
    for name, masks in expected.items():
        assert set(np.nonzero(families[name])[0]) == masks, name


def test_family_masks_canonical_order():
    masks = family_masks(uniform(2, 4), "circuits")
    assert masks.dtype == np.int64
    assert masks.tolist() == sorted(masks.tolist(), key=lambda m: (m.bit_count(), m))
    assert len(masks) == 4  # C(4,3) three-element circuits


def _canonical(masks):
    return sorted(masks, key=lambda m: (m.bit_count(), m))


@pytest.mark.parametrize("view", corpus_params())
def test_family_masks_list_each_kind_in_canonical_order(view):
    families = classify(view)
    assert set(families) == set(KINDS) - {"rank"}
    assert family_masks(view, "rank").tolist() == _canonical(range(1 << view.n))
    for kind, table in families.items():
        masks = family_masks(view, kind)
        assert masks.dtype == np.int64
        assert masks.tolist() == _canonical(np.flatnonzero(table).tolist()), kind


def test_family_masks_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown description kind 'foo'"):
        family_masks(uniform(2, 4), "foo")


@pytest.mark.parametrize("build", [
    lambda: uniform(10, 20),
    lambda: separation_family("L18", 10),
], ids=["U(10,20)", "L18(10)"])
def test_family_masks_memory_is_the_listing_and_one_family_table(build):
    # with the cached tables built first, a listing costs its own array,
    # the asked family's table (1 MB at n = 20) and a temporary or two;
    # no other family's table and no second array the listing's size
    view = build()
    pc = popcounts(view.n)
    rank_table(view)
    assert view.n == 20
    for kind in KINDS:
        tracemalloc.start()
        try:
            masks = family_masks(view, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (3 << 20) + masks.nbytes, kind
        if kind == "rank":
            listed = np.arange(1 << view.n)
        else:
            listed = np.flatnonzero(family_table(view, kind))
        assert np.array_equal(masks, listed[np.lexsort((listed, pc[listed]))]), kind
    assert set(view._tables) == {"indep", "rank"}


def test_uniform_counts():
    u = uniform(2, 5)
    families = classify(u)
    assert int(families["bases"].sum()) == 10  # C(5,2)
    assert int(families["circuits"].sum()) == 10  # C(5,3)
    assert int(families["hyperplanes"].sum()) == 5  # singletons
    assert int(families["nsc"].sum()) == 0


def test_rank_signature_invariance_and_separation():
    assert rank_signature(uniform(2, 4)) == rank_signature(uniform(2, 4).dual())
    assert rank_signature(uniform(2, 4)) != rank_signature(uniform(3, 4))


def test_table_view():
    u = uniform(2, 4)
    tv = table_view(4, rank_table(u))
    assert views_equal(tv, u)
    assert tv.is_independent(0b0011)


def test_views_equal_requires_same_ground():
    with pytest.raises(ValueError):
        views_equal(uniform(1, 2), uniform(1, 3))


# -- the table engine against the per-mask predicate path ----------------


def _predicate_tables(view):
    """Independence by one ``is_independent`` query per mask; rank as the
    largest independent subset, by enumerating submasks."""
    size = 1 << view.n
    indep = [view.is_independent(m) for m in range(size)]
    rank = [
        max((s.bit_count() for s in submasks(m) if indep[s]), default=0)
        for m in range(size)
    ]
    return np.array(indep, dtype=bool), np.array(rank, dtype=np.int8)


def _assert_engine_matches(desc):
    _assert_source_matches(to_view(desc))


def _assert_source_matches(view):
    assert view.table_source is not None
    want_indep, want_rank = _predicate_tables(view)
    np.testing.assert_array_equal(independence_table(view), want_indep)
    np.testing.assert_array_equal(rank_table(view), want_rank)


@pytest.mark.parametrize("view", corpus_params())
@pytest.mark.parametrize("kind", KINDS)
def test_engine_matches_predicate_path(view, kind):
    _assert_engine_matches(encode_from_oracle(view, kind))


@pytest.mark.parametrize("view", corpus_params())
def test_rank_kind_independence_is_read_off_the_listed_ranks(view):
    # the rank kind is table-only, so check its table against the listing
    desc = encode_from_oracle(view, "rank")
    listed = dict(zip(desc.sets, desc.set_ranks))
    decoded = to_view(desc)
    want = [listed[m] == m.bit_count() for m in range(1 << view.n)]
    assert independence_table(decoded).tolist() == want
    assert [decoded.rank(m) for m in range(1 << view.n)] == [
        listed[m] for m in range(1 << view.n)
    ]


@st.composite
def antichain_descriptions(draw):
    """Random antichains, possibly non-matroidal, decoded as one of the
    kinds whose engine rule equals its predicate on any input."""
    n = draw(st.integers(1, 8))
    candidates = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12))
    sets = [c for c in set(candidates)
            if not any(o != c and o & c == o for o in candidates)]
    kind = draw(st.sampled_from(
        ("circuits", "nsc", "bases", "spanning", "independent", "cyclicflats")))
    if kind == "nsc":
        return description(kind, n, sets, r=draw(st.integers(0, n)))
    if kind == "cyclicflats":
        ranks = [draw(st.integers(0, s.bit_count())) for s in sets]
        return description(kind, n, sets, ranks)
    return description(kind, n, sets)


@settings(max_examples=150, deadline=None)
@given(antichain_descriptions())
def test_engine_matches_predicate_path_on_antichains(desc):
    _assert_engine_matches(desc)


@st.composite
def comparable_families(draw):
    """Random spanning or independent families, possibly non-matroidal,
    that are neither antichains nor closed upward: each holds a set and
    a proper subset of it, and not the ground set.  So the spanning
    table must first find the minimal listed sets."""
    n = draw(st.integers(2, 8))
    full = full_mask(n)
    big = draw(st.integers(1, full - 1))
    small = big & ~(big & -big) & draw(st.integers(0, full))
    others = draw(st.lists(st.integers(0, full - 1), max_size=10))
    kind = draw(st.sampled_from(("spanning", "independent")))
    return description(kind, n, sorted({big, small, *others}))


@settings(max_examples=150, deadline=None)
@given(comparable_families())
def test_engine_matches_predicate_path_on_comparable_families(desc):
    _assert_engine_matches(desc)


@pytest.mark.parametrize("kind", ["spanning", "flats"])
def test_the_table_route_runs_no_listed_precomputation(monkeypatch, kind):
    # the minimal spanning sets and the flat heights are the per-query
    # rules' own precomputation: built at the first query, then kept
    desc = encode_from_oracle(uniform(3, 6), kind)
    calls = []
    for name in ("minimal_sets", "_flat_heights"):
        real = getattr(descriptions, name)
        monkeypatch.setattr(
            descriptions, name, lambda sets, name=name, real=real: calls.append(name) or real(sets)
        )
    view = to_view(desc)
    rank_table(view)
    assert calls == []
    assert view.rank(0b000111) == 3
    helper = "minimal_sets" if kind == "spanning" else "_flat_heights"
    assert calls == [helper]
    assert view.rank(0b011011) == 3 and view.is_independent(0b1111) is False
    assert calls == [helper]


# -- construction table sources against the per-mask predicate path -------


@pytest.mark.parametrize("name", ["B(K3+loop)", "B(theta)", "T2(U(3,5))"])
def test_construction_engine_matches_predicate_path(name):
    _assert_source_matches(corpus()[name])


@st.composite
def multigraphs(draw):
    """Graphs with loops and parallel edges, v <= 5, m <= 9."""
    v = draw(st.integers(1, 5))
    ends = st.tuples(st.integers(0, v - 1), st.integers(0, v - 1))
    return multigraph(v, draw(st.lists(ends, max_size=9)))


@settings(max_examples=100, deadline=None)
@given(multigraphs(), st.data())
def test_bicircular_engine_matches_predicate_path(g, data):
    view = bicircular(g)
    _assert_source_matches(view)
    _assert_source_matches(view.truncate(data.draw(st.integers(0, view.full_rank))))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(corpus())), st.data())
def test_truncation_engine_matches_predicate_path(name, data):
    view = corpus()[name]
    _assert_source_matches(view.truncate(data.draw(st.integers(0, view.full_rank))))


# -- the two folds and the cyclic-flats rule -------------------------------

FOLDS = {
    np.bitwise_or: lambda values: functools.reduce(operator.or_, values),
    np.bitwise_and: lambda values: functools.reduce(operator.and_, values),
    np.maximum: max,
    np.minimum: min,
}


@st.composite
def fold_tables(draw):
    """A random bool, int8 or int32 table over the masks of n <= 6."""
    n = draw(st.integers(0, 6))
    dtype = draw(st.sampled_from((np.bool_, np.int8, np.int32)))
    if dtype is np.bool_:
        cells = st.booleans()
    else:
        info = np.iinfo(dtype)
        cells = st.integers(int(info.min), int(info.max))
    return n, np.array(draw(st.lists(cells, min_size=1 << n, max_size=1 << n)), dtype=dtype)


@settings(max_examples=200, deadline=None)
@given(fold_tables(), st.sampled_from(sorted(FOLDS, key=lambda op: op.__name__)))
def test_folds_reduce_over_every_subset_and_superset(drawn, op):
    n, table = drawn
    reduce = FOLDS[op]
    masks = range(1 << n)
    below = [reduce([table[s] for s in submasks(m)]) for m in masks]
    above = [reduce([table[s] for s in masks if s & m == m]) for m in masks]
    got_below = subset_fold(table.copy(), n, op)
    got_above = superset_fold(table.copy(), n, op)
    assert got_below.dtype == got_above.dtype == table.dtype
    assert got_below.tolist() == np.array(below, dtype=table.dtype).tolist()
    assert got_above.tolist() == np.array(above, dtype=table.dtype).tolist()


def cyclicflats_reference(desc):
    """The per-flat rule the two folds replace: r(A) as the least
    r(Z) + |A - Z| over the listed Z, one pass over the table per Z."""
    n = desc.n
    pc, masks = popcounts(n), np.arange(1 << n, dtype=np.int32)
    ranks = np.full(1 << n, np.iinfo(np.int8).max, dtype=np.int8)
    for z, rz in zip(desc.sets, desc.set_ranks):
        np.minimum(ranks, pc[masks & ~z] + np.int8(rz), out=ranks)
    return ranks == popcounts(n)


@st.composite
def cyclicflat_listings(draw):
    """Any listing a cyclicflats description accepts: n <= 8, any sets,
    each with any rank in [0, n], so most are not matroids."""
    n = draw(st.integers(0, 8))
    sets = draw(st.lists(st.integers(0, (1 << n) - 1), unique=True, max_size=16))
    ranks = [draw(st.integers(0, n)) for _ in sets]
    return description("cyclicflats", n, sets, ranks)


@settings(max_examples=300, deadline=None)
@given(cyclicflat_listings())
@example(description("cyclicflats", 0, [], []))
@example(description("cyclicflats", 0, [0], [0]))
@example(description("cyclicflats", 3, [0b011, 0b111], [1, 2]))  # no rank-0 set
@example(description("cyclicflats", 3, [0b001, 0b110], [3, 3]))  # ranks above |Z|
def test_cyclicflats_rule_matches_its_per_flat_loop(desc):
    np.testing.assert_array_equal(decode(desc), cyclicflats_reference(desc))


def test_cyclicflats_rule_makes_two_passes_per_element_whatever_the_listing(monkeypatch):
    n = 8
    passes = []
    real = tables.halves
    monkeypatch.setattr(tables, "halves", lambda table, b: passes.append(b) or real(table, b))
    counts = []
    for sets in ([0b0011, 0b0111, 0xFF], range(0, 1 << n, 2)):
        listing = description("cyclicflats", n, sets, [min(s.bit_count(), 5) for s in sets])
        passes.clear()
        decode(listing)
        counts.append((len(listing.sets), len(passes)))
    assert counts == [(3, 2 * n), (128, 2 * n)]
