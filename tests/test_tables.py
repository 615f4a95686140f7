import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidkit import (
    KINDS,
    descriptions,
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
    family_masks,
    family_table,
    independence_table,
    popcounts,
    rank_signature,
    rank_table,
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
