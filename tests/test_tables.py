from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidkit import (
    KINDS,
    bicircular,
    description,
    encode_from_oracle,
    multigraph,
    to_view,
    uniform,
)
from matroidkit.bitsets import elements, full_mask, submasks
from matroidkit.tables import (
    classify,
    family_masks,
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
    assert masks == sorted(masks, key=lambda m: (m.bit_count(), m))
    assert len(masks) == 4  # C(4,3) three-element circuits


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
