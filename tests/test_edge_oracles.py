"""The kernels of the listed-data edges against the per-subset Python
loops they replace, copied here as references: the fundamental
circuits, the ``bases -> cyclicflats`` rule and the greedy basis and
closure on per-element ints.  Each kernel must give the same list, the same
``Description`` or the same ``ValueError`` text as its reference, on
every corpus matroid and on random families, non-matroids included.
Every rule that reads a listing must also run in memory far below one
byte per subset of the ground set."""

import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from matroidkit import direct_sum, uniform
from matroidkit.bitsets import canonical_order, elements, full_mask, masks_of_size
from matroidkit.conversions import _RULES, _closure_and_basis, _fundamental_circuits
from matroidkit.descriptions import canonical, description, encode_from_oracle, to_view

from conftest import corpus_params

CYCLIC = _RULES[("bases", "cyclicflats")]


# -- references ------------------------------------------------------------


def fundamental_circuits_reference(bases, n):
    listed = set(bases)
    circuits = set()
    full = full_mask(n)
    for b in bases:
        for e in elements(full & ~b):
            ebit = 1 << e
            c = ebit
            for f in elements(b):
                if (b | ebit) & ~(1 << f) in listed:
                    c |= 1 << f
            circuits.add(c)
    return canonical_order(circuits)


def bases_to_cyclicflats_reference(desc):
    """One ``MatroidView.closure`` query per seed and per pairwise union."""
    view = to_view(desc)
    b_count = len(desc.sets)
    circuits = fundamental_circuits_reference(list(desc.sets), desc.n)
    found = {view.closure(c) for c in circuits}
    found.add(view.closure(0))
    for _ in range(view.full_rank):
        if len(found) > b_count:
            break
        flats = sorted(found)
        new = set()
        for i, z1 in enumerate(flats):
            for z2 in flats[i + 1 :]:
                new.add(view.closure(z1 | z2))
        if new <= found:
            break
        found |= new
    if len(found) > b_count:
        raise ValueError(
            "cyclic-flat working list exceeds the basis count (not a matroid)"
        )
    cyclic = list(found)
    return canonical("cyclicflats", desc.n, cyclic, [view.rank(z) for z in cyclic])


def outcome(rule, desc):
    try:
        return rule(desc)
    except ValueError as exc:
        return f"ValueError: {exc}"


# -- random families -------------------------------------------------------


@st.composite
def families(draw, max_size=30):
    """Distinct sets on n <= 9 elements; half the draws take one size
    only, as the bases of a matroid do."""
    n = draw(st.integers(0, 9))
    if draw(st.booleans()):
        size = draw(st.integers(0, n))
        pool = [m for m in range(1 << n) if m.bit_count() == size]
        sets = draw(st.lists(st.sampled_from(pool), unique=True, max_size=max_size))
    else:
        sets = draw(st.lists(st.integers(0, full_mask(n)), unique=True, max_size=max_size))
    return n, sets


@settings(max_examples=300, deadline=None)
@given(families(max_size=40))
def test_fundamental_circuits_match_the_loop(drawn):
    n, sets = drawn
    assert _fundamental_circuits(sets, n) == fundamental_circuits_reference(sets, n)


@settings(max_examples=200, deadline=None)
@given(families())
def test_bases_to_cyclicflats_matches_the_loop(drawn):
    desc = description("bases", *drawn)
    assert outcome(CYCLIC, desc) == outcome(bases_to_cyclicflats_reference, desc)


@settings(max_examples=200, deadline=None)
@given(families(), st.lists(st.integers(0, full_mask(9)), max_size=20))
def test_batched_closures_match_view_queries(drawn, raw):
    n, sets = drawn
    assume(sets)
    view = to_view(description("bases", n, sets))
    masks = [m & view.full for m in raw]
    closure_and_basis = _closure_and_basis(sets, n)
    assert [closure_and_basis(m) for m in masks] == [
        (view.closure(m), view.basis_of(m)) for m in masks
    ]


#: Three parallel pairs: the cyclic flat of all six elements is a union
#: of three circuits, so the union loop needs a second pass to find it.
THREE_PAIRS = direct_sum(direct_sum(uniform(1, 2), uniform(1, 2)), uniform(1, 2))


@pytest.mark.parametrize("view", corpus_params() + [pytest.param(THREE_PAIRS, id="3U(1,2)")])
def test_bases_kernels_match_the_loops_on_the_corpus(view):
    bases = encode_from_oracle(view, "bases")
    assert _fundamental_circuits(list(bases.sets), view.n) == fundamental_circuits_reference(
        list(bases.sets), view.n
    )
    assert CYCLIC(bases) == bases_to_cyclicflats_reference(bases)


# -- listed data stays listed ----------------------------------------------

#: Largest ground set; a table over its subsets takes 2**24 bytes or more.
N = 24


def _sizes(*sizes):
    return [m for k in sizes for m in masks_of_size(N, k)]


#: Listings on 24 elements, mostly from U(2, 24), each of at most a few
#: thousand sets.
LISTINGS = {
    "spanning": _sizes(2) + [full_mask(N)],
    "independent": _sizes(0, 1, 2),
    "bases": _sizes(2),
    "flats": _sizes(0, 1) + [full_mask(N)],
    "circuits": _sizes(3),
    "hyperplanes": _sizes(1),
}


@pytest.mark.parametrize(
    "edge", [e for e in _RULES if e[0] != "rank"], ids=lambda e: "-".join(e)
)
def test_listed_rules_allocate_no_subset_table(edge):
    desc = description(edge[0], N, LISTINGS[edge[0]])
    tracemalloc.start()
    try:
        _RULES[edge](desc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << N
