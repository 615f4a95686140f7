"""The listed minor route against the table route it stands in for: its
pure-Python tables and unions against the numpy ones, and both minor
searches on descriptions against the same searches on views, which must
return the very same witness.  Last, the routing rule on the shapes of
the benchmark's minor commands."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidkit import (
    KINDS,
    description,
    detect_minor_exhaustive,
    detect_minor_fixed,
    encode_from_oracle,
    separation_family,
    to_view,
    uniform,
)
from matroidkit import tables
from matroidkit.descriptions import HEADER_RANK_KINDS, PER_SET_RANK_KINDS
from matroidkit.reductions import (
    _distinct_unions,
    _listed_decode,
    _listed_minor,
    _listed_unions,
    _rank_fold,
    minor_route,
)

from conftest import minor_host_params
from test_search_oracles import PATTERNS, circuit_antichains


@st.composite
def listings(draw, max_n=8):
    """A structurally valid description of any kind on n <= ``max_n``
    elements, not necessarily of a matroid."""
    n = draw(st.integers(0, max_n))
    kind = draw(st.sampled_from(KINDS))
    if kind == "rank":
        sets = list(range(1 << n))
    else:
        sets = draw(st.lists(st.integers(0, (1 << n) - 1), unique=True, max_size=16))
    if kind == "flats" and draw(st.booleans()):
        sets = sorted(set(sets) | {(1 << n) - 1})
    ranks = None
    if kind in PER_SET_RANK_KINDS:
        ranks = draw(st.lists(st.integers(0, n), min_size=len(sets), max_size=len(sets)))
    r = draw(st.integers(0, n)) if kind in HEADER_RANK_KINDS else None
    return description(kind, n, sets, ranks, r)


@settings(max_examples=400, deadline=None)
@given(listings())
def test_listed_tables_equal_the_numpy_tables(desc):
    try:
        view = to_view(desc)
        indep, rank = tables.independence_table(view), tables.rank_table(view)
    except ValueError as exc:
        # an empty listing of some kinds, or flats not closed under
        # intersection: the listed decode raises the same error
        if "lists no sets" in str(exc) or "does not list the ground set" in str(exc):
            return
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            _listed_decode(desc)
        return
    listed = _listed_decode(desc)
    assert isinstance(listed, bytearray) and listed == bytearray(indep.tobytes())
    listed_rank = _rank_fold(listed, desc.n)
    assert isinstance(listed_rank, bytearray) and listed_rank == bytearray(rank.tobytes())


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 255), max_size=9, unique=True), st.integers(0, 4))
def test_listed_unions_equal_the_numpy_unions(circuits, t):
    assert _listed_unions(circuits, t) == _distinct_unions(circuits, t)


def _check_both_routes(host, pattern, fixed):
    """The minor search on descriptions, forced onto the listed route and
    through the public function, which takes the route of the rule, gives
    the witness of the same search on views; an input the table route
    rejects is rejected with the same error."""
    search = detect_minor_fixed if fixed else detect_minor_exhaustive
    try:
        pattern_view = to_view(pattern)
        want = search(host if fixed else to_view(host), pattern_view)
    except ValueError as exc:
        for got in (lambda: _listed_minor(host, pattern, fixed), lambda: search(host, pattern)):
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                got()
        return
    assert _listed_minor(host, pattern, fixed) == want
    assert search(host, pattern) == want


def _check_searches(host, pattern):
    """Both searches where the host's kind allows the fixed one."""
    _check_both_routes(host, pattern, fixed=False)
    if host.kind in ("circuits", "hyperplanes"):
        _check_both_routes(host, pattern, fixed=True)


@settings(max_examples=120, deadline=None)
@given(circuit_antichains(), st.sampled_from(KINDS), st.booleans())
def test_descriptions_find_the_witness_of_views_on_antichains(drawn, kind, as_hyperplanes):
    host, pattern = drawn
    if as_hyperplanes:
        host = encode_from_oracle(to_view(host), "hyperplanes")
    _check_searches(host, encode_from_oracle(pattern, kind))


@settings(max_examples=150, deadline=None)
@given(listings(max_n=6), listings(max_n=4))
def test_descriptions_find_the_witness_of_views_on_any_listing(host, pattern):
    # non-matroids on both sides
    _check_searches(host, pattern)


@pytest.mark.parametrize("host_kind", ["circuits", "hyperplanes"])
@pytest.mark.parametrize("host", minor_host_params())
def test_descriptions_find_the_witness_of_views(host, host_kind):
    desc = encode_from_oracle(host, host_kind)
    for i, pattern in enumerate(PATTERNS.values()):
        for kind in ("bases", "circuits", "hyperplanes", KINDS[i]):
            _check_searches(desc, encode_from_oracle(pattern, kind))


def _l18(n):
    return separation_family("L18", n)


@pytest.mark.parametrize("host, pattern, fixed, route", [
    (encode_from_oracle(_l18(4), "circuits"), encode_from_oracle(uniform(1, 2), "bases"), True,
     "listed"),
    (encode_from_oracle(uniform(4, 9), "circuits"), encode_from_oracle(_l18(3), "circuits"), True,
     "listed"),
    (encode_from_oracle(uniform(7, 11), "hyperplanes"), encode_from_oracle(_l18(3), "circuits"),
     True, "table (listed search estimated at 550 ms, n = 11)"),
    (encode_from_oracle(_l18(4), "bases"), encode_from_oracle(uniform(1, 2), "bases"), False,
     "listed"),
    (encode_from_oracle(uniform(4, 11), "circuits"), encode_from_oracle(_l18(3), "circuits"), False,
     "listed"),
], ids=["present", "absent-U(4,9)", "absent-U(7,11)-hyperplanes", "exhaustive-present",
        "exhaustive-absent-U(4,11)"])
def test_the_rule_on_the_benchmark_minor_shapes(host, pattern, fixed, route):
    assert minor_route(host, pattern, fixed) == route
