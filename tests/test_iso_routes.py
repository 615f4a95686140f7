"""``isomorphic`` on two descriptions: the listed search, its routing
rule, and agreement with the table route on every ordered pair of kinds."""

from collections import Counter
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidkit import (
    KINDS, bicircular, descriptions, encode_from_oracle, isomorphic, multigraph, relabel, to_view,
    uniform,
)
from matroidkit.descriptions import canonical
from matroidkit.reductions import iso_route
from matroidkit.tables import views_equal

from conftest import corpus


@lru_cache(maxsize=None)
def pool():
    """(n, rank) -> matroids with n <= 7: the corpus and two bicircular
    matroids, their duals, every single-element deletion and contraction,
    and every truncation.  The two bicircular matroids have the same
    (size, rank) histogram and are not isomorphic."""
    views = []
    twins = [
        bicircular(multigraph(4, [(0, 1), (0, 2), (0, 3), (0, 3), (1, 2), (1, 2), (2, 3)])),
        bicircular(multigraph(4, [(0, 1), (0, 2), (0, 3), (0, 3), (1, 2), (1, 3), (2, 3)])),
    ]
    for view in [*corpus().values(), *twins]:
        for v in (view, view.dual()):
            views.append(v)
            views += [v.truncate(r) for r in range(v.full_rank)]
            if v.n > 1:
                views += [v.delete(1 << e) for e in range(v.n)]
                views += [v.contract(1 << e) for e in range(v.n)]
    groups = {}
    for v in views:
        groups.setdefault((v.n, v.full_rank), []).append(v)
    return groups


def _profile(desc):
    """The multiset of (size, label) of a listing, and its header rank."""
    labels = desc.set_ranks or [0] * len(desc.sets)
    return Counter(zip((m.bit_count() for m in desc.sets), labels)), desc.r


@pytest.mark.parametrize("kinds", [pytest.param(p, id=f"{p[0]}-{p[1]}") for p in product(KINDS, KINDS)])
@settings(max_examples=9, deadline=None)
@given(data=st.data())
def test_listed_route_agrees_with_the_table_route(kinds, data):
    groups = pool()
    key = data.draw(st.sampled_from(sorted(groups)))
    a = data.draw(st.sampled_from(groups[key]))
    # a relabelled copy, which is isomorphic, or any matroid of the same
    # n and rank, in at least a third of the cases each
    if data.draw(st.integers(0, 2)) and a.n > 1:
        b = relabel(a, data.draw(st.permutations(range(a.n))))
    else:
        b = data.draw(st.sampled_from(groups[key]))
    da, db = encode_from_oracle(a, kinds[0]), encode_from_oracle(b, kinds[1])
    sigma = isomorphic(da, db)
    assert (sigma is None) == (isomorphic(a, b) is None)
    if sigma is not None:
        assert views_equal(relabel(a, sigma), b)


@pytest.mark.parametrize("kind", KINDS)
def test_equal_profiles_are_not_taken_for_an_isomorphism(kind):
    # pairs whose listings have the same multiset of (size, label) and
    # the same header rank, yet no map: only the search can tell them apart
    found = 0
    for group in pool().values():
        listed = [encode_from_oracle(v, kind) for v in group]
        for i, j in combinations(range(len(group)), 2):
            if _profile(listed[i]) != _profile(listed[j]):
                continue
            if isomorphic(group[i], group[j]) is None:
                found += 1
                assert iso_route(listed[i], listed[j]).kind == kind
                assert isomorphic(listed[i], listed[j]) is None
    assert found


def _listing(kind, n, size):
    """A listing of ``kind`` on n elements whose search reads exactly
    ``size`` elements: sets of n // 2 elements and one smaller set."""
    half = n // 2
    sets = [sum(1 << e for e in c) for c in combinations(range(n), half)][: size // half]
    if size % half:
        sets.append((1 << size % half) - 1)
    total = sum(m.bit_count() for m in sets)
    assert min(total, n * len(sets) - total) == size
    return canonical(kind, n, sets)


@pytest.mark.parametrize("n", [12, 14, 16, 18])
def test_the_rule_sends_long_listings_to_the_tables(n):
    # the bound L <= 4 * 2**n / n + 2048, restated
    bound = int(4 * 2**n / n + 2048)
    for kind in ("bases", "circuits"):
        assert iso_route(_listing(kind, n, bound), _listing(kind, n, bound)).kind == kind
        route = iso_route(_listing(kind, n, bound + 1), _listing(kind, n, bound))
        assert route.kind is None and route.reason.startswith("long listing")
    # across kinds the size is read off the side that is not converted
    route = iso_route(_listing("bases", n, bound + 1), _listing("circuits", n, bound))
    assert route == (("circuits", (("bases", "circuits"),), ""))
    route = iso_route(_listing("bases", n, bound), _listing("circuits", n, bound + 1))
    assert route.kind is None


@pytest.mark.parametrize("a, b, reason", [
    ("spanning", "bases", "walk edge spanning -> bases"),
    ("bases", "independent", "walk edge independent -> bases"),
    ("independent", "hyperplanes", "walk edge independent -> bases"),
    ("flats", "hyperplanes", "walk edge flats -> hyperplanes"),
    ("circuits", "hyperplanes", "no lattice route between circuits and hyperplanes"),
    ("dephyp", "nsc", "no lattice route between dephyp and nsc"),
])
def test_walk_edges_and_missing_routes_take_the_tables(a, b, reason):
    view = uniform(2, 4)
    da, db = encode_from_oracle(view, a), encode_from_oracle(view, b)
    assert iso_route(da, db) == (None, (), reason)
    sigma = isomorphic(da, db)
    assert sigma is not None and views_equal(relabel(view, sigma), view)


def test_the_shorter_of_sets_and_complements_is_searched():
    view = uniform(5, 6)
    spanning = encode_from_oracle(view, "spanning")
    # 7 sets of 5 and 6 elements hold 36; their complements hold 6
    assert sum(m.bit_count() for m in spanning.sets) == 36
    assert iso_route(spanning, spanning).kind == "spanning"
    moved = relabel(view, (5, 4, 3, 2, 1, 0))
    sigma = isomorphic(spanning, encode_from_oracle(moved, "spanning"))
    assert sigma is not None and views_equal(relabel(view, sigma), moved)


def test_the_header_rank_is_compared():
    # U(2,3) and U(3,3) list no non-spanning circuit; only r tells them apart
    a = encode_from_oracle(uniform(2, 3), "nsc")
    b = encode_from_oracle(uniform(3, 3), "nsc")
    assert a.sets == b.sets == () and a.r != b.r
    assert isomorphic(a, b) is None


def test_table_route_runs_no_per_query_rule(monkeypatch):
    # r(E) is the rank of the one n-element set in the rank signature; the
    # spanning view's full_rank would run its minimal-sets rule instead
    calls = []
    real = descriptions.minimal_sets
    monkeypatch.setattr(descriptions, "minimal_sets", lambda sets: calls.append(1) or real(sets))
    view = uniform(3, 6)
    moved = relabel(view, (2, 0, 1, 5, 3, 4))
    a = to_view(encode_from_oracle(view, "spanning"))
    b = to_view(encode_from_oracle(moved, "spanning"))
    sigma = isomorphic(a, b)
    assert sigma is not None and views_equal(relabel(view, sigma), moved)
    assert calls == []
