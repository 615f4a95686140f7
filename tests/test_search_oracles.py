"""The output-sensitive search routes against the plain searches they
replace, copied here as references: the all-triples scan for
``intersect3_bases``, the per-x loop for ``detect_minor_exhaustive`` and
the per-union loop for ``detect_minor_fixed``, which builds one minor
view per distinct (A, x) with ``MatroidView.minor``.  Each route must
find the same answer, and the minor searches the very same witness.
Free patterns U(s, s) have no reference here; their witnesses are
checked by ``verify_minor_witness``."""

import tracemalloc
from functools import reduce
from itertools import combinations, product
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidkit import (
    description,
    detect_minor_exhaustive,
    detect_minor_fixed,
    encode_from_oracle,
    intersect3_bases,
    isomorphic,
    phi,
    to_view,
    uniform,
    verify_minor_witness,
)
from matroidkit import reductions, tables
from matroidkit.bitsets import elements, from_elements, full_mask, submasks
from matroidkit.reductions import MinorWitness, _distinct_unions

from conftest import P3, minor_host_params

PATTERNS = {
    "U(2,4)": uniform(2, 4),
    "U(3,4)": uniform(3, 4),
    "U(2,3)": uniform(2, 3),
    "U(1,2)": uniform(1, 2),
    "Phi(P3)": phi(P3),
}


def pattern_params():
    return [pytest.param(view, id=name) for name, view in PATTERNS.items()]


# -- references ------------------------------------------------------------


def all_triples_best(d1, d2, d3):
    """The largest B1 & B2 & B3 over every triple of listed bases."""
    best = None
    for b1, b2, b3 in product(d1.sets, d2.sets, d3.sets):
        common = b1 & b2 & b3
        if best is None or common.bit_count() > best.bit_count():
            best = common
    return best


def minor_exhaustive_per_x(host, pattern):
    """One table view and one signature per (A, x), A in combinations
    order and x over the ascending subsets of E - A."""
    s = pattern.n
    if s > host.n:
        return None
    rt = tables.rank_table(host)
    pr = pattern.full_rank
    pattern_sig = tables.rank_signature(pattern)
    full = full_mask(host.n)
    for combo in combinations(range(host.n), s):
        amask = from_elements(combo)
        expand = [from_elements(combo[i] for i in elements(m)) for m in range(1 << s)]
        rest = full & ~amask
        for x in submasks(rest):
            rx = int(rt[x])
            if int(rt[amask | x]) - rx != pr:
                continue
            minor_rt = rt[[m | x for m in expand]] - rx
            minor_view = tables.table_view(s, minor_rt)
            if tables.rank_signature(minor_view) != pattern_sig:
                continue
            sigma = isomorphic(minor_view, pattern)
            if sigma is not None:
                return MinorWitness(x=x, y=rest & ~x, iso=sigma)
    return None


def distinct_unions_by_combinations(circuits, t):
    return sorted({reduce(or_, combo, 0) for combo in combinations(circuits, t)})


def distinct_unions_by_sets(circuits, t):
    """Level k holds the unions of exactly k circuits seen so far."""
    levels = [{0}] + [set() for _ in range(t)]
    for c in circuits:
        for k in range(t, 0, -1):
            levels[k].update(u | c for u in levels[k - 1])
    return sorted(levels[t])


def minor_fixed_per_union(host, pattern):
    """The circuits route with one minor view per distinct (A, x), taken
    by the rank rule of ``MatroidView.minor``."""
    n = host.n
    full = full_mask(n)
    s = pattern.n
    if s > n:
        return None
    view = to_view(host)
    rt = tables.rank_table(view)
    t = len(tables.family_masks(pattern, "circuits"))
    pr = pattern.full_rank
    circuits = list(host.sets)
    if t == 0 or len(circuits) < t:
        return "not compared"
    unions = distinct_unions_by_sets(circuits, t)
    pattern_sig = tables.rank_signature(pattern)
    for combo in combinations(range(n), s):
        amask = from_elements(combo)
        seen = set()
        for u in unions:
            x = u & ~amask
            if x in seen:
                continue
            seen.add(x)
            y = full & ~amask & ~x
            if int(rt[amask | x]) - int(rt[x]) != pr:
                continue
            minor_view = view.minor(x, y)
            if tables.rank_signature(minor_view) != pattern_sig:
                continue
            sigma = isomorphic(minor_view, pattern)
            if sigma is not None:
                return MinorWitness(x=x, y=y, iso=sigma)
    return None


# -- 3-matroid intersection ------------------------------------------------


@st.composite
def base_families(draw):
    """Three families of distinct sets over one ground set, n <= 8; not
    necessarily bases of matroids.  Lists are short, or from n = 6 on
    32 to 48 sets long."""
    n = draw(st.integers(1, 8))
    low, high = draw(st.sampled_from([(1, 12), (32, 48)]) if n >= 6 else st.just((1, 12)))
    sets = st.lists(st.integers(0, (1 << n) - 1), min_size=low, max_size=high, unique=True)
    return [description("bases", n, draw(sets)) for _ in range(3)]


@settings(max_examples=200, deadline=None)
@given(base_families(), st.integers(0, 9))
def test_intersect3_bases_finds_the_all_triples_best(families, k):
    best = all_triples_best(*families)
    got = intersect3_bases(*families, k)
    if best.bit_count() < k:
        assert got is None
        return
    assert got is not None and got.bit_count() == best.bit_count()
    # the set it returns is itself a triple intersection
    assert any(b1 & b2 & b3 == got for b1, b2, b3 in product(*(d.sets for d in families)))


# -- minor detection -------------------------------------------------------


# blocks of 4 contract sets, and rows of 4 cells or a single row
@pytest.mark.parametrize("cells", [reductions._MINOR_CELLS, 1 << 2], ids=["default", "blocks"])
@pytest.mark.parametrize("pattern", pattern_params())
@pytest.mark.parametrize("host", minor_host_params())
def test_minor_exhaustive_keeps_the_per_x_witness(host, pattern, cells, monkeypatch):
    monkeypatch.setattr(reductions, "_MINOR_CELLS", cells)
    assert detect_minor_exhaustive(host, pattern) == minor_exhaustive_per_x(host, pattern)


@st.composite
def circuit_antichains(draw):
    """A random antichain read as circuits, n <= 7, not necessarily a
    matroid, and a pattern no larger than it."""
    n = draw(st.integers(1, 7))
    candidates = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=10))
    sets = [c for c in set(candidates)
            if not any(o != c and o & c == o for o in candidates)]
    host = description("circuits", n, sets)
    name = draw(st.sampled_from(sorted(p for p, v in PATTERNS.items() if v.n <= n)
                                or ["U(1,2)"]))
    return host, PATTERNS[name]


@settings(max_examples=120, deadline=None)
@given(circuit_antichains())
def test_minor_exhaustive_keeps_the_per_x_witness_on_antichains(drawn):
    host, pattern = drawn
    view = to_view(host)
    assert detect_minor_exhaustive(view, pattern) == minor_exhaustive_per_x(view, pattern)


@pytest.mark.parametrize("pattern", pattern_params())
@pytest.mark.parametrize("host", minor_host_params())
def test_minor_fixed_keeps_the_per_union_witness(host, pattern):
    circuits = encode_from_oracle(host, "circuits")
    want = minor_fixed_per_union(circuits, pattern)
    if want != "not compared":
        assert detect_minor_fixed(circuits, pattern) == want


# blocks of 4 kept contract sets, and rows of 4 cells or a single row
@pytest.mark.parametrize("pattern", pattern_params())
@pytest.mark.parametrize("host", minor_host_params())
def test_minor_fixed_keeps_the_per_union_witness_in_blocks(host, pattern, monkeypatch):
    monkeypatch.setattr(reductions, "_MINOR_CELLS", 1 << 2)
    test_minor_fixed_keeps_the_per_union_witness(host, pattern)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 255), max_size=9, unique=True), st.integers(0, 4))
def test_distinct_unions_match_combinations(circuits, t):
    assert _distinct_unions(circuits, t) == distinct_unions_by_combinations(circuits, t)


@settings(max_examples=80, deadline=None)
@given(circuit_antichains())
def test_minor_fixed_keeps_the_per_union_witness_on_antichains(drawn):
    host, pattern = drawn
    want = minor_fixed_per_union(host, pattern)
    if want != "not compared":
        assert detect_minor_fixed(host, pattern) == want


def test_minor_fixed_checks_the_minor_the_witness_names():
    # not a matroid: contracting x = {0, 1, 3, 4, 5} by the circuit rule
    # leaves a U(1,3) on {2, 6, 7}, but in the rank rule's minor there
    # element 7 is a loop; a witness must pass verify_minor_witness
    host = description("circuits", 8, [33, 70, 134, 9, 136, 210])
    pattern = uniform(1, 3)
    w = detect_minor_fixed(host, pattern)
    assert w is None or verify_minor_witness(to_view(host), pattern, w), w


def test_minor_fixed_meets_the_exhaustive_witness_on_a_non_matroid():
    # the circuit rule finds U(3,4) at x = {0, 3} first; the rank rule
    # first at x = {1, 2, 3}, as the exhaustive search does
    host = description("circuits", 7, [9, 14, 114])
    pattern = uniform(3, 4)
    w = detect_minor_fixed(host, pattern)
    assert w is not None and w == detect_minor_exhaustive(to_view(host), pattern)


def test_minor_exhaustive_memory_is_bounded_by_the_block(monkeypatch):
    # a loop is no minor of a free matroid, so every x of every A is
    # visited; unblocked, each array over the 2**15 subsets of E - A
    # would take 256 KB
    host, pattern = uniform(16, 16), uniform(0, 1)
    tables.rank_table(host)
    monkeypatch.setattr(reductions, "_MINOR_CELLS", 1 << 8)
    tracemalloc.start()
    try:
        assert detect_minor_exhaustive(host, pattern) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 << 10


# -- free patterns -----------------------------------------------------------


@pytest.mark.parametrize("kind", ["circuits", "hyperplanes"])
@pytest.mark.parametrize("host", minor_host_params())
def test_minor_fixed_free_pattern_witnesses_verify(host, kind):
    # U(s, s) is a minor exactly when some s elements are independent
    desc = encode_from_oracle(host, kind)
    for s in range(host.n + 1):
        pattern = uniform(s, s)
        w = detect_minor_fixed(desc, pattern)
        assert (w is not None) == (s <= host.full_rank), s
        assert w is None or verify_minor_witness(host, pattern, w), (s, w)


@settings(max_examples=80, deadline=None)
@given(circuit_antichains())
def test_minor_fixed_free_pattern_witnesses_verify_on_antichains(drawn):
    host, _ = drawn
    view = to_view(host)
    for s in range(host.n + 1):
        pattern = uniform(s, s)
        w = detect_minor_fixed(host, pattern)
        assert w is None or verify_minor_witness(view, pattern, w), (s, w)
