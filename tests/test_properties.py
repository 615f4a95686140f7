"""Property-based tests: matroid axioms on randomly derived views and
format round-trips on randomly chosen encodings."""

from hypothesis import given, settings
from hypothesis import strategies as st

from matroidkit import (
    KINDS,
    description,
    encode_from_oracle,
    parse,
    relabel,
    serialize,
    to_view,
    uniform,
    validate,
)
from matroidkit.bitsets import full_mask, masks_of_size
from matroidkit.tables import views_equal

from conftest import corpus


@st.composite
def derived_views(draw):
    """A corpus matroid, randomly relabeled and/or passed through a
    minor or truncation."""
    views = corpus()
    name = draw(st.sampled_from(sorted(views)))
    view = views[name]
    op = draw(st.sampled_from(("plain", "relabel", "minor", "truncate")))
    if op == "relabel" and view.n > 1:
        view = relabel(view, draw(st.permutations(range(view.n))))
    elif op == "minor" and view.n > 1:
        x = draw(st.integers(0, view.full)) & view.full
        y = draw(st.integers(0, view.full)) & view.full & ~x
        if (view.full & ~x & ~y) != 0:
            view = view.minor(x, y)
    elif op == "truncate":
        view = view.truncate(draw(st.integers(0, view.full_rank)))
    return view


@settings(max_examples=60, deadline=None)
@given(derived_views(), st.data())
def test_rank_axioms(view, data):
    full = view.full
    a = data.draw(st.integers(0, full)) & full
    b = data.draw(st.integers(0, full)) & full
    ra, rb = view.rank(a), view.rank(b)
    assert 0 <= ra <= a.bit_count()
    if a & b == a:
        assert ra <= rb  # monotone
    assert view.rank(a | b) + view.rank(a & b) <= ra + rb  # submodular


@settings(max_examples=60, deadline=None)
@given(derived_views(), st.data())
def test_closure_axioms(view, data):
    full = view.full
    a = data.draw(st.integers(0, full)) & full
    cl = view.closure(a)
    assert a & cl == a  # extensive
    assert view.closure(cl) == cl  # idempotent
    assert view.rank(cl) == view.rank(a)  # rank-preserving
    b = cl | (data.draw(st.integers(0, full)) & full)
    assert view.closure(b) & cl == cl  # monotone


@settings(max_examples=60, deadline=None)
@given(derived_views(), st.data())
def test_independence_hereditary_and_exchange(view, data):
    full = view.full
    a = view.basis_of(data.draw(st.integers(0, full)) & full)
    # any single-element deletion of an independent set stays independent
    for e in range(view.n):
        if a >> e & 1:
            assert view.is_independent(a & ~(1 << e))
    # greedy basis of the full set is a maximum independent set
    assert a.bit_count() <= view.full_rank


@settings(max_examples=40, deadline=None)
@given(derived_views(), st.sampled_from(KINDS))
def test_encode_parse_serialize_roundtrip(view, kind):
    desc = encode_from_oracle(view, kind)
    again = parse(serialize(desc))
    assert again == desc
    assert views_equal(to_view(again), view)


@settings(max_examples=15, deadline=None)
@given(derived_views(), st.sampled_from(("bases", "circuits", "flats")))
def test_honest_encodings_validate(view, kind):
    assert validate(encode_from_oracle(view, kind)).ok


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6))
def test_uniform_duality(r, n):
    if r > n:
        r, n = n, r
    assert views_equal(uniform(r, n).dual(), uniform(n - r, n))


def _circuit_axioms_hold(circuits):
    """Brute force: no empty circuit, an antichain, and circuit
    elimination for every pair and every shared element."""
    if 0 in circuits:
        return False
    for c1 in circuits:
        for c2 in circuits:
            if c1 == c2:
                continue
            if c1 & c2 == c1:
                return False
            union = c1 | c2
            for e in range(union.bit_length()):
                if (c1 & c2) >> e & 1 and not any(
                    c & (union & ~(1 << e)) == c for c in circuits
                ):
                    return False
    return True


def _basis_axioms_hold(bases):
    """Brute force: some basis, and basis exchange for every ordered
    pair and every element of the first outside the second."""
    if not bases:
        return False
    listed = set(bases)
    for b1 in bases:
        for b2 in bases:
            for x in range(b1.bit_length()):
                if (b1 & ~b2) >> x & 1 and not any(
                    (b1 & ~(1 << x)) | (1 << y) in listed
                    for y in range(b2.bit_length())
                    if (b2 & ~b1) >> y & 1
                ):
                    return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(0, (1 << n) - 1), max_size=8))
))
def test_validate_matches_circuit_elimination(drawn):
    n, sets = drawn
    antichain = [c for c in sets if not any(o != c and o & c == o for o in sets)]
    report = validate(description("circuits", n, antichain))
    assert report.ok == _circuit_axioms_hold(antichain), report


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6).flatmap(
    lambda n: st.integers(0, n).flatmap(
        lambda k: st.tuples(st.just(n), st.sets(st.sampled_from(list(masks_of_size(n, k)))))
    )
))
def test_validate_matches_basis_exchange(drawn):
    n, bases = drawn
    bases = sorted(bases)
    report = validate(description("bases", n, bases))
    assert report.ok == _basis_axioms_hold(bases), report
