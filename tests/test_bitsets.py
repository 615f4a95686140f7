import os
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidkit import bitsets
from matroidkit.bitsets import (
    WORD_BITS,
    CapacityError,
    _closed,
    canonical_order,
    check_ground,
    check_mask,
    columns,
    elements,
    format_bits,
    from_elements,
    full_mask,
    masks_of_size,
    max_ground,
    maximal_sets,
    minimal_sets,
    parse_bits,
    submasks,
)


def test_full_mask():
    assert full_mask(0) == 0
    assert full_mask(3) == 0b111
    assert full_mask(WORD_BITS) == (1 << WORD_BITS) - 1


def test_check_ground_cap():
    check_ground(WORD_BITS)
    with pytest.raises(CapacityError):
        check_ground(WORD_BITS + 1)
    with pytest.raises(ValueError):
        check_ground(-1)


def test_env_var_lowers_never_raises(monkeypatch):
    monkeypatch.setenv("MATROID_MAX_N", "5")
    assert max_ground() == 5
    with pytest.raises(CapacityError):
        check_ground(6)
    monkeypatch.setenv("MATROID_MAX_N", "99")
    assert max_ground() == WORD_BITS
    for bad in ("nope", "1_0", "+5", "\u0665", " 5"):
        monkeypatch.setenv("MATROID_MAX_N", bad)
        with pytest.raises(CapacityError, match="MATROID_MAX_N is not an integer"):
            max_ground()


def test_check_mask():
    check_mask(0b101, 3)
    with pytest.raises(ValueError):
        check_mask(0b1000, 3)
    with pytest.raises(ValueError):
        check_mask(-1, 3)


@given(st.integers(min_value=0, max_value=(1 << 16) - 1))
def test_elements_roundtrip(mask):
    out = list(elements(mask))
    assert out == sorted(out)
    assert from_elements(out) == mask


@given(st.integers(min_value=0, max_value=(1 << 10) - 1))
def test_submasks_exact(mask):
    got = list(submasks(mask))
    expected = sorted(
        from_elements(c)
        for k in range(mask.bit_count() + 1)
        for c in combinations(list(elements(mask)), k)
    )
    assert got == expected


def test_masks_of_size():
    assert list(masks_of_size(4, 0)) == [0]
    got = list(masks_of_size(4, 2))
    assert len(got) == 6
    assert all(m.bit_count() == 2 for m in got)
    assert got[0] == 0b0011  # elements {0, 1} first


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0))
def test_format_parse_roundtrip(n, seed):
    mask = seed & full_mask(n)
    text = format_bits(mask, n)
    assert len(text) == n
    assert parse_bits(text) == mask


@given(st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, full_mask(n)), max_size=40))
))
def test_columns_read_the_listing_by_elements(drawn):
    n, sets = drawn
    assert columns(sets, n) == [
        sum(1 << i for i, m in enumerate(sets) if m >> e & 1) for e in range(n)
    ]


def test_format_orientation():
    # leftmost character is element 0
    assert format_bits(0b001, 3) == "100"
    assert parse_bits("100") == 0b001


def test_parse_bits_rejects_garbage():
    with pytest.raises(ValueError):
        parse_bits("10x")


# int(text, 2) accepts the first three: an underscore separator, a sign
# and the Arabic-Indic digit one
@pytest.mark.parametrize(
    "text, bad", [("1_0", "_"), ("+1", "+"), ("1\u0661", "\u0661"), ("1 0", " ")]
)
def test_parse_bits_accepts_only_zeros_and_ones(text, bad):
    with pytest.raises(ValueError) as err:
        parse_bits(text)
    assert str(err.value) == f"bad character {bad!r} in bitstring {text!r}"


# -- extremal members ----------------------------------------------------------


def minimal_by_walk(sets):
    """The walk that ``minimal_sets`` takes on a family that is not
    closed: canonical order, keeping each set that holds no kept set."""
    kept = []
    for s in canonical_order(sets):
        if not any(m & s == m for m in kept):
            kept.append(s)
    return kept


def maximal_by_walk(sets):
    kept = []
    for s in canonical_order(sets, reverse=True):
        if not any(s & m == s for m in kept):
            kept.append(s)
    return kept[::-1]


@st.composite
def families(draw):
    """Distinct sets on n <= 8 elements: as drawn, or closed up or down
    (the up-closure within the union of the drawn sets, or the whole
    ground set), so that closed and unclosed families both occur."""
    n = draw(st.integers(0, 8))
    sets = set(draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12)))
    closure = draw(st.sampled_from(["none", "down", "up", "up-within"]))
    if closure == "down":
        sets = {t for s in sets for t in submasks(s)}
    elif closure != "none":
        union = full_mask(n)
        if closure == "up-within":
            union = 0
            for s in sets:
                union |= s
        sets = {s | t for s in sets for t in submasks(union & ~s)}
    return sets, closure


@settings(max_examples=400, deadline=None)
@given(families(), st.sampled_from([0, bitsets._WALK_KEPT]))
def test_extremal_sets_match_the_walk(drawn, walk_kept):
    # at 0 kept sets per element every family of a nonempty ground set
    # asks for closure at its first kept set, so the local rule runs
    sets, closure = drawn
    if closure != "none":
        assert _closed(sets)
    default, bitsets._WALK_KEPT = bitsets._WALK_KEPT, walk_kept
    try:
        assert minimal_sets(sets) == minimal_by_walk(sets)
        assert maximal_sets(sets) == maximal_by_walk(sets)
        assert minimal_sets(iter(sorted(sets))) == minimal_by_walk(sets)
    finally:
        bitsets._WALK_KEPT = default
