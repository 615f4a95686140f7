import os
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matroidkit.bitsets import (
    WORD_BITS,
    CapacityError,
    check_ground,
    check_mask,
    columns,
    elements,
    format_bits,
    from_elements,
    full_mask,
    masks_of_size,
    max_ground,
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
