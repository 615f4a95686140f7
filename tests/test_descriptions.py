import pytest

from matroidkit import (
    KINDS,
    ParseError,
    description,
    encode_from_oracle,
    parse,
    semantically_equal,
    serialize,
    size_of,
    to_view,
    uniform,
    validate,
)
from matroidkit.bitsets import format_bits
from matroidkit.tables import views_equal

from conftest import corpus_params


# -- construction and canonical order -----------------------------------


def test_description_canonical_order():
    d = description("circuits", 3, [0b111, 0b011])
    assert d.sets == (0b011, 0b111)


def test_description_structural_errors():
    with pytest.raises(ValueError):
        description("nope", 2, [])
    with pytest.raises(ValueError):
        description("circuits", 2, [0b11, 0b11])  # duplicate
    with pytest.raises(ValueError):
        description("circuits", 2, [0b100])  # out of range
    with pytest.raises(ValueError):
        description("bases", 2, [0b01], set_ranks=[1])  # spurious ranks
    with pytest.raises(ValueError):
        description("cyclicflats", 2, [0b01])  # missing ranks
    with pytest.raises(ValueError):
        description("bases", 2, [0b01], r=1)  # spurious header rank
    with pytest.raises(ValueError):
        description("nsc", 2, [])  # missing header rank
    with pytest.raises(ValueError):
        description("rank", 2, [0], set_ranks=[0])  # incomplete table


# -- text format ---------------------------------------------------------


def test_parse_serialize_example():
    text = "matroid bases n=3\n110\n101\n011\n"
    d = parse(text)
    assert d.kind == "bases" and d.n == 3
    assert d.sets == (0b011, 0b101, 0b110)
    assert serialize(d) == text


def test_parse_comments_and_blanks():
    d = parse("# a comment\n\nmatroid circuits n=2\n\n# another\n11\n")
    assert d.sets == (0b11,)


def test_parse_header_rank_kinds():
    d = parse("matroid nsc n=3 r=2\n110\n")
    assert d.r == 2
    with pytest.raises(ParseError):
        parse("matroid nsc n=3\n110\n")  # missing r
    with pytest.raises(ParseError):
        parse("matroid bases n=3 r=2\n110\n")  # spurious r


def test_parse_per_set_ranks():
    d = parse("matroid cyclicflats n=2\n00:0\n11:1\n")
    assert d.set_ranks == (0, 1)
    with pytest.raises(ParseError):
        parse("matroid cyclicflats n=2\n00\n")
    with pytest.raises(ParseError):
        parse("matroid bases n=2\n01:1\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse("matroid bases n=3\n110\n11\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse("matroid bases n=2\n11\n11\n")
    assert err.value.line == 3
    with pytest.raises(ParseError):
        parse("")


def test_parse_reports_a_distant_duplicate_at_its_second_line():
    lines = [format_bits(m, 6) for m in range(38)] + [format_bits(0, 6)]
    with pytest.raises(ParseError) as err:
        parse("\n".join(["matroid independent n=6"] + lines) + "\n")
    assert str(err.value) == "line 40: duplicate set 000000"


@pytest.mark.parametrize("view", corpus_params())
@pytest.mark.parametrize("kind", KINDS)
def test_parse_serialize_identity_on_corpus(view, kind):
    d = encode_from_oracle(view, kind)
    assert parse(serialize(d)) == d


# -- decoding ------------------------------------------------------------


@pytest.mark.parametrize("view", corpus_params())
@pytest.mark.parametrize("kind", KINDS)
def test_decode_matches_source(view, kind):
    assert views_equal(to_view(encode_from_oracle(view, kind)), view)


@pytest.mark.parametrize("view", corpus_params())
@pytest.mark.parametrize("kind", KINDS)
def test_encode_decode_idempotent(view, kind):
    d = encode_from_oracle(view, kind)
    assert encode_from_oracle(to_view(d), kind) == d


def test_size_of():
    d = description("bases", 4, [0b0011, 0b0101])
    measure = size_of(d)
    assert measure.listed_sets == 2
    assert measure.cells == 8
    assert measure.header_bits == 8 * len("matroid bases n=4")


def test_semantically_equal():
    u23 = uniform(2, 3)
    bases = encode_from_oracle(u23, "bases")
    circuits = encode_from_oracle(u23, "circuits")
    assert semantically_equal(bases, circuits)
    assert not semantically_equal(
        encode_from_oracle(uniform(2, 4), "bases"),
        encode_from_oracle(uniform(3, 4), "bases"),
    )
    with pytest.raises(ValueError):
        semantically_equal(bases, encode_from_oracle(uniform(2, 4), "bases"))


# -- validation ----------------------------------------------------------


@pytest.mark.parametrize("view", corpus_params())
@pytest.mark.parametrize("kind", KINDS)
def test_validate_accepts_honest_encodings(view, kind):
    report = validate(encode_from_oracle(view, kind))
    assert report.ok, report.failures


def test_validate_rejects_unequal_bases():
    report = validate(description("bases", 3, [0b001, 0b011]))
    assert not report.ok
    assert any("equicardinal" in f for f in report.failures)


def test_validate_rejects_exchange_failure():
    # two disjoint pairs without the mixed pairs: exchange fails
    report = validate(description("bases", 4, [0b0011, 0b1100]))
    assert not report.ok
    assert any("exchange" in f for f in report.failures)


def test_validate_rejects_comparable_circuits():
    report = validate(description("circuits", 3, [0b001, 0b011]))
    assert not report.ok
    assert any("antichain" in f for f in report.failures)


def test_validate_rejects_incomplete_flats():
    report = validate(description("flats", 2, [0b01, 0b10, 0b11]))
    assert not report.ok  # the empty intersection of {0} and {1} is missing
    assert any("intersection" in f for f in report.failures)


def test_validate_rejects_non_submodular_rank():
    sets = list(range(4))
    ranks = [0, 1, 1, 1]
    good = validate(description("rank", 2, sets, ranks))
    assert good.ok
    bad = validate(description("rank", 2, sets, [0, 0, 0, 1]))
    assert not bad.ok


def test_validate_rejects_spurious_cyclicflat():
    # the empty set is listed but is not a flat of the decoded matroid
    report = validate(description("cyclicflats", 3, [0, 0b011], [0, 0]))
    assert not report.ok


def test_validate_never_raises_on_weird_input():
    # spanning sets that decode to nothing sensible
    report = validate(description("spanning", 2, [0b01]))
    assert not report.ok


# Two non-matroids that pass every shape check of their kind.
#: circuit elimination fails: no circuit lies inside {0, 2}
ELIMINATION_COUNTEREXAMPLE = description("circuits", 3, [0b011, 0b110])
#: basis exchange fails for the minimal spanning sets {0,1} and {2,3}
EXCHANGE_COUNTEREXAMPLE = description(
    "spanning", 4, [m for m in range(16) if m & 0b0011 == 0b0011 or m & 0b1100 == 0b1100]
)


@pytest.mark.parametrize("desc", [ELIMINATION_COUNTEREXAMPLE, EXCHANGE_COUNTEREXAMPLE])
def test_validate_rejects_shape_correct_non_matroids(desc):
    report = validate(desc)
    assert not report.ok
    assert any(f.startswith("matroid-exchange: ") for f in report.failures)


def test_validate_rejects_non_hereditary_independent_sets():
    report = validate(description("independent", 2, [0b00, 0b11]))
    assert not report.ok
    assert any(f.startswith("matroid-hereditary: ") for f in report.failures)
