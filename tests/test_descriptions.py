import gc
import tracemalloc

import numpy as np
import pytest

from matroidkit import (
    KINDS,
    ParseError,
    description,
    direct_sum,
    encode_from_oracle,
    parse,
    parse_3dm,
    parse_graph,
    semantically_equal,
    separation_family,
    serialize,
    size_of,
    to_view,
    uniform,
    validate,
)
from matroidkit.bitsets import format_bits
from matroidkit.cli import main
from matroidkit.descriptions import dual, encode_text
from matroidkit.tables import independence_table, rank_table, views_equal

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


@pytest.mark.parametrize("sets, bad", [
    ([0b01, 0b100, -1, 0b1000], "0b100"),
    ([0b01, -1, 0b100], "-0b1"),
    ([0b11, 1 << 40], bin(1 << 40)),
])
def test_description_names_the_first_out_of_range_mask(sets, bad):
    with pytest.raises(ValueError) as err:
        description("circuits", 2, sets)
    assert str(err.value) == f"mask {bad} has bits outside a ground set of size 2"


@pytest.mark.parametrize("kind, n, sets, set_ranks, r", [
    ("independent", 2, [0, 1.9, 2.5], None, None),  # masks, once read as 0, 1, 2
    ("cyclicflats", 2, [0b11], [0.99], None),  # a set rank, once read as 0
    ("nsc", 2, [0b11], None, 1.5),  # a header rank, once kept and written as r=1.5
])
def test_description_refuses_non_integer_numbers(kind, n, sets, set_ranks, r):
    with pytest.raises(TypeError):
        description(kind, n, sets, set_ranks, r)


def test_description_reads_numpy_integers_as_ints():
    d = description(
        "cyclicflats", np.int64(2), np.array([0b11, 0b01]), np.array([2, 1], dtype=np.int8)
    )
    assert d == description("cyclicflats", 2, [0b11, 0b01], [2, 1])
    assert all(type(v) is int for v in (d.n, *d.sets, *d.set_ranks))
    h = description("nsc", np.int16(2), [np.uint8(0b11)], r=np.int64(1))
    assert type(h.r) is int and parse(serialize(h)) == h == description("nsc", 2, [0b11], r=1)


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


@pytest.mark.parametrize("text, field", [
    ("matroid bases n=3 n=2\n110\n", "n=2"),
    ("matroid nsc n=3 r=1 r=2\n110\n", "r=2"),
])
def test_parse_rejects_a_repeated_header_field(text, field):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == 1
    assert str(err.value) == f"line 1: bad header field {field!r}"


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


@pytest.mark.parametrize("kind", ["rank", "cyclicflats"])
def test_parse_reports_an_out_of_range_set_rank_at_its_line(kind):
    with pytest.raises(ParseError) as err:
        parse(f"matroid {kind} n=1\n0:0\n1:5\n")
    assert err.value.line == 3
    assert str(err.value) == "line 3: set rank 5 outside [0, 1]"
    with pytest.raises(ParseError) as err:
        parse(f"matroid {kind} n=1\n0:-1\n1:1\n")
    assert str(err.value) == "line 2: set rank -1 outside [0, 1]"


#: Malformed inputs and the exact error each gets: the checks made line
#: by line, and the ones made against the header after the last line
#: (the ground-set cap, the header rank, the row count of ``rank``).
MALFORMED = [
    ("", "line 1: empty input"),
    ("matroid\n", "line 1: expected header 'matroid <kind> n=<n>[ r=<r>]'"),
    ("matroid foo n=2\n", "line 1: unknown kind 'foo'"),
    ("matroid bases n=\n", "line 1: bad header field 'n='"),
    ("matroid bases n=--1\n", "line 1: bad header field 'n=--1'"),
    ("matroid bases n=2 k=3\n11\n", "line 1: bad header field 'k=3'"),
    ("matroid bases n=2 r=1\n11\n", "line 1: kind 'bases' and header rank do not match"),
    ("matroid nsc n=2 r=5\n11\n", "line 1: kind 'nsc' needs a matroid rank in [0, 2]"),
    ("matroid nsc n=2 r=-1\n11\n", "line 1: kind 'nsc' needs a matroid rank in [0, 2]"),
    ("matroid nsc n=2 r=5\n1\n", "line 2: bitstring of length 1, expected 2"),
    ("matroid bases n=30\n", "line 1: ground set of 30 elements exceeds the cap of 24"),
    ("matroid bases n=25\n" + "1" * 25 + "\n",
     "line 1: ground set of 25 elements exceeds the cap of 24"),
    ("matroid bases n=25\n" + "1" * 24 + "\n", "line 2: bitstring of length 24, expected 25"),
    ("matroid bases n=-1\n", "line 1: negative ground-set size: -1"),
    ("matroid bases n=-1\n:1\n", "line 2: bitstring of length 0, expected -1"),
    ("matroid rank n=2\n00:0\n", "line 1: rank table lists 1 subsets, expected 4"),
    ("matroid rank n=0\n", "line 1: rank table lists 0 subsets, expected 1"),
    ("matroid bases n=0\n\n\n", "line 3: duplicate empty set"),
    ("matroid rank n=30\n0:0\n", "line 2: bitstring of length 1, expected 30"),
    ("matroid rank n=2\n00:0\n10:1\n01:1\n11:2\n11:2\n", "line 6: duplicate set 11"),
    ("matroid bases n=3\n1\u06610\n", "line 2: bad character '\u0661' in bitstring '1\u06610'"),
    ("matroid bases n=3\r\n# c\r\n1_0\r\n", "line 3: bad character '_' in bitstring '1_0'"),
    ("matroid rank n=1\n0:0\n1:\n", "line 3: bad rank annotation ''"),
    ("matroid rank n=1\n0:0\n1\n", "line 3: kind 'rank' requires '<bits>:<rank>' lines"),
    ("matroid bases n=2\n01:1\n", "line 2: kind 'bases' lines must not carry ranks"),
    ("matroid cyclicflats n=2\n00:3\n", "line 2: set rank 3 outside [0, 2]"),
]


@pytest.mark.parametrize("text, message", MALFORMED)
def test_parse_names_the_first_fault(text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message
    assert err.value.line == int(message.split(":")[0].split()[1])


#: Integers that plain ``int`` reads as 1.
LOOSE_ONES = ["0_1", "+1", "\u0661"]


@pytest.mark.parametrize("one", LOOSE_ONES)
def test_parse_reads_integers_strictly(one):
    cases = [
        (f"matroid independent n={one}\n0\n", f"line 1: bad header field 'n={one}'"),
        (f"matroid nsc n=2 r={one}\n11\n", f"line 1: bad header field 'r={one}'"),
        (f"matroid cyclicflats n=2\n00:0\n11:{one}\n", f"line 3: bad rank annotation {one!r}"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message


@pytest.mark.parametrize("one", LOOSE_ONES)
def test_graph_and_3dm_inputs_read_integers_strictly(one):
    cases = [
        (parse_graph, f"graph n={one}\n0 0\n",
         f"line 1: expected header 'graph n=<n>', got 'graph n={one}'"),
        (parse_graph, f"graph n=2\n0 {one}\n", f"line 2: expected 2 integers, got '0 {one}'"),
        (parse_3dm, f"3dm s={one}\n0 0 0\n",
         f"line 1: expected header '3dm s=<s>', got '3dm s={one}'"),
        (parse_3dm, f"3dm s=2\n0 0 {one}\n", f"line 2: expected 3 integers, got '0 0 {one}'"),
    ]
    for reader, text, message in cases:
        with pytest.raises(ParseError) as err:
            reader(text)
        assert str(err.value) == message


def test_description_keeps_its_set_rank_check():
    with pytest.raises(ValueError, match=r"set rank 5 outside \[0, 1\]"):
        description("rank", 1, [0, 1], [0, 5])


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


# -- exhaustive text from the mask array ---------------------------------


@pytest.mark.parametrize("view", corpus_params())
@pytest.mark.parametrize("kind", KINDS)
def test_encode_text_is_the_serialized_encoding(view, kind):
    assert "".join(encode_text(view, kind)) == serialize(encode_from_oracle(view, kind))


#: Listings whose text has two-digit per-set ranks, a two-digit header
#: rank, or no line after the header.  L18's cyclic flats reach rank 5
#: at n = 6 (12 elements); U(10,11) mixes ranks 0 and 10.
WIDE_CASES = {
    "rank U(11,12)": (uniform(11, 12), "rank", ":11\n"),
    "cyclicflats L18(6)": (separation_family("L18", 6), "cyclicflats", ":5\n"),
    "cyclicflats U(10,11)": (uniform(10, 11), "cyclicflats", ":0\n11111111111:10\n"),
    "nsc r=10": (direct_sum(uniform(9, 10), uniform(1, 2)), "nsc", " r=10\n"),
    "dephyp r=10": (direct_sum(uniform(9, 10), uniform(1, 2)), "dephyp", " r=10\n"),
    "empty nsc L20(3)": (separation_family("L20", 3), "nsc", None),
}


@pytest.mark.parametrize("name", WIDE_CASES)
def test_encode_text_writes_wide_ranks_and_empty_families(name):
    view, kind, marker = WIDE_CASES[name]
    text = "".join(encode_text(view, kind))
    assert text == serialize(encode_from_oracle(view, kind))
    if marker is None:
        assert text == f"matroid {kind} n={view.n} r={view.full_rank}\n"
    else:
        assert marker in text and len(text.splitlines()) > 1


@pytest.mark.parametrize("view, kind, lines", [
    (separation_family("L20", 10), "hyperplanes", 167_960),  # C(20, 9)
    (uniform(10, 20), "rank", 1 << 20),
], ids=["L20(10)-hyperplanes", "U(10,20)-rank"])
def test_encode_text_memory_does_not_grow_with_the_listing(view, kind, lines):
    # the tables and the sorted mask array are built before the text is;
    # the text itself, 3.5 MB and 25 MB here, is handed out block by block
    blocks = encode_text(view, kind)
    tracemalloc.start()
    try:
        written = sum(block.count("\n") for block in blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written == 1 + lines
    assert peak < 1 << 20


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


def test_validate_builds_the_flats_closure_once(monkeypatch):
    # the intersection check and the decode share one closure table
    from matroidkit import tables

    built = []
    flat_closure = tables.flat_closure
    monkeypatch.setattr(tables, "flat_closure", lambda n, flats: built.append(n) or flat_closure(n, flats))
    assert validate(encode_from_oracle(uniform(2, 4), "flats")).ok
    assert built == [4]


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


#: Closed under intersection, but no matroid's flats: {2} closes to E.
FLATS_OF_NO_MATROID = "matroid flats n=3\n000\n100\n010\n111\n"


def test_flats_of_no_matroid_decode_by_closure(tmp_path, capsys):
    desc = parse(FLATS_OF_NO_MATROID)
    view = to_view(desc)
    # A is independent iff no e in A lies in cl(A - e): 0 lies in cl({2}) = E
    assert np.flatnonzero(independence_table(view)).tolist() == [0, 1, 2, 3, 4]
    # the per-query rule still ranks each set by the height of its closure
    assert [view.rank(m) for m in range(8)] == [0, 1, 1, 2, 2, 2, 2, 2]
    report = (
        "ok   flats-intersection-closed\n"
        "FAIL matroid-exchange (r(A+0) + r(A+1) < r(A+0+1) + r(A) for A = 001)\n"
        "FAIL round-trip (decode/re-encode does not reproduce the description)"
    )
    assert str(validate(desc)) == report
    path = tmp_path / "flats.txt"
    path.write_text(FLATS_OF_NO_MATROID)
    assert main(["validate", str(path)]) == 3
    assert capsys.readouterr().out == report + "\n"


# -- listed duality ------------------------------------------------------

#: The kinds whose dual is listed by the complemented sets.
DUAL_KINDS = ("bases", "circuits", "hyperplanes", "nsc", "dephyp")


@pytest.mark.parametrize("kind", DUAL_KINDS)
@pytest.mark.parametrize("view", corpus_params())
def test_dual_is_an_involution(view, kind):
    d = encode_from_oracle(view, kind)
    assert dual(dual(d)) == d


@pytest.mark.parametrize("kind", DUAL_KINDS)
@pytest.mark.parametrize("view", corpus_params())
def test_dual_lists_the_table_dual(view, kind):
    d = encode_from_oracle(view, kind)
    co = dual(d)
    assert views_equal(to_view(co), to_view(d).dual())
    # and lists it canonically, as re-encoding the table dual would
    assert co == encode_from_oracle(view.dual(), co.kind)


@pytest.mark.parametrize("kind", sorted(set(KINDS) - set(DUAL_KINDS)))
def test_dual_refuses_kinds_without_a_listed_dual(kind):
    with pytest.raises(ValueError, match=kind):
        dual(encode_from_oracle(uniform(2, 4), kind))


@pytest.mark.parametrize("kind", ["hyperplanes", "dephyp"])
def test_hyperplane_side_view_keeps_no_table_of_its_dual(kind):
    # U(2,8) + U(2,8) has 16 hyperplanes, every one of them dependent
    desc = encode_from_oracle(direct_sum(uniform(2, 8), uniform(2, 8)), kind)
    rank_table(to_view(desc))  # fill the shared per-n caches first
    tracemalloc.start()
    try:
        view = to_view(desc)
        ranks = rank_table(view)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # the view's own independence and rank tables take 2 * 2^16 bytes;
    # two more tables cached on the dual it decodes through would be 4
    assert ranks.nbytes == 1 << 16
    assert held < 3 << 16
