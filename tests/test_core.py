import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidkit import (
    MatroidView,
    add_parallel,
    direct_sum,
    parallel_blowup,
    relabel,
    uniform,
)
from matroidkit import bitsets, core, descriptions, encode_from_oracle, to_view
from matroidkit.conversions import convert_edge
from matroidkit.reductions import intersect3_bruteforce
from matroidkit.tables import family_masks, popcounts, rank_table, views_equal

from conftest import corpus_params, minor_circuits


def test_uniform_basics():
    u = uniform(2, 4)
    assert u.n == 4 and u.full_rank == 2
    assert u.is_independent(0b0011)
    assert not u.is_independent(0b0111)
    assert u.rank(0b1111) == 2
    assert u.basis_of(0b1110) == 0b0110  # greedy picks lowest indices
    assert u.closure(0b0011) == 0b1111
    assert u.spans(0b0101)


def test_loops_and_closure_of_empty():
    m = direct_sum(uniform(0, 1), uniform(2, 3))
    assert m.rank(0b0001) == 0
    assert m.closure(0) == 0b0001  # the loop sits in every flat
    assert m.basis_of(m.full).bit_count() == 2


def test_view_requires_an_oracle():
    with pytest.raises(ValueError):
        MatroidView(3)


def test_view_takes_no_name():
    with pytest.raises(TypeError):
        MatroidView(3, table_source=lambda: popcounts(3) <= 1, name="x")


def test_repr_builds_no_table():
    view = uniform(10, 20)
    assert repr(view) == "<MatroidView n=20>"
    assert view._tables is None


def test_table_only_view_answers_from_its_rank_table():
    view = MatroidView(3, table_source=lambda: popcounts(3) <= 1)
    assert view.full_rank == 1 and view.rank(0b110) == 1
    assert view.is_independent(0b100) and not view.is_independent(0b011)
    assert view.basis_of(0b110) == 0b010
    assert view.closure(0b001) == 0b111


def _greedy_u23():
    return MatroidView(3, indep=lambda a: a.bit_count() <= 2)


@pytest.mark.parametrize("query", ["is_independent", "rank", "basis_of", "closure"])
@pytest.mark.parametrize(
    "build",
    [
        lambda: uniform(2, 3),
        _greedy_u23,
        lambda: to_view(encode_from_oracle(uniform(2, 3), "hyperplanes")),
        lambda: to_view(encode_from_oracle(uniform(2, 3), "dephyp")),
    ],
    ids=["table", "greedy", "hyperplanes", "dephyp"],
)
def test_public_queries_check_the_mask_once(monkeypatch, query, build):
    view = build()
    for bad in (0b1000, -1):
        with pytest.raises(ValueError):
            getattr(view, query)(bad)
    calls = []
    checked = core.check_mask
    monkeypatch.setattr(core, "check_mask", lambda a, n: calls.append(a) or checked(a, n))
    getattr(view, query)(0b111)
    assert calls == [0b111]


@pytest.mark.parametrize(
    "run",
    [
        lambda: intersect3_bruteforce(uniform(2, 4), uniform(3, 4), uniform(2, 4), 2),
        lambda: add_parallel(uniform(2, 4), 3),
        lambda: convert_edge(encode_from_oracle(uniform(3, 5), "flats"), "cyclicflats"),
    ],
    ids=["intersect3_bruteforce", "add_parallel", "flats-cyclicflats"],
)
def test_library_steps_on_built_masks_check_nothing(monkeypatch, run):
    calls = []
    for module in (bitsets, core, descriptions):
        monkeypatch.setattr(module, "check_mask", lambda a, n: calls.append(a) or a)
    run()
    assert calls == []


@pytest.mark.parametrize("view", corpus_params())
def test_dual_involution_and_rank_formula(view):
    dual = view.dual()
    assert dual.full_rank == view.n - view.full_rank
    assert views_equal(dual.dual(), view)
    # complements of bases are the dual bases
    full = view.full
    dual_bases = {full & ~b for b in family_masks(view, "bases")}
    assert set(family_masks(dual, "bases")) == dual_bases


def test_minor_rank_rule_and_index_map():
    u = uniform(2, 5)
    m = u.minor(0b00001, 0b01000)  # contract {0}, delete {3}
    assert m.n == 3
    assert m.full_rank == 1
    assert m.rank(0b001) == 1  # {1} alone spans after contracting {0}
    with pytest.raises(ValueError):
        u.minor(0b1, 0b1)


def test_delete_contract_shortcuts():
    u = uniform(2, 4)
    assert views_equal(u.delete(0b1000), uniform(2, 3))
    assert views_equal(u.contract(0b1000), uniform(1, 3))


def test_truncate():
    t = uniform(3, 5).truncate(2)
    assert t.full_rank == 2
    assert not t.is_independent(0b00111)
    with pytest.raises(ValueError):
        uniform(2, 4).truncate(3)


def test_direct_sum_rank_is_additive():
    m = direct_sum(uniform(1, 2), uniform(2, 3))
    assert m.n == 5 and m.full_rank == 3
    assert m.rank(0b00011) == 1
    assert m.rank(0b11000) == 2
    assert m.rank(0b11011) == 3


def test_parallel_blowup_layout():
    m = parallel_blowup(uniform(1, 2), 3)
    # element e's copies are e*3 .. e*3+2
    assert m.n == 6 and m.full_rank == 1
    assert not m.is_independent(0b000011)  # two copies of element 0
    assert m.rank(0b001001) == 1  # one copy of each original element
    with pytest.raises(ValueError):
        parallel_blowup(uniform(1, 2), 0)


def test_add_parallel():
    m = add_parallel(uniform(2, 4), 0)
    assert m.n == 5 and m.full_rank == 2
    assert m.rank(0b10001) == 1  # the new element is parallel to 0
    assert m.is_independent(0b10010)
    with pytest.raises(ValueError):
        add_parallel(direct_sum(uniform(0, 1), uniform(1, 1)), 0)


def test_relabel():
    m = add_parallel(uniform(2, 4), 0)  # elements 0 and 4 parallel
    moved = relabel(m, (4, 1, 2, 3, 0))
    assert moved.rank(0b10001) == 1  # parallelism follows the relabeling
    assert views_equal(relabel(moved, (4, 1, 2, 3, 0)), m)
    with pytest.raises(ValueError):
        relabel(m, (0, 0, 1, 2, 3))


@pytest.mark.parametrize("view", corpus_params())
def test_minor_circuits_rule_matches_rank_rule(view):
    circuits = family_masks(view, "circuits").tolist()
    # a couple of fixed disjoint (x, y) choices per matroid
    full = view.full
    cases = [(0, 0), (1 & full, 2 & full), (full & 0b101, full & 0b010)]
    for x, y in cases:
        if x & y:
            continue
        got, keep = minor_circuits(circuits, view.n, x, y)
        expected_view = view.minor(x, y)
        assert keep == tuple(e for e in range(view.n) if not (x | y) >> e & 1)
        assert list(got) == family_masks(expected_view, "circuits").tolist()


def test_minor_circuits_rejects_overlap():
    with pytest.raises(ValueError):
        minor_circuits([0b11], 2, 0b01, 0b01)


def contract_then_restrict(circuits, n, x, y):
    """The circuit-rule minor the other way round: contract ``x`` over
    the whole list, element by element, then keep the circuits inside
    the survivors and re-index them."""
    work = list(dict.fromkeys(circuits))
    for e in bitsets.elements(x):
        bit = 1 << e
        work = bitsets.minimal_sets({c & ~bit for c in work if c & ~bit})
    keep = [e for e in range(n) if not (x | y) >> e & 1]
    pos = {old: i for i, old in enumerate(keep)}
    inside = sum(1 << e for e in keep)

    def compress(c):
        return sum(1 << pos[e] for e in bitsets.elements(c))

    return tuple(bitsets.canonical_order({compress(c) for c in work if c & inside == c}))


@st.composite
def antichain_minors(draw):
    """A random antichain of non-empty sets, n <= 8, not necessarily the
    circuits of a matroid, and disjoint contract and delete sets."""
    n = draw(st.integers(1, 8))
    full = (1 << n) - 1
    candidates = draw(st.lists(st.integers(1, full), min_size=1, max_size=12))
    circuits = bitsets.minimal_sets(set(candidates))
    x = draw(st.integers(0, full))
    y = draw(st.integers(0, full)) & ~x
    return circuits, n, x, y


@settings(max_examples=300, deadline=None)
@given(antichain_minors())
def test_minor_circuits_deletes_first_as_contracting_first_would(drawn):
    circuits, n, x, y = drawn
    got, _ = minor_circuits(circuits, n, x, y)
    assert got == contract_then_restrict(circuits, n, x, y)


@pytest.mark.parametrize("view", corpus_params())
def test_rank_table_consistent_with_greedy(view):
    rt = rank_table(view)
    for mask in range(0, 1 << view.n, 5):
        assert int(rt[mask]) == view.rank(mask)
