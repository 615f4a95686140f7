from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidkit import (
    FAMILY_TAGS,
    CapacityError,
    MultiGraph,
    add_loops,
    bicircular,
    direct_sum,
    multigraph,
    parallel_blowup,
    parse_graph,
    phi,
    phi_r,
    relabel,
    separation_family,
    serialize_graph,
    subdivide,
    subdivision_length,
    uniform,
)
from matroidkit.bitsets import elements, from_elements, submasks
from matroidkit.tables import (
    classify,
    family_masks,
    independence_table,
    rank_table,
    views_equal,
)

from conftest import K3, P3


# -- graph plumbing ------------------------------------------------------


def test_multigraph_normalization_and_checks():
    g = multigraph(3, [(2, 1), (0, 0)])
    assert g.edges == ((1, 2), (0, 0))
    assert not g.is_simple()
    assert multigraph(3, [(0, 1), (1, 2)]).is_simple()
    with pytest.raises(ValueError):
        multigraph(2, [(0, 2)])


def test_multigraph_refuses_a_negative_vertex_count():
    with pytest.raises(ValueError, match=r"^negative vertex count -3$"):
        multigraph(-3, [])
    with pytest.raises(ValueError, match=r"^negative vertex count -3$"):
        parse_graph("graph n=-3\n")


def test_graph_text_roundtrip():
    text = "graph n=3\n0 1\n1 2\n"
    g = parse_graph(text)
    assert g.v == 3 and g.edges == ((0, 1), (1, 2))
    assert serialize_graph(g) == text
    with pytest.raises(ValueError):
        parse_graph("0 1\n")
    with pytest.raises(ValueError):
        parse_graph("graph n=2\n0\n")


# -- separation families -------------------------------------------------


def test_family_parameter_bounds():
    for tag, bad_n in (("L15", 2), ("L17", 1), ("L18", 2), ("L10", 0)):
        with pytest.raises(ValueError):
            separation_family(tag, bad_n)
    with pytest.raises(ValueError):
        separation_family("L99", 3)
    with pytest.raises(CapacityError):
        separation_family("L15", 5)  # 27 elements exceed the mask cap


SMALLEST_N = {"L10": 1, "L11": 1, "L15": 3, "L17": 2, "L18": 3, "L20": 1}


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_family_names_its_smallest_n(tag):
    with pytest.raises(ValueError) as err:
        separation_family(tag, SMALLEST_N[tag] - 1)
    assert str(err.value) == f"{tag} needs n >= {SMALLEST_N[tag]}"
    assert separation_family(tag, SMALLEST_N[tag]).n >= 1


def test_family_names_the_known_tags():
    with pytest.raises(ValueError) as err:
        separation_family("L99", 3)
    assert str(err.value) == (
        "unknown family tag 'L99'; expected one of "
        "('L10', 'L11', 'L15', 'L17', 'L18', 'L20')"
    )


@pytest.mark.parametrize("n", (3, 4))
def test_l15_is_the_sum_truncated_by_one(n):
    summed = direct_sum(parallel_blowup(uniform(n - 1, n), n), uniform(2, 2))
    assert views_equal(separation_family("L15", n), summed.truncate(summed.full_rank - 1))


@pytest.mark.parametrize("n", range(3, 7))
def test_l10_counts(n):
    families = classify(separation_family("L10", n))
    assert int(families["spanning"].sum()) == n + 1
    assert int(families["flats"].sum()) == 2**n - n


@pytest.mark.parametrize("n", range(3, 7))
def test_l11_counts(n):
    families = classify(separation_family("L11", n))
    assert int(families["independent"].sum()) == n + 1
    assert int(families["spanning"].sum()) == 2**n - 1


def test_l15_counts():
    families = classify(separation_family("L15", 3))
    assert int(families["nsc"].sum()) == 3**3 + 3 * comb(3, 2) == 36
    assert int(families["flats"].sum()) <= 2**5


@pytest.mark.parametrize("n", (2, 3))
def test_l17_counts(n):
    families = classify(separation_family("L17", n))
    assert int(families["cyclicflats"].sum()) == 3
    assert int(families["dephyp"].sum()) == comb(2 * n - 1, n - 2)


@pytest.mark.parametrize("n", range(3, 7))
def test_l18_counts(n):
    families = classify(separation_family("L18", n))
    assert int(families["hyperplanes"].sum()) == (n * n - n) // 2
    # cyclic flats: the union of any k <= n-2 parallel classes (rank k)
    # plus the full ground set, 2^n - n in all (the empty union included)
    assert int(families["cyclicflats"].sum()) == 2**n - n


@pytest.mark.parametrize("n", (2, 3))
def test_l20_counts(n):
    families = classify(separation_family("L20", n))
    assert int(families["nsc"].sum()) == 0
    assert int(families["circuits"].sum()) == comb(2 * n, n + 1)


# -- bicircular matroids -------------------------------------------------


def _bicircular_indep_oracle(g, mask):
    """From-definition: each component of the induced subgraph has cycle
    rank |E| - |V| + 1 at most one, i.e. edges <= vertices."""
    chosen = [g.edges[i] for i in elements(mask)]
    vertices = {u for e in chosen for u in e}
    parent = {u: u for u in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, w in chosen:
        parent[find(u)] = find(w)
    edges_per, verts_per = {}, {}
    for u, w in chosen:
        edges_per[find(u)] = edges_per.get(find(u), 0) + 1
    for u in vertices:
        verts_per[find(u)] = verts_per.get(find(u), 0) + 1
    return all(edges_per[root] <= verts_per[root] for root in edges_per)


@pytest.mark.parametrize(
    "g",
    [
        multigraph(3, [(0, 1), (1, 2), (0, 2), (0, 0)]),
        multigraph(2, [(0, 1), (0, 1), (0, 1), (1, 1)]),
        multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 1)]),
        add_loops(K3, 2),
    ],
    ids=("K3+loop", "theta+loop", "C4+chord+loop", "K3+2loops"),
)
def test_bicircular_matches_definition_oracle(g):
    view = bicircular(g)
    for mask in range(1 << g.m):
        assert view.is_independent(mask) == _bicircular_indep_oracle(g, mask), mask


@st.composite
def loopy_multigraphs(draw):
    """Graphs with loops and parallel edges, v <= 5, m <= 9."""
    v = draw(st.integers(1, 5))
    ends = st.tuples(st.integers(0, v - 1), st.integers(0, v - 1))
    return multigraph(v, draw(st.lists(ends, max_size=9)))


@settings(max_examples=100, deadline=None)
@given(loopy_multigraphs())
def test_bicircular_tables_match_definition_oracle(g):
    # the table source is the view's only rule, so check it from outside
    size = 1 << g.m
    want_indep = [_bicircular_indep_oracle(g, m) for m in range(size)]
    want_rank = [
        max(s.bit_count() for s in submasks(m) if want_indep[s]) for m in range(size)
    ]
    view = bicircular(g)
    assert independence_table(view).tolist() == want_indep
    assert rank_table(view).tolist() == want_rank
    assert view.full_rank == want_rank[-1]


@pytest.mark.parametrize("r, n", [(0, 0), (0, 3), (1, 4), (2, 5), (5, 5), (3, 7)])
def test_uniform_tables_match_closed_form(r, n):
    view = uniform(r, n)
    want_rank = [min(m.bit_count(), r) for m in range(1 << n)]
    assert rank_table(view).tolist() == want_rank
    assert independence_table(view).tolist() == [
        rank == m.bit_count() for m, rank in enumerate(want_rank)
    ]
    assert [view.rank(m) for m in range(1 << n)] == want_rank


def test_bicircular_loops_and_parallels_are_cycles():
    g = multigraph(2, [(0, 0), (0, 1), (0, 1)])
    view = bicircular(g)
    assert view.is_independent(0b011)  # loop + one edge: one cycle
    assert not view.is_independent(0b111)  # loop + parallel pair: two cycles


# -- graph surgery -------------------------------------------------------


def test_add_loops_layout():
    g = add_loops(P3, 1)
    assert g.edges == ((0, 1), (1, 2), (0, 0), (1, 1), (2, 2))


def test_subdivide():
    g = subdivide(multigraph(2, [(0, 1), (0, 0)]), 3)
    assert g.v == 4
    assert g.edges == ((0, 2), (2, 3), (1, 3), (0, 0))
    assert subdivide(P3, 1).edges == P3.edges


def test_subdivision_length_arithmetic():
    assert subdivision_length(3) == 1
    assert subdivision_length(5) == 2
    for r in (3, 4, 5, 6):
        t = subdivision_length(r)
        assert t + 2 <= r < 2 * t + 2


# -- the rank-3 graph encoding -------------------------------------------


def test_phi_structure():
    view = phi(P3)
    assert view.n == 2 * 3 + 2 and view.full_rank == 3
    nsc = family_masks(view, "nsc")
    pairs = [from_elements((i, 3 + i)) for i in range(3)]
    triples = [
        from_elements((z1, z2, 6 + k))
        for k, (i, j) in enumerate(P3.edges)
        for z1 in (i, 3 + i)
        for z2 in (j, 3 + j)
    ]
    assert set(nsc) == set(pairs) | set(triples)
    with pytest.raises(ValueError):
        phi(multigraph(3, [(0, 0)]))
    with pytest.raises(ValueError):
        phi(multigraph(2, [(0, 1)]))


@pytest.mark.parametrize("g", (P3, K3), ids=("P3", "K3"))
def test_phi_equals_truncated_bicircular(g):
    # B(G with two loops per vertex), truncated to rank 3, with edge k at
    # index k and vertex i's loops at m+2i, m+2i+1
    double = add_loops(g, 2)
    base = bicircular(double).truncate(3)
    perm = [0] * double.m
    for j in range(double.m):
        if j < g.m:
            perm[j] = 2 * g.v + j
        else:
            i, second = divmod(j - g.m, 2)
            perm[j] = i + (g.v if second else 0)
    assert views_equal(relabel(base, perm), phi(g))


def test_phi_r_nsc_shape():
    for g in (P3, K3):
        view = phi_r(g, 3)
        h = subdivide(add_loops(g, 1), 1)
        assert view.n == h.m and view.full_rank == 3
        nsc = family_masks(view, "nsc")
        expected = {
            from_elements((k, g.m + u, g.m + w))
            for k, (u, w) in enumerate(g.edges)
        }
        assert set(nsc) == expected
        assert all(c.bit_count() == subdivision_length(3) + 2 for c in nsc)


def test_simplicity_ignores_edge_orientation():
    g = MultiGraph(3, ((0, 1), (1, 0), (1, 2)))
    assert g.edges == ((0, 1), (1, 0), (1, 2))
    assert not g.is_simple()
    with pytest.raises(ValueError, match=r"^phi is defined for simple graphs$"):
        phi(g)
    with pytest.raises(ValueError, match=r"^phi_r is defined for simple graphs$"):
        phi_r(g, 3)


def test_phi_checks_the_cap_before_listing_circuits(monkeypatch):
    monkeypatch.delenv("MATROID_MAX_N", raising=False)
    # 200000 elements: the circuit list alone would hold ~1.5e10 bits
    with pytest.raises(CapacityError, match=r"^ground set of 200000 elements exceeds the cap of 24$"):
        phi(multigraph(100000, ()))


def test_phi_r_input_checks():
    with pytest.raises(ValueError):
        phi_r(P3, 2)
    with pytest.raises(ValueError):
        phi_r(multigraph(2, [(0, 1), (0, 1)]), 3)


def test_graph_text_errors_name_the_line():
    with pytest.raises(ValueError, match=r"^line 2: expected header 'graph n=<n>'"):
        parse_graph("# comment\ngraph n=x\n")
    with pytest.raises(ValueError, match=r"^line 3: expected 2 integers"):
        parse_graph("graph n=2\n\n0 y\n")
