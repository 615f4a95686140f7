import networkx as nx
import pytest

from matroidkit import (
    detect_minor_exhaustive,
    direct_sum,
    detect_minor_fixed,
    encode_bipartite,
    encode_from_oracle,
    graph_has_independent_set,
    has_matching,
    intersect3_bases,
    intersect3_bruteforce,
    isomorphic,
    multigraph,
    parse,
    parse_3dm,
    phi,
    phi_r,
    reduce_3dm,
    reduce_independent_set,
    reduce_subgraph_iso,
    relabel,
    separation_family,
    subgraph_contains,
    to_view,
    uniform,
    verify_minor_witness,
)
from matroidkit.bitsets import CapacityError
from matroidkit.reductions import MinorWitness, TripleSystem, _distinct_unions

from conftest import K3, P3, encoded_graph


# -- isomorphism ---------------------------------------------------------


def test_isomorphic_self_dual_uniform():
    assert isomorphic(uniform(2, 4), uniform(2, 4).dual()) is not None


def test_isomorphic_rejects_phi_of_different_graphs():
    assert isomorphic(phi(K3), phi(P3)) is None


def test_isomorphic_under_relabeling():
    view = separation_family("L17", 2)
    moved = relabel(view, (3, 1, 2, 4, 0))
    sigma = isomorphic(moved, view)
    assert sigma is not None
    # the bijection preserves ranks of every subset
    from matroidkit.bitsets import elements, from_elements

    for mask in range(1 << view.n):
        image = from_elements(sigma[e] for e in elements(mask))
        assert moved.rank(mask) == view.rank(image)


def test_isomorphic_distinguishes_same_signature_sizes():
    assert isomorphic(uniform(2, 4), uniform(3, 4)) is None
    assert isomorphic(uniform(2, 4), uniform(2, 5)) is None


# -- minor detection -----------------------------------------------------


def _circuits_desc(view):
    return encode_from_oracle(view, "circuits")


def test_minor_uniform_deletion():
    w = detect_minor_fixed(_circuits_desc(uniform(2, 5)), uniform(2, 4))
    assert w is not None and w.x == 0 and w.y.bit_count() == 1
    assert verify_minor_witness(uniform(2, 5), uniform(2, 4), w)


def test_minor_too_small_host():
    assert detect_minor_fixed(_circuits_desc(uniform(2, 3)), uniform(2, 4)) is None
    assert detect_minor_exhaustive(uniform(2, 3), uniform(2, 4)) is None


def test_minor_host_equals_pattern():
    host = separation_family("L17", 2)
    w = detect_minor_exhaustive(host, host)
    assert w is not None and w.x == 0 and w.y == 0
    assert verify_minor_witness(host, host, w)


def test_minor_free_pattern_special_case():
    # a pattern with no circuits reduces to a rank threshold
    free = uniform(2, 2)
    w = detect_minor_fixed(_circuits_desc(uniform(2, 4)), free)
    assert w is not None and verify_minor_witness(uniform(2, 4), free, w)
    assert detect_minor_fixed(_circuits_desc(uniform(1, 4)), free) is None


def test_minor_hyperplane_host_route():
    host = uniform(2, 5)
    pattern = uniform(2, 4)
    w = detect_minor_fixed(encode_from_oracle(host, "hyperplanes"), pattern)
    assert w is not None and verify_minor_witness(host, pattern, w)
    none_host = encode_from_oracle(uniform(1, 4), "hyperplanes")
    assert detect_minor_fixed(none_host, pattern) is None


def test_minor_phi3_p3_contains_u34():
    # P_3 has an independent pair, so the rank-3 construction on it has a
    # 4-element rank-3 uniform minor
    host = phi_r(P3, 3)
    w = detect_minor_fixed(_circuits_desc(host), uniform(3, 4))
    assert w is not None and verify_minor_witness(host, uniform(3, 4), w)


def test_minor_fixed_rejects_other_kinds():
    with pytest.raises(ValueError):
        detect_minor_fixed(encode_from_oracle(uniform(2, 3), "bases"), uniform(1, 2))


def _loop_plus_u23_in_loop_plus_u24():
    """Deleting element 4 of loop + U(2,4) leaves loop + U(2,3) as is."""
    host = direct_sum(uniform(0, 1), uniform(2, 4))
    pattern = direct_sum(uniform(0, 1), uniform(2, 3))
    return host, pattern, MinorWitness(x=0, y=0b10000, iso=(0, 1, 2, 3))


def test_verify_minor_witness_rejects_swapped_iso():
    host, pattern, w = _loop_plus_u23_in_loop_plus_u24()
    assert verify_minor_witness(host, pattern, w)
    # elements 2 and 3 are symmetric; the loop 0 and element 1 are not
    assert verify_minor_witness(host, pattern, MinorWitness(w.x, w.y, (0, 1, 3, 2)))
    assert not verify_minor_witness(host, pattern, MinorWitness(w.x, w.y, (1, 0, 2, 3)))


def test_verify_minor_witness_rejects_wrong_x():
    host, pattern, w = _loop_plus_u23_in_loop_plus_u24()
    # contracting element 4 instead of deleting it leaves loop + U(1,3)
    assert not verify_minor_witness(host, pattern, MinorWitness(0b10000, 0, w.iso))


def test_verify_minor_witness_rejects_wrong_length_iso():
    host, pattern, w = _loop_plus_u23_in_loop_plus_u24()
    for iso in ((0, 1, 2), (0, 1, 2, 3, 4)):
        assert not verify_minor_witness(host, pattern, MinorWitness(w.x, w.y, iso))


def test_minor_fixed_free_patterns_give_valid_witnesses():
    # the empty pattern is M \ E, as the exhaustive search finds it
    host = encode_from_oracle(uniform(2, 4), "circuits")
    w = detect_minor_fixed(host, uniform(0, 0))
    assert w == MinorWitness(x=0, y=0b1111, iso=())
    assert w == detect_minor_exhaustive(to_view(host), uniform(0, 0))
    # a non-matroid host: U(2,2) is the deletion of element 0 alone
    host = parse("matroid circuits n=3\n110\n101\n")
    w = detect_minor_fixed(host, uniform(2, 2))
    assert w == MinorWitness(x=0, y=0b001, iso=(0, 1))
    assert verify_minor_witness(to_view(host), uniform(2, 2), w)


def test_distinct_unions():
    circuits = [0b011, 0b110, 0b101]
    assert _distinct_unions(circuits, 1) == [0b011, 0b101, 0b110]
    assert _distinct_unions(circuits, 2) == [0b111]
    assert _distinct_unions(circuits, 4) == []


# -- bipartite encoding --------------------------------------------------


def test_encode_bipartite_single_set():
    desc = encode_from_oracle(uniform(1, 1), "bases")  # one set {0} over n=1
    encoded = encode_bipartite(desc)
    roles = encoded.roles
    core = [v for v, role in roles.items() if role in ("set", "element")]
    assert len(core) == 2
    graph = encoded_graph(encoded)
    assert graph.has_edge(("s", 0), ("e", 0))
    # triangles only in gadgets: anchor has 3, the set has 1
    tri = nx.triangles(graph)
    assert tri[("anchor",)] == 3
    assert tri[("s", 0)] == 1
    assert tri[("e", 0)] == 0


def test_encode_bipartite_graph_is_built_from_roles_and_edges():
    encoded = encode_bipartite(encode_from_oracle(separation_family("L17", 2), "cyclicflats"))
    g = encoded_graph(encoded)
    assert list(g.nodes) == list(encoded.roles)
    assert g.number_of_edges() == len(encoded.edges)
    assert all(g.has_edge(u, w) for u, w in encoded.edges)


def _encoded_graph(view):
    return encoded_graph(encode_bipartite(encode_from_oracle(view, "bases")))


def test_encode_bipartite_preserves_and_reflects_isomorphism():
    l17 = separation_family("L17", 2)
    moved = relabel(l17, (3, 1, 2, 4, 0))
    pairs = [
        (l17, moved),
        (uniform(2, 4), uniform(2, 4).dual()),
        (uniform(2, 4), uniform(3, 4)),
        (uniform(2, 5), separation_family("L17", 2)),
    ]
    for a, b in pairs:
        direct = isomorphic(a, b) is not None
        graphs = nx.is_isomorphic(_encoded_graph(a), _encoded_graph(b))
        assert direct == graphs, (a, b)


def test_encode_bipartite_rank_gadgets_distinguish_headers():
    # same sets, different header rank -> different graphs
    a = encode_from_oracle(uniform(2, 4), "nsc")
    b = encode_from_oracle(uniform(3, 4), "nsc")
    assert a.sets == b.sets == ()
    assert not nx.is_isomorphic(
        encoded_graph(encode_bipartite(a)), encoded_graph(encode_bipartite(b))
    )


# -- 3-matroid intersection ----------------------------------------------


def test_intersect3_trivial_cases():
    u12 = uniform(1, 2)
    assert intersect3_bruteforce(u12, u12, u12, 1) == 0b01
    assert intersect3_bruteforce(u12, u12, u12, 0) == 0
    assert intersect3_bruteforce(u12, u12, u12, 2) is None
    with pytest.raises(ValueError):
        intersect3_bruteforce(u12, u12, uniform(1, 3), 1)


def test_intersect3_rejects_a_negative_target_on_both_routes():
    u12 = uniform(1, 2)
    bases = encode_from_oracle(u12, "bases")
    with pytest.raises(ValueError, match="negative target size -1"):
        intersect3_bruteforce(u12, u12, u12, -1)
    with pytest.raises(ValueError, match="negative target size -1"):
        intersect3_bases(bases, bases, bases, -1)


def test_intersect3_bases_requires_bases_kind():
    bases = encode_from_oracle(uniform(1, 2), "bases")
    circuits = encode_from_oracle(uniform(1, 2), "circuits")
    with pytest.raises(ValueError):
        intersect3_bases(bases, bases, circuits, 1)


def test_intersect3_bases_agrees_with_bruteforce():
    triples = [
        (uniform(2, 4), uniform(2, 4).dual(), uniform(3, 4)),
        (uniform(1, 3), uniform(2, 3), uniform(3, 3)),
        (separation_family("L17", 2), uniform(2, 5), uniform(3, 5)),
    ]
    for m1, m2, m3 in triples:
        descs = [encode_from_oracle(m, "bases") for m in (m1, m2, m3)]
        for k in range(m1.n + 1):
            brute = intersect3_bruteforce(m1, m2, m3, k)
            via_bases = intersect3_bases(*descs, k)
            assert (brute is None) == (via_bases is None), k
            if via_bases is not None:
                assert via_bases.bit_count() >= k
                for m in (m1, m2, m3):
                    assert m.is_independent(via_bases)


# -- three-dimensional matching ------------------------------------------


def test_parse_3dm():
    ts = parse_3dm("# demo\n3dm s=2\n0 0 0\n1 1 1\n")
    assert ts.s == 2 and ts.triples == ((0, 0, 0), (1, 1, 1))
    with pytest.raises(ValueError):
        parse_3dm("3dm s=2\n0 0\n")
    with pytest.raises(ValueError):
        parse_3dm("")
    with pytest.raises(ValueError):
        TripleSystem(2, ())
    with pytest.raises(ValueError):
        TripleSystem(2, ((0, 0, 2),))


def test_has_matching_examples():
    yes = TripleSystem(2, ((0, 0, 0), (1, 1, 1), (0, 1, 1)))
    assert has_matching(yes) == (0, 1)
    no = TripleSystem(2, ((0, 0, 0), (0, 1, 1)))
    assert has_matching(no) is None
    single = TripleSystem(1, ((0, 0, 0),))
    assert has_matching(single) == (0,)


def test_reduce_3dm_structure():
    ts = TripleSystem(2, ((0, 0, 0), (1, 1, 1), (0, 1, 1)))
    built = reduce_3dm(ts)
    assert built.uncovered == ()
    # dimension 1 groups triples 0, 2 together: the pair is a circuit
    assert built.circuits[0].sets == (0b101,)
    assert len(built.hyperplanes[0].sets) == 2
    # quadratic size bound on the listed data
    t = len(ts.triples)
    for d in built.circuits + built.hyperplanes:
        assert len(d.sets) <= t * t


def test_reduce_3dm_refuses_more_triples_than_the_cap():
    # one matroid element per triple: 25 triples exceed the 24-element cap
    ts = TripleSystem(5, tuple((a, b, (a + b) % 5) for a in range(5) for b in range(5)))
    with pytest.raises(CapacityError, match="^ground set of 25 elements exceeds the cap of 24$"):
        reduce_3dm(ts)


def test_reduce_3dm_reports_uncovered():
    built = reduce_3dm(TripleSystem(2, ((0, 0, 0), (0, 1, 1))))
    assert (0, 1) in built.uncovered  # x_2 of side 1 is in no triple


def test_reduce_3dm_roundtrip_examples():
    cases = [
        (TripleSystem(2, ((0, 0, 0), (1, 1, 1), (0, 1, 1))), True),
        (TripleSystem(2, ((0, 0, 0), (0, 1, 1))), False),
        (TripleSystem(1, ((0, 0, 0),)), True),
    ]
    for ts, expect in cases:
        built = reduce_3dm(ts)
        views = [to_view(d) for d in built.circuits]
        common = intersect3_bruteforce(*views, ts.s)
        assert (has_matching(ts) is not None) == expect
        assert (common is not None) == expect
        hyper_views = [to_view(d) for d in built.hyperplanes]
        assert (intersect3_bruteforce(*hyper_views, ts.s) is not None) == expect


# -- graph problems ------------------------------------------------------


def test_graph_independent_set():
    assert graph_has_independent_set(P3, 2) == (0, 2)
    assert graph_has_independent_set(K3, 2) is None
    assert graph_has_independent_set(K3, 1) == (0,)


def test_subgraph_contains():
    assert subgraph_contains(K3, P3)
    assert not subgraph_contains(P3, K3)
    assert subgraph_contains(K3, K3)


def test_reduce_subgraph_iso_roundtrip():
    cases = [(K3, P3, True), (P3, K3, False), (K3, K3, True)]
    for g, h, expect in cases:
        host, pattern = reduce_subgraph_iso(g, h)
        assert host.kind == pattern.kind == "independent"
        assert subgraph_contains(g, h) == expect
        witness = detect_minor_exhaustive(to_view(host), to_view(pattern))
        assert (witness is not None) == expect


def test_reduce_independent_set_examples():
    desc, target = reduce_independent_set(P3, 2, 3)
    assert target == (3, 2 + 2 * 1)
    assert detect_minor_exhaustive(to_view(desc), uniform(*target)) is not None

    desc, target = reduce_independent_set(K3, 2, 3)
    assert target == (3, 2 + 3 * 1)
    assert detect_minor_exhaustive(to_view(desc), uniform(*target)) is None


def test_reduce_independent_set_rejects_a_negative_target():
    with pytest.raises(ValueError, match="^negative target size -5$"):
        reduce_independent_set(P3, -5, 3)


def test_3dm_text_errors_name_the_line():
    with pytest.raises(ValueError, match=r"^line 1: expected header '3dm s=<s>'"):
        parse_3dm("3dm s=x\n")
    with pytest.raises(ValueError, match=r"^line 3: expected 3 integers"):
        parse_3dm("3dm s=1\n# comment\n0 0 z\n")
