import pytest

from matroidkit import (
    EDGES,
    KINDS,
    Description,
    PlanError,
    convert,
    convert_edge,
    count_cyclic_flats_vs_bases,
    description,
    direct_sum,
    encode_from_oracle,
    parallel_blowup,
    plan,
    reachable,
    semantically_equal,
    separation_family,
    to_view,
    uniform,
)
from matroidkit.conversions import _RULES, _fundamental_circuits
from matroidkit.tables import family_masks

from conftest import corpus_params


# -- planning ------------------------------------------------------------


def test_edge_count_and_members():
    assert len(EDGES) == 12
    assert ("rank", "spanning") in EDGES
    assert ("hyperplanes", "dephyp") in EDGES


def test_plan_identity_and_paths():
    assert plan("bases", "bases").steps == ()
    route = plan("rank", "dephyp")
    assert [dst for _, dst in route.steps] == [
        "spanning", "bases", "hyperplanes", "dephyp"
    ]
    assert route.describe() == "rank -> spanning -> bases -> hyperplanes -> dephyp"


def test_plan_unreachable_pairs_fall_back():
    assert plan("bases", "rank").exhaustive
    assert plan("circuits", "bases").exhaustive
    assert plan("nsc", "dephyp").exhaustive
    assert not reachable("bases", "rank")
    assert reachable("independent", "hyperplanes")


def test_rank_reaches_everything():
    for kind in ("spanning", "independent", "bases", "flats", "circuits",
                 "hyperplanes", "nsc", "dephyp", "cyclicflats"):
        assert reachable("rank", kind), kind


def _level_bfs(src, dst):
    """Level-by-level search with a parents map and a walk back from
    ``dst``: the planner's earlier form, kept as a reference."""
    if src == dst:
        return ()
    parents = {}
    frontier = [src]
    while frontier and dst not in parents:
        nxt = []
        for kind in frontier:
            for a, b in EDGES:
                if a == kind and b not in parents and b != src:
                    parents[b] = (a, b)
                    nxt.append(b)
        frontier = nxt
    if dst not in parents:
        return None
    steps = []
    kind = dst
    while kind != src:
        steps.append(parents[kind])
        kind = parents[kind][0]
    return tuple(reversed(steps))


@pytest.mark.parametrize("src", KINDS)
def test_plan_matches_the_level_by_level_search(src):
    for dst in KINDS:
        expected = _level_bfs(src, dst)
        route = plan(src, dst)
        if expected is None:
            assert route.exhaustive and route.steps == (), dst
        else:
            assert not route.exhaustive and route.steps == expected, dst


NON_EDGES = [(a, b) for a in KINDS for b in KINDS if (a, b) not in EDGES]


def test_edges_are_the_rule_table():
    assert EDGES == tuple(_RULES)
    assert len(NON_EDGES) == 10 * 10 - 12


# -- edge algorithms -----------------------------------------------------


@pytest.mark.parametrize("view", corpus_params())
@pytest.mark.parametrize("edge", EDGES, ids=lambda e: f"{e[0]}->{e[1]}")
def test_convert_edge_equals_oracle_encoding(view, edge):
    src, dst = edge
    out = convert_edge(encode_from_oracle(view, src), dst)
    assert out == encode_from_oracle(view, dst)


def test_convert_edge_rejects_non_edges():
    d = encode_from_oracle(uniform(2, 3), "bases")
    with pytest.raises(PlanError):
        convert_edge(d, "rank")


@pytest.mark.parametrize("pair", NON_EDGES, ids=lambda e: f"{e[0]}->{e[1]}")
def test_convert_edge_names_every_non_edge(pair):
    src, dst = pair
    d = encode_from_oracle(uniform(2, 3), src)
    with pytest.raises(PlanError, match=f"^{src} -> {dst} is not a lattice edge$"):
        convert_edge(d, dst)


@pytest.mark.parametrize("view", corpus_params())
@pytest.mark.parametrize("edge", EDGES, ids=lambda e: f"{e[0]}->{e[1]}")
def test_each_rule_returns_its_target_kind(view, edge):
    src, dst = edge
    out = _RULES[edge](encode_from_oracle(view, src))
    assert isinstance(out, Description)
    assert (out.kind, out.n) == (dst, view.n)


@pytest.mark.parametrize("view", corpus_params())
@pytest.mark.parametrize("edge", EDGES, ids=lambda e: f"{e[0]}->{e[1]}")
def test_each_rule_builds_what_the_checked_route_builds(view, edge):
    # the rules skip description(); its checks must have nothing to find
    out = _RULES[edge](encode_from_oracle(view, edge[0]))
    assert out == description(out.kind, out.n, out.sets, out.set_ranks, out.r)
    assert all(type(v) is int for v in out.sets + (out.set_ranks or ()))


def test_fundamental_circuits_are_exactly_the_circuits():
    for view in (uniform(2, 4), parallel_blowup(uniform(2, 3), 2)):
        bases = family_masks(view, "bases").tolist()
        assert _fundamental_circuits(bases, view.n) == family_masks(view, "circuits").tolist()


def test_u23_bases_to_circuits():
    d = encode_from_oracle(uniform(2, 3), "bases")
    assert convert_edge(d, "circuits").sets == (0b111,)


# -- full routing --------------------------------------------------------


@pytest.mark.parametrize("view", corpus_params())
def test_convert_routes_match_exhaustive(view):
    for kind in ("bases", "circuits", "dephyp", "cyclicflats"):
        for target in ("nsc", "cyclicflats", "hyperplanes", "rank"):
            src = encode_from_oracle(view, kind)
            out, route = convert(src, target)
            assert out == encode_from_oracle(view, target), (kind, target)
            if not route.exhaustive:
                assert semantically_equal(out, src)


def test_convert_identity():
    d = encode_from_oracle(uniform(2, 3), "bases")
    out, route = convert(d, "bases")
    assert out == d and route.describe() == "identity"


def test_rank_to_dephyp_pipeline_l17():
    view = separation_family("L17", 2)
    d = encode_from_oracle(view, "rank")
    out, route = convert(d, "dephyp")
    assert not route.exhaustive
    assert len(out.sets) == 1  # C(2n-1, n-2) = C(3, 0) at n = 2


def test_bases_to_hyperplanes_l18():
    view = separation_family("L18", 3)
    out, route = convert(encode_from_oracle(view, "bases"), "hyperplanes")
    assert not route.exhaustive
    assert len(out.sets) == 3  # (n^2 - n)/2 at n = 3


# -- cyclic flats vs bases ----------------------------------------------


def test_count_cyclic_flats_vs_bases_examples():
    assert count_cyclic_flats_vs_bases(uniform(2, 4)) == (2, 6)
    assert count_cyclic_flats_vs_bases(
        direct_sum(uniform(1, 2), uniform(1, 2))
    ) == (4, 4)
    assert count_cyclic_flats_vs_bases(uniform(4, 4)) == (1, 1)


@pytest.mark.parametrize("view", corpus_params())
def test_cyclic_flats_never_outnumber_bases(view):
    z, b = count_cyclic_flats_vs_bases(view)
    assert z <= b


@pytest.mark.parametrize("view", corpus_params())
def test_cyclicflats_route_equals_exhaustive(view):
    bases = encode_from_oracle(view, "bases")
    out = convert_edge(bases, "cyclicflats")
    assert out == encode_from_oracle(view, "cyclicflats")
    assert semantically_equal(out, bases)


def test_cyclicflats_rejects_non_matroid_bases():
    # two disjoint bases {0,1} and {2,3}: no basis exchange between them
    desc = description("bases", 4, [0b0011, 0b1100])
    with pytest.raises(ValueError, match=r"exceeds the basis count \(not a matroid\)"):
        convert_edge(desc, "cyclicflats")
    with pytest.raises(ValueError, match=r"exceed bases 2 \(not a matroid\)"):
        count_cyclic_flats_vs_bases(to_view(desc))
