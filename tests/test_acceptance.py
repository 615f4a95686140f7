"""Acceptance gate: one test per criterion, each printing a single
pass/fail line on the real terminal (outside pytest's capture)."""

import time
from itertools import combinations, product
from math import comb
from pathlib import Path

import networkx as nx

from matroidkit import (
    EDGES,
    TripleSystem,
    convert_edge,
    count_cyclic_flats_vs_bases,
    description,
    detect_minor_exhaustive,
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
    phi,
    phi_r,
    reduce_3dm,
    relabel,
    separation_family,
    serialize,
    add_loops,
    bicircular,
    to_view,
    uniform,
    verify_minor_witness,
)
from matroidkit.bitsets import from_elements
from matroidkit.tables import classify, family_masks, views_equal

from conftest import C4, K3, K13, K3_PLUS_ISOLATED, P3, P4, corpus, encoded_graph, minor_hosts

GOLDEN = Path(__file__).parent / "golden"


def _verdict(capsys, number: int, label: str, failures):
    status = "PASS" if not failures else "FAIL"
    line = f"{status} criterion {number}: {label}"
    if failures:
        line += f" [{len(failures)} failure(s); first: {failures[0]}]"
    with capsys.disabled():
        print(line, flush=True)
    assert not failures, "\n".join(str(f) for f in failures)


def test_criterion_1_separation_counts(capsys):
    failures = []
    start = time.monotonic()

    def check(label, actual, expected):
        if actual != expected:
            failures.append(f"{label}: got {actual}, stated {expected}")

    for n in range(3, 7):
        fams = classify(separation_family("L10", n))
        check(f"L10 n={n} spanning", int(fams["spanning"].sum()), n + 1)
        check(f"L10 n={n} flats", int(fams["flats"].sum()), 2**n - n)
        fams = classify(separation_family("L11", n))
        check(f"L11 n={n} independent", int(fams["independent"].sum()), n + 1)
        check(f"L11 n={n} spanning", int(fams["spanning"].sum()), 2**n - 1)
        fams = classify(separation_family("L18", n))
        check(f"L18 n={n} hyperplanes", int(fams["hyperplanes"].sum()), (n * n - n) // 2)
        # stated closed form; the exhaustive count is 2^n - n because the
        # empty set is itself a cyclic flat of this family
        check(f"L18 n={n} cyclicflats", int(fams["cyclicflats"].sum()), 2**n - n - 1)
    fams = classify(separation_family("L15", 3))
    check("L15 n=3 nsc", int(fams["nsc"].sum()), 36)
    if int(fams["flats"].sum()) > 32:
        failures.append(f"L15 n=3 flats: {int(fams['flats'].sum())} > 32")
    check("L15 n=4 nsc", int(classify(separation_family("L15", 4))["nsc"].sum()), 280)
    for n in (2, 3):
        fams = classify(separation_family("L17", n))
        check(f"L17 n={n} cyclicflats", int(fams["cyclicflats"].sum()), 3)
        check(f"L17 n={n} dephyp", int(fams["dephyp"].sum()), comb(2 * n - 1, n - 2))
        fams = classify(separation_family("L20", n))
        check(f"L20 n={n} nsc", int(fams["nsc"].sum()), 0)
        check(f"L20 n={n} circuits", int(fams["circuits"].sum()), comb(2 * n, n + 1))

    elapsed = time.monotonic() - start
    if elapsed >= 10:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _verdict(capsys, 1, "separation counts match the stated closed forms", failures)


def test_criterion_2_conversion_lattice_soundness(capsys):
    failures = []
    start = time.monotonic()
    for name, view in corpus().items():
        for src, dst in EDGES:
            source = encode_from_oracle(view, src)
            out = convert_edge(source, dst)
            if out != encode_from_oracle(view, dst):
                failures.append(f"{name} {src}->{dst} wrong output")
            elif not views_equal(to_view(out), view):
                failures.append(f"{name} {src}->{dst} not rank-equal")
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _verdict(capsys, 2, "every lattice-edge conversion is semantically sound", failures)


def test_criterion_3_cyclic_flats_algorithm(capsys):
    failures = []
    for name, view in corpus().items():
        bases = encode_from_oracle(view, "bases")
        try:
            out = convert_edge(bases, "cyclicflats")  # asserts the b(M) bound
        except AssertionError as exc:
            failures.append(f"{name}: working-list bound violated ({exc})")
            continue
        if out != encode_from_oracle(view, "cyclicflats"):
            failures.append(f"{name}: output differs from exhaustive enumeration")
        z, b = count_cyclic_flats_vs_bases(view)
        if z > b:
            failures.append(f"{name}: z={z} > b={b}")
    _verdict(capsys, 3, "cyclic-flats construction stays within the basis count", failures)


def test_criterion_4_minor_detection_equivalence(capsys):
    failures = []
    start = time.monotonic()
    patterns = {
        "U(2,4)": uniform(2, 4),
        "U(3,4)": uniform(3, 4),
        "U(2,3)": uniform(2, 3),
        "Phi(P3)": phi(P3),
    }
    for host_name, host in minor_hosts().items():
        circuits = encode_from_oracle(host, "circuits")
        for pat_name, pattern in patterns.items():
            fixed = detect_minor_fixed(circuits, pattern)
            exhaustive = detect_minor_exhaustive(host, pattern)
            tag = f"{pat_name} in {host_name}"
            if (fixed is None) != (exhaustive is None):
                failures.append(f"{tag}: decisions differ")
                continue
            for algo, w in (("fixed", fixed), ("exhaustive", exhaustive)):
                if w is not None and not verify_minor_witness(host, pattern, w):
                    failures.append(f"{tag}: invalid {algo} witness")
    elapsed = time.monotonic() - start
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    _verdict(capsys, 4, "fixed-pattern minor detection matches the exhaustive oracle",
             failures)


def _partition_bases(triples, s, dim):
    t = len(triples)
    classes = {}
    for i, tr in enumerate(triples):
        classes.setdefault(tr[dim], []).append(i)
    bases = [0]
    for cls in classes.values():
        bases = [b | (1 << i) for b in bases for i in cls]
    return description("bases", t, bases)


def test_criterion_5_three_matroid_intersection_roundtrip(capsys):
    failures = []
    for s in (1, 2, 3):
        all_triples = list(product(range(s), repeat=3))
        for size in range(1, 6):
            if size > len(all_triples):
                break
            for combo in combinations(all_triples, size):
                ts = TripleSystem(s, combo)
                built = reduce_3dm(ts)
                matched = has_matching(ts) is not None
                brute = intersect3_bruteforce(
                    *(to_view(d) for d in built.circuits), s
                )
                via_bases = intersect3_bases(
                    *(_partition_bases(combo, s, d) for d in range(3)), s
                )
                if not (matched == (brute is not None) == (via_bases is not None)):
                    failures.append(
                        f"s={s} triples={combo}: matching={matched}, "
                        f"bruteforce={brute is not None}, bases={via_bases is not None}"
                    )
    _verdict(capsys, 5, "3DM matching iff common independent set, both algorithms",
             failures)


def test_criterion_6_independent_set_roundtrip_r3(capsys):
    failures = []
    start = time.monotonic()
    for v in (3, 4):
        vertex_pairs = list(combinations(range(v), 2))
        for picks in range(1 << len(vertex_pairs)):
            edges = [vertex_pairs[i] for i in range(len(vertex_pairs))
                     if picks >> i & 1]
            g = multigraph(v, edges)
            m = g.m
            host = phi_r(g, 3)
            tag = f"v={v} edges={edges}"
            # every non-spanning circuit is one edge path plus the two
            # endpoint loops (size t+2 = 3)
            expected_nsc = {
                from_elements((k, m + a, m + b))
                for k, (a, b) in enumerate(g.edges)
            }
            if set(family_masks(host, "nsc")) != expected_nsc:
                failures.append(f"{tag}: unexpected non-spanning circuits")
            for k in range(1, v + 1):
                size = k + m  # t = 1 at r = 3
                if size < 3:
                    continue  # rank-3 uniform pattern needs >= 3 elements
                graph_side = graph_has_independent_set(g, k) is not None
                witness = detect_minor_exhaustive(host, uniform(3, size))
                if graph_side != (witness is not None):
                    failures.append(
                        f"{tag} k={k}: graph={graph_side}, minor={witness is not None}"
                    )
                elif witness is not None and not verify_minor_witness(
                    host, uniform(3, size), witness
                ):
                    failures.append(f"{tag} k={k}: invalid witness")
    elapsed = time.monotonic() - start
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    _verdict(capsys, 6, "independent set iff uniform minor of the rank-3 construction",
             failures)


def _all_labeled_graphs(v):
    pairs = list(combinations(range(v), 2))
    out = []
    for picks in range(1 << len(pairs)):
        out.append(multigraph(v, [pairs[i] for i in range(len(pairs))
                                  if picks >> i & 1]))
    return out


def _nx_graph(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.v))
    out.add_edges_from(g.edges)
    return out


def test_criterion_7_isomorphism_properties(capsys):
    failures = []
    graphs3 = _all_labeled_graphs(3)
    phis = [phi(g) for g in graphs3]
    for i, j in combinations(range(len(graphs3)), 2):
        graph_iso = nx.is_isomorphic(_nx_graph(graphs3[i]), _nx_graph(graphs3[j]))
        matroid_iso = isomorphic(phis[i], phis[j]) is not None
        if graph_iso != matroid_iso:
            failures.append(f"3-vertex pair {i},{j}: graph {graph_iso}, "
                            f"matroid {matroid_iso}")

    four_vertex_pairs = [
        (P4, K13, False),
        (P4, K3_PLUS_ISOLATED, False),
        (K13, K3_PLUS_ISOLATED, False),
        (P4, multigraph(4, [(2, 3), (1, 2), (0, 1)]), True),  # relabeled path
        (C4, multigraph(4, [(0, 2), (1, 2), (1, 3), (0, 3)]), True),
    ]
    for a, b, expect in four_vertex_pairs:
        assert nx.is_isomorphic(_nx_graph(a), _nx_graph(b)) == expect
        if (isomorphic(phi(a), phi(b)) is not None) != expect:
            failures.append(f"4-vertex pair {a.edges} vs {b.edges}")

    # the bipartite encoding agrees with the direct checker
    def encoded(view):
        return encoded_graph(encode_bipartite(encode_from_oracle(view, "nsc")))

    for i, j in combinations(range(len(graphs3)), 2):
        direct = isomorphic(phis[i], phis[j]) is not None
        via_graph = nx.vf2pp_is_isomorphic(encoded(phis[i]), encoded(phis[j]))
        if direct != via_graph:
            failures.append(f"encoding disagrees on 3-vertex pair {i},{j}")

    # phi(G) is the doubly-loop-added bicircular matroid truncated to rank 3
    for g in graphs3:
        double = add_loops(g, 2)
        base = bicircular(double).truncate(3)
        perm = [0] * double.m
        for j in range(double.m):
            if j < g.m:
                perm[j] = 2 * g.v + j
            else:
                i, second = divmod(j - g.m, 2)
                perm[j] = i + (g.v if second else 0)
        if not views_equal(relabel(base, perm), phi(g)):
            failures.append(f"truncated bicircular mismatch for edges {g.edges}")
    _verdict(capsys, 7, "graph isomorphism transfers through both encodings", failures)


def test_criterion_8_format_stability(capsys):
    failures = []
    for path in sorted(GOLDEN.glob("*.txt")):
        if "sizes" in path.name:
            continue
        text = path.read_text()
        if serialize(parse(text)) != text:
            failures.append(f"golden {path.name} round trip broken")
    from matroidkit import KINDS

    for name, view in corpus().items():
        for kind in KINDS:
            d = encode_from_oracle(view, kind)
            if parse(serialize(d)) != d:
                failures.append(f"{name} {kind}: parse/serialize not identity")
            if encode_from_oracle(to_view(d), kind) != d:
                failures.append(f"{name} {kind}: decode/encode not idempotent")
    _verdict(capsys, 8, "format round trips are bit-exact and idempotent", failures)
