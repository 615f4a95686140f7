"""Shared matroid corpus.

``CORPUS`` holds small matroids (n <= 7) used for the exhaustive
cross-checks; ``MINOR_HOSTS`` adds larger hosts (n <= 9) for the minor
detection equivalence tests.  Views are immutable and memoised, so the
module-level instances are shared across tests.
"""

from functools import lru_cache

import pytest

from matroidkit.bitsets import canonical_order, elements, from_elements, minimal_sets
from matroidkit.core import _survivors
from matroidkit import (
    bicircular,
    direct_sum,
    multigraph,
    parallel_blowup,
    phi,
    separation_family,
    uniform,
)

P3 = multigraph(3, [(0, 1), (1, 2)])
K3 = multigraph(3, [(0, 1), (1, 2), (0, 2)])
K13 = multigraph(4, [(0, 1), (0, 2), (0, 3)])
P4 = multigraph(4, [(0, 1), (1, 2), (2, 3)])
C4 = multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
K3_PLUS_ISOLATED = multigraph(4, [(0, 1), (1, 2), (0, 2)])


@lru_cache(maxsize=None)
def corpus():
    """Name -> view, all with n <= 7."""
    views = {
        "U(0,1)": uniform(0, 1),
        "U(1,1)": uniform(1, 1),
        "U(0,3)": uniform(0, 3),
        "U(1,3)": uniform(1, 3),
        "U(2,3)": uniform(2, 3),
        "U(3,3)": uniform(3, 3),
        "U(2,4)": uniform(2, 4),
        "U(3,4)": uniform(3, 4),
        "U(2,5)": uniform(2, 5),
        "U(3,6)": uniform(3, 6),
        "U(4,7)": uniform(4, 7),
        "U(1,2)+U(1,2)": direct_sum(uniform(1, 2), uniform(1, 2)),
        "loop+U(2,3)": direct_sum(uniform(0, 1), uniform(2, 3)),
        "2U(2,3)": parallel_blowup(uniform(2, 3), 2),
        "L17(2)": separation_family("L17", 2),
        "L18(3)": separation_family("L18", 3),
        "T2(U(3,5))": uniform(3, 5).truncate(2),
        "B(K3+loop)": bicircular(multigraph(3, [(0, 1), (1, 2), (0, 2), (0, 0)])),
        "B(theta)": bicircular(multigraph(2, [(0, 1), (0, 1), (0, 1)])),
    }
    return views


@lru_cache(maxsize=None)
def minor_hosts():
    """Name -> view, hosts for the minor equivalence tests (n <= 9)."""
    views = dict(corpus())
    views.update(
        {
            "Phi(P3)": phi(P3),
            "Phi(K3)": phi(K3),
            "2U(2,4)": parallel_blowup(uniform(2, 4), 2),
            "U(2,9)": uniform(2, 9),
        }
    )
    return views


def minor_circuits(circuits, n, x, y):
    """Circuit-rule minor: keep the circuits that avoid ``y``, then
    contract ``x`` element by element (the circuits of M / e are the
    minimal non-empty members of {C - e}).  Returns the circuit masks,
    re-indexed so that the i-th surviving element becomes element i, in
    canonical order, and the ascending surviving elements.

    Deleting first gives what contracting first would, on any listed
    antichain: the sets inside E - y are closed under subsets, and for
    e in x, C - e lies inside E - y exactly when C does.
    """
    keep = _survivors(n, x, y)
    work = {c for c in circuits if not c & y}
    for e in elements(x):
        bit = 1 << e
        work = minimal_sets({c & ~bit for c in work if c & ~bit})
    pos = {old: i for i, old in enumerate(keep)}
    renamed = {from_elements(pos[e] for e in elements(c)) for c in work}
    return tuple(canonical_order(renamed)), keep


def encoded_graph(encoded):
    """An ``EncodedBipartiteGraph`` as a ``networkx.Graph``, for checks
    against networkx; the library itself never imports networkx."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(encoded.roles)
    g.add_edges_from(encoded.edges)
    return g


def corpus_params():
    return [pytest.param(view, id=name) for name, view in corpus().items()]


def minor_host_params():
    return [pytest.param(view, id=name) for name, view in minor_hosts().items()]
