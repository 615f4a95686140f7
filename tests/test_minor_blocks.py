"""The minor searches take their kept sets in blocks: a block may split
one kept set's contract sets, or pack the contract sets of many kept
sets.  Either way both routes must return the witness of the per-x and
per-union references in ``test_search_oracles``, and the search's peak
memory stays near the block size."""

import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from matroidkit import (
    detect_minor_exhaustive,
    detect_minor_fixed,
    multigraph,
    reduce_subgraph_iso,
    to_view,
)
from matroidkit import reductions, tables

from test_search_oracles import circuit_antichains, minor_exhaustive_per_x, minor_fixed_per_union

#: 2**2 cells split one kept set's contract sets over several blocks;
#: 2**10 cells and the default pack many kept sets into one block.
BLOCK_CELLS = [1 << 2, 1 << 10, reductions._MINOR_CELLS]


@settings(max_examples=150, deadline=None)
@given(circuit_antichains(), st.sampled_from(BLOCK_CELLS))
def test_both_routes_keep_the_reference_witness_at_any_block_size(drawn, cells):
    host, pattern = drawn
    view = to_view(host)
    want_exhaustive = minor_exhaustive_per_x(view, pattern)
    want_fixed = minor_fixed_per_union(host, pattern)
    default = reductions._MINOR_CELLS
    reductions._MINOR_CELLS = cells
    try:
        assert detect_minor_exhaustive(view, pattern) == want_exhaustive
        if want_fixed != "not compared":
            assert detect_minor_fixed(host, pattern) == want_fixed
    finally:
        reductions._MINOR_CELLS = default


def test_exhaustive_peak_on_the_subgraph_no_instance_is_near_the_block():
    # phi of a 5-vertex path (14 elements) has no minor phi of a triangle
    # (9 elements), so all C(14, 9) kept sets are searched; the peak is
    # under eight int64 arrays of the block size, 1 MB at 2**14 cells
    path = multigraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    triangle = multigraph(3, [(0, 1), (1, 2), (0, 2)])
    host, pattern = (to_view(d) for d in reduce_subgraph_iso(path, triangle))
    assert (host.n, pattern.n) == (14, 9)
    tables.rank_table(host)
    tables.rank_table(pattern)
    tracemalloc.start()
    try:
        assert detect_minor_exhaustive(host, pattern) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * reductions._MINOR_CELLS
