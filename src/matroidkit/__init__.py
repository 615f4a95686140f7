"""matroidkit: subset-list matroid descriptions, the conversion order
between them, counting families that separate them, and minor /
intersection / isomorphism algorithms checked against exhaustive
oracles.

Importing the package loads none of its modules: each public name is
imported from its home module on first access (PEP 562), so a command
that needs only the text format never pays for numpy, the search
routines or the experiment harness.
"""

import importlib

#: The description kinds and the counting-family tags.  They are the
#: CLI's argument choices, so they live here, where building the parser
#: reads them without loading numpy; ``descriptions`` and ``families``
#: re-export them.
KINDS = (
    "rank",
    "independent",
    "spanning",
    "bases",
    "flats",
    "circuits",
    "hyperplanes",
    "nsc",
    "dephyp",
    "cyclicflats",
)
FAMILY_TAGS = ("L10", "L11", "L15", "L17", "L18", "L20")

#: The public submodules, each with the other public names it is home to.
_HOMES = {
    "bitsets": (
        "WORD_BITS", "CapacityError", "elements", "format_bits", "from_elements",
        "full_mask", "masks_of_size", "max_ground", "parse_bits", "submasks",
    ),
    "core": (
        "MatroidView", "add_parallel", "direct_sum", "minor_circuits",
        "parallel_blowup", "relabel",
    ),
    "descriptions": (
        "Description", "ParseError", "SizeMeasure", "ValidationReport", "description",
        "encode_from_oracle", "parse", "semantically_equal", "serialize", "size_of",
        "to_view", "validate",
    ),
    "conversions": (
        "EDGES", "ConversionPlan", "PlanError", "convert", "convert_edge",
        "count_cyclic_flats_vs_bases", "plan", "reachable",
    ),
    "families": (
        "MultiGraph", "add_loops", "bicircular", "multigraph", "parse_graph", "phi",
        "phi_r", "separation_family", "serialize_graph", "subdivide",
        "subdivision_length", "uniform",
    ),
    "reductions": (
        "EncodedBipartiteGraph", "MinorWitness", "ThreePartitionReduction",
        "TripleSystem", "detect_minor_exhaustive", "detect_minor_fixed",
        "encode_bipartite", "graph_has_independent_set", "has_matching",
        "intersect3_bases", "intersect3_bruteforce", "isomorphic", "parse_3dm",
        "reduce_3dm", "reduce_independent_set", "reduce_subgraph_iso",
        "subgraph_contains", "verify_minor_witness",
    ),
    "harness": (
        "ExperimentReport", "SizeRow", "measure_family", "render_csv", "render_table",
        "run_separation_suite",
    ),
    "tables": (),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(["KINDS", "FAMILY_TAGS", *_HOMES, *_HOME])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOMES:
        # importing a submodule binds it as an attribute of the package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
