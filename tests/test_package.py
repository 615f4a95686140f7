"""The package surface: every public name, resolved on first access."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import matroidkit

SRC = Path(__file__).resolve().parent.parent / "src"
SUBMODULES = ("bitsets", "conversions", "core", "descriptions", "families", "harness",
              "reductions", "tables")
#: The public names, in order; the 8 submodules are among them.
PUBLIC_NAMES = [
    "CapacityError", "ConversionPlan", "Description", "EDGES", "EncodedBipartiteGraph",
    "ExperimentReport", "FAMILY_TAGS", "KINDS", "MatroidView", "MinorWitness",
    "MultiGraph", "ParseError", "PlanError", "SizeMeasure", "SizeRow",
    "ThreePartitionReduction", "TripleSystem", "ValidationReport", "WORD_BITS",
    "add_loops", "add_parallel", "bicircular", "bitsets", "conversions", "convert",
    "convert_edge", "core", "count_cyclic_flats_vs_bases", "description",
    "descriptions", "detect_minor_exhaustive", "detect_minor_fixed", "direct_sum",
    "elements", "encode_bipartite", "encode_from_oracle", "families", "format_bits",
    "from_elements", "full_mask", "graph_has_independent_set", "harness",
    "has_matching", "intersect3_bases", "intersect3_bruteforce", "isomorphic",
    "masks_of_size", "max_ground", "measure_family", "minor_circuits", "multigraph",
    "parallel_blowup", "parse", "parse_3dm", "parse_bits", "parse_graph", "phi",
    "phi_r", "plan", "reachable", "reduce_3dm", "reduce_independent_set",
    "reduce_subgraph_iso", "reductions", "relabel", "render_csv", "render_table",
    "run_separation_suite", "semantically_equal", "separation_family", "serialize",
    "serialize_graph", "size_of", "subdivide", "subdivision_length",
    "subgraph_contains", "submasks", "tables", "to_view", "uniform", "validate",
    "verify_minor_witness",
]


def _fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    ).stdout


def test_all_lists_the_public_names():
    assert len(PUBLIC_NAMES) == 82
    code = (
        "import json, matroidkit\n"
        "print(json.dumps([matroidkit.__all__, sorted(set(matroidkit.__all__) - set(dir(matroidkit)))]))\n"
    )
    names, undiscoverable = json.loads(_fresh(code))
    assert names == PUBLIC_NAMES
    assert undiscoverable == []  # dir() lists names not resolved yet


def test_star_import_binds_every_public_name():
    code = (
        "import json\n"
        "scope = {}\n"
        "exec('from matroidkit import *', scope)\n"
        "print(json.dumps(sorted(name for name in scope if name != '__builtins__')))\n"
    )
    assert json.loads(_fresh(code)) == PUBLIC_NAMES


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_attribute_resolves_without_a_prior_import(name):
    code = f"import matroidkit; print(matroidkit.{name}.__name__)"
    assert _fresh(code).strip() == f"matroidkit.{name}"


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_is_its_home_module_object(name):
    value = getattr(matroidkit, name)
    if name in SUBMODULES:
        assert isinstance(value, ModuleType) and value.__name__ == f"matroidkit.{name}"
    else:
        homes = [m for m in SUBMODULES if getattr(getattr(matroidkit, m), name, None) is value]
        assert homes, f"{name} is not the object of any submodule"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        matroidkit.no_such_name
