"""The package surface: every public name, resolved on first access."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import matroidkit
from matroidkit import (
    add_loops,
    add_parallel,
    description,
    encode_from_oracle,
    intersect3_bases,
    intersect3_bruteforce,
    multigraph,
    parse,
    phi_r,
    subdivide,
    to_view,
    uniform,
)
from matroidkit.cli import main

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


def _raised(call, *args) -> str:
    with pytest.raises(ValueError) as err:
        call(*args)
    return str(err.value)


def _cli_stderr(*argv) -> str:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(list(argv)) == 2
    return err.getvalue()


def _bases(r, n):
    return encode_from_oracle(uniform(r, n), "bases")


#: Error messages that name the fault, each with a call that gives it.
MESSAGES = {
    "parse-header-without-n": (
        lambda: _raised(parse, "matroid bases r=1\n"), "line 1: header is missing n=<n>"),
    "parse-utf8-bytes": (
        lambda: _raised(parse, "matroid bases n=1\n\u0661\n".encode("utf-8")),
        "line 2: bad character '\u0661' in bitstring '\u0661'"),
    "flats-without-ground-set": (
        lambda: _raised(to_view, description("flats", 2, [0b01])),
        "flats description does not list the ground set"),
    "cyclicflats-without-sets": (
        lambda: _raised(to_view, description("cyclicflats", 2, [], [])),
        "cyclic-flats description lists no sets"),
    "flats-rank-unlisted-intersection": (
        lambda: _raised(to_view(description("flats", 2, [0b01, 0b10, 0b11])).rank, 0),
        "flats are not closed under intersection: 00 is an intersection of listed flats"
        " but is not listed"),
    "add-parallel-outside": (
        lambda: _raised(add_parallel, uniform(2, 3), 3),
        "element 3 outside ground set of size 3"),
    "add-loops-negative": (
        lambda: _raised(add_loops, multigraph(2, [(0, 1)]), -1), "per_vertex must be >= 0"),
    "subdivide-zero": (
        lambda: _raised(subdivide, multigraph(2, [(0, 1)]), 0), "path length t must be >= 1"),
    "phi-r-rank-too-high": (
        lambda: _raised(phi_r, multigraph(3, []), 4), "bicircular rank 3 below target rank 4"),
    "intersect3-bruteforce-grounds": (
        lambda: _raised(intersect3_bruteforce, uniform(1, 2), uniform(1, 2), uniform(1, 3), 1),
        "matroids do not share a ground set"),
    "intersect3-bases-grounds": (
        lambda: _raised(intersect3_bases, _bases(1, 2), _bases(1, 3), _bases(1, 2), 1),
        "matroids do not share a ground set"),
    "uniform-rank": (
        lambda: _raised(uniform, 3, 2), "uniform matroid needs 0 <= r <= n, got r=3, n=2"),
    "cli-iso-one-file": (
        lambda: _cli_stderr("iso", "a.txt"), "iso needs two description files (or --encode FILE)\n"),
}


@pytest.mark.parametrize("case", MESSAGES)
def test_error_message_text(case):
    get, message = MESSAGES[case]
    assert get() == message
