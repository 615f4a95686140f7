"""The package surface: every public name, resolved on first access."""

import contextlib
import inspect
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
    ConversionPlan,
    Description,
    EncodedBipartiteGraph,
    ExperimentReport,
    MinorWitness,
    MultiGraph,
    SizeMeasure,
    SizeRow,
    ThreePartitionReduction,
    TripleSystem,
    ValidationReport,
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
    "masks_of_size", "max_ground", "measure_family", "multigraph",
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
    assert len(PUBLIC_NAMES) == 81
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


def test_import_time_lists_the_modules_a_handler_loads(tmp_path):
    # a handler's ``from . import reductions`` resolves through the
    # package's __getattr__; the import must still show in -X importtime
    host, pattern = tmp_path / "host.txt", tmp_path / "pattern.txt"
    host.write_text("matroid circuits n=3\n111\n")
    pattern.write_text("matroid bases n=2\n10\n01\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "matroidkit.cli", "minor",
         "--host", str(host), "--pattern", str(pattern)],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    listed = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
              if line.startswith("import time:")}
    assert {"matroidkit.reductions", "matroidkit.tables"} <= listed


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
    "multigraph-negative-vertices": (
        lambda: _raised(MultiGraph, -3, ()), "negative vertex count -3"),
    "multigraph-edge-outside": (
        lambda: _raised(lambda: MultiGraph(v=2, edges=((0, 1), (0, 2)))),
        "edge (0, 2) outside 2 vertices"),
    "triple-system-empty": (
        lambda: _raised(TripleSystem, 2, ()), "a triple system needs at least one triple"),
    "triple-system-outside": (
        lambda: _raised(lambda: TripleSystem(s=2, triples=((0, 0, 2),))),
        "triple (0, 0, 2) outside side size 2"),
    "triple-system-short-triple": (
        lambda: _raised(TripleSystem, 2, ((0, 0, 0), (0, 1))), "triple (0, 1) outside side size 2"),
}


@pytest.mark.parametrize("case", MESSAGES)
def test_error_message_text(case):
    get, message = MESSAGES[case]
    assert get() == message


# -- the records -----------------------------------------------------------


_D = Description("bases", 2, (1, 2))
_ROW = SizeRow("L10", 3, "flats", 5, 40, "5", "ok")
#: Each public record: its class, its parameters as ``str(Parameter)``
#: (names, order and defaults), one value per field, another value for
#: its last field, and its repr.
RECORDS = {
    "ConversionPlan": (
        ConversionPlan, "steps, exhaustive=False", [(("bases", "circuits"),), False], True,
        "ConversionPlan(steps=(('bases', 'circuits'),), exhaustive=False)"),
    "Description": (
        Description, "kind, n, sets, set_ranks=None, r=None", ["bases", 2, (1, 2), None, None], 1,
        "Description(kind='bases', n=2, sets=(1, 2), set_ranks=None, r=None)"),
    "SizeMeasure": (
        SizeMeasure, "listed_sets, cells, header_bits", [3, 12, 4], 5,
        "SizeMeasure(listed_sets=3, cells=12, header_bits=4)"),
    "ValidationReport": (
        ValidationReport, "checks", [(("antichain", True, ""),)], (),
        "ValidationReport(checks=(('antichain', True, ''),))"),
    "MultiGraph": (
        MultiGraph, "v, edges", [3, ((0, 1),)], ((1, 2),), "MultiGraph(v=3, edges=((0, 1),))"),
    "SizeRow": (
        SizeRow, "family, n, kind, listed_sets, cells, expected, status",
        ["L10", 3, "flats", 5, 40, "5", "ok"], "mismatch",
        "SizeRow(family='L10', n=3, kind='flats', listed_sets=5, cells=40, expected='5',"
        " status='ok')"),
    "ExperimentReport": (
        ExperimentReport, "family, rows", ["L10", (_ROW,)], (),
        "ExperimentReport(family='L10', rows=(SizeRow(family='L10', n=3, kind='flats',"
        " listed_sets=5, cells=40, expected='5', status='ok'),))"),
    "MinorWitness": (
        MinorWitness, "x, y, iso", [1, 2, (0, 1)], (1, 0), "MinorWitness(x=1, y=2, iso=(0, 1))"),
    "EncodedBipartiteGraph": (
        EncodedBipartiteGraph, "edges, roles",
        [{(("anchor",), ("e", 0))}, {("anchor",): "anchor", ("e", 0): "element"}], {},
        "EncodedBipartiteGraph(edges={(('anchor',), ('e', 0))},"
        " roles={('anchor',): 'anchor', ('e', 0): 'element'})"),
    "TripleSystem": (
        TripleSystem, "s, triples", [1, ((0, 0, 0),)], ((0, 0, 0), (0, 0, 0)),
        "TripleSystem(s=1, triples=((0, 0, 0),))"),
    "ThreePartitionReduction": (
        ThreePartitionReduction, "circuits, hyperplanes, uncovered",
        [(_D,) * 3, (_D,) * 3, ()], ((0, 1),),
        "ThreePartitionReduction(circuits=(" + ", ".join([repr(_D)] * 3) + "), hyperplanes=("
        + ", ".join([repr(_D)] * 3) + "), uncovered=())"),
}


def _fields(cls):
    return [p.name for p in inspect.signature(cls).parameters.values()]


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_equality_and_repr(name):
    cls, parameters, values, other, text = RECORDS[name]
    record = cls(*values)
    params = inspect.signature(cls).parameters.values()
    assert ", ".join(str(p.replace(annotation=inspect.Parameter.empty)) for p in params) == parameters
    assert [getattr(record, f) for f in _fields(cls)] == values
    assert repr(record) == text
    assert record == cls(**dict(zip(_fields(cls), values)))
    assert record != cls(*values[:-1], other)


@pytest.mark.parametrize("name", [name for name in RECORDS if name != "EncodedBipartiteGraph"])
def test_frozen_record_refuses_assignment_and_hashes_its_fields(name):
    cls, _, values, other, _ = RECORDS[name]
    record = cls(*values)
    assert hash(record) == hash(cls(*values))
    for field in _fields(cls):
        with pytest.raises(AttributeError):
            setattr(record, field, other)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert [getattr(record, f) for f in _fields(cls)] == values


def test_the_encoded_graph_is_a_mutable_unhashable_record():
    # encode_bipartite fills the record in place
    record = EncodedBipartiteGraph(set(), {})
    record.edges = {(1, 2)}
    assert record == EncodedBipartiteGraph({(1, 2)}, {})
    with pytest.raises(TypeError):
        hash(record)


def test_the_record_methods_read_their_fields():
    assert ConversionPlan((("bases", "circuits"), ("circuits", "nsc"))).describe() == (
        "bases -> circuits -> nsc")
    assert ConversionPlan((), exhaustive=True).describe() == "exhaustive"
    assert ConversionPlan(()).describe() == "identity"
    report = ValidationReport((("antichain", True, ""), ("matroid", False, "01 and 10")))
    assert not report.ok and report.failures == ("matroid: 01 and 10",)
    assert str(report) == "ok   antichain\nFAIL matroid (01 and 10)"
    g = MultiGraph(3, ((0, 1), (1, 0), (2, 2)))
    assert g.m == 3 and not g.is_simple()
    assert ExperimentReport("L10", (_ROW,)).ok
    assert not ExperimentReport("L10", (_ROW, SizeRow("L10", 4, "flats", 5, 40, "12", "mismatch"))).ok
