import contextlib
import io
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from matroidkit import (
    EDGES,
    KINDS,
    detect_minor_exhaustive,
    detect_minor_fixed,
    encode_bipartite,
    encode_from_oracle,
    measure_family,
    parallel_blowup,
    parse,
    parse_graph,
    render_csv,
    render_table,
    run_separation_suite,
    serialize,
    to_view,
    uniform,
)
from matroidkit.bitsets import format_bits
from matroidkit.cli import main
from matroidkit.harness import DEFAULT_RANGES, EXPECTED

GOLDEN = Path(__file__).parent / "golden"


# -- experiment suite ----------------------------------------------------


def test_measure_family_l10_row():
    report = measure_family("L10", 4, 4)
    by_kind = {row.kind: row for row in report.rows}
    assert by_kind["spanning"].listed_sets == 5
    assert by_kind["flats"].listed_sets == 12
    assert by_kind["spanning"].status == "ok"
    assert by_kind["flats"].cells == 12 * 4
    assert report.ok


def test_measure_family_l20_and_l17_rows():
    l20 = {r.kind: r for r in measure_family("L20", 3, 3).rows}
    assert l20["nsc"].listed_sets == 0
    assert l20["circuits"].listed_sets == comb(6, 4) == 15
    l17 = {r.kind: r for r in measure_family("L17", 2, 2).rows}
    assert l17["cyclicflats"].listed_sets == 3
    assert l17["dephyp"].listed_sets == 1


def test_measure_family_l18_formula_mismatch_is_visible():
    # the quoted cyclic-flat closed form undercounts by one (the empty
    # set is a cyclic flat of this family); the suite reports the
    # mismatch instead of adjusting either side
    report = measure_family("L18", 4, 4)
    row = {r.kind: r for r in report.rows}["cyclicflats"]
    assert row.listed_sets == 12
    assert row.expected == "11"
    assert row.status == "mismatch"
    assert not report.ok


def test_measure_family_capacity_rows_are_skipped():
    report = measure_family("L15", 5, 5)  # 27 elements: over the cap
    assert all(row.status == "skipped" for row in report.rows if row.expected)
    assert all(row.listed_sets is None for row in report.rows)
    assert report.ok  # skipped is not a failure


def test_measure_family_input_errors():
    with pytest.raises(ValueError):
        measure_family("L99", 3, 4)
    with pytest.raises(ValueError):
        measure_family("L10", 5, 3)


def test_run_separation_suite_covers_all_families():
    reports = run_separation_suite()
    assert [r.family for r in reports] == list(DEFAULT_RANGES)
    for report in reports:
        lo, hi = DEFAULT_RANGES[report.family]
        assert {row.n for row in report.rows} == set(range(lo, hi + 1))
    checked = {
        (row.family, row.kind)
        for report in reports
        for row in report.rows
        if row.expected
    }
    for family, kinds in EXPECTED.items():
        for kind in kinds:
            assert (family, kind) in checked


def test_render_outputs_are_deterministic_goldens():
    reports = [measure_family("L10", 3, 6)]
    assert render_csv(reports) == (GOLDEN / "l10.sizes.csv").read_text()
    assert render_table(reports) == (GOLDEN / "l10.sizes.table.txt").read_text()


# -- golden description files --------------------------------------------


@pytest.mark.parametrize(
    "name",
    [p.name for p in sorted(GOLDEN.glob("*.txt")) if "sizes" not in p.name],
)
def test_golden_parse_serialize_identity(name):
    text = (GOLDEN / name).read_text()
    assert serialize(parse(text)) == text


def test_golden_u23_bases_content():
    assert (GOLDEN / "u23.bases.txt").read_text() == serialize(
        encode_from_oracle(uniform(2, 3), "bases")
    )


# -- CLI -----------------------------------------------------------------


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_gen_and_convert(tmp_path, capsys):
    out = str(tmp_path / "u23.txt")
    assert main(["gen", "uniform", "2", "3", "--as", "bases", "--out", out]) == 0
    assert main(["convert", "--in", out, "--to", "circuits"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "matroid circuits n=3\n111\n"
    assert "plan: bases -> circuits" in captured.err


def test_cli_convert_force_exhaustive(tmp_path, capsys):
    f = _write(tmp_path, "c.txt", "matroid circuits n=3\n111\n")
    assert main(["convert", "--in", f, "--to", "bases", "--force-exhaustive"]) == 0
    captured = capsys.readouterr()
    assert "exhaustive" in captured.err
    assert parse(captured.out).kind == "bases"


#: Commands that end in an exhaustive encode; ``{f}`` is a circuits file
#: of U(3,6).  The rank listing has two-digit ranks and spans blocks.
EXHAUSTIVE_COMMANDS = {
    "gen": "gen uniform 10 11 --as rank",
    "convert-planned": "convert --in {f} --to bases",
    "convert-forced": "convert --in {f} --to cyclicflats --force-exhaustive",
}


@pytest.mark.parametrize("name", EXHAUSTIVE_COMMANDS)
def test_exhaustive_encodes_write_the_same_text_everywhere(tmp_path, name):
    circuits = serialize(encode_from_oracle(uniform(3, 6), "circuits"))
    argv = EXHAUSTIVE_COMMANDS[name].format(f=_write(tmp_path, "u36.txt", circuits)).split()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.run(
        [sys.executable, "-m", "matroidkit.cli", *argv], env=env, capture_output=True,
        timeout=60, check=True,
    )
    # a redirected stdout, as under perfbench's trace, has no .buffer
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 0
    assert out.getvalue().encode() == child.stdout
    assert err.getvalue().encode() == child.stderr
    target = tmp_path / "out.txt"
    with contextlib.redirect_stderr(io.StringIO()):
        assert main([*argv, "--out", str(target)]) == 0
    assert target.read_bytes() == child.stdout


def test_cli_validate(tmp_path, capsys):
    good = _write(tmp_path, "good.txt", "matroid bases n=3\n110\n101\n011\n")
    assert main(["validate", good]) == 0
    bad = _write(tmp_path, "bad.txt", "matroid bases n=3\n100\n011\n")
    assert main(["validate", bad]) == 3
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("kind", KINDS)
def test_cli_round_trips_the_empty_ground_set(tmp_path, capsys, kind):
    # at n = 0 the empty set is written as a blank line
    desc = encode_from_oracle(uniform(0, 0), kind)
    path = tmp_path / f"{kind}.txt"
    assert main(["gen", "uniform", "0", "0", "--as", kind, "--out", str(path)]) == 0
    assert path.read_text() == serialize(desc)
    assert parse(serialize(desc)) == desc
    assert main(["validate", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_cli_minor(tmp_path, capsys):
    host = str(tmp_path / "host.txt")
    pattern = str(tmp_path / "pattern.txt")
    main(["gen", "uniform", "2", "5", "--as", "circuits", "--out", host])
    main(["gen", "uniform", "2", "4", "--as", "circuits", "--out", pattern])
    assert main(["minor", "--host", host, "--pattern", pattern]) == 0
    assert "contract" in capsys.readouterr().out
    assert main(
        ["minor", "--host", pattern, "--pattern", host, "--strict"]
    ) == 1
    assert "none" in capsys.readouterr().out
    assert main(
        ["minor", "--host", host, "--pattern", pattern, "--algorithm", "exhaustive"]
    ) == 0


def test_cli_minor_converts_foreign_host_kinds(tmp_path, capsys):
    host = str(tmp_path / "host.txt")
    pattern = str(tmp_path / "pattern.txt")
    main(["gen", "uniform", "2", "5", "--as", "bases", "--out", host])
    main(["gen", "uniform", "2", "4", "--as", "circuits", "--out", pattern])
    assert main(["minor", "--host", host, "--pattern", pattern]) == 0
    assert "converted to circuits" in capsys.readouterr().err


def test_cli_iso(tmp_path, capsys):
    a = str(tmp_path / "a.txt")
    b = str(tmp_path / "b.txt")
    main(["gen", "uniform", "2", "4", "--as", "bases", "--out", a])
    main(["gen", "uniform", "3", "4", "--as", "bases", "--out", b])
    assert main(["iso", a, a]) == 0
    assert "map" in capsys.readouterr().out
    assert main(["iso", a, b, "--strict"]) == 1
    assert "not isomorphic" in capsys.readouterr().out


def test_cli_iso_encode(tmp_path, capsys):
    a = str(tmp_path / "a.txt")
    main(["gen", "uniform", "1", "1", "--as", "bases", "--out", a])
    assert main(["iso", "--encode", a]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph n=")


@pytest.mark.parametrize("kind", ["cyclicflats", "nsc"])
def test_cli_iso_encode_prints_every_vertex_and_edge(tmp_path, capsys, kind):
    # one kind with per-set ranks, one with a header rank
    desc = encode_from_oracle(uniform(2, 4), kind)
    f = _write(tmp_path, f"u24.{kind}.txt", serialize(desc))
    assert main(["iso", "--encode", f]) == 0
    g = parse_graph(capsys.readouterr().out)
    encoded = encode_bipartite(desc)
    assert (g.v, g.m) == (len(encoded.roles), len(encoded.edges))
    assert list(g.edges) == sorted(g.edges)


#: Integer arguments that plain ``int`` accepts and the CLI refuses.
LOOSE_ARGUMENTS = [
    ["gen", "uniform", "1", "\u0663"],
    ["gen", "uniform", "+1", "3"],
    ["gen", "uniform", "1", "3_0"],
    ["gen", "family", "L10", "+3"],
    ["gen", "phir", "g.txt", "\u0662"],
    ["intersect3", "m.txt", "m.txt", "m.txt", "-k", "+1"],
    ["reduce", "indepset", "g.txt", "-k", "1_0"],
    ["reduce", "indepset", "g.txt", "-k", "1", "-r", "+3"],
]


@pytest.mark.parametrize("argv", LOOSE_ARGUMENTS, ids=" ".join)
def test_cli_reads_integer_arguments_strictly(tmp_path, capsys, argv):
    out = ["--out-prefix", str(tmp_path / "r")] if argv[0] == "reduce" else []
    out += ["--out", str(tmp_path / "o.txt")] if argv[0] == "gen" else []
    with pytest.raises(SystemExit) as stop:
        main(argv + out)
    assert stop.value.code == 2
    assert capsys.readouterr().out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("span", ["..3", "+3..\u0663", "3_0", "2..x", "3..+4"])
def test_cli_reads_the_size_range_strictly(capsys, span):
    assert main(["sizes", "--family", "L10", "--n-range", span]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad --n-range {span!r}, expected A..B\n"


def test_cli_intersect3(tmp_path, capsys):
    f = str(tmp_path / "m.txt")
    main(["gen", "uniform", "1", "2", "--as", "bases", "--out", f])
    assert main(["intersect3", f, f, f, "-k", "1", "--algorithm", "bases"]) == 0
    assert capsys.readouterr().out.strip() == "10"
    assert main(["intersect3", f, f, f, "-k", "2", "--strict"]) == 1


@pytest.mark.parametrize("algorithm", ["bases", "exhaustive"])
def test_cli_intersect3_negative_target_is_an_input_error(tmp_path, capsys, algorithm):
    f = str(tmp_path / "m.txt")
    main(["gen", "uniform", "1", "2", "--as", "bases", "--out", f])
    assert main(["intersect3", f, f, f, "-k", "-1", "--algorithm", algorithm]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: negative target size -1\n"


def test_cli_reduce_3dm(tmp_path, capsys):
    f = _write(tmp_path, "ts.txt", "3dm s=2\n0 0 0\n1 1 1\n0 1 1\n")
    prefix = str(tmp_path / "out")
    assert main(["reduce", "3dm", f, "--verify", "--out-prefix", prefix]) == 0
    assert "round trip: ok" in capsys.readouterr().out
    assert parse((tmp_path / "out.m1.circuits.txt").read_text()).kind == "circuits"
    assert parse((tmp_path / "out.m1.hyperplanes.txt").read_text()).kind == "hyperplanes"


def test_cli_reduce_3dm_refuses_more_triples_than_the_cap(tmp_path, capsys):
    lines = [f"{a} {b} {(a + b) % 5}" for a in range(5) for b in range(5)]
    f = _write(tmp_path, "ts.txt", "3dm s=5\n" + "\n".join(lines) + "\n")
    prefix = str(tmp_path / "out")
    assert main(["reduce", "3dm", f, "--verify", "--out-prefix", prefix]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ground set of 25 elements exceeds the cap of 24\n"
    assert not list(tmp_path.glob("out.*"))


def test_cli_reduce_subgraph_and_indepset(tmp_path, capsys):
    g = _write(tmp_path, "g.txt", "graph n=3\n0 1\n1 2\n0 2\n")
    h = _write(tmp_path, "h.txt", "graph n=3\n0 1\n1 2\n")
    prefix = str(tmp_path / "sub")
    assert main(["reduce", "subgraph", g, h, "--verify", "--out-prefix", prefix]) == 0
    assert "round trip: ok" in capsys.readouterr().out
    prefix2 = str(tmp_path / "ind")
    assert main(
        ["reduce", "indepset", h, "-k", "2", "-r", "3", "--verify",
         "--out-prefix", prefix2]
    ) == 0
    out = capsys.readouterr().out
    assert "target: uniform rank 3 size 4" in out
    assert "round trip: ok" in out


@pytest.mark.parametrize("verify", [[], ["--verify"]], ids=["plain", "verify"])
def test_cli_reduce_indepset_negative_target_is_an_input_error(tmp_path, capsys, verify):
    g = _write(tmp_path, "g.txt", "graph n=3\n0 1\n1 2\n")
    prefix = str(tmp_path / "ind")
    argv = ["reduce", "indepset", g, "-k", "-5", *verify, "--out-prefix", prefix]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: negative target size -5\n"
    assert not list(tmp_path.glob("ind.*"))


def test_cli_sizes(capsys):
    assert main(["sizes", "--family", "L10", "--n-range", "3..6", "--csv"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "l10.sizes.csv").read_text()
    assert main(["sizes", "--family", "L10", "--n-range", "3..6"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "l10.sizes.table.txt").read_text()


def test_cli_error_paths(tmp_path, capsys):
    assert main(["convert", "--in", str(tmp_path / "missing.txt"), "--to", "bases"]) == 2
    assert "error:" in capsys.readouterr().err
    bad = _write(tmp_path, "bad.txt", "not a matroid\n")
    assert main(["validate", bad]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_cli_gen_bicircular_refuses_a_negative_vertex_count(tmp_path, capsys):
    f = _write(tmp_path, "neg.graph", "graph n=-3\n")
    assert main(["gen", "bicircular", f]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: negative vertex count -3\n"


@pytest.mark.parametrize("kind", ["rank", "cyclicflats"])
def test_cli_names_the_line_of_an_out_of_range_set_rank(tmp_path, capsys, kind):
    f = _write(tmp_path, "ranks.txt", f"matroid {kind} n=1\n0:0\n1:5\n")
    assert main(["validate", f]) == 2
    assert capsys.readouterr().err == "error: line 3: set rank 5 outside [0, 1]\n"


def test_cli_flats_not_intersection_closed(tmp_path, capsys):
    # 110 and 011 meet in 010, which is not listed
    f = _write(tmp_path, "flats.txt", "matroid flats n=3\n110\n011\n111\n")
    assert main(["convert", "--in", f, "--to", "bases"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: flats are not closed under intersection: 010")
    assert main(["validate", f]) == 3
    out = capsys.readouterr().out
    assert "FAIL flats-intersection-closed" in out
    assert "FAIL round-trip (decoding failed: flats are not closed under intersection: 010" in out


@pytest.mark.parametrize(
    "side",
    [
        ("3dm", "has_matching", lambda ts: None),
        ("subgraph", "subgraph_contains", lambda g, h: False),
        ("indepset", "graph_has_independent_set", lambda g, k: None),
    ],
    ids=lambda side: side[0],
)
def test_cli_reduce_round_trip_mismatch_exits_4(tmp_path, capsys, monkeypatch, side):
    problem, graph_side, answer = side
    monkeypatch.setattr(f"matroidkit.reductions.{graph_side}", answer)
    ts = _write(tmp_path, "ts.txt", "3dm s=2\n0 0 0\n1 1 1\n0 1 1\n")
    g = _write(tmp_path, "g.txt", "graph n=3\n0 1\n1 2\n0 2\n")
    h = _write(tmp_path, "h.txt", "graph n=3\n0 1\n1 2\n")
    inputs = {
        "3dm": [ts],
        "subgraph": [g, h],
        "indepset": [h, "-k", "2", "-r", "3"],
    }[problem]
    prefix = str(tmp_path / "out")
    argv = ["reduce", problem, *inputs, "--verify", "--out-prefix", prefix]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert "round trip: FAILED" in captured.err
    assert "round trip: ok" not in captured.out


def test_cli_import_leaves_networkx_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, matroidkit.cli; print('networkx' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert out.stdout.strip() == "False"


#: Non-matroids whose listed sets pass every shape check of their kind.
NON_MATROIDS = {
    "elimination": "matroid circuits n=3\n110\n011\n",
    "exchange": "matroid spanning n=4\n" + "".join(
        f"{m:04b}"[::-1] + "\n"
        for m in range(16)
        if m & 0b0011 == 0b0011 or m & 0b1100 == 0b1100
    ),
}


@pytest.mark.parametrize("name", sorted(NON_MATROIDS))
def test_cli_validate_rejects_non_matroids(tmp_path, capsys, name):
    f = _write(tmp_path, f"{name}.txt", NON_MATROIDS[name])
    assert main(["validate", f]) == 3
    assert "FAIL matroid-exchange" in capsys.readouterr().out


def test_cli_validate_rejects_non_matroid_without_asserts(tmp_path):
    # under -O every assert is stripped; validate must still exit 3
    f = _write(tmp_path, "elimination.txt", NON_MATROIDS["elimination"])
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-O", "-m", "matroidkit.cli", "validate", f],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 3, out.stderr
    assert "FAIL matroid-exchange" in out.stdout


DISJOINT_BASES = "matroid bases n=4\n1100\n0011\n"


def test_cli_convert_cyclicflats_rejects_non_matroid_bases(tmp_path, capsys):
    f = _write(tmp_path, "disjoint.txt", DISJOINT_BASES)
    assert main(["convert", "--in", f, "--to", "cyclicflats"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "(not a matroid)" in err


def test_cli_convert_cyclicflats_rejects_non_matroid_without_asserts(tmp_path):
    # under -O every assert is stripped; the error must not depend on one
    f = _write(tmp_path, "disjoint.txt", DISJOINT_BASES)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-O", "-m", "matroidkit.cli", "convert", "--in", f,
         "--to", "cyclicflats"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: ") and "(not a matroid)" in out.stderr


#: Free patterns on a matroid host and on a non-matroid one.
FREE_PATTERN_CASES = {
    "empty-pattern": (serialize(encode_from_oracle(uniform(2, 4), "circuits")),
                      "matroid circuits n=0\n", "contract 0000\ndelete   1111\nmap \n"),
    "non-matroid-host": ("matroid circuits n=3\n110\n101\n", "matroid circuits n=2\n",
                         "contract 000\ndelete   100\nmap 0->0 1->1\n"),
}


@pytest.mark.parametrize("name", sorted(FREE_PATTERN_CASES))
def test_cli_minor_free_pattern_witness(tmp_path, capsys, name):
    host_text, pattern_text, want = FREE_PATTERN_CASES[name]
    host = _write(tmp_path, "host.txt", host_text)
    pattern = _write(tmp_path, "pattern.txt", pattern_text)
    assert main(["minor", "--host", host, "--pattern", pattern]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("kind", ["cyclicflats", "dephyp"])
def test_cli_iso_encode_leaves_networkx_unloaded(tmp_path, kind):
    f = _write(tmp_path, f"u24.{kind}.txt", serialize(encode_from_oracle(uniform(2, 4), kind)))
    out_file = tmp_path / "encoded.txt"
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys; from matroidkit.cli import main; "
        "code = main(['iso', '--encode', sys.argv[1], '--out', sys.argv[2]]); "
        "print(code, 'networkx' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code, f, str(out_file)], env=env, capture_output=True,
        text=True, timeout=60, check=True,
    )
    assert out.stdout.split() == ["0", "False"]
    assert out_file.read_text().startswith("graph n=")


# -- start-up: each command loads what it runs, on one thread -------------


SRC = Path(__file__).resolve().parent.parent / "src"
#: Runs ``main(sys.argv[1:])`` in a fresh interpreter and prints, as its
#: last line, the exit code, the matroidkit modules loaded, the value of
#: OPENBLAS_NUM_THREADS and the thread count (None without /proc).
RUN_MAIN = (
    "import json, os, sys\n"
    "from matroidkit.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "task = '/proc/self/task'\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('matroidkit')),\n"
    "    os.environ.get('OPENBLAS_NUM_THREADS'),\n"
    "    len(os.listdir(task)) if os.path.isdir(task) else None]))\n"
)


def _fresh(code: str, *args: str, blas_threads=None) -> str:
    """Stdout of ``python -c code args`` with ``src`` on the path and
    OPENBLAS_NUM_THREADS set to ``blas_threads`` (unset for None)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    ).stdout


def _fresh_main(*argv: str, blas_threads=None):
    return json.loads(_fresh(RUN_MAIN, *argv, blas_threads=blas_threads).splitlines()[-1])


@pytest.mark.parametrize("module", ["matroidkit", "matroidkit.cli", "matroidkit.conversions",
                                    "matroidkit.descriptions", "matroidkit.core",
                                    "matroidkit.families", "matroidkit.reductions"])
def test_import_leaves_numpy_unloaded(module):
    code = f"import sys, {module}; print('numpy' in sys.modules)"
    assert _fresh(code).strip() == "False"


@pytest.mark.parametrize("command", ["convert", "validate", "gen-uniform"])
def test_cli_command_leaves_search_and_harness_unloaded(tmp_path, command):
    f = _write(tmp_path, "u24.txt", serialize(encode_from_oracle(uniform(2, 4), "bases")))
    argv = {
        "convert": ["convert", "--in", f, "--to", "circuits", "--out", str(tmp_path / "c.txt")],
        "validate": ["validate", f],
        "gen-uniform": ["gen", "uniform", "2", "4", "--out", str(tmp_path / "g.txt")],
    }[command]
    code, modules, _, _ = _fresh_main(*argv)
    assert code == 0
    assert "matroidkit.descriptions" in modules
    assert not {"matroidkit.reductions", "matroidkit.harness"} & set(modules)


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_cli_main_sets_one_blas_thread_unless_set(tmp_path, preset, expected):
    out = str(tmp_path / "g.txt")
    _, _, value, _ = _fresh_main("gen", "uniform", "2", "4", "--out", out, blas_threads=preset)
    assert value == expected


def test_plain_import_leaves_the_blas_setting_alone():
    code = "import os, matroidkit.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert _fresh(code).strip() == "None"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_command_runs_on_one_thread(tmp_path):
    # numpy is loaded by the command; OpenBLAS must start no worker
    out = str(tmp_path / "g.txt")
    code, modules, _, threads = _fresh_main("gen", "uniform", "2", "4", "--out", out)
    assert code == 0 and "matroidkit.tables" in modules
    assert threads == 1


#: Runs ``main(sys.argv[2:])`` in a fresh interpreter in which the module
#: named by ``sys.argv[1]``, if any, is unimportable, and prints as its
#: last stderr line the exit code and whether numpy loaded.
BLOCKED_MAIN = (
    "import json, sys\n"
    "if sys.argv[1]:\n"
    "    sys.modules[sys.argv[1]] = None\n"
    "from matroidkit.cli import main\n"
    "code = main(sys.argv[2:])\n"
    "sys.stdout.flush()\n"
    "print(json.dumps([code, sys.modules.get('numpy') is not None]), file=sys.stderr)\n"
)


def _blocked_main(blocked: str, *argv: str):
    """(exit code, stdout, stderr lines, whether numpy loaded) of
    ``main(argv)`` in a fresh interpreter where the module ``blocked``,
    unless empty, cannot be imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", BLOCKED_MAIN, blocked, *argv], env=env, capture_output=True,
        text=True, timeout=60, check=True,
    )
    *err, last = out.stderr.splitlines()
    code, numpy_loaded = json.loads(last)
    return code, out.stdout, err, numpy_loaded


#: A ``convert`` along each lattice edge, then a ``validate``: (input kind,
#: command, whether it loads numpy).  Validate's table checks load it;
#: the twelve pure-Python rules do not.
STARTUP_COMMANDS = [
    pytest.param(src, ["convert", "--to", dst, "--in"], False, id=f"{src}->{dst}")
    for src, dst in EDGES
] + [pytest.param("bases", ["validate"], True, id="validate")]


@pytest.mark.parametrize("kind, command, loads_numpy", STARTUP_COMMANDS)
def test_only_array_commands_load_numpy(tmp_path, kind, command, loads_numpy):
    # 2U(2,3) has parallel pairs, so every listed kind is non-empty
    desc = encode_from_oracle(parallel_blowup(uniform(2, 3), 2), kind)
    argv = [*command, _write(tmp_path, f"{kind}.txt", serialize(desc))]
    code, out, err, loaded = _blocked_main("", *argv)
    assert code == 0 and out
    assert loaded == loads_numpy
    if not loads_numpy:
        # any numpy import on the way would raise ImportError here
        assert _blocked_main("numpy", *argv) == (code, out, err, False)
        assert err == [f"plan: {kind} -> {command[2]}"]


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    for r, n, kind in [(2, 5, "bases"), (2, 5, "circuits"), (2, 4, "circuits"), (3, 5, "bases"),
                       (2, 10, "rank"), (2, 5, "hyperplanes"), (2, 16, "circuits")]:
        (d / f"u{r}{n}.{kind}.txt").write_text(serialize(encode_from_oracle(uniform(r, n), kind)))
    (d / "k3.graph").write_text("graph n=3\n0 1\n1 2\n0 2\n")
    (d / "p3.graph").write_text("graph n=3\n0 1\n1 2\n")
    (d / "ts.3dm").write_text("3dm s=2\n0 0 0\n1 1 1\n0 1 1\n")
    return d


#: One small run of every subcommand; ``{d}`` is the inputs directory.
SUBCOMMANDS = {
    "convert": "convert --in {d}/u25.bases.txt --to hyperplanes",
    "validate": "validate {d}/u25.bases.txt",
    "gen": "gen phi {d}/k3.graph --as nsc",
    "minor": "minor --host {d}/u25.circuits.txt --pattern {d}/u24.circuits.txt",
    "iso": "iso {d}/u25.bases.txt {d}/u25.bases.txt",
    "iso-encode": "iso --encode {d}/u24.circuits.txt",
    "intersect3": "intersect3 {d}/u25.bases.txt {d}/u25.bases.txt {d}/u25.bases.txt -k 2",
    "reduce-3dm": "reduce 3dm {d}/ts.3dm --verify --out-prefix {d}/r3",
    "reduce-subgraph": "reduce subgraph {d}/k3.graph {d}/p3.graph --verify --out-prefix {d}/rs",
    "sizes": "sizes --family L10 --n-range 3..4 --csv",
}


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_every_subcommand_runs_without_networkx(small_inputs, name):
    # networkx is a test dependency only
    argv = SUBCOMMANDS[name].format(d=small_inputs).split()
    code, out, _, _ = _blocked_main("", *argv)
    assert code == 0 and out
    assert _blocked_main("networkx", *argv)[:2] == (code, out)


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_no_subcommand_imports_dataclasses(small_inputs, name):
    # the records are named tuples or slotted classes; with dataclasses
    # unimportable, any import of it on the way would end the run
    argv = SUBCOMMANDS[name].format(d=small_inputs).split()
    assert _blocked_main("dataclasses", *argv) == _blocked_main("", *argv)


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_no_subcommand_imports_numpy_ma(small_inputs, name):
    # np.unique loads numpy.ma, about 10 ms of start-up, on first use;
    # with numpy.ma unimportable, any such call would end the run
    argv = SUBCOMMANDS[name].format(d=small_inputs).split()
    code, out, _, _ = _blocked_main("numpy.ma", *argv)
    assert code == 0 and out


#: The search commands that the ``search`` benchmark workload runs, with
#: whether each builds rank tables and so loads numpy; ``{d}`` is the
#: inputs directory.  The listed-data commands (the graph encoding,
#: intersect3 over bases lists, the 3DM reduction and its brute-force
#: check, iso of short listings, minor of small listings) load no numpy.
#: A minor on 16 elements is past the rule of ``reductions.minor_route``.
SEARCH_COMMANDS = {
    "iso-encode": ("iso --encode {d}/u24.circuits.txt", False),
    "intersect3-bases": (
        "intersect3 {d}/u25.bases.txt {d}/u25.bases.txt {d}/u25.bases.txt -k 2"
        " --algorithm bases", False),
    "intersect3-bases-none": (
        "intersect3 {d}/u25.bases.txt {d}/u25.bases.txt {d}/u25.bases.txt -k 3"
        " --algorithm bases", False),
    "intersect3-exhaustive": (
        "intersect3 {d}/u25.bases.txt {d}/u25.bases.txt {d}/u25.bases.txt -k 2"
        " --algorithm exhaustive", False),
    "intersect3-exhaustive-none": (
        "intersect3 {d}/u25.bases.txt {d}/u25.bases.txt {d}/u25.bases.txt -k 3"
        " --algorithm exhaustive", False),
    "reduce-3dm": ("reduce 3dm {d}/ts.3dm --verify --out-prefix {d}/r3", False),
    "iso": ("iso {d}/u25.bases.txt {d}/u25.bases.txt", False),
    "iso-across-kinds": ("iso {d}/u25.bases.txt {d}/u25.circuits.txt", False),
    "iso-not-isomorphic": ("iso {d}/u25.bases.txt {d}/u35.bases.txt", False),
    "iso-long-listing": ("iso {d}/u210.rank.txt {d}/u210.rank.txt", True),
    "minor": ("minor --host {d}/u25.circuits.txt --pattern {d}/u24.circuits.txt", False),
    "minor-exhaustive": (
        "minor --host {d}/u25.circuits.txt --pattern {d}/u24.circuits.txt"
        " --algorithm exhaustive", False),
    "minor-hyperplanes": ("minor --host {d}/u25.hyperplanes.txt --pattern {d}/u24.circuits.txt", False),
    "minor-past-the-rule": (
        "minor --host {d}/u216.circuits.txt --pattern {d}/u24.circuits.txt", True),
    "reduce-subgraph": (
        "reduce subgraph {d}/k3.graph {d}/p3.graph --verify --out-prefix {d}/rs", True),
    "reduce-indepset": (
        "reduce indepset {d}/p3.graph -k 2 --verify --out-prefix {d}/ri", True),
}


@pytest.mark.parametrize("name", SEARCH_COMMANDS)
def test_only_table_building_search_commands_load_numpy(small_inputs, name):
    command, loads_numpy = SEARCH_COMMANDS[name]
    argv = command.format(d=small_inputs).split()
    code, out, err, loaded = _blocked_main("", *argv)
    assert code == 0 and out
    assert loaded == loads_numpy
    if not loads_numpy:
        # any numpy import on the way would raise ImportError here
        assert _blocked_main("numpy", *argv) == (code, out, err, False)


#: The search commands that build no graph and no family: with
#: ``matroidkit.families`` unimportable each gives the same answer.
FAMILY_FREE_COMMANDS = [
    "intersect3-bases", "intersect3-exhaustive", "reduce-3dm", "minor", "minor-exhaustive",
    "iso", "iso-across-kinds", "iso-not-isomorphic",
]


@pytest.mark.parametrize("name", FAMILY_FREE_COMMANDS)
def test_search_commands_without_graphs_do_not_import_families(small_inputs, name):
    argv = SEARCH_COMMANDS[name][0].format(d=small_inputs).split()
    code, out, _, _ = _blocked_main("", *argv)
    assert code == 0 and out
    assert _blocked_main("matroidkit.families", *argv)[:2] == (code, out)


@pytest.mark.parametrize("command, route", [
    ("iso {d}/u25.bases.txt {d}/u25.bases.txt", "listed bases"),
    ("iso {d}/u25.bases.txt {d}/u25.circuits.txt", "listed circuits after bases -> circuits"),
    ("iso {d}/u210.rank.txt {d}/u210.rank.txt", "table (long listing: 1024 sets at n = 10)"),
    ("iso {d}/u25.circuits.txt {d}/u24.circuits.txt", "none (ground sets differ)"),
])
def test_iso_names_its_route_on_stderr(small_inputs, command, route):
    code, out, err, _ = _blocked_main("", *command.format(d=small_inputs).split())
    assert code == 0 and out
    assert err == [f"route: {route}"]


def _witness_text(w, n):
    """What ``minor`` prints for the witness ``w``."""
    if w is None:
        return "none\n"
    return (f"contract {format_bits(w.x, n)}\ndelete   {format_bits(w.y, n)}\n"
            + "map " + " ".join(f"{i}->{p}" for i, p in enumerate(w.iso)) + "\n")


@pytest.mark.parametrize("host, pattern, algorithm, route", [
    ("u25.circuits", "u24.circuits", "circuits", "listed"),
    ("u25.hyperplanes", "u24.circuits", "circuits", "listed"),
    ("u25.hyperplanes", "u24.circuits", "exhaustive", "listed"),
    ("u216.circuits", "u24.circuits", "circuits",
     "table (listed search estimated at 5,999 ms, n = 16)"),
])
def test_minor_names_its_route_on_stderr(small_inputs, host, pattern, algorithm, route):
    paths = [small_inputs / f"{name}.txt" for name in (host, pattern)]
    code, out, err, loaded = _blocked_main(
        "", "minor", "--host", str(paths[0]), "--pattern", str(paths[1]), "--algorithm", algorithm)
    assert code == 0 and err == [f"route: {route}"] and loaded == (route != "listed")
    # stdout is the witness of the table route
    h, p = (parse(path.read_text()) for path in paths)
    if algorithm == "circuits":
        w = detect_minor_fixed(h, to_view(p))
    else:
        w = detect_minor_exhaustive(to_view(h), to_view(p))
    assert out == _witness_text(w, h.n)
