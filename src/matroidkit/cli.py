"""Command-line interface.

Subcommands: convert, validate, gen, minor, iso, intersect3, reduce,
sizes.  Exit codes: 0 success; 1 negative decision under --strict;
2 usage or input error; 3 validation failure; 4 a ``reduce --verify``
round trip whose two sides disagree.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# Only numpy-free names at module level: each handler imports the modules
# its subcommand needs, so a command loads no more than it runs.
from . import FAMILY_TAGS, KINDS
from .bitsets import CapacityError, format_bits


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_description(path: str):
    from .descriptions import parse

    return parse(_read(path))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _print_witness(w, n: int) -> None:
    print(f"contract {format_bits(w.x, n)}")
    print(f"delete   {format_bits(w.y, n)}")
    print("map " + " ".join(f"{i}->{p}" for i, p in enumerate(w.iso)))


# -- subcommand handlers -------------------------------------------------


def _cmd_convert(args) -> int:
    from .conversions import convert
    from .descriptions import encode_from_oracle, serialize, to_view

    desc = _load_description(args.infile)
    if args.force_exhaustive:
        out = encode_from_oracle(to_view(desc), args.to)
        print("plan: exhaustive (forced)", file=sys.stderr)
    else:
        out, route = convert(desc, args.to)
        print(f"plan: {route.describe()}", file=sys.stderr)
    _emit(serialize(out), args.out)
    return 0


def _cmd_validate(args) -> int:
    from .descriptions import validate

    report = validate(_load_description(args.file))
    print(report)
    return 0 if report.ok else 3


def _cmd_gen(args) -> int:
    from .descriptions import encode_from_oracle, serialize
    from .families import bicircular, parse_graph, phi, phi_r, separation_family, uniform

    if args.what == "uniform":
        view = uniform(args.r, args.n)
    elif args.what == "family":
        view = separation_family(args.tag, args.n)
    elif args.what == "phi":
        view = phi(parse_graph(_read(args.graph)))
    elif args.what == "phir":
        view = phi_r(parse_graph(_read(args.graph)), args.r)
    else:  # bicircular
        view = bicircular(parse_graph(_read(args.graph)))
    _emit(serialize(encode_from_oracle(view, args.as_kind)), args.out)
    return 0


def _cmd_minor(args) -> int:
    from . import reductions
    from .conversions import convert
    from .descriptions import to_view

    host = _load_description(args.host)
    pattern = to_view(_load_description(args.pattern))
    if args.algorithm == "exhaustive":
        witness = reductions.detect_minor_exhaustive(to_view(host), pattern)
    else:
        if host.kind not in ("circuits", "hyperplanes"):
            host, route = convert(host, "circuits")
            print(f"host converted to circuits: {route.describe()}", file=sys.stderr)
        witness = reductions.detect_minor_fixed(host, pattern)
    if witness is None:
        print("none")
        return 1 if args.strict else 0
    _print_witness(witness, host.n)
    return 0


def _cmd_iso(args) -> int:
    from . import reductions
    from .descriptions import to_view

    if args.encode:
        encoded = reductions.encode_bipartite(_load_description(args.encode))
        nodes = sorted(encoded.roles, key=repr)
        index = {node: i for i, node in enumerate(nodes)}
        lines = [f"graph n={len(nodes)}"]
        for u, w in sorted(
            (min(index[a], index[b]), max(index[a], index[b]))
            for a, b in encoded.edges
        ):
            lines.append(f"{u} {w}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    if not args.a or not args.b:
        print("iso needs two description files (or --encode FILE)", file=sys.stderr)
        return 2
    sigma = reductions.isomorphic(
        to_view(_load_description(args.a)), to_view(_load_description(args.b))
    )
    if sigma is None:
        print("not isomorphic")
        return 1 if args.strict else 0
    print("map " + " ".join(f"{i}->{p}" for i, p in enumerate(sigma)))
    return 0


def _cmd_intersect3(args) -> int:
    from . import reductions
    from .descriptions import to_view

    descs = [_load_description(p) for p in (args.m1, args.m2, args.m3)]
    if args.algorithm == "bases":
        witness = reductions.intersect3_bases(*descs, args.k)
    else:
        witness = reductions.intersect3_bruteforce(
            *(to_view(d) for d in descs), args.k
        )
    if witness is None:
        print("none")
        return 1 if args.strict else 0
    print(format_bits(witness, descs[0].n))
    return 0


def _round_trip(agrees: bool) -> int:
    if not agrees:
        print("round trip: FAILED", file=sys.stderr)
        return 4
    print("round trip: ok")
    return 0


def _cmd_reduce(args) -> int:
    from . import reductions
    from .descriptions import serialize, to_view
    from .families import parse_graph, uniform

    prefix = args.out_prefix
    if args.problem == "3dm":
        ts = reductions.parse_3dm(_read(args.file))
        built = reductions.reduce_3dm(ts)
        for i in range(3):
            _emit(serialize(built.circuits[i]), f"{prefix}.m{i + 1}.circuits.txt")
            _emit(serialize(built.hyperplanes[i]), f"{prefix}.m{i + 1}.hyperplanes.txt")
        for dim, j in built.uncovered:
            print(f"warning: side {dim + 1} element {j} is in no triple", file=sys.stderr)
        if args.verify:
            matching = reductions.has_matching(ts)
            common = reductions.intersect3_bruteforce(
                *(to_view(d) for d in built.circuits), ts.s
            )
            print(f"matching: {'yes' if matching is not None else 'no'}")
            print(f"common independent set of size {ts.s}: "
                  f"{'yes' if common is not None else 'no'}")
            return _round_trip((matching is None) == (common is None))
        return 0
    if args.problem == "subgraph":
        g = parse_graph(_read(args.g))
        h = parse_graph(_read(args.h))
        host, pattern = reductions.reduce_subgraph_iso(g, h)
        _emit(serialize(host), f"{prefix}.host.txt")
        _emit(serialize(pattern), f"{prefix}.pattern.txt")
        if args.verify:
            graph_side = reductions.subgraph_contains(g, h)
            witness = reductions.detect_minor_exhaustive(
                to_view(host), to_view(pattern)
            )
            print(f"subgraph: {'yes' if graph_side else 'no'}")
            print(f"minor: {'yes' if witness is not None else 'no'}")
            return _round_trip(graph_side == (witness is not None))
        return 0
    # indepset
    g = parse_graph(_read(args.graph))
    desc, (r, size) = reductions.reduce_independent_set(g, args.k, args.r)
    _emit(serialize(desc), f"{prefix}.matroid.txt")
    print(f"target: uniform rank {r} size {size}")
    if args.verify:
        graph_side = reductions.graph_has_independent_set(g, args.k)
        witness = reductions.detect_minor_exhaustive(to_view(desc), uniform(r, size))
        print(f"independent set of size {args.k}: "
              f"{'yes' if graph_side is not None else 'no'}")
        print(f"minor: {'yes' if witness is not None else 'no'}")
        return _round_trip((graph_side is None) == (witness is None))
    return 0


def _cmd_sizes(args) -> int:
    from . import harness

    low, _, high = args.n_range.partition("..")
    report = harness.measure_family(args.family, int(low), int(high or low))
    if args.csv:
        sys.stdout.write(harness.render_csv([report]))
    else:
        sys.stdout.write(harness.render_table([report]))
    return 0


# -- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matroidkit", description="Matroid description toolkit."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert a description to another kind")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--to", required=True, choices=KINDS)
    p.add_argument("--out")
    p.add_argument("--force-exhaustive", action="store_true")
    p.set_defaults(handler=_cmd_convert)

    p = sub.add_parser("validate", help="check a description against the axioms")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("gen", help="generate a matroid description")
    gen_sub = p.add_subparsers(dest="what", required=True)
    q = gen_sub.add_parser("uniform")
    q.add_argument("r", type=int)
    q.add_argument("n", type=int)
    q = gen_sub.add_parser("family")
    q.add_argument("tag", choices=FAMILY_TAGS)
    q.add_argument("n", type=int)
    q = gen_sub.add_parser("phi")
    q.add_argument("graph")
    q = gen_sub.add_parser("phir")
    q.add_argument("graph")
    q.add_argument("r", type=int)
    q = gen_sub.add_parser("bicircular")
    q.add_argument("graph")
    for q in gen_sub.choices.values():
        q.add_argument("--as", dest="as_kind", default="bases", choices=KINDS)
        q.add_argument("--out")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("minor", help="search for a pattern minor in a host")
    p.add_argument("--host", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--algorithm", default="circuits", choices=("circuits", "exhaustive"))
    p.add_argument("--strict", action="store_true")
    p.set_defaults(handler=_cmd_minor)

    p = sub.add_parser("iso", help="matroid isomorphism / graph encoding")
    p.add_argument("a", nargs="?")
    p.add_argument("b", nargs="?")
    p.add_argument("--encode", help="emit the bipartite graph encoding of FILE")
    p.add_argument("--out")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(handler=_cmd_iso)

    p = sub.add_parser("intersect3", help="common independent set of three matroids")
    p.add_argument("m1")
    p.add_argument("m2")
    p.add_argument("m3")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--algorithm", default="exhaustive", choices=("bases", "exhaustive"))
    p.add_argument("--strict", action="store_true")
    p.set_defaults(handler=_cmd_intersect3)

    p = sub.add_parser("reduce", help="build hardness-reduction instances")
    red_sub = p.add_subparsers(dest="problem", required=True)
    q = red_sub.add_parser("3dm")
    q.add_argument("file")
    q = red_sub.add_parser("subgraph")
    q.add_argument("g")
    q.add_argument("h")
    q = red_sub.add_parser("indepset")
    q.add_argument("graph")
    q.add_argument("-k", type=int, required=True)
    q.add_argument("-r", type=int, default=3)
    for q in red_sub.choices.values():
        q.add_argument("--verify", action="store_true")
        q.add_argument("--out-prefix", default="reduction")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("sizes", help="description-size experiment tables")
    p.add_argument("--family", required=True, choices=FAMILY_TAGS)
    p.add_argument("--n-range", required=True, help="A..B inclusive")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_sizes)

    return parser


def main(argv=None) -> int:
    # matroidkit makes no BLAS call, but OpenBLAS starts a worker thread
    # per CPU when numpy loads, and an idle worker spins on a CPU for the
    # rest of the command.  Set before any handler loads numpy; a value
    # the caller chose is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
