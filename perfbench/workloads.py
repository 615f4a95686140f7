"""The three workloads: their input files, commands and expected answers.

Every input is generated here from the workload seed, and every expected
answer is derived from the closed forms in :mod:`matroids` or from the
planted instance, never by calling the matroidkit function being timed.

- ``edges``: one ``convert`` per lattice edge, on listed inputs large
  enough that parsing and the edge algorithm outweigh interpreter
  startup.  Loads ``descriptions.parse``, the ``conversions`` edge
  algorithms and the ``core`` closure queries; builds no ``2^n`` table.
- ``exhaustive``: ``validate``, ``convert`` without a lattice path or
  with ``--force-exhaustive``, ``gen`` up to n=20 and ``sizes``.  Every
  command builds ``2^n`` tables; inputs are small, so parsing is cheap
  and the edge algorithms are idle.
- ``search``: ``iso``, ``minor``, ``intersect3`` and ``reduce --verify``
  on planted yes- and no-instances.  Many tiny rank tables per command,
  backtracking in ``reductions``; the median command is desk-scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from matroids import (
    Expected,
    Listed,
    Matroid,
    bicircular_matroid,
    blowup_rank,
    check_description,
    expect_listed,
    expect_uniform,
    from_elements,
    l15_rank,
    l15_sizes,
    l17_rank,
    l18_sizes,
    listed,
    phi_matroid,
    uniform_family,
    uniform_rank,
)


#: A command running longer than this is killed and counts as failed.
COMMAND_LIMIT_S = 30.0
#: No command starts this long after a run's commands began; the ones
#: left count as failed, so a run ends well within three minutes.
RUN_DEADLINE_S = 120.0


@dataclass
class Outcome:
    """What one command did: exit code (None when killed) and output."""

    code: Optional[int]
    stdout: str
    stderr: str


@dataclass
class Command:
    """One CLI invocation with the check its outcome must pass.

    ``check`` returns None for a correct outcome, else the reason.
    ``known_defect`` names a documented defect that makes this command
    fail at present; such a failure is still counted as failed.
    """

    name: str
    argv: List[str]
    check: Callable[[Outcome], Optional[str]]
    known_defect: Optional[str] = None


@dataclass
class Sample:
    """One execution of a command: its latency, the child's CPU time and
    peak RSS when it ran as a subprocess, and why it failed, if it did."""

    name: str
    seconds: float
    cpu_s: float = 0.0
    max_rss_kb: int = 0
    failure: Optional[str] = None
    known_defect: Optional[str] = None


class Inputs:
    """Writes a workload's input files into its own directory."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> str:
        return str(self.root / name)

    def write(self, name: str, text: str) -> str:
        path = self.root / name
        path.write_text(text, encoding="utf-8")
        return str(path)


# -- checks ----------------------------------------------------------------


def exit_code(want: int, code: Optional[int]) -> Optional[str]:
    if code is None:
        return "killed at its time limit"
    if code != want:
        return f"exit code {code}, expected {want}"
    return None


def prints(want: Expected) -> Callable[[Outcome], Optional[str]]:
    """The command exits 0 and prints exactly the expected description."""
    return lambda out: exit_code(0, out.code) or check_description(out.stdout, want)


def writes(path: str, want: Expected) -> Callable[[Outcome], Optional[str]]:
    def check(out: Outcome) -> Optional[str]:
        bad = exit_code(0, out.code)
        if bad:
            return bad
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            return f"output file missing: {exc}"
        return check_description(text, want)

    return check


def validates(is_matroid: bool) -> Callable[[Outcome], Optional[str]]:
    """A matroid passes every check with exit 0; a non-matroid fails one
    and exits 3."""

    def check(out: Outcome) -> Optional[str]:
        bad = exit_code(0 if is_matroid else 3, out.code)
        if bad:
            return bad
        lines = out.stdout.splitlines()
        failed = [ln for ln in lines if not ln.startswith("ok")]
        if is_matroid and (failed or not lines):
            return f"reported failures on a matroid: {failed[:2]}"
        if not is_matroid and not failed:
            return "reported no failed check on a non-matroid"
        return None

    return check


def parse_map(line: str, n: int) -> Optional[List[int]]:
    """'map 0->p0 1->p1 ...' as a list, or None if malformed."""
    fields = line.split()
    if not fields or fields[0] != "map" or len(fields) != n + 1:
        return None
    sigma = []
    for i, field in enumerate(fields[1:]):
        src, _, dst = field.partition("->")
        if src != str(i) or not dst.isdigit():
            return None
        sigma.append(int(dst))
    return sigma if sorted(sigma) == list(range(n)) else None


def apply_map(mask: int, sigma: Sequence[int]) -> int:
    return from_elements(sigma[e] for e in range(len(sigma)) if mask >> e & 1)


def parse_bitline(line: str, n: int) -> Optional[int]:
    line = line.strip()
    if len(line) != n or line.strip("01"):
        return None
    return int(line[::-1], 2)


# -- seeded structures -----------------------------------------------------


def permutation(rng: random.Random, n: int) -> List[int]:
    return rng.sample(range(n), n)


def random_graph(rng: random.Random, v: int, m: int) -> List[Tuple[int, int]]:
    return sorted(rng.sample(list(combinations(range(v), 2)), m))


def graph_text(v: int, edges) -> str:
    return "\n".join([f"graph n={v}"] + [f"{a} {b}" for a, b in edges]) + "\n"


def degree_sequence(v: int, edges) -> List[int]:
    deg = [0] * v
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return sorted(deg)


def other_degrees(rng: random.Random, v: int, edges) -> List[Tuple[int, int]]:
    """A graph with as many vertices and edges as ``edges`` but another
    degree sequence, hence not isomorphic to it."""
    while True:
        candidate = random_graph(rng, v, len(edges))
        if degree_sequence(v, candidate) != degree_sequence(v, edges):
            return candidate


def l18(n: int) -> Matroid:
    return Matroid(2 * n, blowup_rank(n, 2, n - 1))


# -- edges -----------------------------------------------------------------


def edges_workload(io: Inputs, rng: random.Random) -> List[Command]:
    commands = []

    def convert(name: str, source: Listed, target: str, want: Expected):
        path = io.write(f"{name}.{source.kind}.txt", source.text())
        commands.append(Command(
            f"convert {source.kind}->{target}",
            ["convert", "--in", path, "--to", target],
            prints(want),
        ))

    convert("l10_13", uniform_family("rank", 12, 13), "spanning",
            expect_uniform("spanning", 12, 13))
    convert("l10_13", uniform_family("rank", 12, 13), "independent",
            expect_uniform("independent", 12, 13))
    convert("l11_13", uniform_family("spanning", 1, 13), "bases",
            expect_uniform("bases", 1, 13))
    l10_independent = uniform_family("independent", 11, 12)
    convert("l10_12", l10_independent, "bases", expect_uniform("bases", 11, 12))
    convert("l10_12", l10_independent, "flats", expect_uniform("flats", 11, 12))
    l20_bases = uniform_family("bases", 7, 14)
    convert("l20_7", l20_bases, "circuits", expect_uniform("circuits", 7, 14))
    l18_6 = l18(6).relabelled(permutation(rng, 12))
    convert("l18_6", l18_6.family("bases"), "cyclicflats",
            expect_listed(l18_6.family("cyclicflats")))
    convert("l20_7", l20_bases, "hyperplanes", expect_uniform("hyperplanes", 7, 14))
    l10_flats = uniform_family("flats", 11, 12)
    convert("l10_12", l10_flats, "cyclicflats", expect_uniform("cyclicflats", 11, 12))
    convert("l10_12", l10_flats, "hyperplanes", expect_uniform("hyperplanes", 11, 12))
    convert("l20_7", uniform_family("circuits", 7, 14), "nsc",
            expect_uniform("nsc", 7, 14))
    convert("u6_17", uniform_family("hyperplanes", 6, 17), "dephyp",
            expect_uniform("dephyp", 6, 17))
    return commands


# -- exhaustive ------------------------------------------------------------

#: Two non-matroids that ``validate`` accepts at present; each must be
#: rejected with exit 3.  They stay in the workload so that the defect
#: shows as failed commands until it is fixed.
VALIDATE_DEFECT = "validate accepts this non-matroid (ROADMAP item 3)"


def sizes_table(family: str, low: int, high: int) -> Callable[[Outcome], Optional[str]]:
    """``sizes`` rows against the exhaustive closed forms.  The harness's
    own expected column is only checked for consistency with its status
    column, so its documented L18 cyclic-flats ``mismatch`` row (the
    formula 2^n-n-1 against the true 2^n-n) is a correct output."""
    closed = {"L15": (l15_sizes, lambda n: n * n + 2), "L18": (l18_sizes, lambda n: 2 * n)}
    counts, ground = closed[family]

    def check(out: Outcome) -> Optional[str]:
        bad = exit_code(0, out.code)
        if bad:
            return bad
        rows = [line.split() for line in out.stdout.splitlines()[1:]]
        want = [(n, kind) for n in range(low, high + 1) for kind in counts(n)]
        if [(int(r[1]), r[2]) for r in rows if len(r) == 7] != want or len(rows) != len(want):
            return "rows do not cover every (n, kind) once, in order"
        for fam, n, kind, listed_sets, cells, expected, status in rows:
            n = int(n)
            truth = counts(n)[kind]
            if fam != family or listed_sets != str(truth) or cells != str(truth * ground(n)):
                return f"n={n} {kind}: listed {listed_sets}, cells {cells}, expected {truth}"
            if expected == "-":
                ok = status == "-"
            else:
                bound = int(expected.lstrip("<="))
                holds = truth <= bound if expected.startswith("<=") else truth == bound
                ok = status == ("ok" if holds else "mismatch")
            if not ok:
                return f"n={n} {kind}: status {status!r} contradicts expected {expected!r}"
        return None

    return check


def exhaustive_workload(io: Inputs, rng: random.Random) -> List[Command]:
    commands = []

    def validate(name: str, desc: Listed, is_matroid: bool, defect: Optional[str] = None):
        path = io.write(f"{name}.{desc.kind}.txt", desc.text())
        label = "matroid" if is_matroid else "non-matroid"
        commands.append(Command(
            f"validate {desc.kind} {label} {name}", ["validate", path],
            validates(is_matroid), defect,
        ))

    l15_3 = Matroid(11, l15_rank(3)).relabelled(permutation(rng, 11))
    l17_5 = Matroid(11, l17_rank(5)).relabelled(permutation(rng, 11))
    l17_6 = Matroid(13, l17_rank(6)).relabelled(permutation(rng, 13))
    l18_6 = l18(6).relabelled(permutation(rng, 12))
    l18_7 = l18(7).relabelled(permutation(rng, 14))
    graph = random_graph(rng, 5, 5)
    phi_g = phi_matroid(5, graph).relabelled(permutation(rng, 15))

    validate("l20_5", uniform_family("bases", 5, 10), True)
    validate("l17_6", l17_6.family("circuits"), True)
    validate("l18_7", l18_7.family("flats"), True)
    validate("l18_6", l18_6.family("rank"), True)
    validate("l18_6", l18_6.family("independent"), True)
    validate("l15_3", l15_3.family("spanning"), True)
    validate("l15_3", l15_3.family("hyperplanes"), True)
    validate("phi", phi_g.family("nsc"), True)
    validate("l17_5", l17_5.family("dephyp"), True)
    validate("l18_6", l18_6.family("cyclicflats"), True)
    # circuit elimination fails: no circuit inside {0, 2}
    validate("elimination", listed("circuits", 3, [0b011, 0b110]), False, VALIDATE_DEFECT)
    # basis exchange fails for the minimal spanning sets {0,1} and {2,3}
    spanning = [m for m in range(16) if m & 0b0011 == 0b0011 or m & 0b1100 == 0b1100]
    validate("exchange", listed("spanning", 4, spanning), False, VALIDATE_DEFECT)

    def convert(name: str, source: Listed, target: str, want: Matroid, force=False):
        path = io.write(f"{name}.{source.kind}.txt", source.text())
        argv = ["convert", "--in", path, "--to", target]
        commands.append(Command(
            f"convert {source.kind}->{target}" + (" forced" if force else ""),
            argv + (["--force-exhaustive"] if force else []),
            prints(expect_listed(want.family(target))),
        ))

    convert("l17_6", l17_6.family("circuits"), "bases", l17_6)
    convert("phi", phi_g.family("nsc"), "flats", phi_g)
    convert("l18_6", l18_6.family("bases"), "hyperplanes", l18_6, force=True)

    commands.append(Command(
        "gen L20 n=10 hyperplanes",
        ["gen", "family", "L20", "10", "--as", "hyperplanes"],
        prints(expect_uniform("hyperplanes", 10, 20)),
    ))
    gen_graph = random_graph(rng, 5, 5)
    graph_path = io.write("gen.graph.txt", graph_text(5, gen_graph))
    commands.append(Command(
        "gen phi bases", ["gen", "phi", graph_path, "--as", "bases"],
        prints(expect_listed(phi_matroid(5, gen_graph).family("bases"))),
    ))
    for family, low, high in (("L18", 3, 7), ("L15", 3, 3)):
        commands.append(Command(
            f"sizes {family} {low}..{high}",
            ["sizes", "--family", family, "--n-range", f"{low}..{high}"],
            sizes_table(family, low, high),
        ))
    return commands


# -- search ----------------------------------------------------------------


def maps_onto(a: Matroid, b: Matroid) -> Callable[[Outcome], Optional[str]]:
    """``iso`` printed an isomorphism: a's bases map onto b's."""
    source, want = a.family("bases").sets, set(b.family("bases").sets)

    def check(out: Outcome) -> Optional[str]:
        bad = exit_code(0, out.code)
        if bad:
            return bad
        sigma = parse_map(out.stdout.strip(), a.n)
        if sigma is None:
            return f"no element map in {out.stdout[:80]!r}"
        if {apply_map(m, sigma) for m in source} != want:
            return "the printed map is not an isomorphism"
        return None

    return check


def prints_line(line: str) -> Callable[[Outcome], Optional[str]]:
    return lambda out: exit_code(0, out.code) or (
        None if out.stdout.strip() == line else f"printed {out.stdout[:80]!r}, expected {line!r}"
    )


def encoding_size(desc: Listed) -> Tuple[int, int]:
    """Vertices and edges of matroidkit's bipartite encoding of ``desc``:
    an anchor with three marker triangles joined to every element, one
    vertex with a marker triangle per listed set joined to its elements,
    and per set bit p of a rank value a path of p+1 vertices ending in
    two triangles."""

    def branches(value: int) -> Tuple[int, int]:
        ps = [p for p in range(value.bit_length()) if value >> p & 1]
        return sum(p + 5 for p in ps), sum(p + 7 for p in ps)

    vertices, edges = 1 + desc.n + 6, desc.n + 9
    for value in [desc.r] if desc.r is not None else []:
        bv, be = branches(value)
        vertices, edges = vertices + bv, edges + be
    for i, m in enumerate(desc.sets):
        bv, be = branches(desc.ranks[i]) if desc.ranks else (0, 0)
        vertices += 3 + bv
        edges += m.bit_count() + 3 + be
    return vertices, edges


def encodes(desc: Listed) -> Callable[[Outcome], Optional[str]]:
    vertices, edges = encoding_size(desc)

    def check(out: Outcome) -> Optional[str]:
        bad = exit_code(0, out.code)
        if bad:
            return bad
        lines = out.stdout.splitlines()
        if not lines or lines[0] != f"graph n={vertices}":
            return f"header {lines[:1]!r}, expected 'graph n={vertices}'"
        pairs = [tuple(map(int, ln.split())) for ln in lines[1:]]
        if len(pairs) != edges or len(set(pairs)) != edges:
            return f"{len(pairs)} edge lines, expected {edges} distinct"
        if any(not 0 <= u < w < vertices for u, w in pairs):
            return "edge outside the vertex range or not in order"
        return None

    return check


def minor_rank(host: Matroid, x: int, y: int):
    """Rank function of host / x \\ y with the kept elements renumbered
    in ascending order."""
    keep = [e for e in range(host.n) if not (x | y) >> e & 1]
    rx = host.table[x]
    return len(keep), lambda a: host.table[
        from_elements(keep[i] for i in range(len(keep)) if a >> i & 1) | x
    ] - rx


def finds_minor(host: Matroid, pattern: Optional[Matroid]) -> Callable[[Outcome], Optional[str]]:
    """``minor`` printed a witness that checks out against the closed
    forms, or 'none' when the pattern is absent (``pattern`` None)."""

    def check(out: Outcome) -> Optional[str]:
        bad = exit_code(0, out.code)
        if bad:
            return bad
        lines = out.stdout.splitlines()
        if pattern is None:
            return None if lines == ["none"] else f"printed {lines[:1]!r}, expected none"
        if len(lines) != 3:
            return f"no witness in {out.stdout[:80]!r}"
        x = parse_bitline(lines[0].removeprefix("contract"), host.n)
        y = parse_bitline(lines[1].removeprefix("delete"), host.n)
        sigma = parse_map(lines[2], pattern.n)
        if x is None or y is None or sigma is None or x & y:
            return f"malformed witness {out.stdout[:120]!r}"
        size, rank = minor_rank(host, x, y)
        if size != pattern.n or any(
            rank(a) != pattern.table[apply_map(a, sigma)] for a in range(1 << size)
        ):
            return "the witness minor is not isomorphic to the pattern"
        return None

    return check


def common_independent(ms: Sequence[Matroid]) -> int:
    """Size of a largest set independent in every matroid."""
    return max(
        m.bit_count() for m in range(1 << ms[0].n) if all(x.is_independent(m) for x in ms)
    )


def intersects(ms: Sequence[Matroid], k: int, exact: bool) -> Callable[[Outcome], Optional[str]]:
    """``intersect3`` printed a common independent set of size k (at
    least k when ``exact`` is False), or 'none' when there is none."""
    present = common_independent(ms) >= k

    def check(out: Outcome) -> Optional[str]:
        bad = exit_code(0, out.code)
        if bad:
            return bad
        text = out.stdout.strip()
        if not present:
            return None if text == "none" else f"printed {text[:40]!r}, expected none"
        a = parse_bitline(text, ms[0].n)
        if a is None or not all(m.is_independent(a) for m in ms):
            return f"{text[:40]!r} is not a common independent set"
        size = a.bit_count()
        if size < k or (exact and size != k):
            return f"set of size {size}, expected {'' if exact else 'at least '}{k}"
        return None

    return check


def verifies(lines: Sequence[str], files: Sequence[Tuple[str, Expected]]) -> Callable[[Outcome], Optional[str]]:
    """``reduce --verify`` printed the planted answers and wrote the
    expected instance files."""

    def check(out: Outcome) -> Optional[str]:
        bad = exit_code(0, out.code)
        if bad:
            return bad
        if out.stdout.splitlines() != list(lines):
            return f"printed {out.stdout[:160]!r}, expected {list(lines)!r}"
        for path, want in files:
            bad = writes(path, want)(out)
            if bad:
                return f"{Path(path).name}: {bad}"
        return None

    return check


def planted_3dm(rng: random.Random, s: int, extra: int, solvable: bool):
    """Triples over three sides of size s.  A solvable instance hides a
    perfect matching among random triples.  An unsolvable one covers
    every element, but side-1 elements 0 and 1 only occur in triples
    with side-2 element 0, so no matching can use both."""
    if solvable:
        triples = list(zip(range(s), permutation(rng, s), permutation(rng, s)))
    else:
        triples = [(a, 0, rng.randrange(s)) for a in range(2)]
        triples += [(rng.randrange(2, s), b, c) for b, c in zip(range(s), permutation(rng, s))]
        triples += [(a, rng.randrange(s), rng.randrange(s)) for a in range(2, s)]
    while len(triples) < s + extra:
        a = rng.randrange(s)
        triple = (a, 0 if a < 2 and not solvable else rng.randrange(s), rng.randrange(s))
        if triple not in triples:
            triples.append(triple)
    rng.shuffle(triples)
    return triples


def has_matching(s: int, triples) -> bool:
    return any(
        all(len({t[d] for t in chosen}) == s for d in range(3))
        for chosen in combinations(triples, s)
    )


def partition_files(prefix: str, s: int, triples) -> List[Tuple[str, Expected]]:
    """The three partition matroids of the 3DM reduction: triples sharing
    their side-i element are parallel."""
    t = len(triples)
    full = (1 << t) - 1
    out = []
    for dim in range(3):
        classes = [from_elements(i for i, tr in enumerate(triples) if tr[dim] == j) for j in range(s)]
        pairs = [(1 << a) | (1 << b) for cls in classes
                 for a, b in combinations([i for i in range(t) if cls >> i & 1], 2)]
        out.append((f"{prefix}.m{dim + 1}.circuits.txt", expect_listed(listed("circuits", t, pairs))))
        out.append((f"{prefix}.m{dim + 1}.hyperplanes.txt",
                    expect_listed(listed("hyperplanes", t, [full & ~c for c in classes if c]))))
    return out


def independent_vertices(v: int, edges, k: int) -> bool:
    return any(
        not any(a in chosen and b in chosen for a, b in edges)
        for chosen in map(set, combinations(range(v), k))
    )


def search_workload(io: Inputs, rng: random.Random) -> List[Command]:
    commands = []

    def put(name: str, desc: Listed) -> str:
        return io.write(f"{name}.{desc.kind}.txt", desc.text())

    # isomorphism: planted yes-pairs by seeded relabelling, one across
    # kinds, and a no-pair from graphs with different degree sequences
    l18_7 = l18(7).relabelled(permutation(rng, 14))
    l18_7b = l18_7.relabelled(permutation(rng, 14))
    commands.append(Command(
        "iso yes bases/circuits",
        ["iso", put("iso_a", l18_7.family("bases")), put("iso_b", l18_7b.family("circuits"))],
        maps_onto(l18_7, l18_7b),
    ))
    graph = random_graph(rng, 5, 5)
    phi_a = phi_matroid(5, graph).relabelled(permutation(rng, 15))
    phi_b = phi_a.relabelled(permutation(rng, 15))
    phi_c = phi_matroid(5, other_degrees(rng, 5, graph)).relabelled(permutation(rng, 15))
    phi_a_path = put("phi_a", phi_a.family("nsc"))
    commands.append(Command(
        "iso yes phi", ["iso", phi_a_path, put("phi_b", phi_b.family("nsc"))],
        maps_onto(phi_a, phi_b),
    ))
    commands.append(Command(
        "iso no phi", ["iso", phi_a_path, put("phi_c", phi_c.family("nsc"))],
        prints_line("not isomorphic"),
    ))
    cyclic = l18(5).relabelled(permutation(rng, 10)).family("cyclicflats")
    commands.append(Command(
        "iso --encode cyclicflats", ["iso", "--encode", put("encode", cyclic)], encodes(cyclic),
    ))

    # minors: a parallel pair is present in L18; 2U(2,3) is not uniform,
    # so it is absent from every uniform matroid, whose minors are uniform.
    # A hyperplanes host makes the circuits algorithm work on the dual.
    l18_4 = l18(4).relabelled(permutation(rng, 8))
    u12 = Matroid(2, uniform_rank(1))
    pair_path = put("u12", u12.family("bases"))
    l18_3_path = put("l18_3", l18(3).relabelled(permutation(rng, 6)).family("circuits"))
    host_path = put("minor_host", l18_4.family("bases"))
    for algorithm, (r, n, kind) in (("circuits", (4, 9, "circuits")),
                                    ("circuits", (7, 11, "hyperplanes")),
                                    ("exhaustive", (4, 11, "circuits"))):
        if kind == "circuits":
            commands.append(Command(
                f"minor {algorithm} present",
                ["minor", "--host", host_path, "--pattern", pair_path, "--algorithm", algorithm],
                finds_minor(l18_4, u12),
            ))
        uniform = Matroid(n, uniform_rank(r))
        commands.append(Command(
            f"minor {algorithm} absent in U({r},{n}) {kind}",
            ["minor", "--host", put(f"u{r}_{n}", uniform.family(kind)),
             "--pattern", l18_3_path, "--algorithm", algorithm],
            finds_minor(uniform, None),
        ))

    # 3-matroid intersection on three relabellings of L18(6): the largest
    # common independent set, and one more than that
    trio = [l18(6).relabelled(permutation(rng, 12)) for _ in range(3)]
    paths = [put(f"trio{i}", m.family("bases")) for i, m in enumerate(trio)]
    best = common_independent(trio)
    for algorithm in ("bases", "exhaustive"):
        for k in (best, best + 1):
            commands.append(Command(
                f"intersect3 {algorithm} k={'max' if k == best else 'max+1'}",
                ["intersect3", *paths, "-k", str(k), "--algorithm", algorithm],
                intersects(trio, k, exact=algorithm == "exhaustive"),
            ))

    # hardness reductions on planted instances
    for solvable in (True, False):
        s, triples = 4, planted_3dm(rng, 4, 5, solvable)
        lines = [f"3dm s={s}"] + [f"{a} {b} {c}" for a, b, c in triples]
        path = io.write(f"3dm_{solvable}.txt", "\n".join(lines) + "\n")
        prefix = io.path(f"red3dm_{solvable}")
        answer = "yes" if has_matching(s, triples) else "no"
        commands.append(Command(
            f"reduce 3dm {answer}", ["reduce", "3dm", path, "--verify", "--out-prefix", prefix],
            verifies([f"matching: {answer}", f"common independent set of size {s}: {answer}",
                      "round trip: ok"], partition_files(prefix, s, triples)),
        ))

    # a 2-edge path is in every graph with a vertex of degree 2; a path
    # has no triangle
    order = permutation(rng, 5)
    path = sorted(tuple(sorted(pair)) for pair in zip(order, order[1:]))
    for name, v, host, h in (("path", 4, random_graph(rng, 4, 4), [(0, 1), (1, 2)]),
                             ("triangle", 5, path, [(0, 1), (1, 2), (0, 2)])):
        answer = "yes" if name == "path" else "no"
        g_path = io.write(f"sub_{name}_g.txt", graph_text(v, host))
        h_path = io.write(f"sub_{name}_h.txt", graph_text(3, h))
        prefix = io.path(f"redsub_{name}")
        commands.append(Command(
            f"reduce subgraph {answer}",
            ["reduce", "subgraph", g_path, h_path, "--verify", "--out-prefix", prefix],
            verifies([f"subgraph: {answer}", f"minor: {answer}", "round trip: ok"], [
                (f"{prefix}.host.txt", expect_listed(phi_matroid(v, host).family("independent"))),
                (f"{prefix}.pattern.txt", expect_listed(phi_matroid(3, h).family("independent"))),
            ]),
        ))

    # five vertices and four edges leave two vertices non-adjacent; K5 less
    # two disjoint edges has no three independent vertices
    order = permutation(rng, 5)
    dense = [e for e in combinations(range(5), 2)
             if set(e) not in ({order[0], order[1]}, {order[2], order[3]})]
    for name, v, edges, k in (("sparse", 5, random_graph(rng, 5, 4), 2), ("dense", 5, dense, 3)):
        r = 3
        answer = "yes" if independent_vertices(v, edges, k) else "no"
        loops = [(u, u) for u in range(v)]
        bic = bicircular_matroid(v, edges + loops)
        truncated = Matroid(bic.n, lambda m: min(bic.table[m], r))
        path = io.write(f"indep_{name}.txt", graph_text(v, edges))
        prefix = io.path(f"redind_{name}")
        commands.append(Command(
            f"reduce indepset {answer}",
            ["reduce", "indepset", path, "-k", str(k), "-r", str(r), "--verify", "--out-prefix", prefix],
            verifies([f"target: uniform rank {r} size {k + len(edges)}",
                      f"independent set of size {k}: {answer}", f"minor: {answer}", "round trip: ok"],
                     [(f"{prefix}.matroid.txt", expect_listed(truncated.family("independent")))]),
        ))
    return commands


BUILDERS = {
    "edges": edges_workload,
    "exhaustive": exhaustive_workload,
    "search": search_workload,
}


def build(name: str, seed: int, root: Path) -> List[Command]:
    """Write the inputs of workload ``name`` for ``seed`` under ``root``
    and return its commands, in the order they run."""
    return BUILDERS[name](Inputs(root), random.Random(f"{name}:{seed}"))
