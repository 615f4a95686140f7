"""The ten subset-list description formats.

A :class:`Description` is the persistent artifact: a kind tag, a ground
set size, a canonically ordered list of subset masks, and where the kind
requires it a rank per set or a matroid rank in the header.  This module
owns the text format, the decoding rules that turn a description into a
queryable :class:`~matroidkit.core.MatroidView`, the listed dual of the
kinds that pair up under duality, exhaustive re-encoding, size
measurement and semantic equality.

Text format (UTF-8, LF)::

    matroid <kind> n=<n>[ r=<r>]
    <bitstring>[:<rank>]
    ...

``#`` starts a comment line, blank lines are ignored, and the leftmost
bitstring character is element 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import KINDS, tables
from .bitsets import canonical_key, check_ground, check_mask, format_bits, full_mask
from .bitsets import minimal_sets, parse_bits
from .core import MatroidView

#: Kinds whose lines carry a per-set rank annotation.
PER_SET_RANK_KINDS = frozenset({"rank", "cyclicflats"})
#: Kinds whose header carries the matroid rank.
HEADER_RANK_KINDS = frozenset({"nsc", "dephyp"})


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Description:
    kind: str
    n: int
    sets: Tuple[int, ...]
    set_ranks: Optional[Tuple[int, ...]] = None
    r: Optional[int] = None


@dataclass(frozen=True)
class SizeMeasure:
    listed_sets: int
    cells: int
    header_bits: int


def description(
    kind: str,
    n: int,
    sets: Sequence[int],
    set_ranks: Optional[Sequence[int]] = None,
    r: Optional[int] = None,
) -> Description:
    """Build a structurally checked, canonically ordered description.

    Sets are sorted by (cardinality, numeric mask value); rank
    annotations follow their sets.  Duplicates and missing or spurious
    rank data are structural errors.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown description kind {kind!r}")
    check_ground(n)
    sets = [int(m) for m in sets]
    for m in sets:
        check_mask(m, n)
    if len(set(sets)) != len(sets):
        raise ValueError("duplicate set in description")
    if kind in PER_SET_RANK_KINDS:
        if set_ranks is None or len(set_ranks) != len(sets):
            raise ValueError(f"kind {kind!r} needs one rank per listed set")
        set_ranks = [int(v) for v in set_ranks]
        for v in set_ranks:
            if not 0 <= v <= n:
                raise ValueError(f"set rank {v} outside [0, {n}]")
    elif set_ranks is not None:
        raise ValueError(f"kind {kind!r} does not take per-set ranks")
    if kind in HEADER_RANK_KINDS:
        if r is None or not 0 <= r <= n:
            raise ValueError(f"kind {kind!r} needs a matroid rank in [0, {n}]")
    elif r is not None:
        raise ValueError(f"kind {kind!r} does not take a header rank")
    if kind == "rank" and len(sets) != 1 << n:
        raise ValueError(
            f"rank table lists {len(sets)} subsets, expected {1 << n}"
        )

    order = sorted(range(len(sets)), key=lambda i: canonical_key(sets[i]))
    canon_sets = tuple(sets[i] for i in order)
    canon_ranks = tuple(set_ranks[i] for i in order) if set_ranks is not None else None
    return Description(kind, n, canon_sets, canon_ranks, r)


# -- text format ---------------------------------------------------------


def content_lines(text) -> Iterator[Tuple[int, str]]:
    """The stripped lines of a text input with their 1-based numbers;
    bytes are read as UTF-8, blank and ``#`` comment lines are skipped."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def int_records(text, tag: str, key: str, width: int) -> Tuple[int, List[Tuple[int, ...]]]:
    """Read a ``<tag> <key>=<int>`` header and then lines of ``width``
    integers each: the line format of the graph and 3DM inputs."""
    value = None
    records: List[Tuple[int, ...]] = []
    for lineno, line in content_lines(text):
        fields = line.split()
        try:
            if value is None:
                if len(fields) != 2 or fields[0] != tag or not fields[1].startswith(f"{key}="):
                    raise ValueError
                value = int(fields[1][len(key) + 1 :])
            elif len(fields) != width:
                raise ValueError
            else:
                records.append(tuple(int(x) for x in fields))
        except ValueError:
            expected = f"header '{tag} {key}=<{key}>'" if value is None else f"{width} integers"
            raise ParseError(f"expected {expected}, got {line!r}", lineno) from None
    if value is None:
        raise ParseError(f"empty {tag} input", 1)
    return value, records


def parse(text) -> Description:
    """Parse the text format; structural validation only."""
    header = None
    kind = n = r = None
    sets: List[int] = []
    seen = set()
    ranks: List[int] = []
    for lineno, line in content_lines(text):
        if header is None:
            fields = line.split()
            if len(fields) < 3 or fields[0] != "matroid":
                raise ParseError("expected header 'matroid <kind> n=<n>[ r=<r>]'", lineno)
            kind = fields[1]
            if kind not in KINDS:
                raise ParseError(f"unknown kind {kind!r}", lineno)
            opts = {}
            for field in fields[2:]:
                key, _, value = field.partition("=")
                if key not in ("n", "r") or not value:
                    raise ParseError(f"bad header field {field!r}", lineno)
                try:
                    opts[key] = int(value)
                except ValueError:
                    raise ParseError(f"bad header field {field!r}", lineno) from None
            if "n" not in opts:
                raise ParseError("header is missing n=<n>", lineno)
            n = opts["n"]
            r = opts.get("r")
            if (r is not None) != (kind in HEADER_RANK_KINDS):
                raise ParseError(f"kind {kind!r} and header rank do not match", lineno)
            header = lineno
            continue
        bits, sep, annot = line.partition(":")
        bits = bits.strip()
        if len(bits) != n:
            raise ParseError(f"bitstring of length {len(bits)}, expected {n}", lineno)
        try:
            mask = parse_bits(bits)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        if mask in seen:
            raise ParseError(f"duplicate set {bits}", lineno)
        seen.add(mask)
        if kind in PER_SET_RANK_KINDS:
            if not sep:
                raise ParseError(f"kind {kind!r} requires '<bits>:<rank>' lines", lineno)
            try:
                rank = int(annot.strip())
            except ValueError:
                raise ParseError(f"bad rank annotation {annot!r}", lineno) from None
            if not 0 <= rank <= n:
                raise ParseError(f"set rank {rank} outside [0, {n}]", lineno)
            ranks.append(rank)
        elif sep:
            raise ParseError(f"kind {kind!r} lines must not carry ranks", lineno)
        sets.append(mask)
    if header is None:
        raise ParseError("empty input", 1)
    try:
        return description(kind, n, sets, ranks if kind in PER_SET_RANK_KINDS else None, r)
    except ValueError as exc:
        raise ParseError(str(exc), header) from None


def serialize(desc: Description) -> str:
    """Canonical text; ``parse(serialize(d)) == d`` bit-exactly."""
    header = f"matroid {desc.kind} n={desc.n}"
    if desc.r is not None:
        header += f" r={desc.r}"
    lines = [header]
    for i, mask in enumerate(desc.sets):
        line = format_bits(mask, desc.n)
        if desc.set_ranks is not None:
            line += f":{desc.set_ranks[i]}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def size_of(desc: Description) -> SizeMeasure:
    """Listed-set count and the n*i cell measure; the header is costed
    separately and excluded from the cells."""
    header = f"matroid {desc.kind} n={desc.n}"
    if desc.r is not None:
        header += f" r={desc.r}"
    i = len(desc.sets)
    return SizeMeasure(listed_sets=i, cells=desc.n * i, header_bits=8 * len(header))


# -- decoding ------------------------------------------------------------


def _flat_heights(flat_list: Sequence[int]) -> Dict[int, int]:
    """The longest chain below each flat (its rank in a matroid lattice),
    by one vector pass per flat over the flats before it canonically."""
    order = sorted(flat_list, key=canonical_key)
    masks = np.array(order, dtype=np.int64)
    heights = np.zeros(len(order), dtype=np.int64)
    for i, f in enumerate(order):
        earlier = masks[:i]
        heights[i] = np.max(heights[:i], where=earlier & f == earlier, initial=-1) + 1
    return dict(zip(order, heights.tolist()))


def _unlisted_intersection(n: int, closed: int) -> ValueError:
    return ValueError(
        f"flats are not closed under intersection: {format_bits(closed, n)}"
        " is an intersection of listed flats but is not listed"
    )


def _flat_closure(n: int, flat_list: Sequence[int]) -> np.ndarray:
    """The intersection of the listed flats containing each mask (the
    ground set where none does): a superset-AND transform."""
    closure = np.full(1 << n, full_mask(n), dtype=np.int32)
    closure[np.array(flat_list, dtype=np.int64)] = flat_list
    return tables.superset_and(closure, n)


#: The kind that lists M* by the complements of a kind's sets: the bases
#: of M* complement the bases of M, the circuits of M* the hyperplanes of
#: M, and the non-spanning circuits of M* the dependent hyperplanes of M
#: (Oxley, *Matroid Theory*, §2.1).
_DUAL_KIND = {
    "bases": "bases",
    "circuits": "hyperplanes",
    "hyperplanes": "circuits",
    "nsc": "dephyp",
    "dephyp": "nsc",
}


def dual(desc: Description) -> Description:
    """The description of the dual matroid M*: every set complemented,
    the kind swapped, and a header rank r read as n - r.

    Built without :func:`description`: complements of in-range sets are
    in range, and complementing reverses the canonical order (it maps
    (|A|, A) to (n - |A|, 2^n - 1 - A)), so the reversed complements are
    already canonical."""
    if desc.kind not in _DUAL_KIND:
        raise ValueError(f"kind {desc.kind!r} has no listed dual")
    full = full_mask(desc.n)
    r = None if desc.r is None else desc.n - desc.r
    sets = tuple(full ^ m for m in reversed(desc.sets))
    return Description(_DUAL_KIND[desc.kind], desc.n, sets, r=r)


def to_view(desc: Description) -> MatroidView:
    """Decode a description into a queryable view.

    Each kind has one branch that gives its decoding rule twice, side by
    side: as a per-query predicate or rank function over the listed
    sets, and as a table source that decodes the whole subset lattice
    with vectorised transforms.  The ``rank`` kind lists all ``2**n``
    sets, so it gets the table source alone.  Hyperplane-side kinds
    decode through their :func:`dual`: A is independent iff E - A spans
    the dual.
    """
    n, kind, sets = desc.n, desc.kind, desc.sets
    full = full_mask(n)
    indep = rank = None

    def from_rank(ranks: np.ndarray) -> np.ndarray:
        return ranks == tables.popcounts(n)

    if kind == "rank":
        def source() -> np.ndarray:
            ranks = np.zeros(1 << n, dtype=np.int8)
            ranks[np.array(sets, dtype=np.int64)] = desc.set_ranks
            return from_rank(ranks)

    elif kind == "independent":
        listed = frozenset(sets)
        indep = listed.__contains__

        def source() -> np.ndarray:
            return tables.indicator(n, sets)

    elif kind in ("spanning", "bases"):
        if not sets:
            raise ValueError(f"{kind} description lists no sets")
        bases = minimal_sets(sets) if kind == "spanning" else list(sets)

        def indep(a: int) -> bool:
            return any(a & b == a for b in bases)

        def source() -> np.ndarray:
            return tables.down_closure(tables.indicator(n, bases), n)

    elif kind in ("circuits", "nsc"):
        # independent: at most r elements and no listed circuit inside
        r = n if kind == "circuits" else desc.r

        def indep(a: int) -> bool:
            return a.bit_count() <= r and not any(a & c == c for c in sets)

        def source() -> np.ndarray:
            return ~tables.up_closure(tables.indicator(n, sets), n) & (tables.popcounts(n) <= r)

    elif kind in ("hyperplanes", "dephyp"):
        co = to_view(dual(desc))

        def indep(a: int) -> bool:
            return co.rank(full & ~a) == co.full_rank

        def source() -> np.ndarray:
            # rank_table(co) would cache two tables on co, kept alive here
            co_rank = tables.rank_from_independence(co.table_source(), n)
            # full ^ m == 2^n - 1 - m, so the reversal reads r*(E - A)
            return co_rank[::-1] == co_rank[-1]

    elif kind == "flats":
        if full not in sets:
            raise ValueError("flats description does not list the ground set")
        heights = _flat_heights(sets)

        def rank(a: int) -> int:
            closed = full
            for f in sets:
                if a & f == a:
                    closed &= f
            if closed not in heights:
                raise _unlisted_intersection(n, closed)
            return heights[closed]

        def source() -> np.ndarray:
            closure = _flat_closure(n, sets)
            height_of = np.full(1 << n, -1, dtype=np.int8)
            height_of[np.fromiter(heights, dtype=np.int64)] = list(heights.values())
            ranks = height_of[closure]
            if ranks.min() < 0:
                raise _unlisted_intersection(n, int(closure[np.argmin(ranks)]))
            return from_rank(ranks)

    elif kind == "cyclicflats":
        # r(A) = min over listed Z of r(Z) + |A - Z|
        pairs = list(zip(sets, desc.set_ranks))
        if not pairs:
            raise ValueError("cyclic-flats description lists no sets")

        def rank(a: int) -> int:
            return min(rz + (a & ~z).bit_count() for z, rz in pairs)

        def source() -> np.ndarray:
            pc = tables.popcounts(n)
            masks = np.arange(1 << n, dtype=np.int32)
            ranks = np.full(1 << n, np.iinfo(np.int8).max, dtype=np.int8)
            for z, rz in pairs:
                np.minimum(ranks, pc[masks & (full ^ z)] + np.int8(rz), out=ranks)
            return from_rank(ranks)

    else:
        raise ValueError(f"unknown description kind {kind!r}")

    return MatroidView(n, indep=indep, rank=rank, table_source=source, name=f"{kind}[n={n}]")


def encode_from_oracle(view: MatroidView, kind: str) -> Description:
    """Exhaustively re-encode a view as any kind, by classifying every
    subset against the kind's defining predicate.

    Every kind but ``rank`` is built without :func:`description`:
    :func:`tables.family_masks` returns distinct in-range masks in
    canonical order, and ranks read off the rank table lie in [0, n]."""
    if kind not in KINDS:
        raise ValueError(f"unknown description kind {kind!r}")
    if kind == "rank":
        rank = tables.rank_table(view)
        return description(kind, view.n, range(1 << view.n), rank.tolist())
    masks = tables.family_masks(view, kind)
    set_ranks = r = None
    if kind == "cyclicflats":
        set_ranks = tuple(tables.rank_table(view)[masks].tolist())
    elif kind in HEADER_RANK_KINDS:
        r = view.full_rank
    return Description(kind, view.n, tuple(masks), set_ranks, r)


def semantically_equal(a: Description, b: Description) -> bool:
    """True iff the two descriptions induce the same rank function."""
    if a.n != b.n:
        raise ValueError(f"ground sets differ: {a.n} vs {b.n}")
    return tables.views_equal(to_view(a), to_view(b))


# -- validation ----------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    checks: Tuple[Tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    @property
    def failures(self) -> Tuple[str, ...]:
        return tuple(f"{name}: {detail}" for name, passed, detail in self.checks if not passed)

    def __str__(self) -> str:
        lines = []
        for name, passed, detail in self.checks:
            status = "ok" if passed else "FAIL"
            lines.append(f"{status:4} {name}" + (f" ({detail})" if detail else ""))
        return "\n".join(lines)


def _antichain_violation(sets: Sequence[int], n: int) -> str:
    """Empty for an antichain; otherwise names a listed set that contains
    another listed set."""
    listed = tables.indicator(n, sets)
    above = np.flatnonzero(listed & tables.strict_up_closure(listed, n))
    if not len(above):
        return ""
    big = int(above[0])
    small = next(m for m in sets if m != big and m & big == m)
    return f"{format_bits(small, n)} is contained in {format_bits(big, n)}"


def _matroid_check(view: MatroidView) -> Tuple[str, bool, str]:
    """The matroid-axiom check on the decoded table, with a witness."""
    broken = tables.matroid_violation(view)
    if broken is None:
        return "matroid", True, ""
    axiom, a, elems = broken
    n = view.n
    if axiom == "exchange":
        e, f = elems
        detail = f"r(A+{e}) + r(A+{f}) < r(A+{e}+{f}) + r(A) for A = {format_bits(a, n)}"
    elif elems:
        bigger = format_bits(a | 1 << elems[0], n)
        detail = f"{bigger} is independent but its subset {format_bits(a, n)} is not"
    else:
        detail = "the empty set is dependent"
    return f"matroid-{axiom}", False, detail


def validate(desc: Description) -> ValidationReport:
    """Check that a description describes a matroid, and describes it
    exactly as the canonical listing of its kind.

    Three stages, the same for every kind: cheap shape checks on the
    listed sets (bases equicardinal, circuits and hyperplanes an
    antichain, flats closed under intersection); the matroid axioms on
    the decoded independence table (hereditary, and the local rank
    axioms, see :func:`tables.matroid_violation`); and a decode/re-encode
    round trip.  The second stage accepts only matroids, and the round
    trip then accepts only the canonical description of that matroid,
    so every non-matroid is rejected.

    Never raises; every problem becomes a failed check in the report.
    """
    checks: List[Tuple[str, bool, str]] = []
    n, kind, sets = desc.n, desc.kind, desc.sets

    def add(name: str, passed: bool, detail: str = ""):
        checks.append((name, bool(passed), detail if not passed else ""))

    if kind == "bases":
        cards = sorted({b.bit_count() for b in sets})
        add("bases-equicardinal", len(cards) <= 1, f"cardinalities {cards}")
    elif kind in ("circuits", "nsc", "hyperplanes", "dephyp"):
        witness = _antichain_violation(sets, n)
        family = "circuits" if kind in ("circuits", "nsc") else "hyperplanes"
        add(f"{family}-antichain", not witness, witness)
    elif kind == "flats":
        closure = _flat_closure(n, sets)
        unlisted = np.flatnonzero(~tables.indicator(n, sets)[closure])
        witness = ""
        if len(unlisted):
            witness = str(_unlisted_intersection(n, int(closure[unlisted[0]])))
        add("flats-intersection-closed", not witness, witness)

    try:
        view = to_view(desc)
        add(*_matroid_check(view))
        add(
            "round-trip",
            encode_from_oracle(view, kind) == desc,
            "decode/re-encode does not reproduce the description",
        )
    except Exception as exc:
        add("round-trip", False, f"decoding failed: {exc}")

    return ValidationReport(tuple(checks))
