"""The ten subset-list description formats.

A :class:`Description` is the persistent artifact: a kind tag, a ground
set size, a canonically ordered list of subset masks, and where the kind
requires it a rank per set or a matroid rank in the header.  This module
owns the text format, the per-query rules of the queryable
:class:`~matroidkit.core.MatroidView` a description decodes to (its
table is :func:`matroidkit.tables.decode`), the listed dual of the kinds
that pair up under duality, exhaustive re-encoding, size measurement and
semantic equality.

Every description is built by :func:`canonical`, which orders the sets
and carries their ranks along unchecked.  Input is checked once, where
it enters: by :func:`description` and by :func:`parse`.  There is one
text path per data shape: a :class:`Description` is written by
:func:`serialize`, and an exhaustive encoding, as a table, by
:func:`encode_text`, straight from its sorted mask array.

Text format (UTF-8, LF)::

    matroid <kind> n=<n>[ r=<r>]
    <bitstring>[:<rank>]
    ...

``#`` starts a comment line, and the leftmost bitstring character is
element 0.  Blank lines are ignored, except on the empty ground set
(n = 0): there a blank line after the header is the empty set.
"""

from __future__ import annotations

from functools import cache
from operator import index
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

# numpy and ``tables`` load in the functions that run array passes or
# build tables, so parsing, serializing and the per-query predicates never
# load them; ``np`` in annotations is never evaluated
from . import KINDS
from .bitsets import canonical_order, check_ground, check_mask, columns, elements, format_bits
from .bitsets import full_mask, minimal_sets, parse_bits, strict_int
from .core import MatroidView

#: Kinds whose lines carry a per-set rank annotation.
PER_SET_RANK_KINDS = frozenset({"rank", "cyclicflats"})
#: Kinds whose header carries the matroid rank.
HEADER_RANK_KINDS = frozenset({"nsc", "dephyp"})


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Description(NamedTuple):
    kind: str
    n: int
    sets: Tuple[int, ...]
    set_ranks: Optional[Tuple[int, ...]] = None
    r: Optional[int] = None


class SizeMeasure(NamedTuple):
    listed_sets: int
    cells: int
    header_bits: int


def canonical(
    kind: str,
    n: int,
    sets: Iterable[int],
    set_ranks: Optional[Iterable[int]] = None,
    r: Optional[int] = None,
    *,
    ordered: bool = False,
) -> Description:
    """The one constructor of a :class:`Description`: the sets in canonical
    (cardinality, value) order, each rank kept with its set; ``ordered``
    says that they come in that order already, so they are not sorted
    again.  Unchecked: the sets are distinct ``int`` masks in range, the
    rank data fits the kind."""
    if ordered:
        ranks = None if set_ranks is None else tuple(set_ranks)
        return Description(kind, n, tuple(sets), ranks, r)
    if set_ranks is None:
        return Description(kind, n, tuple(canonical_order(sets)), None, r)
    rank_of = dict(zip(sets, set_ranks))
    order = canonical_order(rank_of)
    return Description(kind, n, tuple(order), tuple(rank_of[m] for m in order), r)


def description(
    kind: str,
    n: int,
    sets: Sequence[int],
    set_ranks: Optional[Sequence[int]] = None,
    r: Optional[int] = None,
) -> Description:
    """Build a structurally checked, canonically ordered description.

    Duplicates, sets outside the ground set and missing or spurious rank
    data are structural errors; the checked fields go to
    :func:`canonical`.  Numbers are read by ``operator.index``.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown description kind {kind!r}")
    n = check_ground(index(n))
    sets = [index(m) for m in sets]
    full = full_mask(n)
    if sets and not 0 <= min(sets) <= max(sets) <= full:
        check_mask(next(m for m in sets if not 0 <= m <= full), n)
    if len(set(sets)) != len(sets):
        raise ValueError("duplicate set in description")
    if kind in PER_SET_RANK_KINDS:
        if set_ranks is None or len(set_ranks) != len(sets):
            raise ValueError(f"kind {kind!r} needs one rank per listed set")
        set_ranks = [index(v) for v in set_ranks]
        for v in set_ranks:
            if not 0 <= v <= n:
                raise ValueError(f"set rank {v} outside [0, {n}]")
    elif set_ranks is not None:
        raise ValueError(f"kind {kind!r} does not take per-set ranks")
    r = None if r is None else index(r)
    _check_header(kind, n, r, len(sets))
    return canonical(kind, n, sets, set_ranks, r)


def _check_header(kind: str, n: int, r: Optional[int], count: int) -> None:
    """The header rank fits the kind and [0, n]; a rank table lists 2**n sets."""
    if kind in HEADER_RANK_KINDS:
        if r is None or not 0 <= r <= n:
            raise ValueError(f"kind {kind!r} needs a matroid rank in [0, {n}]")
    elif r is not None:
        raise ValueError(f"kind {kind!r} does not take a header rank")
    if kind == "rank" and count != 1 << n:
        raise ValueError(f"rank table lists {count} subsets, expected {1 << n}")


# -- text format ---------------------------------------------------------


def content_lines(text) -> Iterator[Tuple[int, str]]:
    """The stripped lines of a text input with their 1-based numbers;
    bytes are read as UTF-8 and ``#`` comment lines are skipped.  Blank
    lines are left to the caller."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line.startswith("#"):
            yield lineno, line


def int_records(text, tag: str, key: str, width: int) -> Tuple[int, List[Tuple[int, ...]]]:
    """Read a ``<tag> <key>=<int>`` header and then lines of ``width``
    integers each: the line format of the graph and 3DM inputs."""
    value = None
    records: List[Tuple[int, ...]] = []
    for lineno, line in content_lines(text):
        if not line:
            continue
        fields = line.split()
        try:
            if value is None:
                if len(fields) != 2 or fields[0] != tag or not fields[1].startswith(f"{key}="):
                    raise ValueError
                value = strict_int(fields[1][len(key) + 1 :])
            elif len(fields) != width:
                raise ValueError
            else:
                records.append(tuple(strict_int(x) for x in fields))
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
        if not line and n != 0:  # at n = 0 the empty set's line is blank
            continue
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
                if key not in ("n", "r") or key in opts:
                    raise ParseError(f"bad header field {field!r}", lineno)
                try:
                    opts[key] = strict_int(value)
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
            raise ParseError(f"duplicate set {bits}" if n else "duplicate empty set", lineno)
        seen.add(mask)
        if kind in PER_SET_RANK_KINDS:
            if not sep:
                raise ParseError(f"kind {kind!r} requires '<bits>:<rank>' lines", lineno)
            try:
                rank = strict_int(annot.strip())
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
        check_ground(n)
        _check_header(kind, n, r, len(sets))
    except ValueError as exc:
        raise ParseError(str(exc), header) from None
    return canonical(kind, n, sets, ranks if kind in PER_SET_RANK_KINDS else None, r)


def _header(kind: str, n: int, r: Optional[int]) -> str:
    header = f"matroid {kind} n={n}"
    return header if r is None else f"{header} r={r}"


def serialize(desc: Description) -> str:
    """Canonical text; ``parse(serialize(d)) == d`` bit-exactly."""
    lines = [_header(desc.kind, desc.n, desc.r)]
    for i, mask in enumerate(desc.sets):
        line = format_bits(mask, desc.n)
        if desc.set_ranks is not None:
            line += f":{desc.set_ranks[i]}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def size_of(desc: Description) -> SizeMeasure:
    """Listed-set count and the n*i cell measure; the header is costed
    separately and excluded from the cells."""
    i = len(desc.sets)
    header = _header(desc.kind, desc.n, desc.r)
    return SizeMeasure(listed_sets=i, cells=desc.n * i, header_bits=8 * len(header))


# -- decoding ------------------------------------------------------------


def _flat_heights(flat_list: Sequence[int]) -> Dict[int, int]:
    """The longest chain below each flat (its rank in a matroid lattice).

    The flats are placed in canonical order, so each strict subset of a
    flat is placed before it.  Bit i of ``lacking[e]`` is set when flat i
    lacks e, so the flats inside F are the AND of ``lacking[e]`` over the
    elements e outside F.  F takes one more than the highest height group
    that holds one of them (0 if none does): at most n + 1 groups, since
    a flat of height h has at least h elements."""
    order = canonical_order(flat_list)
    ground = 0
    for f in order:
        ground |= f
    everything = (1 << len(order)) - 1
    lacking = [everything ^ c for c in columns(order, ground.bit_length())]
    groups: List[int] = []  # groups[h]: bit i set when flat i has height h
    heights: Dict[int, int] = {}
    for i, f in enumerate(order):
        inside = (1 << i) - 1
        for e in elements(ground & ~f):
            inside &= lacking[e]
        h = next((h + 1 for h in range(len(groups) - 1, -1, -1) if groups[h] & inside), 0)
        if h == len(groups):
            groups.append(0)
        groups[h] |= 1 << i
        heights[f] = h
    return heights


def _unlisted_intersection(n: int, closed: int) -> ValueError:
    return ValueError(
        f"flats are not closed under intersection: {format_bits(closed, n)}"
        " is an intersection of listed flats but is not listed"
    )


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
    the kind swapped, and a header rank r read as n - r."""
    if desc.kind not in _DUAL_KIND:
        raise ValueError(f"kind {desc.kind!r} has no listed dual")
    full = full_mask(desc.n)
    r = None if desc.r is None else desc.n - desc.r
    return canonical(_DUAL_KIND[desc.kind], desc.n, [full ^ m for m in desc.sets], r=r)


def to_view(desc: Description) -> MatroidView:
    """Decode a description into a queryable view.

    The view's table comes from :func:`tables.decode`, which reads every
    kind's listed sets by subset transforms.  Here each kind gets only its
    per-query rule over the listed sets, an independence predicate or a
    rank function.  The listed precomputation a rule needs (minimal
    spanning sets, flat heights) runs at its first query, so the table
    route never runs it.  The ``rank`` kind lists all ``2**n`` sets, so it
    has the table alone.  Hyperplane-side kinds query through their
    :func:`dual`: A is independent iff E - A spans the dual.
    """
    n, kind, sets = desc.n, desc.kind, desc.sets
    full = full_mask(n)
    indep = rank = None

    def source() -> np.ndarray:
        from . import tables

        return tables.decode(desc)

    if kind == "independent":
        listed = cache(lambda: frozenset(sets))

        def indep(a: int) -> bool:
            return a in listed()

    elif kind in ("spanning", "bases"):
        if not sets:
            raise ValueError(f"{kind} description lists no sets")
        bases = cache(lambda: minimal_sets(sets) if kind == "spanning" else sets)

        def indep(a: int) -> bool:
            return any(a & b == a for b in bases())

    elif kind in ("circuits", "nsc"):
        # independent: at most r elements and no listed circuit inside
        r = n if kind == "circuits" else desc.r

        def indep(a: int) -> bool:
            return a.bit_count() <= r and not any(a & c == c for c in sets)

    elif kind in ("hyperplanes", "dephyp"):
        co = cache(lambda: to_view(dual(desc)))

        def indep(a: int) -> bool:
            return co()._rank_of(full & ~a) == co().full_rank

    elif kind == "flats":
        if full not in sets:
            raise ValueError("flats description does not list the ground set")
        heights = cache(lambda: _flat_heights(sets))

        def rank(a: int) -> int:
            closed = full
            for f in sets:
                if a & f == a:
                    closed &= f
            if closed not in heights():
                raise _unlisted_intersection(n, closed)
            return heights()[closed]

    elif kind == "cyclicflats":
        # r(A) = min over listed Z of r(Z) + |A - Z|
        if not sets:
            raise ValueError("cyclic-flats description lists no sets")

        def rank(a: int) -> int:
            return min(rz + (a & ~z).bit_count() for z, rz in zip(sets, desc.set_ranks))

    elif kind != "rank":
        raise ValueError(f"unknown description kind {kind!r}")

    return MatroidView(n, indep=indep, rank=rank, table_source=source)


def _exhaustive_arrays(
    view: MatroidView, kind: str
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[int]]:
    """The listed masks of ``kind`` as an int64 array in canonical order,
    the rank table to read their per-set ranks from (None for kinds
    without them) and the header rank, by classifying every subset
    against the kind's defining predicate."""
    from . import tables

    masks = tables.family_masks(view, kind)
    rank = tables.rank_table(view) if kind in PER_SET_RANK_KINDS else None
    r = view.full_rank if kind in HEADER_RANK_KINDS else None
    return masks, rank, r


def encode_from_oracle(view: MatroidView, kind: str) -> Description:
    """Exhaustively re-encode a view as any kind, by classifying every
    subset against the kind's defining predicate."""
    masks, rank, r = _exhaustive_arrays(view, kind)
    set_ranks = None if rank is None else rank[masks].tolist()
    return canonical(kind, view.n, masks.tolist(), set_ranks, r, ordered=True)


#: Bytes of the largest block of text that :func:`encode_text` builds at
#: once: 8 KiB.
BLOCK_CELLS = 1 << 13


def encode_text(view: MatroidView, kind: str) -> Iterator[str]:
    """The text of ``serialize(encode_from_oracle(view, kind))`` in
    pieces: the header line, then blocks of lines written straight from
    the sorted mask array, with no per-set Python object.

    The tables and the mask array are built before this returns, so a
    view that cannot be decoded raises here, before any text exists.
    """
    masks, rank, r = _exhaustive_arrays(view, kind)
    return _text_blocks(_header(kind, view.n, r), view.n, masks, rank)


def _text_blocks(
    header: str, n: int, masks: np.ndarray, rank: Optional[np.ndarray]
) -> Iterator[str]:
    """The header line, then the lines of ``masks`` in blocks of at most
    ``BLOCK_CELLS`` bytes of text.

    Each row of a block is the n bit characters, element 0 first, then
    for per-set rank kinds ``:`` and the rank's tens and units digits,
    then the newline.  A rank below 10 has a zero pad byte for its tens
    digit, and the pad bytes are dropped when the block is flattened.
    """
    import numpy as np

    yield header + "\n"
    width = n + 1 if rank is None else n + 4
    step = max(1, BLOCK_CELLS // width)
    for lo in range(0, len(masks), step):
        block = masks[lo : lo + step]
        rows = np.empty((len(block), width), dtype=np.uint8)
        # little-endian bytes unpacked little bit first: column e is element e
        octets = block.astype("<u4").view(np.uint8).reshape(-1, 4)
        rows[:, :n] = np.unpackbits(octets, axis=1, count=n, bitorder="little") + ord("0")
        rows[:, -1] = ord("\n")
        if rank is not None:
            ranks = rank[block]
            rows[:, n] = ord(":")
            rows[:, n + 1] = np.where(ranks < 10, 0, ranks // 10 + ord("0"))
            rows[:, n + 2] = ranks % 10 + ord("0")
            rows = rows[rows != 0]
        yield rows.tobytes().decode("ascii")


def semantically_equal(a: Description, b: Description) -> bool:
    """True iff the two descriptions induce the same rank function."""
    if a.n != b.n:
        raise ValueError(f"ground sets differ: {a.n} vs {b.n}")
    from . import tables

    return tables.views_equal(to_view(a), to_view(b))


# -- validation ----------------------------------------------------------


class ValidationReport(NamedTuple):
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
    import numpy as np

    from . import tables

    listed = tables.indicator(n, sets)
    above = np.flatnonzero(listed & tables.strict_up_closure(listed, n))
    if not len(above):
        return ""
    big = int(above[0])
    small = next(m for m in sets if m != big and m & big == m)
    return f"{format_bits(small, n)} is contained in {format_bits(big, n)}"


def _matroid_check(view: MatroidView) -> Tuple[str, bool, str]:
    """The matroid-axiom check on the decoded table, with a witness."""
    from . import tables

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
    from . import tables

    checks: List[Tuple[str, bool, str]] = []
    n, kind, sets = desc.n, desc.kind, desc.sets
    closure = None

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
        witness = ""
        try:
            closure = tables.flat_closure(n, sets)
        except ValueError as exc:
            witness = str(exc)
        add("flats-intersection-closed", not witness, witness)

    try:
        view = to_view(desc)
        if closure is not None:
            # decode from the closure table built above, not a second one
            view.table_source = lambda: tables.decode(desc, closure)
        add(*_matroid_check(view))
        add(
            "round-trip",
            encode_from_oracle(view, kind) == desc,
            "decode/re-encode does not reproduce the description",
        )
    except Exception as exc:
        add("round-trip", False, f"decoding failed: {exc}")

    return ValidationReport(tuple(checks))
