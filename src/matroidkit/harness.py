"""Separation experiments: tabulate, for each counting family and each
parameter value, how many sets every description kind has to list.

Each family comes with closed-form expected counts for the two kinds it
separates; the suite checks every such identity and renders the results
as an aligned table and as CSV, both byte-deterministic.
"""

from __future__ import annotations

from math import comb
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import tables
from .bitsets import CapacityError
from .descriptions import KINDS
from .families import FAMILY_TAGS, separation_family

#: Closed-form expected counts per family: kind -> (formula, exact).
#: Inexact entries are upper bounds rather than identities.
EXPECTED: Dict[str, Dict[str, Tuple[Callable[[int], int], bool]]] = {
    "L10": {
        "spanning": (lambda n: n + 1, True),
        "flats": (lambda n: 2**n - n, True),
    },
    "L11": {
        "independent": (lambda n: n + 1, True),
        "spanning": (lambda n: 2**n - 1, True),
    },
    "L15": {
        "nsc": (lambda n: n**n + n * comb(n, 2), True),
        "flats": (lambda n: 2 ** (n + 2), False),
    },
    "L17": {
        "cyclicflats": (lambda n: 3, True),
        "dephyp": (lambda n: comb(2 * n - 1, n - 2), True),
    },
    "L18": {
        "hyperplanes": (lambda n: (n * n - n) // 2, True),
        "cyclicflats": (lambda n: 2**n - n - 1, True),
    },
    "L20": {
        "nsc": (lambda n: 0, True),
        "circuits": (lambda n: comb(2 * n, n + 1), True),
    },
}

#: Default parameter ranges, sized to finish in seconds under the
#: ground-set cap.
DEFAULT_RANGES: Dict[str, Tuple[int, int]] = {
    "L10": (3, 6),
    "L11": (3, 6),
    "L15": (3, 4),
    "L17": (2, 3),
    "L18": (3, 6),
    "L20": (2, 3),
}


class SizeRow(NamedTuple):
    """One (family, n, kind) measurement.

    ``expected`` is the closed-form count as text ("<=x" for bounds,
    empty when no formula applies); ``status`` is "ok", "mismatch", or
    "skipped" (capacity), empty for unchecked kinds.
    """

    family: str
    n: int
    kind: str
    listed_sets: Optional[int]
    cells: Optional[int]
    expected: str
    status: str


class ExperimentReport(NamedTuple):
    family: str
    rows: Tuple[SizeRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.status != "mismatch" for row in self.rows)


def _family_rows(tag: str, n: int) -> List[SizeRow]:
    formulas = EXPECTED.get(tag, {})

    def expectation(kind: str, actual: Optional[int]) -> Tuple[str, str]:
        if kind not in formulas:
            return "", ""
        formula, exact = formulas[kind]
        value = formula(n)
        if actual is None:
            return (str(value) if exact else f"<={value}"), "skipped"
        if exact:
            return str(value), ("ok" if actual == value else "mismatch")
        return f"<={value}", ("ok" if actual <= value else "mismatch")

    try:
        view = separation_family(tag, n)
    except CapacityError:
        return [
            SizeRow(tag, n, kind, None, None, *expectation(kind, None))
            for kind in KINDS
        ]
    families = tables.classify(view)
    rows = []
    for kind in KINDS:
        if kind == "rank":
            listed = 1 << view.n
        else:
            listed = int(families[kind].sum())
        expected, status = expectation(kind, listed)
        rows.append(SizeRow(tag, n, kind, listed, listed * view.n, expected, status))
    return rows


def measure_family(tag: str, n_low: int, n_high: int) -> ExperimentReport:
    """Sizes of all ten kinds for one family over a parameter range."""
    if tag not in FAMILY_TAGS:
        raise ValueError(f"unknown family tag {tag!r}; expected one of {FAMILY_TAGS}")
    if n_low > n_high:
        raise ValueError(f"empty range {n_low}..{n_high}")
    rows: List[SizeRow] = []
    for n in range(n_low, n_high + 1):
        rows.extend(_family_rows(tag, n))
    return ExperimentReport(tag, tuple(rows))


def run_separation_suite() -> List[ExperimentReport]:
    """All six families over their default ranges."""
    return [measure_family(tag, *DEFAULT_RANGES[tag]) for tag in FAMILY_TAGS]


# -- rendering -----------------------------------------------------------

CSV_HEADER = "family,n,kind,listed_sets,cells,expected,status"


def render_csv(reports) -> str:
    lines = [CSV_HEADER]
    for report in reports:
        for row in report.rows:
            listed = "" if row.listed_sets is None else str(row.listed_sets)
            cells = "" if row.cells is None else str(row.cells)
            lines.append(
                f"{row.family},{row.n},{row.kind},{listed},{cells},"
                f"{row.expected},{row.status}"
            )
    return "\n".join(lines) + "\n"


def render_table(reports) -> str:
    header = ("family", "n", "kind", "listed_sets", "cells", "expected", "status")
    cells: List[Tuple[str, ...]] = [header]
    for report in reports:
        for row in report.rows:
            cells.append(
                (
                    row.family,
                    str(row.n),
                    row.kind,
                    "-" if row.listed_sets is None else str(row.listed_sets),
                    "-" if row.cells is None else str(row.cells),
                    row.expected or "-",
                    row.status or "-",
                )
            )
    widths = [max(len(line[i]) for line in cells) for i in range(len(header))]
    out = []
    for line in cells:
        out.append("  ".join(field.ljust(w) for field, w in zip(line, widths)).rstrip())
    return "\n".join(out) + "\n"
