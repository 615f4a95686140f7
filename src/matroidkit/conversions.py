"""Constructive conversions between description kinds.

The twelve directed edges below form the Hasse diagram of the
polynomial-time convertibility order on the ten kinds.  Each edge has a
listed-data algorithm that never enumerates the whole subset lattice;
pairs without a lattice path fall back to exhaustive re-encoding, and
the planner reports which route was taken.

Cost of each edge for k listed input sets on n elements, before the
canonical sort of its output:

- rank -> spanning / independent: O(k), one pass over the 2^n rows;
- spanning -> bases, independent -> bases, flats -> hyperplanes:
  O(k * |output|) subset tests (``bitsets.minimal_sets``/``maximal_sets``);
- independent -> flats: O(k * n) lookups; flats -> cyclicflats the same,
  after ranking the flats in O(k^2) vectorised steps;
- bases -> circuits / hyperplanes: O(k * n^2) exchange lookups;
- circuits -> nsc, hyperplanes -> dephyp: O(k * n), the rank by n queries;
- bases -> cyclicflats: closures, n queries of O(k) each, of the
  fundamental circuits and then of pairwise unions, at most r passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from . import tables
from .bitsets import canonical_key, elements, full_mask, maximal_sets, minimal_sets
from .descriptions import Description, description, encode_from_oracle, to_view
from .core import MatroidView

#: Directed cover edges of the convertibility order, in declaration
#: order (used to break shortest-path ties deterministically).
EDGES: Tuple[Tuple[str, str], ...] = (
    ("rank", "spanning"),
    ("rank", "independent"),
    ("spanning", "bases"),
    ("independent", "bases"),
    ("independent", "flats"),
    ("bases", "circuits"),
    ("bases", "cyclicflats"),
    ("bases", "hyperplanes"),
    ("flats", "cyclicflats"),
    ("flats", "hyperplanes"),
    ("circuits", "nsc"),
    ("hyperplanes", "dephyp"),
)


class PlanError(ValueError):
    pass


@dataclass(frozen=True)
class ConversionPlan:
    steps: Tuple[Tuple[str, str], ...]
    exhaustive: bool = False

    def describe(self) -> str:
        if self.exhaustive:
            return "exhaustive"
        if not self.steps:
            return "identity"
        kinds = [self.steps[0][0]] + [dst for _, dst in self.steps]
        return " -> ".join(kinds)


def reachable(src: str, dst: str) -> bool:
    return not plan(src, dst).exhaustive


def plan(src: str, dst: str) -> ConversionPlan:
    """Shortest lattice path, or the exhaustive marker if there is none.

    Breadth-first search expanding edges in declaration order, so ties
    resolve deterministically.
    """
    if src == dst:
        return ConversionPlan(steps=())
    parents: Dict[str, Tuple[str, str]] = {}
    frontier = [src]
    while frontier and dst not in parents:
        nxt: List[str] = []
        for kind in frontier:
            for a, b in EDGES:
                if a == kind and b not in parents and b != src:
                    parents[b] = (a, b)
                    nxt.append(b)
        frontier = nxt
    if dst not in parents:
        return ConversionPlan(steps=(), exhaustive=True)
    steps = []
    kind = dst
    while kind != src:
        edge = parents[kind]
        steps.append(edge)
        kind = edge[0]
    return ConversionPlan(steps=tuple(reversed(steps)))


# -- per-edge algorithms -------------------------------------------------


def _fundamental_circuits(bases: List[int], n: int) -> List[int]:
    """All fundamental circuits C(e, B) over the listed bases."""
    listed = set(bases)
    circuits = set()
    full = full_mask(n)
    for b in bases:
        for e in elements(full & ~b):
            ebit = 1 << e
            c = ebit
            for f in elements(b):
                if (b | ebit) & ~(1 << f) in listed:
                    c |= 1 << f
            circuits.add(c)
    return sorted(circuits, key=canonical_key)


def _bases_to_cyclicflats(desc: Description) -> Description:
    """Closure-of-circuits seeding plus the pairwise-union-closure loop.

    The working list is asserted never to exceed the number of listed
    bases, and the loop runs at most r(M) passes (stopping early once a
    pass adds nothing).
    """
    view = to_view(desc)
    b_count = len(desc.sets)
    circuits = _fundamental_circuits(list(desc.sets), desc.n)
    found = {view.closure(c) for c in circuits}
    found.add(view.closure(0))
    for _ in range(view.full_rank):
        if len(found) > b_count:
            raise AssertionError(
                "cyclic-flat working list exceeds the basis count"
            )
        flats = sorted(found)
        new = set()
        for i, z1 in enumerate(flats):
            for z2 in flats[i + 1 :]:
                new.add(view.closure(z1 | z2))
        if new <= found:
            break
        found |= new
    if len(found) > b_count:
        raise AssertionError("cyclic-flat working list exceeds the basis count")
    cyclic = list(found)
    return description("cyclicflats", desc.n, cyclic, [view.rank(z) for z in cyclic])


def convert_edge(desc: Description, target: str) -> Description:
    """Apply a lattice edge's algorithm; the module docstring gives its cost."""
    if (desc.kind, target) not in EDGES:
        raise PlanError(f"{desc.kind} -> {target} is not a lattice edge")
    n = desc.n
    full = full_mask(n)

    if desc.kind == "rank":
        pairs = list(zip(desc.sets, desc.set_ranks))
        r = dict(pairs)[full]
        if target == "spanning":
            return description("spanning", n, [m for m, rk in pairs if rk == r])
        if target == "independent":
            return description(
                "independent", n, [m for m, rk in pairs if rk == m.bit_count()]
            )

    if desc.kind == "spanning" and target == "bases":
        return description("bases", n, minimal_sets(desc.sets))

    if desc.kind == "independent":
        listed = set(desc.sets)
        if target == "bases":
            return description("bases", n, maximal_sets(desc.sets))
        if target == "flats":
            flats = set()
            for ind in desc.sets:
                cl = ind
                for e in elements(full & ~ind):
                    if ind | (1 << e) not in listed:
                        cl |= 1 << e
                flats.add(cl)
            return description("flats", n, sorted(flats))

    if desc.kind == "bases":
        if target == "circuits":
            return description(
                "circuits", n, _fundamental_circuits(list(desc.sets), n)
            )
        if target == "hyperplanes":
            # dualize, take fundamental circuits there, complement back
            dual_bases = [full & ~b for b in desc.sets]
            cocircuits = _fundamental_circuits(dual_bases, n)
            return description("hyperplanes", n, [full & ~c for c in cocircuits])
        if target == "cyclicflats":
            return _bases_to_cyclicflats(desc)

    if desc.kind == "flats":
        listed = set(desc.sets)
        if target == "hyperplanes":
            # the hyperplanes are the maximal proper flats
            proper = [f for f in desc.sets if f != full]
            return description("hyperplanes", n, maximal_sets(proper))
        if target == "cyclicflats":
            view = to_view(desc)
            keep = [
                f
                for f in desc.sets
                if not any(f & ~(1 << e) in listed for e in elements(f))
            ]
            return description("cyclicflats", n, keep, [view.rank(f) for f in keep])

    if desc.kind == "circuits" and target == "nsc":
        r = to_view(desc).full_rank
        return description(
            "nsc", n, [c for c in desc.sets if c.bit_count() <= r], r=r
        )

    if desc.kind == "hyperplanes" and target == "dephyp":
        dual_circuits = [full & ~h for h in desc.sets]
        dual_desc = description("circuits", n, dual_circuits)
        dual_r = to_view(dual_desc).full_rank
        dual_nsc = [c for c in dual_circuits if c.bit_count() <= dual_r]
        return description("dephyp", n, [full & ~c for c in dual_nsc], r=n - dual_r)

    raise PlanError(f"{desc.kind} -> {target} is not a lattice edge")


def convert(desc: Description, to: str) -> Tuple[Description, ConversionPlan]:
    """Route a description to a target kind and report the plan used."""
    route = plan(desc.kind, to)
    if route.exhaustive:
        return encode_from_oracle(to_view(desc), to), route
    out = desc
    for _, dst in route.steps:
        out = convert_edge(out, dst)
    return out, route


def count_cyclic_flats_vs_bases(view: MatroidView) -> Tuple[int, int]:
    """Exhaustive (z, b) counts; z <= b always holds."""
    families = tables.classify(view)
    z = int(families["cyclicflats"].sum())
    b = int(families["bases"].sum())
    if z > b:
        raise AssertionError(f"cyclic flats {z} exceed bases {b}")
    return z, b
