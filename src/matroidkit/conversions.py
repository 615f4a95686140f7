"""Constructive conversions between description kinds.

The twelve directed edges of the Hasse diagram of the polynomial-time
convertibility order on the ten kinds are the rows of ``_RULES``.  Each
row's listed-data algorithm never enumerates the whole subset lattice;
pairs without a lattice path fall back to exhaustive re-encoding, and
the planner reports which route was taken.

Cost of each edge for k listed input sets on n elements, before the
canonical sort of its output.  Every rule works on the listed sets
alone, so memory grows with k and n, never with 2^n.  Some rules read
the listing by elements (``bitsets.columns``): one k-bit int per element,
whose ANDs test a set against every listed set at once.

- rank -> spanning / independent: O(k), one pass over the 2^n rows;
- spanning -> bases, independent -> bases: O(k * n) lookups
  (``bitsets.minimal_sets``/``maximal_sets``): a walk of O(k * |output|)
  subset tests until it has kept 8 * n + 1 bases, then k * n to find
  that a matroid's spanning or independent sets are up- or down-closed
  and k * n to keep the sets with no listed S - e or S + e; a listing
  that is not closed, so no matroid's, finishes the walk;
- flats -> hyperplanes: O(k * |output|) subset tests
  (``bitsets.maximal_sets`` of the proper flats, which are not closed);
- independent -> flats: O(k * n) lookups; flats -> cyclicflats the same,
  after ranking the flats by height: O(n) ANDs of k-bit ints per flat;
- bases -> circuits: O(k * n) dict updates, one per basis B and element
  e outside it; bases -> hyperplanes the same on the dual, between two
  O(k) complement passes (``descriptions.dual``);
- circuits -> nsc: O(k * n), the rank by n queries; hyperplanes ->
  dephyp the same on the dual, between two O(k) complement passes;
- bases -> cyclicflats: closures of the fundamental circuits and then
  of the pairwise unions that involve a flat the previous pass added,
  at most r passes; each closure is O(n) ANDs of k-bit ints, memoised.

All twelve rules and the planner are pure Python, so a ``convert`` along
the lattice never imports numpy; the exhaustive fallback builds tables
and loads it.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

# ``tables``, and with it numpy, loads in the functions that use it
from .bitsets import canonical_order, columns, elements, full_mask, maximal_sets, minimal_sets
from .descriptions import Description, canonical, dual, encode_from_oracle, to_view
from .core import MatroidView


class PlanError(ValueError):
    pass


class ConversionPlan(NamedTuple):
    steps: Tuple[Tuple[str, str], ...]
    exhaustive: bool = False

    def describe(self) -> str:
        if self.exhaustive:
            return "exhaustive"
        if not self.steps:
            return "identity"
        kinds = [self.steps[0][0]] + [dst for _, dst in self.steps]
        return " -> ".join(kinds)


# -- per-edge algorithms -------------------------------------------------


def _fundamental_circuits(bases: Sequence[int], n: int) -> List[int]:
    """All fundamental circuits C(e, B) over the listed bases: e with
    every f in B for which B - f + e is listed.  C(e, B) is the set of
    g in U = B + e with U - g listed, so it depends on U alone: each
    (B, e) pair adds e to the entry of U."""
    full = full_mask(n)
    circuit_of: Dict[int, int] = {}
    for b in bases:
        for e in elements(full & ~b):
            u = b | 1 << e
            circuit_of[u] = circuit_of.get(u, 0) | 1 << e
    return canonical_order(set(circuit_of.values()))


def _closure_and_basis(bases: Sequence[int], n: int) -> Callable[[int], Tuple[int, int]]:
    """The closure and greedy basis of a mask as ``MatroidView.closure``
    and ``basis_of`` find them on a bases view, where a set is
    independent when it lies inside some listed basis.

    ``holds[e]`` has bit i set when listed basis i holds e, so the bases
    holding a set are the AND of its elements' ints.  The basis grows in
    ascending element order while some basis holds it, and the closure
    adds each element that no basis holding the basis also holds."""
    holds = columns(bases, n)
    everything, full = (1 << len(bases)) - 1, full_mask(n)

    def closure_and_basis(mask: int) -> Tuple[int, int]:
        picked, holding = 0, everything
        for e in elements(mask):
            if holding & holds[e]:
                picked |= 1 << e
                holding &= holds[e]
        closed = mask
        for e in elements(full & ~mask):
            if not holding & holds[e]:
                closed |= 1 << e
        return closed, picked

    return closure_and_basis


def _independent_to_flats(desc: Description) -> Description:
    """Close each independent set by the elements that make it unlisted."""
    listed = set(desc.sets)
    full = full_mask(desc.n)
    flats = set()
    for ind in desc.sets:
        cl = ind
        for e in elements(full & ~ind):
            if ind | (1 << e) not in listed:
                cl |= 1 << e
        flats.add(cl)
    return canonical("flats", desc.n, flats)


def _bases_to_cyclicflats(desc: Description) -> Description:
    """Closure-of-circuits seeding plus the pairwise-union-closure loop.

    The working list of a matroid never exceeds the number of listed
    bases (``ValueError`` if it does), and the loop runs at most r(M)
    passes (stopping early once a pass adds nothing).  A pass closes only
    the unions that involve a flat the previous pass added: the others
    were closed a pass earlier.  Closures are memoised by mask.
    """
    view = to_view(desc)
    n, b_count = desc.n, len(desc.sets)
    close = cache(_closure_and_basis(desc.sets, n))
    found = {close(c)[0] for c in _fundamental_circuits(desc.sets, n) + [0]}
    fresh = found
    for _ in range(view.full_rank):
        if len(found) > b_count:
            break
        new = {close(z1 | z2)[0] for z1 in fresh for z2 in found if z2 != z1}
        if new <= found:
            break
        fresh = new - found
        found |= new
    if len(found) > b_count:
        raise ValueError(
            "cyclic-flat working list exceeds the basis count (not a matroid)"
        )
    cyclic = list(found)
    return canonical("cyclicflats", n, cyclic, [close(z)[1].bit_count() for z in cyclic])


def _flats_to_cyclicflats(desc: Description) -> Description:
    """The flats F with no element e for which F - e is listed, ranked."""
    listed = set(desc.sets)
    view = to_view(desc)
    keep = [f for f in desc.sets if not any(f & ~(1 << e) in listed for e in elements(f))]
    return canonical("cyclicflats", desc.n, keep, [view._rank_of(f) for f in keep])


def _non_spanning(circuits: Description) -> Description:
    """The circuits of at most the matroid's rank, with that rank."""
    r = to_view(circuits).full_rank
    sets = [c for c in circuits.sets if c.bit_count() <= r]
    return canonical("nsc", circuits.n, sets, r=r)


#: The directed cover edges of the convertibility order, each with its
#: rule, in declaration order (which breaks shortest-path ties).  A rank
#: description lists every subset in canonical order, so r(E) is last.
_RULES: Dict[Tuple[str, str], Callable[[Description], Description]] = {
    ("rank", "spanning"): lambda d: canonical(
        "spanning", d.n, [m for m, rk in zip(d.sets, d.set_ranks) if rk == d.set_ranks[-1]]
    ),
    ("rank", "independent"): lambda d: canonical(
        "independent", d.n, [m for m, rk in zip(d.sets, d.set_ranks) if rk == m.bit_count()]
    ),
    ("spanning", "bases"): lambda d: canonical("bases", d.n, minimal_sets(d.sets)),
    ("independent", "bases"): lambda d: canonical("bases", d.n, maximal_sets(d.sets)),
    ("independent", "flats"): _independent_to_flats,
    ("bases", "circuits"): lambda d: canonical(
        "circuits", d.n, _fundamental_circuits(d.sets, d.n)
    ),
    ("bases", "cyclicflats"): _bases_to_cyclicflats,
    # the hyperplanes are the complements of the dual's circuits
    ("bases", "hyperplanes"): lambda d: dual(
        canonical("circuits", d.n, _fundamental_circuits(dual(d).sets, d.n))
    ),
    ("flats", "cyclicflats"): _flats_to_cyclicflats,
    # the hyperplanes are the maximal proper flats
    ("flats", "hyperplanes"): lambda d: canonical(
        "hyperplanes", d.n, maximal_sets([f for f in d.sets if f != full_mask(d.n)])
    ),
    ("circuits", "nsc"): _non_spanning,
    # the dependent hyperplanes are the complements of the dual's nsc
    ("hyperplanes", "dephyp"): lambda d: dual(_non_spanning(dual(d))),
}

EDGES: Tuple[Tuple[str, str], ...] = tuple(_RULES)


def reachable(src: str, dst: str) -> bool:
    return not plan(src, dst).exhaustive


def plan(src: str, dst: str) -> ConversionPlan:
    """Shortest lattice path, or the exhaustive marker if there is none.

    Breadth-first search from ``src`` that expands each kind's edges in
    ``EDGES`` order and keeps the first path found to every kind, so
    ties resolve deterministically.
    """
    paths: Dict[str, Tuple[Tuple[str, str], ...]] = {src: ()}
    queue = [src]
    for kind in queue:  # grows while it is read: a FIFO queue
        for edge in EDGES:
            if edge[0] == kind and edge[1] not in paths:
                paths[edge[1]] = paths[kind] + (edge,)
                queue.append(edge[1])
    if dst not in paths:
        return ConversionPlan(steps=(), exhaustive=True)
    return ConversionPlan(steps=paths[dst])


def convert_edge(desc: Description, target: str) -> Description:
    """Apply the rule of the lattice edge ``desc.kind -> target``; the
    module docstring gives its cost.  ``PlanError`` if there is no such
    edge."""
    rule = _RULES.get((desc.kind, target))
    if rule is None:
        raise PlanError(f"{desc.kind} -> {target} is not a lattice edge")
    return rule(desc)


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
    """Exhaustive (z, b) counts; ``ValueError`` unless z <= b, as in a matroid."""
    from . import tables

    z = int(tables.family_table(view, "cyclicflats").sum())
    b = int(tables.family_table(view, "bases").sum())
    if z > b:
        raise ValueError(f"cyclic flats {z} exceed bases {b} (not a matroid)")
    return z, b
