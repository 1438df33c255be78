"""Exact forcing and anti-forcing solvers with witnesses, plus the
closed-form bound evaluators.

A set S of matching edges forces M exactly when it meets every
M-alternating cycle, so a minimum forcing set is a minimum hitting set of
those cycles over the matching's edges, and a minimum anti-forcing set one
over the other edges.  Both backends run that hitting-set search, a
bounded search tree over the cycles it learns (see
``forcing_lab._kernels_py._hitting_search``), as four kernels (``_search``):
``forcing_value`` and ``anti_forcing_value`` give each matching's value,
which is all ``spectrum`` needs, and ``forcing_set`` and
``anti_forcing_set`` the lexicographically first minimum set as a bit mask,
which ``forcing_number`` and ``anti_forcing_number`` return as the witness.
A witness costs more search nodes than its value, and spends them from the
same per-matching budget.

f(G,M), af(G,M) and C(G,M) depend only on the isomorphism type of the
pair (G, M), so on graphs with many perfect matchings ``spectrum`` solves
one matching per orbit of Aut(G) and copies its values to the rest of the
orbit; the generators come from the canonical-labelling search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import _backend, _kernels_py
from .errors import GraphError, MatchingError, NoPerfectMatchingError, ResourceLimitError
from .graphs import Graph, automorphism_generators, build_graph
from .matchings import (
    Matching,
    alternating_cycles,
    check_perfect_matching,
    enumerate_perfect_matchings,
)


@dataclass(frozen=True)
class SolverLimits:
    """Resource ceilings; exceeding one raises ResourceLimitError."""

    pm_limit: int = 100_000
    node_limit: int = 10_000_000
    cycle_limit: int = 1_000_000


DEFAULT_LIMITS = SolverLimits()


@dataclass(frozen=True)
class ForcingResult:
    value: int
    witness_matching: Matching
    witness_set: tuple[tuple[int, int], ...]
    method: str


@dataclass(frozen=True)
class SpectrumReport:
    """f(G,M) for every perfect matching, hence f(G) and F(G); C(G,M) and
    af(G,M) too when asked for, in the same order.  When the af search hits
    a resource ceiling, ``af_values`` is None, ``af_error`` says why, and
    C(G,M) is not computed."""

    per_matching: tuple[tuple[Matching, int], ...]
    f_min: int
    f_max: int
    c_values: Optional[tuple[int, ...]] = None
    af_values: Optional[tuple[int, ...]] = None
    af_error: Optional[str] = None


# ---------------------------------------------------------------------------
# forcing numbers


def is_forcing_set(g: Graph, m: Matching, s: Sequence[tuple[int, int]]) -> bool:
    """True iff ``g - V(s)`` has a unique perfect matching (s must be in m)."""
    check_perfect_matching(g, m)
    s_norm = [(u, v) if u < v else (v, u) for u, v in s]
    m_set = set(m.edges)
    if any(e not in m_set for e in s_norm):
        raise MatchingError("forcing-set candidate is not a subset of the matching")
    active = g.full_mask
    for u, v in s_norm:
        active &= ~(1 << u | 1 << v)
    return _backend.pm_count(g.handle, active, 2) == 1


def is_anti_forcing_set(g: Graph, m: Matching, x: Sequence[tuple[int, int]]) -> bool:
    """True iff ``m`` is the unique perfect matching of ``g - x`` (x avoids m)."""
    check_perfect_matching(g, m)
    x_norm = [(u, v) if u < v else (v, u) for u, v in x]
    edge_set = set(g.edges)
    m_set = set(m.edges)
    for e in x_norm:
        if e not in edge_set:
            raise MatchingError(f"anti-forcing candidate uses non-edge {e}")
        if e in m_set:
            raise MatchingError("anti-forcing set must avoid the matching")
    g_minus_x = build_graph(g.order, edge_set.difference(x_norm))
    return _backend.pm_count(g_minus_x.handle, g.full_mask, 2) == 1


def forcing_number(
    g: Graph,
    m: Matching,
    *,
    method: str = "subset_search",
    limits: SolverLimits = DEFAULT_LIMITS,
) -> ForcingResult:
    """Minimum forcing set of ``m`` with the lexicographically-first witness.

    ``method="cycle_hitting"`` solves the equivalent minimum hitting set over
    the full alternating-cycle list instead; it exists as an independent
    cross-check of the default subset search.
    """
    check_perfect_matching(g, m)
    if method == "cycle_hitting":
        bit = {e: 1 << i for i, e in enumerate(m.edges)}
        cycles = alternating_cycles(g, m, limits.cycle_limit)
        seeds = [sum(map(bit.__getitem__, cyc.m_edges)) for cyc in cycles]
        mask = _kernels_py._hitting_search(
            len(bit), lambda _: None, limits.node_limit, seeds, witness=True
        )
        if mask == -1:
            raise ResourceLimitError("subset-search node limit exceeded")
    elif method == "subset_search":
        (mask,) = _search(g, [m], True, True, limits)
    else:
        raise ValueError(f"unknown forcing method {method!r}")
    return ForcingResult(mask.bit_count(), m, _members(m.edges, mask), method)


def anti_forcing_number(
    g: Graph, m: Matching, *, limits: SolverLimits = DEFAULT_LIMITS
) -> ForcingResult:
    """Minimum set of non-matching edges whose removal leaves ``m`` unique."""
    check_perfect_matching(g, m)
    (mask,) = _search(g, [m], False, True, limits)
    universe = [e for e in g.edges if e not in m.edges]
    return ForcingResult(mask.bit_count(), m, _members(universe, mask), "subset_search")


def _members(universe: Sequence[tuple[int, int]], mask: int) -> tuple[tuple[int, int], ...]:
    return tuple(e for i, e in enumerate(universe) if mask >> i & 1)


def _search(
    g: Graph, pms: Sequence[Matching], forcing: bool, witness: bool, limits: SolverLimits
) -> list[int]:
    """f(G,M) (``forcing``) or af(G,M) of each matching of ``pms``, or with
    ``witness`` its lexicographically first minimum set as a bit mask, as
    the backend's search gives it.  A -1 (the node ceiling) raises
    ``ResourceLimitError``; for a -2 (the compiled search declines the
    universe or cycle store) the twin answers."""
    name = ("forcing" if forcing else "anti_forcing") + ("_set" if witness else "_value")
    results = getattr(_backend, name)(g.handle, [m.edges for m in pms], limits.node_limit)
    if -2 in results:
        twin = getattr(_kernels_py, name)
        results = [
            twin(g.adj, [m.edges], limits.node_limit)[0] if result == -2 else result
            for m, result in zip(pms, results)
        ]
    if -1 in results:
        raise ResourceLimitError("subset-search node limit exceeded")
    return results


def cycle_packing(
    g: Graph, m: Matching, *, limits: SolverLimits = DEFAULT_LIMITS
) -> int:
    """C(G,M): maximum number of vertex-disjoint M-alternating cycles.

    Equivalent to a maximum independent set in the conflict graph of the
    enumerated cycles; computed by branching over distinct vertex masks.
    """
    cycles = alternating_cycles(g, m, limits.cycle_limit)
    masks = tuple(sorted({c.vertex_mask for c in cycles}))
    return _backend.pack_masks(masks)


# Below this many perfect matchings every matching is solved directly; from
# it on, once per orbit.  K6 has 15, so sweeps of order <= 6 never take the
# orbit path.  Re-measured with the compiled canonical search, as the median
# of 21 in-process runs of spectrum(with_anti_forcing=True) in alternating
# order on a 2-vCPU host: on the 1,811 graphs of the seed-1 order-8 sample
# with at least 16 matchings, 0.189 s at 16, 0.146 s at 24, 0.128 s at 32
# and 0.122 s with no orbit search; on the 13 compute-families specs (with
# C(G,M) too), 0.046 s at 16, 0.044 s at 24, 0.045 s at 32 and 0.93 s with
# none.  No spec has 16-23 matchings, so 16 and 24 run the families alike;
# Knn:4 has 24, and its orbit pass takes it from 1.8 ms to 0.34 ms, which 32
# would lose.  So 24 wins on the sample and costs the families nothing.
_ORBIT_MIN_MATCHINGS = 24


def _perfect_matchings(g: Graph, limits: SolverLimits) -> list[Matching]:
    if g.order % 2:
        raise NoPerfectMatchingError("odd order graph has no perfect matching")
    pms = enumerate_perfect_matchings(g, limit=limits.pm_limit + 1)
    if not pms:
        raise NoPerfectMatchingError("graph has no perfect matching")
    if len(pms) > limits.pm_limit:
        raise ResourceLimitError(
            f"more than {limits.pm_limit} perfect matchings; raise the pm limit"
        )
    return pms


def matching_orbit_firsts(g: Graph, pms: Sequence[Matching]) -> list[int]:
    """For each matching of ``pms`` (every perfect matching of ``g``), the
    position of the first matching of its orbit under Aut(g)."""
    bit = {e: 1 << i for i, e in enumerate(g.edges)}
    position = {sum(map(bit.__getitem__, m.edges)): i for i, m in enumerate(pms)}
    first = list(range(len(pms)))

    def find(i: int) -> int:
        while first[i] != i:
            first[i] = first[first[i]]
            i = first[i]
        return i

    for gamma in automorphism_generators(g):
        image = {}
        for u, v in g.edges:
            a, b = gamma[u], gamma[v]
            image[(u, v)] = bit[(a, b) if a < b else (b, a)]
        for i, m in enumerate(pms):
            a, b = find(i), find(position[sum(map(image.__getitem__, m.edges))])
            if a != b:
                first[max(a, b)] = min(a, b)
    return [find(i) for i in range(len(pms))]


def _orbits(g: Graph, pms: Sequence[Matching]) -> Optional[list[int]]:
    """``matching_orbit_firsts``, or None where solving every matching is
    cheaper."""
    if len(pms) < _ORBIT_MIN_MATCHINGS:
        return None
    return matching_orbit_firsts(g, pms)


def _solved(pms: Sequence[Matching], firsts: Optional[list[int]]) -> Sequence[Matching]:
    """The matchings a search runs on: all, or the first of each orbit."""
    return pms if firsts is None else [m for i, m in enumerate(pms) if firsts[i] == i]


def _spread(values: Sequence[int], firsts: Optional[list[int]]) -> tuple[int, ...]:
    """The values of ``_solved(pms, firsts)`` copied to every matching."""
    if firsts is None:
        return tuple(values)
    solved = iter(values)
    out: list[int] = []
    for i, first in enumerate(firsts):
        out.append(next(solved) if first == i else out[first])
    return tuple(out)


def spectrum(
    g: Graph,
    *,
    limits: SolverLimits = DEFAULT_LIMITS,
    with_cycle_packing: bool = False,
    with_anti_forcing: bool = False,
) -> SpectrumReport:
    """f(G,M) over every perfect matching (full enumeration), and C(G,M)
    and af(G,M) on request, each solved once per orbit of Aut(G) when the
    graph has many perfect matchings."""
    pms = _perfect_matchings(g, limits)
    firsts = _orbits(g, pms)
    solved = _solved(pms, firsts)
    values = _spread(_search(g, solved, True, False, limits), firsts)
    c_values = af_values = af_error = None
    if with_anti_forcing:
        try:
            af_values = _spread(_search(g, solved, False, False, limits), firsts)
        except ResourceLimitError as exc:
            af_error = str(exc)
    if with_cycle_packing and af_error is None:
        c_values = _spread([cycle_packing(g, m, limits=limits) for m in solved], firsts)
    return SpectrumReport(
        tuple(zip(pms, values)), min(values), max(values), c_values, af_values, af_error
    )


def anti_forcing_values(
    g: Graph, *, limits: SolverLimits = DEFAULT_LIMITS
) -> tuple[int, ...]:
    """af(G,M) per perfect matching, in enumeration order."""
    pms = _perfect_matchings(g, limits)
    firsts = _orbits(g, pms)
    return _spread(_search(g, _solved(pms, firsts), False, False, limits), firsts)


# ---------------------------------------------------------------------------
# closed-form bounds, exact arithmetic


@dataclass(frozen=True)
class ExactBound:
    """The exact value ``a + c*sqrt(b)`` of a square-root bound, with c != 0
    and b > 0; comparisons with a rational square the radical."""

    a: Fraction
    c: Fraction
    b: Fraction

    def cmp(self, t) -> int:
        """Sign of (self - t) for rational t (an int or a Fraction)."""
        if self.b <= 0:
            raise GraphError("radicand of an exact bound must be positive")
        d = t - self.a  # compare c*sqrt(b) against d
        lhs_sq = self.c * self.c * self.b
        if self.c > 0:
            if d <= 0:
                return 1
            return (lhs_sq > d * d) - (lhs_sq < d * d)
        if d >= 0:
            return -1
        return (d * d > lhs_sq) - (d * d < lhs_sq)

    def __lt__(self, t) -> bool:
        return self.cmp(t) < 0

    def __le__(self, t) -> bool:
        return self.cmp(t) <= 0

    def __gt__(self, t) -> bool:
        return self.cmp(t) > 0

    def __ge__(self, t) -> bool:
        return self.cmp(t) >= 0

    def equals(self, observed: int) -> bool:
        return self.cmp(observed) == 0

    def __float__(self) -> float:
        return float(self.a) + float(self.c) * float(self.b) ** 0.5

    def __str__(self) -> str:
        return f"{self.a}+{self.c}*sqrt({self.b})"


def _cor_3_5_bound(n: int, e: int) -> ExactBound:
    """F(G) <= (n-e-1)/2 + sqrt(e^2 + 2(n+1)e - 3n^2 - 2n + 1)/2.  The
    radicand is (e+n+1)^2 - 4n(n+1), at least 1 for e >= n."""
    return ExactBound(
        Fraction(n - e - 1, 2),
        Fraction(1, 2),
        Fraction(e * e + 2 * (n + 1) * e - 3 * n * n - 2 * n + 1),
    )


def bound_values(g: Graph) -> dict[str, Fraction | ExactBound]:
    """The seven closed-form bounds of the paper, by theorem id, evaluated
    exactly from n, e and the minimum degree alone: lower bounds on f(G)
    (COR_2_2, COR_2_4, THM_2_5, THM_2_8) and upper bounds on F(G) (PROP_3_2,
    COR_3_1, COR_3_5).  The three square-root bounds (COR_2_2, COR_2_4,
    COR_3_5) are ``ExactBound``s, the rest ``Fraction``s.  Each value is
    returned whether or not the graph meets its theorem's hypothesis;
    ``verify.THEOREMS`` states the direction and the hypothesis of each."""
    if g.order % 2 or g.order < 2:
        raise GraphError("bounds are defined for even order >= 2")
    n = g.order // 2
    e = g.edge_count
    delta = g.min_degree
    quarter = Fraction(1, 4)
    return {
        "COR_2_2": ExactBound(n - Fraction(1, 2), Fraction(-1), 2 * n * n - n - e + quarter),
        "COR_2_4": ExactBound(n - Fraction(1, 2), Fraction(-1), 2 * n * n - 2 * e + quarter),
        "THM_2_5": Fraction(delta - 1),
        "THM_2_8": Fraction(delta - 1, 2),
        "PROP_3_2": Fraction(e - n, 2),
        "COR_3_1": Fraction(e - n, 2) if e >= 3 * n - 2 else Fraction(e - 2 * n + 1),
        "COR_3_5": _cor_3_5_bound(n, e),
    }
