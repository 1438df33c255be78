"""Exact forcing and anti-forcing solvers with witnesses, plus the
closed-form bound evaluators.

The minimum-forcing search is iterative deepening over subsets of the
matching in lexicographic edge order.  Two prunes keep it exact: subsets
that miss an already-discovered alternating cycle are skipped (such a set
cannot force), and sizes below the best disjoint packing of discovered
cycles are never tried.  Each failed uniqueness check contributes a new
cycle, so the search is a lazy minimum-hitting-set computation.  The
anti-forcing search is the same search over the non-matching edges, and
``_min_hitting`` serves both.  The compiled extension runs the same search
in C for the value alone (``_value``); the witnesses, and the values where
the extension is missing or declines, come from ``_min_hitting``.  Both
spend search nodes alike (one per call of the recursion, plus one per slot
of a free completion), so a node limit stops both at the same point.

f(G,M), af(G,M) and C(G,M) depend only on the isomorphism type of the
pair (G, M), so on graphs with many perfect matchings ``spectrum`` solves
one matching per orbit of Aut(G) and copies its values to the rest of the
orbit; the generators come from the canonical-labelling search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import _backend
from .errors import GraphError, MatchingError, NoPerfectMatchingError, ResourceLimitError
from .graphs import Graph, automorphism_generators
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
# subset search machinery


def _greedy_disjoint_count(masks: Sequence[int]) -> int:
    used = 0
    count = 0
    for m in masks:
        if not (m & used):
            used |= m
            count += 1
    return count


def _lazy_minimum_hitting(
    n_universe: int,
    check: Callable[[tuple[int, ...]], Optional[int]],
    node_limit: int,
    seed_constraints: Sequence[int] = (),
) -> tuple[int, tuple[int, ...]]:
    """Smallest (then lexicographically first) subset accepted by ``check``.

    ``check`` returns None to accept a candidate, or a new constraint mask
    (disjoint from the candidate) that future candidates must hit.  Nodes
    are spent as the compiled search spends them: one per call of ``first``,
    plus one per slot of a free completion; exceeding ``node_limit`` raises.
    """
    constraints = list(dict.fromkeys(seed_constraints))
    budget = node_limit

    def first(start: int, slots: int, unhit: list[int], chosen: tuple[int, ...]):
        """Lexicographically first hitting completion of ``chosen`` by
        ``slots`` indices from ``start`` on, or None."""
        nonlocal budget
        free = not unhit and start + slots <= n_universe
        budget -= 1 + slots if free else 1
        if budget < 0:
            raise ResourceLimitError("subset-search node limit exceeded")
        if free:
            return chosen + tuple(range(start, start + slots))
        if slots == 0:
            return None
        for c in unhit:
            if c >> start == 0:
                return None  # some cycle can no longer be hit
        if _greedy_disjoint_count(unhit) > slots:
            return None  # disjoint unhit cycles exceed the remaining slots
        for i in range(start, n_universe - slots + 1):
            bit = 1 << i
            found = first(i + 1, slots - 1, [c for c in unhit if not c & bit], chosen + (i,))
            if found is not None:
                return found
        return None

    k = _greedy_disjoint_count(constraints)
    while k <= n_universe:
        cand = first(0, k, constraints, ())
        if cand is None:
            k += 1
            continue
        new_constraint = check(cand)
        if new_constraint is None:
            return k, cand
        constraints.append(new_constraint)
        k = max(k, _greedy_disjoint_count(constraints))
    raise AssertionError("hitting search exhausted its universe")


def _vertex_mask(edges: Sequence[tuple[int, int]]) -> int:
    mask = 0
    for u, v in edges:
        mask |= (1 << u) | (1 << v)
    return mask


# ---------------------------------------------------------------------------
# forcing numbers


def is_forcing_set(g: Graph, m: Matching, s: Sequence[tuple[int, int]]) -> bool:
    """True iff ``g - V(s)`` has a unique perfect matching (s must be in m)."""
    check_perfect_matching(g, m)
    s_norm = [(u, v) if u < v else (v, u) for u, v in s]
    m_set = set(m.edges)
    if any(e not in m_set for e in s_norm):
        raise MatchingError("forcing-set candidate is not a subset of the matching")
    active = g.full_mask & ~_vertex_mask(s_norm)
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
    return _backend.pm_count(g.handle, g.full_mask, 2, tuple(x_norm)) == 1


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
        universe = m.edges
        position = {e: i for i, e in enumerate(universe)}
        seeds = []
        for cyc in alternating_cycles(g, m, limits.cycle_limit):
            mask = 0
            for e in cyc.m_edges:
                mask |= 1 << position[e]
            seeds.append(mask)
        value, cand = _lazy_minimum_hitting(
            len(universe), lambda _cand: None, limits.node_limit, seeds
        )
        witness = tuple(universe[i] for i in cand)
        return ForcingResult(value, m, witness, "cycle_hitting")

    if method != "subset_search":
        raise ValueError(f"unknown forcing method {method!r}")
    value, witness = _min_hitting(g, m, True, limits)
    return ForcingResult(value, m, witness, "subset_search")


def anti_forcing_number(
    g: Graph, m: Matching, *, limits: SolverLimits = DEFAULT_LIMITS
) -> ForcingResult:
    """Minimum set of non-matching edges whose removal leaves ``m`` unique."""
    check_perfect_matching(g, m)
    value, witness = _min_hitting(g, m, False, limits)
    return ForcingResult(value, m, witness, "subset_search")


def _min_hitting(
    g: Graph, m: Matching, forcing: bool, limits: SolverLimits
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Size and lexicographically-first witness of a minimum forcing set
    (``forcing``: a candidate deletes the ends of matching edges) or
    anti-forcing set (a candidate removes non-matching edges) of ``m``.

    A rejected candidate leaves a second perfect matching; the constraint
    is the first cycle of its symmetric difference with what remains of
    ``m``, walked from its lowest vertex, restricted to the universe's side.
    """
    mates = m.mates(g.order)
    if forcing:
        universe = m.edges
    else:
        universe = tuple((u, v) for u, v in g.edges if mates[u] != v)
    position = {e: i for i, e in enumerate(universe)}
    h = g.handle
    full = g.full_mask

    def check(cand: tuple[int, ...]) -> Optional[int]:
        chosen = tuple(universe[i] for i in cand)
        active, removed = (full & ~_vertex_mask(chosen), ()) if forcing else (full, chosen)
        if _backend.pm_count(h, active, 2, removed) == 1:
            return None
        pms = _backend.pm_enumerate(h, active, 2, removed)
        residual = tuple(e for e in m.edges if active >> e[0] & 1)
        other = pms[0] if pms[0] != residual else pms[1]
        omates = dict(other)
        omates.update((v, u) for u, v in other)
        start = v = next(a for a, b in other if mates[a] != b)
        mask = 0
        while True:
            u = mates[v]
            w = omates[u]
            e = (v, u) if forcing else (u, w)
            mask |= 1 << position[e if e[0] < e[1] else (e[1], e[0])]
            v = w
            if v == start:
                return mask

    value, cand = _lazy_minimum_hitting(len(universe), check, limits.node_limit)
    return value, tuple(universe[i] for i in cand)


def _value(g: Graph, m: Matching, forcing: bool, limits: SolverLimits) -> int:
    """f(G,M) (``forcing``) or af(G,M).

    The compiled backend runs the same search in C, spending nodes as
    ``_lazy_minimum_hitting`` does, and returns only the value: -1 when the
    node budget runs out (raised here as ``ResourceLimitError``, as
    ``_min_hitting`` would), -2 when the universe (over 64 edges) or the
    constraint store (over 512) is too large for it.  On -2, or with no
    compiled search, ``_min_hitting`` answers.
    """
    fn = _backend.forcing_value if forcing else _backend.anti_forcing_value
    value = -2 if fn is None else fn(g.handle, m.mates(g.order), limits.node_limit)
    if value == -1:
        raise ResourceLimitError("subset-search node limit exceeded")
    if value == -2:
        value = _min_hitting(g, m, forcing, limits)[0]
    return value


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
# it on, once per orbit.  At order 8 the automorphism search costs more than
# it saves for 8-15 matchings and pays from 16 on (K6 has 15, so sweeps of
# order <= 6 never take the orbit path).
_ORBIT_MIN_MATCHINGS = 16


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


def _per_matching(
    pms: Sequence[Matching], firsts: Optional[list[int]], solve: Callable[[Matching], int]
) -> tuple[int, ...]:
    """``solve`` on each matching, or only on the first of each orbit."""
    if firsts is None:
        return tuple(solve(m) for m in pms)
    out: list[int] = []
    for i, m in enumerate(pms):
        out.append(solve(m) if firsts[i] == i else out[firsts[i]])
    return tuple(out)


def _orbits(g: Graph, pms: Sequence[Matching]) -> Optional[list[int]]:
    """``matching_orbit_firsts``, or None where the plain loop is cheaper."""
    if len(pms) < _ORBIT_MIN_MATCHINGS:
        return None
    return matching_orbit_firsts(g, pms)


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
    values = _per_matching(pms, firsts, lambda m: _value(g, m, True, limits))
    c_values = af_values = af_error = None
    if with_anti_forcing:
        try:
            af_values = _per_matching(pms, firsts, lambda m: _value(g, m, False, limits))
        except ResourceLimitError as exc:
            af_error = str(exc)
    if with_cycle_packing and af_error is None:
        c_values = _per_matching(pms, firsts, lambda m: cycle_packing(g, m, limits=limits))
    return SpectrumReport(
        tuple(zip(pms, values)), min(values), max(values), c_values, af_values, af_error
    )


def anti_forcing_values(
    g: Graph, *, limits: SolverLimits = DEFAULT_LIMITS
) -> tuple[int, ...]:
    """af(G,M) per perfect matching, in enumeration order."""
    pms = _perfect_matchings(g, limits)
    return _per_matching(pms, _orbits(g, pms), lambda m: _value(g, m, False, limits))


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
