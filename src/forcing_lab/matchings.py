"""Perfect matchings, alternating cycles, allowed edges, elementarity."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import _backend
from .errors import MatchingError, ResourceLimitError
from .graphs import Graph, is_connected

DEFAULT_CYCLE_LIMIT = 1_000_000


@dataclass(frozen=True)
class Matching:
    """Disjoint edges, sorted lexicographically, plus the covered-vertex mask."""

    edges: tuple[tuple[int, int], ...]
    covered: int

    def __len__(self) -> int:
        return len(self.edges)


def matching_from_edges(edges: Sequence[tuple[int, int]]) -> Matching:
    norm = sorted((u, v) if u < v else (v, u) for u, v in edges)
    covered = 0
    for u, v in norm:
        if u == v:
            raise MatchingError(f"loop edge at {u}")
        pair = (1 << u) | (1 << v)
        if covered & pair:
            raise MatchingError("edges are not pairwise disjoint")
        covered |= pair
    return Matching(tuple(norm), covered)


def check_perfect_matching(g: Graph, m: Matching) -> None:
    if not all(g.has_edge(u, v) for u, v in m.edges):
        raise MatchingError("matching uses a non-edge of the graph")
    if m.covered != g.full_mask:
        raise MatchingError("matching is not perfect")


@dataclass(frozen=True)
class AlternatingCycle:
    """Even cycle whose edges alternate in and out of a perfect matching.

    ``vertices`` is the canonical cyclic sequence: smallest vertex first,
    oriented toward its smaller neighbour.
    """

    vertices: tuple[int, ...]
    m_edges: tuple[tuple[int, int], ...]
    non_m_edges: tuple[tuple[int, int], ...]

    @property
    def vertex_mask(self) -> int:
        return sum(1 << v for v in self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)


def _cycle_from_vertices(vertices: tuple[int, ...], m_set: set) -> AlternatingCycle:
    k = len(vertices)
    m_edges = []
    non_m = []
    for i in range(k):
        u, v = vertices[i], vertices[(i + 1) % k]
        e = (u, v) if u < v else (v, u)
        if e in m_set:
            m_edges.append(e)
        else:
            non_m.append(e)
    return AlternatingCycle(vertices, tuple(sorted(m_edges)), tuple(sorted(non_m)))


def enumerate_perfect_matchings(g: Graph, limit: Optional[int] = None) -> list[Matching]:
    """Every perfect matching, lexicographic by sorted edge list; odd order
    gives the empty list.  ``limit`` truncates the enumeration."""
    lim = -1 if limit is None else limit
    raw = _backend.pm_enumerate(g.handle, g.full_mask, lim)
    return [Matching(edges, g.full_mask) for edges in raw]


def count_perfect_matchings(g: Graph, cap: int) -> int:
    return _backend.pm_count(g.handle, g.full_mask, cap)


def has_perfect_matching(g: Graph) -> bool:
    return count_perfect_matchings(g, 1) == 1


def has_unique_perfect_matching(g: Graph) -> bool:
    return count_perfect_matchings(g, 2) == 1


def alternating_cycles(
    g: Graph, m: Matching, cycle_limit: int = DEFAULT_CYCLE_LIMIT
) -> list[AlternatingCycle]:
    """All M-alternating cycles, canonical form, each exactly once.

    Empty iff ``m`` is the unique perfect matching.  Raises
    ResourceLimitError past ``cycle_limit`` cycles.
    """
    check_perfect_matching(g, m)
    raw = _backend.alt_cycles(g.handle, m.edges, cycle_limit)
    if raw is None:
        raise ResourceLimitError(
            f"more than {cycle_limit} alternating cycles; raise the cycle limit"
        )
    m_set = set(m.edges)
    return [_cycle_from_vertices(vs, m_set) for vs in raw]


def allowed_edges(g: Graph) -> tuple[tuple[int, int], ...]:
    """Edges lying in some perfect matching (per-edge residue test)."""
    h = g.handle
    full = g.full_mask
    out = []
    for u, v in g.edges:
        residue = full & ~((1 << u) | (1 << v))
        if _backend.pm_count(h, residue, 1) == 1:
            out.append((u, v))
    return tuple(out)


def forbidden_edges(g: Graph) -> tuple[tuple[int, int], ...]:
    allowed = set(allowed_edges(g))
    return tuple(e for e in g.edges if e not in allowed)


def is_elementary(g: Graph) -> bool:
    """Connected and every edge allowed (Hetyei's criterion)."""
    if not is_connected(g):
        return False
    return len(allowed_edges(g)) == g.edge_count
