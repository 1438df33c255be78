"""Named graph families and class recognizers.

Canonical labelings: bipartite families put the independent/left side U on
vertices 0..n-1 and V on n..2n-1, with the paper-style 1-based index i
mapping to vertex i-1 (so u_i = i-1, v_j = n+j-1).  Join constructions
append the clique block after the first factor's vertices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

from .errors import FamilyError
from .graphs import (
    BIPARTITE,
    COGRAPH,
    CONNECTED,
    F_N1,
    G1_MEMBER,
    G2_MEMBER,
    SPLIT,
    Graph,
    ORDER_CAP,
    build_graph,
    cartesian_product,
    generate,
    join,
)
from .matchings import allowed_edges


# The constructors of the extremal graphs are memoized (graphs are immutable
# and 2n <= 32 bounds the cache), so the theorem table's isomorphism tests
# build and label each target once per process; the graph keeps its
# canonical rows.


@lru_cache(maxsize=None)
def make_H(n: int, k: int) -> Graph:
    """H_{n,k}: balanced bipartite, u_i v_j missing exactly when i < j <= n-k."""
    if not (0 <= k <= n - 1) or 2 * n > ORDER_CAP:
        raise FamilyError(f"H_(n,k) needs 0 <= k <= n-1 and 2n <= {ORDER_CAP}")
    edges = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i < j <= n - k:
                continue
            edges.append((i - 1, n + j - 1))
    return build_graph(2 * n, edges)


@lru_cache(maxsize=None)
def make_H_hat(n: int) -> Graph:
    """H_{n,0} with the V side completed to a clique; unique perfect matching."""
    if n < 1 or 2 * n > ORDER_CAP:
        raise FamilyError(f"H-hat needs 1 <= n <= {ORDER_CAP // 2}")
    g = make_H(n, 0)
    edges = list(g.edges)
    edges += [(n + i, n + j) for i in range(n) for j in range(i + 1, n)]
    return build_graph(2 * n, edges)


@lru_cache(maxsize=None)
def make_H_hat_join(n: int, k: int) -> Graph:
    """The join of H-hat_{n-k,0} with the complete graph on 2k vertices."""
    if not (0 <= k <= n - 1) or 2 * n > ORDER_CAP:
        raise FamilyError(f"join family needs 0 <= k <= n-1 and 2n <= {ORDER_CAP}")
    core = make_H_hat(n - k)
    if k == 0:
        return core
    return join(core, generate("complete", 2 * k))


@lru_cache(maxsize=None)
def make_matching_join(n: int, k: int) -> Graph:
    """(n-k) disjoint edges joined with the complete graph on 2k vertices."""
    if not (0 <= k <= n - 1) or 2 * n > ORDER_CAP:
        raise FamilyError(f"join family needs 0 <= k <= n-1 and 2n <= {ORDER_CAP}")
    m = n - k
    core = build_graph(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])
    if k == 0:
        return core
    return join(core, generate("complete", 2 * k))


def make_G4(n: int, k: int) -> Graph:
    """H-hat_{n-k,0} plus the staircase edges u_i v_{i+1}, joined with K_{2k}."""
    if not (0 <= k <= n - 2) or 2 * n > ORDER_CAP:
        raise FamilyError(f"G4 needs 0 <= k <= n-2 and 2n <= {ORDER_CAP}")
    m = n - k
    core = make_H_hat(m)
    edges = list(core.edges)
    edges += [(i - 1, m + i) for i in range(1, m)]  # u_i v_{i+1}
    plus = build_graph(2 * m, edges)
    if k == 0:
        return plus
    return join(plus, generate("complete", 2 * k))


def make_G5(n: int, k: int, i: int) -> Graph:
    """H_{n,k} plus the three edges u_i v_{n-k-1}, u_i v_{n-k}, u_{i+1} v_{n-k}."""
    if not (0 <= k <= n - 3) or not (1 <= i <= n - k - 2) or 2 * n > ORDER_CAP:
        raise FamilyError("G5 needs n-k >= 3 and 1 <= i <= n-k-2")
    g = make_H(n, k)
    edges = list(g.edges)
    edges.append((i - 1, n + (n - k - 1) - 1))
    edges.append((i - 1, n + (n - k) - 1))
    edges.append((i, n + (n - k) - 1))
    return build_graph(2 * n, edges)


def make_G1_member(n: int, deleted_parts: Sequence[tuple[int, int]]) -> Graph:
    """K_{n,n} minus disjoint complete bipartite blocks, lowest indices first.

    The t-th block removes all edges between the next ``a_t`` unused U
    vertices and the next ``b_t`` unused V vertices.
    """
    parts = list(deleted_parts)
    if not parts:
        raise FamilyError("a G1 member needs at least one deleted subgraph")
    if any(a < 1 or b < 1 for a, b in parts):
        raise FamilyError("deleted parts need at least one vertex per side")
    if any(a + b > n for a, b in parts):
        raise FamilyError("deleted subgraph order exceeds n")
    if sum(a for a, _ in parts) > n or sum(b for _, b in parts) > n:
        raise FamilyError("deleted subgraphs overlap: side capacity exceeded")
    if 2 * n > ORDER_CAP:
        raise FamilyError(f"2n exceeds {ORDER_CAP}")
    missing = set()
    u_next = 0
    v_next = 0
    for a, b in parts:
        for du in range(a):
            for dv in range(b):
                missing.add((u_next + du, n + v_next + dv))
        u_next += a
        v_next += b
    edges = [
        (u, n + v)
        for u in range(n)
        for v in range(n)
        if (u, n + v) not in missing
    ]
    return build_graph(2 * n, edges)


def enumerate_G1_deletions(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All legal deletion multisets for G1 members at side size n, canonical
    (non-decreasing) order."""
    pairs = [
        (a, b) for a in range(1, n) for b in range(1, n) if a + b <= n
    ]

    def rec(start: int, rem_a: int, rem_b: int, chosen):
        for idx in range(start, len(pairs)):
            a, b = pairs[idx]
            if a <= rem_a and b <= rem_b:
                picked = chosen + [(a, b)]
                yield tuple(picked)
                yield from rec(idx, rem_a - a, rem_b - b, picked)

    yield from rec(0, n, n, [])


def make_G2_member(
    part_sizes: tuple[int, int], cross_edges: Sequence[tuple[int, int]] = ()
) -> Graph:
    """Two complete bipartite components K_{a,a} and K_{b,b} plus cross edges,
    every one of which must come out forbidden (checked, not trusted)."""
    a, b = part_sizes
    if a < 1 or b < 1:
        raise FamilyError("both components need a perfect matching")
    n = a + b
    if 2 * n > ORDER_CAP:
        raise FamilyError(f"2n exceeds {ORDER_CAP}")
    # U = 0..n-1 (first a in component 1), V = n..2n-1 (first a in component 1)
    edges = [(u, n + v) for u in range(a) for v in range(a)]
    edges += [(a + u, n + a + v) for u in range(b) for v in range(b)]
    u1 = set(range(a))
    u2 = set(range(a, n))
    v1 = set(range(n, n + a))
    v2 = set(range(n + a, 2 * n))
    norm_cross = []
    for x, y in cross_edges:
        if x > y:
            x, y = y, x
        if (x in u1 and y in v2) or (x in u2 and y in v1):
            norm_cross.append((x, y))
        else:
            raise FamilyError(f"cross edge ({x},{y}) does not join opposite components")
    g = build_graph(2 * n, edges + norm_cross)
    allowed = set(allowed_edges(g))
    for e in norm_cross:
        if e in allowed:
            raise FamilyError(f"cross edge {e} is allowed, so this is not a G2 member")
    return g


# ---------------------------------------------------------------------------
# class recognizers: each reads the flags of the one class-kernel call a
# graph makes (``Graph.class_flags``; the pure-Python twin of the kernels
# spells out the methods)


def is_split(g: Graph) -> bool:
    """Clique + independent set partition (Hammer-Simeone degree test)."""
    return bool(g.class_flags[0] & SPLIT)


def is_cograph(g: Graph) -> bool:
    """P4-free (complement-component recursion)."""
    return bool(g.class_flags[0] & COGRAPH)


def recognize_f_n1(g: Graph) -> bool:
    """Predictor for f(G) = n-1: complete multipartite with parts <= n, or
    K_{n,n} with arbitrary extra edges inside one partite set.

    Edges inside *both* sides collapse the minimum forcing number (adding
    one edge per side of K_{3,3} already gives f = 1), so the second family
    keeps one side independent: some n-set B is independent with every
    B-to-rest pair an edge.
    """
    return bool(g.class_flags[0] & F_N1)


@dataclass(frozen=True)
class ClassReport:
    """The class flags the theorem table reads.  G1/G2 membership is judged
    against the canonical bipartition from ``bipartition_of``."""

    is_split: bool
    is_cograph: bool
    bipartite: bool
    g1_member: bool
    g2_member: bool
    connected: bool
    predicts_f_n1: bool  # recognize_f_n1


def classify(g: Graph) -> ClassReport:
    """Every class flag of the graph in one report, from one kernel call."""
    flags = g.class_flags[0]
    return ClassReport(
        is_split=bool(flags & SPLIT),
        is_cograph=bool(flags & COGRAPH),
        bipartite=bool(flags & BIPARTITE),
        g1_member=bool(flags & G1_MEMBER),
        g2_member=bool(flags & G2_MEMBER),
        connected=bool(flags & CONNECTED),
        predicts_f_n1=bool(flags & F_N1),
    )


# ---------------------------------------------------------------------------
# family specs (canonical text form used by the CLI)


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple
    deletions: tuple[tuple[int, int], ...] = ()
    cross_edges: tuple[tuple[int, int], ...] = ()


# name -> (parameter count, constructor of the family spec)
_FAMILIES: dict[str, tuple[int, Callable[[FamilySpec], Graph]]] = {
    "H": (2, lambda s: make_H(*s.params)),
    "Hhat": (1, lambda s: make_H_hat(*s.params)),
    "HhatJoin": (2, lambda s: make_H_hat_join(*s.params)),
    "MJoin": (2, lambda s: make_matching_join(*s.params)),
    "G4": (2, lambda s: make_G4(*s.params)),
    "G5": (3, lambda s: make_G5(*s.params)),
    "G1": (1, lambda s: make_G1_member(s.params[0], s.deletions)),
    "G2": (2, lambda s: make_G2_member(s.params, s.cross_edges)),
    "grid": (2, lambda s: _product("path", "path", *s.params)),
    "torus": (2, lambda s: _product("cycle", "cycle", *s.params)),
    "pc": (2, lambda s: _product("path", "cycle", *s.params)),
    "Q": (1, lambda s: generate("hypercube", *s.params)),
    "Knn": (1, lambda s: generate("complete_bipartite", *s.params, *s.params)),
    "K": (2, lambda s: generate("complete_bipartite", *s.params)),
    "nK2": (
        1,
        lambda s: build_graph(2 * s.params[0], [(2 * i, 2 * i + 1) for i in range(s.params[0])]),
    ),
    "path": (1, lambda s: generate("path", *s.params)),
    "cycle": (1, lambda s: generate("cycle", *s.params)),
    "complete": (1, lambda s: generate("complete", *s.params)),
}

# families written with AxB dimensions instead of a comma list
_DIMENSIONED = ("grid", "torus", "pc")

_BY_X = re.compile(r"^(\d+)x(\d+)$")


def _product(first: str, second: str, a: int, b: int) -> Graph:
    return cartesian_product(generate(first, a), generate(second, b))


def _ints(tokens: Sequence[str], text: str) -> tuple[int, ...]:
    """Every integer of a spec is read here, so a bad one is a FamilyError."""
    try:
        return tuple(int(t) for t in tokens)
    except ValueError:
        raise FamilyError(f"bad integer in {text!r}") from None


def _by_x(token: str, text: str) -> tuple[int, ...]:
    m = _BY_X.match(token.strip())
    if not m:
        raise FamilyError(f"bad AxB token {token!r} in {text!r}")
    return _ints(m.groups(), text)


def _cross_edge(token: str, text: str) -> tuple[int, ...]:
    ends = token.strip().split("-")
    if len(ends) != 2:
        raise FamilyError(f"bad cross edge token {token!r} in {text!r}")
    return _ints(ends, text)


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the canonical text form, e.g. "H:6,2", "grid:4x4", "Q:3",
    "G1:3;1x1,1x2", "G2:2,1;0-5"."""
    body = text.strip()
    if ":" not in body:
        raise FamilyError(f"family spec needs a colon: {text!r}")
    name, rest = body.split(":", 1)
    name = name.strip()
    if name not in _FAMILIES:
        raise FamilyError(f"unknown family {name!r}")
    if name in _DIMENSIONED:
        return FamilySpec(name, _by_x(rest, text))
    # G1 lists its deletions and G2 its cross edges after a semicolon
    head, extra, tail = rest.partition(";") if name in ("G1", "G2") else (rest, "", "")
    params = _ints(head.split(","), text) if head else ()
    count = _FAMILIES[name][0]
    if len(params) != count:
        raise FamilyError(f"{name} expects {count} parameters: {text!r}")
    if not extra:
        return FamilySpec(name, params)
    tokens = tail.split(",")
    if name == "G1":
        return FamilySpec(name, params, tuple(_by_x(t, text) for t in tokens))
    return FamilySpec(name, params, cross_edges=tuple(_cross_edge(t, text) for t in tokens))


def format_family_spec(spec: FamilySpec) -> str:
    sep = "x" if spec.family in _DIMENSIONED else ","
    text = f"{spec.family}:" + sep.join(str(p) for p in spec.params)
    pairs = [f"{a}x{b}" for a, b in spec.deletions] + [f"{u}-{v}" for u, v in spec.cross_edges]
    return text + ";" + ",".join(pairs) if pairs else text


def instantiate_family(spec: FamilySpec) -> Graph:
    """Build the canonical labeled graph for a fully-specified family spec."""
    if spec.family not in _FAMILIES:
        raise FamilyError(f"unknown family {spec.family!r}")
    return _FAMILIES[spec.family][1](spec)


def family_instances(spec: FamilySpec) -> Iterator[tuple[str, Graph]]:
    """(label, graph) pairs; expands "G1:n" into every deletion multiset."""
    if spec.family == "G1" and not spec.deletions:
        n = spec.params[0]
        for deletions in enumerate_G1_deletions(n):
            sub = FamilySpec("G1", (n,), deletions)
            yield format_family_spec(sub), make_G1_member(n, deletions)
        return
    yield format_family_spec(spec), instantiate_family(spec)
