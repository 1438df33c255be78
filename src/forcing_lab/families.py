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
from typing import Iterator, Optional, Sequence

from .errors import FamilyError
from .graphs import (
    Bipartition,
    Graph,
    ORDER_CAP,
    _raw_graph,
    bipartition_of,
    build_graph,
    cartesian_product,
    complement,
    components,
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
# class recognizers


def is_split(g: Graph) -> bool:
    """Clique + independent set partition, decided by the degree sequence
    (Hammer-Simeone): with d_1 >= ... >= d_p and m = max{i : d_i >= i-1},
    split iff sum_{i<=m} d_i = m(m-1) + sum_{i>m} d_i."""
    d = sorted(g.degrees, reverse=True)
    p = len(d)
    m = 0
    for i in range(1, p + 1):
        if d[i - 1] >= i - 1:
            m = i
    lhs = sum(d[:m])
    rhs = m * (m - 1) + sum(d[m:])
    return lhs == rhs


def split_partition(g: Graph) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A (clique, independent set) witness, or None."""
    if not is_split(g):
        return None
    order = sorted(range(g.order), key=lambda v: (-g.degree(v), v))
    m = 0
    for i in range(1, g.order + 1):
        if g.degree(order[i - 1]) >= i - 1:
            m = i
    clique = order[:m]
    rest = order[m:]
    # top-m degree vertices form a clique when the degree test passes
    for i, u in enumerate(clique):
        for v in clique[i + 1:]:
            if not g.has_edge(u, v):
                return None
    for i, u in enumerate(rest):
        for v in rest[i + 1:]:
            if g.has_edge(u, v):
                return None
    return tuple(clique), tuple(rest)


def is_cograph(g: Graph) -> bool:
    """P4-free, via the complement-component recursion (over vertex masks)."""
    adj = g.adj

    def comp_masks(mask: int, co: bool) -> list[int]:
        rest = mask
        out = []
        while rest:
            comp = rest & -rest
            frontier = comp
            while frontier:
                nxt = 0
                bits = frontier
                while bits:
                    b = bits & -bits
                    bits ^= b
                    row = adj[b.bit_length() - 1]
                    nxt |= (mask & ~row & ~b) if co else (row & mask)
                frontier = nxt & ~comp
                comp |= frontier
            out.append(comp)
            rest &= ~comp
        return out

    def rec(mask: int) -> bool:
        if mask.bit_count() <= 1:
            return True
        parts = comp_masks(mask, False)
        if len(parts) > 1:
            return all(rec(p) for p in parts)
        co_parts = comp_masks(mask, True)
        if len(co_parts) > 1:
            return all(rec(p) for p in co_parts)
        return False

    return rec(g.full_mask)


def f0_free_deletions(
    g: Graph, bip: Bipartition
) -> Optional[tuple[tuple[int, int], ...]]:
    """Part sizes of the bipartite-complement components when every such
    component is complete bipartite (the F0-free structure), else None.

    Components are listed by their smallest vertex; edgeless components are
    omitted (they delete nothing).
    """
    u_mask = bip.u_mask
    v_mask = bip.v_mask
    rows = [0] * g.order
    for u in bip.side_u:
        rows[u] = v_mask & ~g.adj[u]
    for v in bip.side_v:
        rows[v] = u_mask & ~g.adj[v]
    comp = _raw_graph(g.order, rows)
    out = []
    for mask in components(comp):
        cu = mask & u_mask
        cv = mask & v_mask
        if cu == 0 or cv == 0:
            continue  # isolated vertex of the complement
        bits = mask
        while bits:
            bit = bits & -bits
            bits ^= bit
            v = bit.bit_length() - 1
            want = (cv if (u_mask >> v) & 1 else cu) & ~(1 << v)
            if comp.adj[v] != want:
                return None  # component is not complete bipartite
        out.append((cu.bit_count(), cv.bit_count()))
    return tuple(out)


@dataclass(frozen=True)
class ClassReport:
    is_split: bool
    is_cograph: bool
    is_F0_free: Optional[bool]
    deleted_subgraphs: Optional[tuple[tuple[int, int], ...]]
    g1_member: bool
    g2_member: bool
    g2_components: Optional[tuple[tuple[int, ...], tuple[int, ...]]]


def classify(g: Graph) -> ClassReport:
    """Split, cograph, F0-free and G1/G2 membership in one report.

    The bipartite fields are None for non-bipartite input; membership is
    judged against the canonical bipartition from ``bipartition_of``.
    """
    split = is_split(g)
    cograph = is_cograph(g)
    bip = bipartition_of(g)
    if bip is None:
        return ClassReport(split, cograph, None, None, False, False, None)
    deletions = f0_free_deletions(g, bip)
    f0_free = deletions is not None
    n = g.order // 2
    g1 = bool(
        f0_free
        and bip.balanced
        and g.order % 2 == 0
        and deletions
        and all(a + b <= n for a, b in deletions)
    )
    g2 = False
    g2_comps = None
    if g.order % 2 == 0 and bip.balanced:
        allowed = allowed_edges(g)
        rows = [0] * g.order
        for u, v in allowed:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        comps = components(_raw_graph(g.order, rows))
        if len(comps) == 2:
            ok = True
            for mask in comps:
                cu = mask & bip.u_mask
                cv = mask & bip.v_mask
                if cu.bit_count() != cv.bit_count() or cu == 0:
                    ok = False
                    break
                # the induced subgraph must be complete bipartite (no
                # forbidden edge may hide inside a component)
                bits = mask
                while bits and ok:
                    bit = bits & -bits
                    bits ^= bit
                    v = bit.bit_length() - 1
                    want = cv if (bip.u_mask >> v) & 1 else cu
                    if g.adj[v] & mask != want & ~(1 << v):
                        ok = False
            if ok:
                g2 = True
                g2_comps = tuple(
                    tuple(v for v in range(g.order) if (mask >> v) & 1)
                    for mask in comps
                )
    return ClassReport(split, cograph, f0_free, deletions, g1, g2, g2_comps)


def recognize_f_n1(g: Graph) -> bool:
    """Predictor for f(G) = n-1: complete multipartite with parts <= n, or
    K_{n,n} with arbitrary extra edges inside one partite set.

    Edges inside *both* sides collapse the minimum forcing number (adding
    one edge per side of K_{3,3} already gives f = 1), so the second family
    keeps one side independent: some n-set B is independent with every
    B-to-rest pair an edge.
    """
    if g.order % 2:
        return False
    n = g.order // 2
    comp = complement(g)
    comp_masks = components(comp)
    # complete multipartite <=> complement is a disjoint union of cliques
    multipartite = True
    for mask in comp_masks:
        if mask.bit_count() > n:
            multipartite = False
        bits = mask
        while bits and multipartite:
            bit = bits & -bits
            bits ^= bit
            v = bit.bit_length() - 1
            if comp.adj[v] & mask != mask & ~(1 << v):
                multipartite = False
        if not multipartite:
            break
    if multipartite:
        return True
    # K_{n,n} plus edges inside one side: B = V minus N(v) for a degree-n
    # vertex v, with every B vertex seeing exactly the other side
    for v in range(g.order):
        if g.degree(v) != n:
            continue
        side_a = g.adj[v]
        side_b = g.full_mask & ~side_a
        if side_b.bit_count() != n:
            continue
        bits = side_b
        ok = True
        while bits:
            bit = bits & -bits
            bits ^= bit
            if g.adj[bit.bit_length() - 1] != side_a:
                ok = False
                break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# family specs (canonical text form used by the CLI)


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple
    deletions: tuple[tuple[int, int], ...] = ()
    cross_edges: tuple[tuple[int, int], ...] = ()


_SIMPLE_FAMILIES = {
    "H": 2,
    "Hhat": 1,
    "HhatJoin": 2,
    "MJoin": 2,
    "G4": 2,
    "G5": 3,
    "Q": 1,
    "Knn": 1,
    "nK2": 1,
    "path": 1,
    "cycle": 1,
    "complete": 1,
    "K": 2,
}

_BY_X = re.compile(r"^(\d+)x(\d+)$")


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the canonical text form, e.g. "H:6,2", "grid:4x4", "Q:3",
    "G1:3;1x1,1x2", "G2:2,1;0-5"."""
    body = text.strip()
    if ":" not in body:
        raise FamilyError(f"family spec needs a colon: {text!r}")
    name, rest = body.split(":", 1)
    name = name.strip()
    if name in ("grid", "torus", "pc"):
        m = _BY_X.match(rest.strip())
        if not m:
            raise FamilyError(f"{name} spec needs AxB dimensions: {text!r}")
        return FamilySpec(name, (int(m.group(1)), int(m.group(2))))
    if name == "G1":
        if ";" in rest:
            head, dels = rest.split(";", 1)
            deletions = []
            for token in dels.split(","):
                m = _BY_X.match(token.strip())
                if not m:
                    raise FamilyError(f"bad deletion token {token!r} in {text!r}")
                deletions.append((int(m.group(1)), int(m.group(2))))
            return FamilySpec("G1", (int(head),), tuple(deletions))
        return FamilySpec("G1", (int(rest),))
    if name == "G2":
        if ";" in rest:
            head, crosses = rest.split(";", 1)
            cross = []
            for token in crosses.split(","):
                parts = token.strip().split("-")
                if len(parts) != 2:
                    raise FamilyError(f"bad cross edge token {token!r} in {text!r}")
                cross.append((int(parts[0]), int(parts[1])))
        else:
            head, cross = rest, []
        sizes = tuple(int(p) for p in head.split(","))
        if len(sizes) != 2:
            raise FamilyError(f"G2 spec needs two part sizes: {text!r}")
        return FamilySpec("G2", sizes, cross_edges=tuple(cross))
    if name in _SIMPLE_FAMILIES:
        try:
            params = tuple(int(p) for p in rest.split(",")) if rest else ()
        except ValueError as exc:
            raise FamilyError(f"bad parameters in {text!r}") from exc
        if len(params) != _SIMPLE_FAMILIES[name]:
            raise FamilyError(
                f"{name} expects {_SIMPLE_FAMILIES[name]} parameters: {text!r}"
            )
        return FamilySpec(name, params)
    raise FamilyError(f"unknown family {name!r}")


def format_family_spec(spec: FamilySpec) -> str:
    if spec.family == "G1" and spec.deletions:
        dels = ",".join(f"{a}x{b}" for a, b in spec.deletions)
        return f"G1:{spec.params[0]};{dels}"
    if spec.family == "G2":
        base = f"G2:{spec.params[0]},{spec.params[1]}"
        if spec.cross_edges:
            base += ";" + ",".join(f"{u}-{v}" for u, v in spec.cross_edges)
        return base
    if spec.family in ("grid", "torus", "pc"):
        return f"{spec.family}:{spec.params[0]}x{spec.params[1]}"
    return f"{spec.family}:" + ",".join(str(p) for p in spec.params)


def instantiate_family(spec: FamilySpec) -> Graph:
    """Build the canonical labeled graph for a fully-specified family spec."""
    fam, p = spec.family, spec.params
    if fam == "H":
        return make_H(*p)
    if fam == "Hhat":
        return make_H_hat(*p)
    if fam == "HhatJoin":
        return make_H_hat_join(*p)
    if fam == "MJoin":
        return make_matching_join(*p)
    if fam == "G4":
        return make_G4(*p)
    if fam == "G5":
        return make_G5(*p)
    if fam == "G1":
        if not spec.deletions:
            raise FamilyError("G1 instantiation needs an explicit deletion list")
        return make_G1_member(p[0], spec.deletions)
    if fam == "G2":
        return make_G2_member((p[0], p[1]), spec.cross_edges)
    if fam == "grid":
        return cartesian_product(generate("path", p[0]), generate("path", p[1]))
    if fam == "torus":
        return cartesian_product(generate("cycle", p[0]), generate("cycle", p[1]))
    if fam == "pc":
        return cartesian_product(generate("path", p[0]), generate("cycle", p[1]))
    if fam == "Q":
        return generate("hypercube", p[0])
    if fam == "Knn":
        return generate("complete_bipartite", p[0], p[0])
    if fam == "K":
        return generate("complete_bipartite", p[0], p[1])
    if fam == "nK2":
        return build_graph(2 * p[0], [(2 * i, 2 * i + 1) for i in range(p[0])])
    if fam in ("path", "cycle", "complete"):
        return generate(fam, p[0])
    raise FamilyError(f"unknown family {fam!r}")


def family_instances(spec: FamilySpec) -> Iterator[tuple[str, Graph]]:
    """(label, graph) pairs; expands "G1:n" into every deletion multiset."""
    if spec.family == "G1" and not spec.deletions:
        n = spec.params[0]
        for deletions in enumerate_G1_deletions(n):
            sub = FamilySpec("G1", (n,), deletions)
            yield format_family_spec(sub), make_G1_member(n, deletions)
        return
    yield format_family_spec(spec), instantiate_family(spec)
