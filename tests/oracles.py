"""Independent brute-force oracles.

Deliberately naive: subset filters over precomputed perfect-matching lists,
quadruple scans, exhaustive subset maxima.  They share no search code with
the package so they can referee it.
"""

from __future__ import annotations

import itertools

from forcing_lab.graphs import Graph


def oracle_perfect_matchings(g: Graph) -> list[tuple[tuple[int, int], ...]]:
    """All perfect matchings via combinations over the edge list."""
    if g.order % 2:
        return []
    half = g.order // 2
    full = g.full_mask
    out = []
    for combo in itertools.combinations(g.edges, half):
        covered = 0
        ok = True
        for u, v in combo:
            pair = (1 << u) | (1 << v)
            if covered & pair:
                ok = False
                break
            covered |= pair
        if ok and covered == full:
            out.append(tuple(sorted(combo)))
    return sorted(out)


def oracle_is_forcing_set(
    pms: list[tuple[tuple[int, int], ...]], s: tuple[tuple[int, int], ...]
) -> bool:
    """S forces its matching iff exactly one perfect matching contains S."""
    s_set = set(s)
    return sum(1 for pm in pms if s_set <= set(pm)) == 1


def oracle_forcing_number(g: Graph, m: tuple[tuple[int, int], ...]) -> int:
    pms = oracle_perfect_matchings(g)
    for size in range(len(m) + 1):
        for s in itertools.combinations(m, size):
            if oracle_is_forcing_set(pms, s):
                return size
    raise AssertionError("unreachable: the full matching always forces")


def oracle_anti_forcing_number(g: Graph, m: tuple[tuple[int, int], ...]) -> int:
    """Minimum set of non-matching edges meeting every other perfect matching."""
    pms = oracle_perfect_matchings(g)
    others = [set(pm) for pm in pms if tuple(pm) != tuple(m)]
    rest = [e for e in g.edges if e not in set(m)]
    for size in range(len(rest) + 1):
        for x in itertools.combinations(rest, size):
            xs = set(x)
            if all(xs & other for other in others):
                return size
    raise AssertionError("unreachable: removing every non-matching edge works")


def oracle_alternating_cycles(
    g: Graph, m: tuple[tuple[int, int], ...]
) -> list[frozenset]:
    """Alternating cycles as frozensets of edges, by scanning every cyclic
    vertex arrangement of every even vertex subset."""
    mates = {}
    for u, v in m:
        mates[u] = v
        mates[v] = u
    found = set()
    for size in range(4, g.order + 1, 2):
        for subset in itertools.combinations(range(g.order), size):
            first = subset[0]
            for perm in itertools.permutations(subset[1:]):
                if perm[0] > perm[-1]:
                    continue  # each undirected cycle once
                cyc = (first,) + perm
                edges = []
                ok = True
                for i in range(size):
                    u, v = cyc[i], cyc[(i + 1) % size]
                    if not g.has_edge(u, v):
                        ok = False
                        break
                    edges.append((u, v) if u < v else (v, u))
                if not ok:
                    continue
                flags = [mates.get(u) == v for u, v in edges]
                if all(flags[i] != flags[(i + 1) % size] for i in range(size)):
                    found.add(frozenset(edges))
    return sorted(found, key=sorted)


def oracle_cycle_packing(g: Graph, m: tuple[tuple[int, int], ...]) -> int:
    cycles = oracle_alternating_cycles(g, m)
    masks = []
    for cyc in cycles:
        mask = 0
        for u, v in cyc:
            mask |= (1 << u) | (1 << v)
        masks.append(mask)
    best = 0
    for size in range(1, len(masks) + 1):
        hit = False
        for combo in itertools.combinations(masks, size):
            union = 0
            ok = True
            for cm in combo:
                if union & cm:
                    ok = False
                    break
                union |= cm
            if ok:
                hit = True
                break
        if hit:
            best = size
        else:
            break
    return best


def oracle_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every vertex permutation that maps edges onto edges."""
    return [
        p
        for p in itertools.permutations(range(g.order))
        if all(g.adj[p[u]] >> p[v] & 1 for u, v in g.edges)
    ]


def oracle_matching_orbit_firsts(g: Graph, matchings) -> list[int]:
    """For each matching (a sorted edge tuple), the first position in
    ``matchings`` of a matching in its orbit under every automorphism."""
    position = {m: i for i, m in enumerate(matchings)}
    autos = oracle_automorphisms(g)
    return [
        min(position[tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in m))] for p in autos)
        for m in matchings
    ]


def oracle_independence_number(g: Graph) -> int:
    best = 0
    for mask in range(1 << g.order):
        ok = True
        bits = mask
        while bits:
            bit = bits & -bits
            bits ^= bit
            if g.adj[bit.bit_length() - 1] & mask:
                ok = False
                break
        if ok:
            best = max(best, mask.bit_count())
    return best


def oracle_is_split(g: Graph) -> bool:
    for clique_mask in range(1 << g.order):
        rest = g.full_mask & ~clique_mask
        ok = True
        bits = clique_mask
        while bits and ok:
            bit = bits & -bits
            bits ^= bit
            v = bit.bit_length() - 1
            if g.adj[v] & clique_mask != clique_mask & ~(1 << v):
                ok = False
        bits = rest
        while bits and ok:
            bit = bits & -bits
            bits ^= bit
            if g.adj[bit.bit_length() - 1] & rest:
                ok = False
        if ok:
            return True
    return False


def oracle_is_cograph(g: Graph) -> bool:
    for quad in itertools.combinations(range(g.order), 4):
        for perm in itertools.permutations(quad):
            if perm[0] > perm[-1]:
                continue
            a, b, c, d = perm
            if (
                g.has_edge(a, b)
                and g.has_edge(b, c)
                and g.has_edge(c, d)
                and not g.has_edge(a, c)
                and not g.has_edge(a, d)
                and not g.has_edge(b, d)
            ):
                return False
    return True


def oracle_is_f0_free(g: Graph, side_u, side_v) -> bool:
    """Naive scan: no pair of U vertices and pair of V vertices inducing
    exactly one edge."""
    for u1, u2 in itertools.combinations(side_u, 2):
        for v1, v2 in itertools.combinations(side_v, 2):
            edges = sum(
                1
                for u, v in ((u1, v1), (u1, v2), (u2, v1), (u2, v2))
                if g.has_edge(u, v)
            )
            if edges == 1:
                return False
    return True
