"""Reference computations made from the definitions alone.

Nothing here imports forcing_lab: every value the benchmark checks the
program against is recomputed by brute force over the graph's perfect
matchings, so a fault in the program's solvers cannot hide in its check.
Graphs are ``(order, edges)`` with ``edges`` a sorted tuple of ``(u, v)``
pairs, ``u < v``.
"""

from __future__ import annotations

import itertools


def all_pairs(order):
    return [(u, v) for u in range(order) for v in range(u + 1, order)]


def graph_from_mask(order, mask):
    """The labelled graph whose edge i is ``all_pairs(order)[i]``."""
    return order, tuple(p for i, p in enumerate(all_pairs(order)) if mask >> i & 1)


def _neighbours(order, edges):
    nbrs = [[] for _ in range(order)]
    for i, (u, v) in enumerate(edges):
        nbrs[u].append((v, i))
        nbrs[v].append((u, i))
    return nbrs


def perfect_matchings(order, edges, cap=None):
    """Every perfect matching as a bitmask over ``edges`` (at most ``cap``)."""
    if order % 2:
        return []
    nbrs = _neighbours(order, edges)
    out = []

    def rec(free, chosen):
        if cap is not None and len(out) >= cap:
            return
        if not free:
            out.append(chosen)
            return
        v = (free & -free).bit_length() - 1
        for w, i in nbrs[v]:
            if free >> w & 1 and w != v:
                rec(free & ~(1 << v) & ~(1 << w), chosen | 1 << i)

    rec((1 << order) - 1, 0)
    return out


def has_perfect_matching(order, edges):
    return bool(perfect_matchings(order, edges, cap=1))


def graph6(order, edges):
    """graph6 text: order byte, then the upper triangle column by column,
    six bits per byte, each byte offset by 63."""
    present = set(edges)
    bits = [(i, j) in present for j in range(1, order) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    body = "".join(
        chr(63 + sum(b << (5 - k) for k, b in enumerate(bits[p : p + 6])))
        for p in range(0, len(bits), 6)
    )
    return chr(order + 63) + body


def graph6_decode(text):
    order = ord(text[0]) - 63
    bits = [(ord(c) - 63) >> (5 - k) & 1 for c in text[1:] for k in range(6)]
    slots = [(i, j) for j in range(1, order) for i in range(j)]
    return order, tuple(sorted(p for p, b in zip(slots, bits) if b))


def _min_hitting(universe, sets):
    """Fewest elements of ``universe`` (edge indices) meeting every mask."""
    for k in range(len(universe) + 1):
        for combo in itertools.combinations(universe, k):
            pick = sum(1 << i for i in combo)
            if all(pick & s for s in sets):
                return k
    raise ValueError("no hitting set: a set to hit is empty")


def forcing_values(order, edges):
    """``(f(G), F(G), Af(G))`` from the definitions.

    A forcing set of M is a subset of M lying in no other perfect matching
    M2, so it must meet every M - M2.  An anti-forcing set of M is a set of
    non-M edges whose removal kills every other M2, so it must meet every
    M2 - M.
    """
    pms = perfect_matchings(order, edges)
    if not pms:
        raise ValueError("graph has no perfect matching")
    f_vals, af_vals = [], []
    for m in pms:
        others = [m2 for m2 in pms if m2 != m]
        in_m = [i for i in range(len(edges)) if m >> i & 1]
        out_m = [i for i in range(len(edges)) if not m >> i & 1]
        f_vals.append(_min_hitting(in_m, [m & ~m2 for m2 in others]))
        af_vals.append(_min_hitting(out_m, [m2 & ~m for m2 in others]))
    return min(f_vals), max(f_vals), max(af_vals)


def unique_perfect_matching(order, edges):
    return len(perfect_matchings(order, edges, cap=2)) == 1


def without_vertices(order, edges, drop):
    """``G - drop`` relabelled onto 0..order-len(drop)-1."""
    keep = [v for v in range(order) if v not in drop]
    pos = {v: i for i, v in enumerate(keep)}
    kept = tuple(sorted((pos[u], pos[v]) for u, v in edges if u in pos and v in pos))
    return len(keep), kept


def orbit_data(order, edges):
    """``(canonical edge tuple, |Aut(G)|)`` by trying every relabelling."""
    edge_set = set(edges)
    best, aut = None, 0
    for perm in itertools.permutations(range(order)):
        image = tuple(
            sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
        )
        if best is None or image < best:
            best = image
        if set(image) == edge_set:
            aut += 1
    return best, aut
