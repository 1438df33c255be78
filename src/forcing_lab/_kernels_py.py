"""Pure-Python bitmask kernels.

Fallback twin of the compiled extension ``forcing_lab._ckernels``, and the
reference its parity tests hold it to: every function here has a compiled
counterpart with identical results, the two subset searches included, so
the backend can be swapped at import time (see ``forcing_lab._backend``).

Conventions: a graph handle is the adjacency row tuple itself (row ``u``
has bit ``v`` set iff ``uv`` is an edge); vertex sets are int bitmasks;
matchings are tuples of ``(u, v)`` pairs with ``u < v``.
"""

from __future__ import annotations

BACKEND_NAME = "python"


def make_handle(adj):
    """Wrap adjacency rows for kernel calls (identity for this backend)."""
    return tuple(adj)


def _rows_without(adj, removed):
    if not removed:
        return adj
    rows = list(adj)
    for u, v in removed:
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    return rows


def pm_count(handle, active, cap, removed=()):
    """Count perfect matchings of the subgraph induced by ``active``, up to ``cap``."""
    if active.bit_count() & 1:
        return 0
    adj = _rows_without(handle, removed)

    def rec(rem, budget):
        if rem == 0:
            return 1
        u = (rem & -rem).bit_length() - 1
        nbrs = adj[u] & rem
        total = 0
        while nbrs:
            vbit = nbrs & -nbrs
            nbrs ^= vbit
            total += rec(rem ^ (1 << u) ^ vbit, budget - total)
            if total >= budget:
                return total
        return total

    return rec(active, cap)


def pm_enumerate(handle, active, limit, removed=()):
    """All perfect matchings of the induced subgraph, lexicographic order.

    Branches on the lowest-index uncovered vertex and tries its neighbours
    in increasing index, so the output order is the lexicographic order of
    the sorted edge lists.  ``limit < 0`` means unbounded.
    """
    if active.bit_count() & 1:
        return []
    adj = _rows_without(handle, removed)
    out = []
    edges = []

    def rec(rem):
        if rem == 0:
            out.append(tuple(edges))
            return len(out) == limit
        u = (rem & -rem).bit_length() - 1
        nbrs = adj[u] & rem
        while nbrs:
            vbit = nbrs & -nbrs
            nbrs ^= vbit
            edges.append((u, vbit.bit_length() - 1))
            if rec(rem ^ (1 << u) ^ vbit):
                return True
            edges.pop()
        return False

    if limit != 0:
        rec(active)
    return out


def alt_cycles(handle, mates, ceiling):
    """Enumerate all M-alternating cycles, canonical form, each exactly once.

    ``mates[v]`` is v's partner under the perfect matching (``-1`` if none).
    A cycle is reported as its vertex tuple rotated so the smallest vertex
    comes first and oriented toward that vertex's smaller cycle-neighbour.
    Returns ``None`` if more than ``ceiling`` cycles exist.
    """
    adj = handle
    n = len(adj)
    out = []
    path = []

    def extend(x, v0, used):
        # arrived at x along its matching edge; leave along a non-M edge
        cand = adj[x] & ~(1 << mates[x])
        if cand & (1 << v0):
            m0 = path[1]
            last = path[-1]
            if m0 <= last:
                out.append(tuple(path))
            else:
                out.append((path[0],) + tuple(path[:0:-1]))
            if len(out) > ceiling:
                return False
        ys = cand & ~used & -(1 << (v0 + 1))
        while ys:
            ybit = ys & -ys
            ys ^= ybit
            y = ybit.bit_length() - 1
            z = mates[y]
            zbit = 1 << z
            path.append(y)
            path.append(z)
            ok = extend(z, v0, used | ybit | zbit)
            path.pop()
            path.pop()
            if not ok:
                return False
        return True

    for v0 in range(n):
        m0 = mates[v0]
        if m0 <= v0:
            continue  # v0 is not the minimum vertex of any cycle via this M-edge
        path[:] = [v0, m0]
        if not extend(m0, v0, (1 << v0) | (1 << m0)):
            return None
    return out


def pack_masks(masks):
    """Maximum number of pairwise-disjoint masks (exact branch and bound)."""
    best = [0]

    def rec(count, avail):
        if count > best[0]:
            best[0] = count
        if not avail or count + len(avail) <= best[0]:
            return
        union = 0
        for m in avail:
            union |= m
        vbit = union & -union
        with_v = [m for m in avail if m & vbit]
        without = [m for m in avail if not (m & vbit)]
        for m in with_v:
            rec(count + 1, [x for x in without if not (x & m)])
        rec(count, without)

    rec(0, list(masks))
    return best[0]


# ---------------------------------------------------------------------------
# whole searches: minimum forcing / anti-forcing sets


def _greedy_disjoint_count(masks):
    used = 0
    count = 0
    for m in masks:
        if not (m & used):
            used |= m
            count += 1
    return count


def _lazy_minimum_hitting(n_universe, check, node_limit, seed_constraints=()):
    """Smallest, then lexicographically first, subset of ``range(n_universe)``
    accepted by ``check``, as a bit mask; -1 once ``node_limit`` search nodes
    are spent: one per call of ``first``, plus one per slot of a free
    completion.  ``check`` returns None to accept a candidate, or a new
    constraint mask (disjoint from it) that later candidates must hit."""
    constraints = list(dict.fromkeys(seed_constraints))
    budget = node_limit

    def first(start, slots, unhit, chosen):
        """Lexicographically first hitting completion of ``chosen`` by
        ``slots`` indices from ``start`` on, None if there is none, or -1."""
        nonlocal budget
        free = not unhit and start + slots <= n_universe
        budget -= 1 + slots if free else 1
        if budget < 0:
            return -1
        if free:
            return chosen | ((1 << slots) - 1) << start
        if slots == 0:
            return None
        for c in unhit:
            if c >> start == 0:
                return None  # some cycle can no longer be hit
        if _greedy_disjoint_count(unhit) > slots:
            return None  # disjoint unhit cycles exceed the remaining slots
        for i in range(start, n_universe - slots + 1):
            bit = 1 << i
            found = first(i + 1, slots - 1, [c for c in unhit if not c & bit], chosen | bit)
            if found is not None:
                return found
        return None

    k = _greedy_disjoint_count(constraints)
    while k <= n_universe:
        cand = first(0, k, constraints, 0)
        if cand is None:
            k += 1
            continue
        if cand == -1 or (constraint := check(cand)) is None:
            return cand
        constraints.append(constraint)
        k = max(k, _greedy_disjoint_count(constraints))
    raise AssertionError("hitting search exhausted its universe")


def _minimum_set(adj, edges, node_limit, forcing):
    """One matching's search of ``forcing_value`` or ``anti_forcing_value``.
    A rejected candidate leaves a second perfect matching; the constraint is
    the first cycle of its symmetric difference with what remains of the
    matching, walked from its lowest vertex, restricted to the universe."""
    n = len(adj)
    mates = [-1] * n
    for u, v in edges:
        mates[u], mates[v] = v, u
    m_edges = [(u, v) for u, v in enumerate(mates) if u < v]
    universe = m_edges if forcing else [
        (u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1 and mates[u] != v
    ]
    position = {e: i for i, e in enumerate(universe)}

    def check(cand):
        chosen = tuple(e for i, e in enumerate(universe) if cand >> i & 1)
        active, removed = (1 << n) - 1, chosen
        if forcing:
            active, removed = active & ~sum(1 << u | 1 << v for u, v in chosen), ()
        if pm_count(adj, active, 2, removed) == 1:
            return None
        pms = pm_enumerate(adj, active, 2, removed)
        residual = tuple(e for e in m_edges if active >> e[0] & 1)
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

    return _lazy_minimum_hitting(len(universe), check, node_limit)


def _search(handle, matchings, node_limit, forcing):
    out = []
    for edges in matchings:
        out.append(_minimum_set(handle, edges, node_limit, forcing))
        if out[-1] == -1:
            break
    return out


def forcing_value(handle, matchings, node_limit):
    """Lexicographically first minimum forcing set of each perfect matching,
    as a mask over its edges in sorted order; the list ends at the first -1
    (``node_limit`` search nodes spent)."""
    return _search(handle, matchings, node_limit, True)


def anti_forcing_value(handle, matchings, node_limit):
    """As ``forcing_value``, for anti-forcing sets: a mask over the edges
    off the matching, in sorted order."""
    return _search(handle, matchings, node_limit, False)
