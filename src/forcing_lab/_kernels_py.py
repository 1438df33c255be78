"""Pure-Python bitmask kernels.

Fallback twin of the compiled extension ``forcing_lab._ckernels``: each
function here has a compiled counterpart with identical semantics, so the
backend can be swapped at import time (see ``forcing_lab._backend``).  Only
the compiled module has the whole-search values (see ``solver._value``).

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
