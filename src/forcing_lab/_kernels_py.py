"""Pure-Python bitmask kernels.

Fallback twin of the compiled extension ``forcing_lab._ckernels``, and the
reference its parity tests hold it to: every function here has a compiled
counterpart with identical results, the four subset searches included, so
the backend can be swapped at import time (see ``forcing_lab._backend``).

The subset searches find minimum forcing sets (``forcing_value``,
``forcing_set``) and anti-forcing sets (``anti_forcing_value``,
``anti_forcing_set``) of each of a graph's perfect matchings with one
engine, ``_hitting_search``: a bounded search tree for hitting set over the
alternating cycles it learns, seeded with the matching's alternating
4-cycles.  The value kernels return the minimum size, the set kernels the
lexicographically first minimum set as a bit mask; both backends spend
search nodes alike, so they hit a node limit together.

Conventions: a graph handle is the adjacency row tuple itself (row ``u``
has bit ``v`` set iff ``uv`` is an edge); vertex sets are int bitmasks;
matchings are tuples of ``(u, v)`` pairs with ``u < v``.

``class_flags(handle)`` returns ``(flags, side_u)``, the class facts the
theorem table reads: ``flags`` has bit 0 connected, 1 bipartite, 2
balanced (bipartite with equal sides), 3 split, 4 cograph, 5 the f = n-1
predictor, 6 G1 member and 7 G2 member (both judged on balanced bipartite
graphs only), and ``side_u`` is the colour-0 side of the 2-colouring that
puts each component's smallest vertex on it, or 0 where there is none.
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


def pm_count(handle, active, cap):
    """Count perfect matchings of the subgraph induced by ``active``, up to ``cap``."""
    if active.bit_count() & 1:
        return 0
    adj = handle

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


def pm_enumerate(handle, active, limit):
    """All perfect matchings of the induced subgraph, lexicographic order.

    Branches on the lowest-index uncovered vertex and tries its neighbours
    in increasing index, so the output order is the lexicographic order of
    the sorted edge lists.  ``limit < 0`` means unbounded.
    """
    if active.bit_count() & 1:
        return []
    adj = handle
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


def _mates(n, edges):
    """The partner array of the perfect matching ``edges`` on ``n`` vertices."""
    mates = [-1] * n
    for u, v in edges:
        mates[u], mates[v] = v, u
    return mates


def alt_cycles(handle, matching, ceiling):
    """Enumerate all M-alternating cycles, canonical form, each exactly once.

    ``matching`` is the perfect matching M as its ``(u, v)`` edges.  A cycle
    is reported as its vertex tuple rotated so the smallest vertex comes
    first and oriented toward that vertex's smaller cycle-neighbour.
    Returns ``None`` if more than ``ceiling`` cycles exist.
    """
    adj = handle
    n = len(adj)
    mates = _mates(n, matching)
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


def _hitting_search(n_universe, check, node_limit, seed_constraints=(), witness=False):
    """The size of a smallest subset of ``range(n_universe)`` accepted by
    ``check`` (``witness``: the lexicographically first such subset, as a bit
    mask), or -1 once ``node_limit`` search nodes are spent.  ``check``
    returns None to accept a set, or a new constraint mask (disjoint from
    it) that every accepted set hits; accepted sets must be closed under
    supersets, and the whole universe accepted.  ``seed_constraints`` are
    constraints known from the start, in the order they are kept.

    A bounded search tree over the constraints learnt so far.  A search node
    is one call of ``branch``: a set ``chosen``, the elements ``excluded``
    from it, and at most ``slots`` more elements to take.  Where ``chosen``
    hits every constraint, the node runs ``check`` on it and branches on a
    constraint it learns from there.  Otherwise it branches on the unhit
    constraint with the fewest allowed elements, taking each in turn and
    excluding it once tried, and prunes on a constraint with no allowed
    element left and on a greedy packing of the allowed remainders that
    needs more sets than there are slots.  The value is the least k, from
    the greedy packing bound up, whose tree holds an accepted set.  The
    witness is then built one element at a time: the next element is the
    smallest whose tree, with the smaller elements excluded, still holds an
    accepted set of size k.  Every tree spends from the one budget."""
    constraints = list(dict.fromkeys(seed_constraints))
    budget = node_limit
    # the constraints unhit at each depth of the current branch, in the
    # order they were learnt
    levels = [None] * (n_universe + 1)

    def branch(depth, chosen, excluded, slots):
        nonlocal budget
        budget -= 1
        if budget < 0:
            return -1
        unhit = levels[depth]
        if not unhit:
            constraint = check(chosen)
            if constraint is None:
                return 1
            # disjoint from chosen, so unhit on every node of the branch
            constraints.append(constraint)
            for level in levels[: depth + 1]:
                level.append(constraint)
        if slots == 0:
            return 0
        used = count = 0
        pick, fewest = 0, n_universe + 1
        for c in unhit:
            allowed = c & ~excluded
            if not allowed:
                return 0  # a constraint can no longer be hit
            if not allowed & used:
                used |= allowed
                count += 1
                if count > slots:
                    return 0  # disjoint remainders exceed the slots
            size = allowed.bit_count()
            if size < fewest:
                pick, fewest = allowed, size
        while pick:
            bit = pick & -pick
            pick ^= bit
            levels[depth + 1] = [c for c in unhit if not c & bit]
            rc = branch(depth + 1, chosen | bit, excluded, slots - 1)
            if rc:
                return rc
            excluded |= bit
        return 0

    def root(chosen, excluded, slots):
        levels[0] = [c for c in constraints if not c & chosen]
        return branch(0, chosen, excluded, slots)

    k = _greedy_disjoint_count(constraints)
    while (rc := root(0, 0, k)) == 0:
        k = max(k + 1, _greedy_disjoint_count(constraints))
        if k > n_universe:
            raise AssertionError("hitting search exhausted its universe")
    if rc == -1:
        return -1
    if not witness:
        return k
    chosen = e = 0
    for slots in range(k - 1, -1, -1):
        while (rc := root(chosen | 1 << e, (1 << e) - 1 & ~chosen, slots)) == 0:
            e += 1
            if e >= n_universe:
                raise AssertionError("hitting search lost its witness")
        if rc == -1:
            return -1
        chosen |= 1 << e
        e += 1
    return chosen


def _edge(u, v):
    return (u, v) if u < v else (v, u)


def _minimum_set(adj, edges, node_limit, forcing, witness):
    """One matching's search of ``forcing_value`` or ``anti_forcing_value``
    (``witness``: of ``forcing_set`` or ``anti_forcing_set``).  The search
    starts from the matching's alternating 4-cycles.  A rejected candidate
    leaves a second perfect matching; the constraint is the first cycle of
    its symmetric difference with what remains of the matching, walked from
    its lowest vertex, restricted to the universe."""
    n = len(adj)
    mates = _mates(n, edges)
    m_edges = [(u, v) for u, v in enumerate(mates) if u < v]
    universe = m_edges if forcing else [
        (u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1 and mates[u] != v
    ]
    position = {e: i for i, e in enumerate(universe)}
    # matching edges ab before cd, joined by bx and ya for (x, y) = (c, d) or
    # (d, c); a forcing set's two orientations meet the same two edges
    seeds = [
        1 << i | 1 << j if forcing else 1 << position[_edge(b, x)] | 1 << position[_edge(y, a)]
        for i, (a, b) in enumerate(m_edges)
        for j, (c, d) in enumerate(m_edges[i + 1 :], i + 1)
        for x, y in ((c, d), (d, c))
        if adj[b] >> x & 1 and adj[y] >> a & 1
    ]

    def check(cand):
        chosen = tuple(e for i, e in enumerate(universe) if cand >> i & 1)
        # a forcing set's edges leave with their ends, an anti-forcing set's
        # edges alone
        rows, active = _rows_without(adj, chosen), (1 << n) - 1
        if forcing:
            active &= ~sum(1 << u | 1 << v for u, v in chosen)
        if pm_count(rows, active, 2) == 1:
            return None
        pms = pm_enumerate(rows, active, 2)
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
            mask |= 1 << position[_edge(*e)]
            v = w
            if v == start:
                return mask

    return _hitting_search(len(universe), check, node_limit, seeds, witness)


def _search(handle, matchings, node_limit, forcing, witness):
    out = []
    for edges in matchings:
        out.append(_minimum_set(handle, edges, node_limit, forcing, witness))
        if out[-1] == -1:
            break
    return out


def forcing_value(handle, matchings, node_limit):
    """f(G,M) of each perfect matching M; the list ends at the first -1
    (``node_limit`` search nodes spent on that matching)."""
    return _search(handle, matchings, node_limit, True, False)


def anti_forcing_value(handle, matchings, node_limit):
    """af(G,M) of each perfect matching M, as ``forcing_value``."""
    return _search(handle, matchings, node_limit, False, False)


def forcing_set(handle, matchings, node_limit):
    """The lexicographically first minimum forcing set of each perfect
    matching, as a mask over its edges in sorted order.  Its value and its
    witness spend from one budget of ``node_limit`` nodes per matching; the
    list ends at the first -1."""
    return _search(handle, matchings, node_limit, True, True)


def anti_forcing_set(handle, matchings, node_limit):
    """As ``forcing_set``, for anti-forcing sets: a mask over the edges off
    the matching, in sorted order."""
    return _search(handle, matchings, node_limit, False, True)


# ---------------------------------------------------------------------------
# class recognizers


def _components(rows, mask):
    """Connected-component vertex masks of the subgraph that the adjacency
    ``rows`` induce on ``mask``, ordered by smallest contained vertex."""
    out = []
    rest = mask
    while rest:
        comp = rest & -rest
        frontier = comp
        while frontier:
            nxt = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                nxt |= rows[bit.bit_length() - 1]
            frontier = nxt & mask & ~comp
            comp |= frontier
        rest &= ~comp
        out.append(comp)
    return out


def _side_u(adj):
    """The colour-0 side of the 2-colouring that puts the smallest vertex of
    each component on it (isolated vertices too), or None on an odd cycle."""
    color = [-1] * len(adj)
    for start in range(len(adj)):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            row = adj[u]
            while row:
                bit = row & -row
                row ^= bit
                v = bit.bit_length() - 1
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    return sum(1 << v for v, c in enumerate(color) if c == 0)


def _is_split(adj):
    """Clique + independent set partition, decided by the degree sequence
    (Hammer-Simeone): with d_1 >= ... >= d_p and m = max{i : d_i >= i-1},
    split iff sum_{i<=m} d_i = m(m-1) + sum_{i>m} d_i."""
    d = sorted((row.bit_count() for row in adj), reverse=True)
    m = 0
    for i in range(1, len(d) + 1):
        if d[i - 1] >= i - 1:
            m = i
    return sum(d[:m]) == m * (m - 1) + sum(d[m:])


def _is_cograph(adj, co, full):
    """P4-free, via the complement-component recursion (over vertex masks)."""

    def rec(mask):
        if mask.bit_count() <= 1:
            return True
        parts = _components(adj, mask)
        if len(parts) == 1:
            parts = _components(co, mask)
        return len(parts) > 1 and all(rec(p) for p in parts)

    return rec(full)


def _predicts_f_n1(adj, co, full):
    """Complete multipartite with parts <= n, or K_{n,n} with extra edges
    inside one side: some n-set B is independent with every B-to-rest pair
    an edge.  The order is 2n."""
    order = len(adj)
    if order % 2:
        return False
    n = order // 2
    # complete multipartite <=> the complement is a disjoint union of
    # cliques <=> its components hold all of its edges as pairs
    sizes = [mask.bit_count() for mask in _components(co, full)]
    pairs = order * (order - 1) // 2 - sum(row.bit_count() for row in adj) // 2
    if all(k <= n for k in sizes) and sum(k * (k - 1) // 2 for k in sizes) == pairs:
        return True
    # K_{n,n} plus edges inside one side: B = V minus N(v) for a degree-n
    # vertex v, with every B vertex seeing exactly the other side
    for row in adj:
        if row.bit_count() != n:
            continue
        side_b = full & ~row
        if side_b.bit_count() == n and all(
            adj[v] == row for v in range(order) if side_b >> v & 1
        ):
            return True
    return False


def _complete_bipartite(rows, mask, u_mask):
    """Whether ``rows`` join, inside ``mask``, every vertex of ``u_mask`` to
    every vertex outside it and no two vertices on the same side."""
    cu = mask & u_mask
    cv = mask & ~u_mask
    bits = mask
    while bits:
        bit = bits & -bits
        bits ^= bit
        if rows[bit.bit_length() - 1] & mask != (cv if bit & cu else cu):
            return False
    return True


def _f0_free_parts(adj, u_mask, v_mask):
    """The components of the bipartite complement (between ``u_mask`` and
    ``v_mask``) that meet both sides, by smallest vertex, when each of them
    is complete bipartite (the F0-free structure), else None."""
    rows = [(v_mask if u_mask >> v & 1 else u_mask) & ~row for v, row in enumerate(adj)]
    out = []
    for mask in _components(rows, u_mask | v_mask):
        if not mask & u_mask or not mask & v_mask:
            continue  # isolated vertex of the complement
        if not _complete_bipartite(rows, mask, u_mask):
            return None
        out.append(mask)
    return out


def _g2_member(adj, u_mask, full):
    """The allowed edges (those in some perfect matching) form two balanced
    components, each of which induces a complete bipartite graph."""
    allowed = [0] * len(adj)
    for u, row in enumerate(adj):
        row &= -(1 << (u + 1))
        while row:
            vbit = row & -row
            row ^= vbit
            if pm_count(adj, full & ~(1 << u | vbit), 1) == 1:
                allowed[u] |= vbit
                allowed[vbit.bit_length() - 1] |= 1 << u
    comps = _components(allowed, full)
    return len(comps) == 2 and all(
        0 < (mask & u_mask).bit_count() == (mask & ~u_mask).bit_count()
        and _complete_bipartite(adj, mask, u_mask)
        for mask in comps
    )


def class_flags(handle):
    """The graph's class facts as ``(flags, side_u)``; the module docstring
    gives the bits.  G1/G2 membership is judged against ``side_u``: G1 when
    the bipartite complement's components that meet both sides are complete
    bipartite, at least one, each on at most n of the 2n vertices; G2 as
    ``_g2_member`` says."""
    adj = handle
    full = (1 << len(adj)) - 1
    co = [full & ~row & ~(1 << v) for v, row in enumerate(adj)]
    side_u = _side_u(adj)
    bipartite = side_u is not None
    balanced = bipartite and 2 * side_u.bit_count() == len(adj)
    g1 = g2 = False
    if balanced:
        parts = _f0_free_parts(adj, side_u, full & ~side_u)
        g1 = bool(parts) and all(2 * mask.bit_count() <= len(adj) for mask in parts)
        g2 = _g2_member(adj, side_u, full)
    flags = (
        (len(_components(adj, full)) == 1)
        | bipartite << 1
        | balanced << 2
        | _is_split(adj) << 3
        | _is_cograph(adj, co, full) << 4
        | _predicts_f_n1(adj, co, full) << 5
        | g1 << 6
        | g2 << 7
    )
    return flags, side_u or 0
