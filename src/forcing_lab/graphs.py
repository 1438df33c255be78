"""Graph representation, constructions and graph6 I/O.

Graphs are simple, undirected, on at most 32 densely numbered vertices, so
every vertex set fits in one machine word.  Instances are immutable after
construction and safe to share across workers.

Canonical labelling has one engine, the backend's ``canon`` kernel: one
search gives a graph's canonical rows and the generators of its
automorphism group, and a graph keeps them.  ``canonical_graph6``,
``are_isomorphic``, ``automorphism_generators`` and ``graph_classes`` all
read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from . import _backend
from .errors import GraphError

ORDER_CAP = 32

# The bits of the class kernel's flags (``_backend.class_flags``).
CONNECTED, BIPARTITE, BALANCED, SPLIT, COGRAPH, F_N1, G1_MEMBER, G2_MEMBER = (
    1 << i for i in range(8)
)

GRAPH6_HEADER = ">>graph6<<"


class Graph:
    """Immutable simple graph: adjacency bit-rows plus a sorted edge list."""

    __slots__ = ("order", "adj", "edges", "_handle", "_canon", "_classes")

    def __init__(self, order: int, adj: Sequence[int]):
        if not 0 < order <= ORDER_CAP:
            raise GraphError(f"order must be in 1..{ORDER_CAP}, got {order}")
        rows = tuple(adj)
        if len(rows) != order:
            raise GraphError("adjacency row count does not match order")
        full = (1 << order) - 1
        for u, row in enumerate(rows):
            if row & ~full:
                raise GraphError(f"row {u} references vertices >= {order}")
            if row & (1 << u):
                raise GraphError(f"loop at vertex {u}")
        for u in range(order):
            for v in range(u + 1, order):
                if bool(rows[u] & (1 << v)) != bool(rows[v] & (1 << u)):
                    raise GraphError(f"asymmetric adjacency at ({u},{v})")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "adj", rows)
        object.__setattr__(self, "edges", _edges_from_rows(order, rows))
        object.__setattr__(self, "_handle", None)
        object.__setattr__(self, "_canon", None)
        object.__setattr__(self, "_classes", None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    @property
    def handle(self):
        if self._handle is None:
            object.__setattr__(self, "_handle", _backend.make_handle(self.adj))
        return self._handle

    @property
    def class_flags(self) -> tuple[int, int]:
        """The class kernel's ``(flags, side_u)``: the bits above, and the
        colour-0 side of the 2-colouring (0 without one).  One kernel call
        per graph, on first use."""
        if self._classes is None:
            object.__setattr__(self, "_classes", _backend.class_flags(self.handle))
        return self._classes

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    @property
    def min_degree(self) -> int:
        return min(self.degrees)

    @property
    def max_degree(self) -> int:
        return max(self.degrees)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] & (1 << v))

    def edge_index(self, u: int, v: int) -> int:
        """Position of edge (u,v) in the canonical lexicographic edge list."""
        if u > v:
            u, v = v, u
        return self.edges.index((u, v))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.order == other.order
            and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.order, self.adj))

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, edges={self.edge_count})"


def _edges_from_rows(order: int, rows) -> tuple[tuple[int, int], ...]:
    out = []
    for u in range(order):
        row = rows[u] & -(1 << (u + 1))
        while row:
            bit = row & -row
            row ^= bit
            out.append((u, bit.bit_length() - 1))
    return tuple(out)


def _raw_graph(order: int, rows, edges=None) -> Graph:
    """Internal constructor for rows already known to satisfy the invariants
    (symmetric, loop-free, within the order); skips validation."""
    g = object.__new__(Graph)
    object.__setattr__(g, "order", order)
    object.__setattr__(g, "adj", tuple(rows))
    object.__setattr__(
        g, "edges", tuple(edges) if edges is not None else _edges_from_rows(order, rows)
    )
    object.__setattr__(g, "_handle", None)
    object.__setattr__(g, "_canon", None)
    object.__setattr__(g, "_classes", None)
    return g


@dataclass(frozen=True)
class Bipartition:
    """A 2-colouring: every edge joins ``side_u`` to ``side_v``."""

    side_u: tuple[int, ...]
    side_v: tuple[int, ...]
    balanced: bool

    @property
    def u_mask(self) -> int:
        return sum(1 << v for v in self.side_u)

    @property
    def v_mask(self) -> int:
        return sum(1 << v for v in self.side_v)


def build_graph(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicates collapse, loops are errors."""
    if not 0 < order <= ORDER_CAP:
        raise GraphError(f"order must be in 1..{ORDER_CAP}, got {order}")
    rows = [0] * order
    for u, v in edges:
        if not (0 <= u < order and 0 <= v < order):
            raise GraphError(f"edge ({u},{v}) has an endpoint outside 0..{order - 1}")
        if u == v:
            raise GraphError(f"loop edge at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(order, rows)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    if g.order + h.order > ORDER_CAP:
        raise GraphError("disjoint union exceeds the 32-vertex cap")
    rows = list(g.adj) + [row << g.order for row in h.adj]
    return _raw_graph(g.order + h.order, rows)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all cross edges (the graph join)."""
    if g.order + h.order > ORDER_CAP:
        raise GraphError("join exceeds the 32-vertex cap")
    n, m = g.order, h.order
    g_mask = (1 << n) - 1
    h_mask = ((1 << m) - 1) << n
    rows = [row | h_mask for row in g.adj]
    rows += [(row << n) | g_mask for row in h.adj]
    return _raw_graph(n + m, rows)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (a, x) gets index ``a * h.order + x``."""
    if g.order * h.order > ORDER_CAP:
        raise GraphError("cartesian product exceeds the 32-vertex cap")
    m = h.order
    edges = []
    for a in range(g.order):
        for x, y in h.edges:
            edges.append((a * m + x, a * m + y))
    for a, b in g.edges:
        for x in range(m):
            edges.append((a * m + x, b * m + x))
    rows = [0] * (g.order * h.order)
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return _raw_graph(g.order * h.order, rows)


def generate(kind: str, *params: int) -> Graph:
    """Canonical labeled generators: path, cycle, complete, complete_bipartite,
    hypercube, empty."""
    if kind == "path":
        (n,) = params
        if n < 1:
            raise GraphError("path needs at least one vertex")
        return build_graph(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "cycle":
        (n,) = params
        if n < 3:
            raise GraphError("cycle length must be at least 3")
        return build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "complete":
        (n,) = params
        if n < 1:
            raise GraphError("complete graph needs at least one vertex")
        return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if kind == "complete_bipartite":
        a, b = params
        if a < 0 or b < 0 or a + b < 1:
            raise GraphError("invalid complete bipartite part sizes")
        return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    if kind == "hypercube":
        (k,) = params
        if k < 0 or 2**k > ORDER_CAP:
            raise GraphError("hypercube dimension out of range")
        if k == 0:
            return build_graph(1, [])
        edges = [
            (x, x ^ (1 << bit)) for x in range(2**k) for bit in range(k)
            if x < x ^ (1 << bit)
        ]
        return build_graph(2**k, edges)
    if kind == "empty":
        (n,) = params
        return build_graph(n, [])
    raise GraphError(f"unknown generator kind: {kind!r}")


def is_connected(g: Graph) -> bool:
    return bool(g.class_flags[0] & CONNECTED)


def bipartition_of(g: Graph) -> Optional[Bipartition]:
    """A 2-colouring per component (smallest vertex of each goes to side_u),
    or None if the graph has an odd cycle.  Isolated vertices land in side_u."""
    flags, side_u = g.class_flags
    if not flags & BIPARTITE:
        return None
    side_v = tuple(v for v in range(g.order) if not side_u >> v & 1)
    side_u = tuple(v for v in range(g.order) if side_u >> v & 1)
    return Bipartition(side_u, side_v, bool(flags & BALANCED))


def cyclomatic_number(g: Graph) -> int:
    """e - v + 1; defined for connected graphs only."""
    if not is_connected(g):
        raise GraphError("cyclomatic number requires a connected graph")
    return g.edge_count - g.order + 1


def graph6_encode(g: Graph) -> str:
    """Standard graph6 text (no header): order byte, then the upper triangle
    column-major in 6-bit chunks offset by 63."""
    n = g.order
    chars = [chr(n + 63)]
    acc = 0
    nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | ((g.adj[i] >> j) & 1)
            nbits += 1
            if nbits == 6:
                chars.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        chars.append(chr(acc + 63))
    return "".join(chars)


def graph6_decode(text: str) -> Graph:
    """Decode one graph6 line (optional '>>graph6<<' header tolerated)."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):].strip()
    if not s:
        raise GraphError("empty graph6 string")
    n = ord(s[0]) - 63
    if n == 63:
        raise GraphError("multi-byte graph6 orders exceed the 32-vertex cap")
    if not 1 <= n <= ORDER_CAP:
        raise GraphError(f"graph6 order {n} outside 1..{ORDER_CAP}")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = s[1:]
    if len(body) != nbytes:
        raise GraphError(
            f"graph6 body for order {n} needs {nbytes} bytes, got {len(body)}"
        )
    value = 0
    for ch in body:
        digit = ord(ch) - 63
        if not 0 <= digit < 64:
            raise GraphError(f"invalid graph6 byte {ch!r}")
        value = value << 6 | digit
    pad = 6 * nbytes - nbits
    if value & ((1 << pad) - 1):
        raise GraphError("nonzero padding bits in graph6 string")
    # the body lists the upper triangle column by column, (0,1), (0,2),
    # (1,2), (0,3), ...; reversed, its k-th entry is bit k of ``bits``
    bits = int(f"{value >> pad:0{nbits}b}"[::-1], 2) if nbits else 0
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        column = bits >> pos & ((1 << j) - 1)  # the neighbours i < j of j
        pos += j
        rows[j] = column
        while column:
            low = column & -column
            rows[low.bit_length() - 1] |= 1 << j
            column ^= low
    return _raw_graph(n, rows)


# ---------------------------------------------------------------------------
# canonical labelling: one engine, the backend's ``canon`` kernel


def _canon(g: Graph) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The canonical rows and the Aut(g) generators of ``g``, from one
    kernel search on first use."""
    if g._canon is None:
        object.__setattr__(g, "_canon", _backend.canon(g.handle))
    return g._canon


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Generators of Aut(g), each a vertex permutation ``p`` (v -> p[v]),
    found by the canonical-labelling search."""
    return list(_canon(g)[1])


def canonical_graph6(g: Graph) -> str:
    """graph6 of the canonical relabelling: equal for two graphs exactly when
    they are isomorphic."""
    return graph6_encode(_raw_graph(g.order, _canon(g)[0]))


def graph_classes(
    max_order: int, bipartite: bool = False
) -> Iterator[tuple[int, list[tuple[int, ...]]]]:
    """(order, canonical rows of every isomorphism class of that order) for
    orders 1..max_order, each list sorted; with ``bipartite``, the bipartite
    classes only.  Built lazily, one order at a time.

    Vertex augmentation (after McKay, "Isomorph-free exhaustive
    generation", J. Algorithms 1998): each class of order k is a class of
    order k-1 plus a new vertex joined to some subset S, namely the graph
    minus one of its vertices of largest degree.  So only the subsets S that
    leave the new vertex of largest degree are labelled, and the distinct
    canonical rows of those children are the classes of order k.  Deleting
    a vertex keeps a graph bipartite, so filtering each order keeps the
    bipartite generation complete."""
    make_handle, class_flags, canon = _backend.make_handle, _backend.class_flags, _backend.canon
    level: list[tuple[int, ...]] = [()]
    for order in range(1, max_order + 1):
        new = order - 1
        seen: set[tuple[int, ...]] = set()
        for rows in level:
            degrees = [row.bit_count() for row in rows]
            top = max(degrees, default=0)
            # tied[k]: the vertices that would pass a new vertex of degree k
            # if joined to it
            tied = [sum(1 << v for v, d in enumerate(degrees) if d == k) for k in range(order)]
            for s in range(1 << new):
                size = s.bit_count()
                if size < top or s & tied[size]:
                    continue
                h = make_handle([row | (s >> v & 1) << new for v, row in enumerate(rows)] + [s])
                if not bipartite or class_flags(h)[0] & BIPARTITE:
                    seen.add(canon(h)[0])
        level = sorted(seen)
        yield order, level


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test: cheap invariants first, then canonical forms."""
    if g.order != h.order or g.edge_count != h.edge_count:
        return False
    if sorted(g.degrees) != sorted(h.degrees):
        return False
    return _canon(g)[0] == _canon(h)[0]
