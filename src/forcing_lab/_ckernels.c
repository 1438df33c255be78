/* Compiled bitmask kernels (hot inner loops), against the CPython C API.
 *
 * Twin of forcing_lab._kernels_py; see that module for the contract.  Every
 * function here has a pure-Python counterpart with identical results, and
 * tests/test_kernels.py holds the two bit for bit equal.  The four searches
 * take a graph's list of perfect matchings: forcing_value and
 * anti_forcing_value return one value per matching, forcing_set and
 * anti_forcing_set its lexicographically first minimum set as a bit mask
 * over its universe.  They run the twin's branching hitting-set search and
 * spend search nodes exactly as it does, but hold the cycles it learns as
 * bit sets over cycle indices, so that a search node finds the cycles its
 * set leaves unhit with word operations.
 * class_flags(h) returns (flags, side_u) for the graph: flags has bit 0
 * connected, 1 bipartite, 2 balanced (bipartite with equal sides), 3 split,
 * 4 cograph, 5 the f = n-1 predictor, 6 G1 member and 7 G2 member, and
 * side_u is the colour-0 side of the 2-colouring that puts each component's
 * smallest vertex on it (0 where the graph has an odd cycle).
 * canon(h) returns (rows, generators): the canonical adjacency rows and
 * generators of Aut(G), from the twin's refinement and individualization
 * search run step for step, so both backends give equal rows and equal
 * generator lists.
 *
 * A graph handle copies the adjacency rows of a simple graph on at most 64
 * vertices into a C array.  Arguments that come from Python are checked
 * before any shift or array index uses them: masks and rows must fit in 64
 * unsigned bits (OverflowError otherwise), vertex indices must lie in
 * 0..n-1, and a matching must be a sequence of (u, v) edges of the handle
 * that covers every vertex once (ValueError).
 *
 * Build: cc -O3 -shared -fPIC -I<python include> _ckernels.c -o
 * _ckernels<EXT_SUFFIX>, or `python3 setup.py build_ext --inplace`.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define MAXV 64     /* vertices of a handle */
#define MAXCON 512  /* constraints a whole search holds before it answers -2 */
#define MAXUNI 64   /* universe edges a whole search holds before it answers -2 */

#define BIT(i) ((uint64_t)1 << (i))

static inline int lowest_bit(uint64_t x) { return __builtin_ctzll(x); }

static inline int popcount(uint64_t x) { return __builtin_popcountll(x); }

/* The vertices above v, and the vertices 0..n-1. */
static inline uint64_t bits_above(int v) { return ~(BIT(v) | (BIT(v) - 1)); }

static inline uint64_t all_vertices(int n) { return n == MAXV ? ~(uint64_t)0 : BIT(n) - 1; }


/* ------------------------------------------------------------------------
 * argument conversion */

/* O& converter: a Python int in [0, 2**64) into a uint64_t. */
static int to_u64(PyObject *obj, void *out)
{
    PyObject *index = PyNumber_Index(obj);
    if (index == NULL)
        return 0;
    unsigned long long value = PyLong_AsUnsignedLongLong(index);
    Py_DECREF(index);
    if (value == (unsigned long long)-1 && PyErr_Occurred())
        return 0;
    *(uint64_t *)out = value;
    return 1;
}

/* A Python int into *out; -1 with an exception set otherwise. */
static int to_longlong(PyObject *obj, long long *out)
{
    long long value = PyLong_AsLongLong(obj);
    if (value == -1 && PyErr_Occurred())
        return -1;
    *out = value;
    return 0;
}

/* A Python int in 0..n-1 into *out; -1 with an exception set otherwise. */
static int to_vertex(PyObject *obj, int n, const char *what, int *out)
{
    long value = PyLong_AsLong(obj);
    if (value == -1 && PyErr_Occurred())
        return -1;
    if (value < 0 || value >= n) {
        PyErr_Format(PyExc_ValueError, "%s %ld is not a vertex of the handle's %d", what, value, n);
        return -1;
    }
    *out = (int)value;
    return 0;
}


/* ------------------------------------------------------------------------
 * graph handle */

typedef struct {
    PyObject_HEAD
    int n;
    uint64_t adj[MAXV];
} GraphHandle;

static PyTypeObject GraphHandleType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "forcing_lab._ckernels.GraphHandle",
    .tp_basicsize = sizeof(GraphHandle),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Adjacency rows of a simple graph on at most 64 vertices.",
};

static PyObject *make_handle(PyObject *self, PyObject *rows)
{
    PyObject *seq = PySequence_Tuple(rows);
    if (seq == NULL)
        return NULL;
    Py_ssize_t n = PyTuple_GET_SIZE(seq);
    if (n > MAXV) {
        Py_DECREF(seq);
        PyErr_SetString(PyExc_ValueError, "graph handle supports at most 64 vertices");
        return NULL;
    }
    GraphHandle *h = PyObject_New(GraphHandle, &GraphHandleType);
    if (h == NULL) {
        Py_DECREF(seq);
        return NULL;
    }
    h->n = (int)n;
    memset(h->adj, 0, sizeof h->adj);
    int ok = 1;
    for (int i = 0; ok && i < n; i++)
        ok = to_u64(PyTuple_GET_ITEM(seq, i), &h->adj[i]);
    Py_DECREF(seq);
    /* no loop, no vertex past n - 1, every edge in both rows: the recursions
       below rely on each of these to end and to stay inside their arrays */
    for (int u = 0; ok && u < n; u++) {
        uint64_t row = h->adj[u];
        ok = !(row & BIT(u)) && !(row & ~all_vertices(n));
        for (uint64_t rest = row; ok && rest; rest &= rest - 1)
            ok = (h->adj[lowest_bit(rest)] >> u) & 1;
        if (!ok)
            PyErr_Format(PyExc_ValueError, "row %d is not a row of a simple graph on %d vertices", u, h->n);
    }
    if (!ok) {
        Py_DECREF(h);
        return NULL;
    }
    return (PyObject *)h;
}

/* The handle args[0] of a kernel called with count positional arguments,
 * or NULL with an exception set. */
static GraphHandle *parse_handle(const char *name, PyObject *const *args, Py_ssize_t nargs,
                                 Py_ssize_t count)
{
    if (nargs != count) {
        PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd positional arguments (%zd given)",
                     name, count, nargs);
        return NULL;
    }
    if (!PyObject_TypeCheck(args[0], &GraphHandleType)) {
        PyErr_Format(PyExc_TypeError, "%s() argument 1 must be %s, not %.50s", name,
                     GraphHandleType.tp_name, Py_TYPE(args[0])->tp_name);
        return NULL;
    }
    return (GraphHandle *)args[0];
}

/* The arguments (h, active, cap or limit) of pm_count and pm_enumerate into
 * *h, *active and *cap; returns 1, or 0 when active has odd size, or -1 on
 * error. */
static int parse_induced(const char *name, PyObject *const *args, Py_ssize_t nargs,
                         GraphHandle **h, uint64_t *active, long long *cap)
{
    *h = parse_handle(name, args, nargs, 3);
    if (*h == NULL || !to_u64(args[1], active) || to_longlong(args[2], cap) < 0)
        return -1;
    if ((*h)->n < MAXV && *active >> (*h)->n) {
        PyErr_Format(PyExc_ValueError, "active mask has vertices past the handle's %d", (*h)->n);
        return -1;
    }
    return !(popcount(*active) & 1);
}

/* The edge (u, v) of h that item holds into ends[]; -1 with an exception
 * set otherwise. */
static int parse_edge(const GraphHandle *h, PyObject *item, int *ends)
{
    PyObject *pair = PySequence_Fast(item, "an edge must be a sequence of two vertices");
    if (pair == NULL)
        return -1;
    int rc = 0;
    if (PySequence_Fast_GET_SIZE(pair) != 2) {
        PyErr_Format(PyExc_ValueError, "an edge must have two ends, not %zd",
                     PySequence_Fast_GET_SIZE(pair));
        rc = -1;
    }
    for (int k = 0; rc == 0 && k < 2; k++)
        rc = to_vertex(PySequence_Fast_GET_ITEM(pair, k), h->n, "edge end", &ends[k]);
    Py_DECREF(pair);
    if (rc == 0 && !((h->adj[ends[0]] >> ends[1]) & 1)) {
        PyErr_Format(PyExc_ValueError, "(%d, %d) is not an edge of the handle", ends[0], ends[1]);
        rc = -1;
    }
    return rc;
}

/* The mates of the perfect matching item of h, a sequence of edges, into
 * mates[0..n); -1 with an exception set otherwise. */
static int parse_matching_edges(const GraphHandle *h, PyObject *item, unsigned char *mates)
{
    PyObject *edges = PySequence_Fast(item, "a matching must be a sequence of edges");
    if (edges == NULL)
        return -1;
    Py_ssize_t size = PySequence_Fast_GET_SIZE(edges);
    uint64_t covered = 0;
    int rc = 0;
    for (Py_ssize_t i = 0; rc == 0 && i < size; i++) {
        int ends[2];
        rc = parse_edge(h, PySequence_Fast_GET_ITEM(edges, i), ends);
        if (rc == 0 && covered & (BIT(ends[0]) | BIT(ends[1]))) {
            PyErr_Format(PyExc_ValueError, "the matching covers a vertex of (%d, %d) twice",
                         ends[0], ends[1]);
            rc = -1;
        }
        if (rc == 0) {
            covered |= BIT(ends[0]) | BIT(ends[1]);
            mates[ends[0]] = (unsigned char)ends[1];
            mates[ends[1]] = (unsigned char)ends[0];
        }
    }
    Py_DECREF(edges);
    if (rc == 0 && covered != all_vertices(h->n)) {
        PyErr_Format(PyExc_ValueError, "the matching is not perfect on the handle's %d vertices",
                     h->n);
        rc = -1;
    }
    return rc;
}

/* ------------------------------------------------------------------------
 * perfect matchings */

/* Perfect matchings of adj on rem, counted until the count reaches budget. */
static int64_t count_rec(const uint64_t *adj, uint64_t rem, int64_t budget)
{
    if (rem == 0)
        return 1;
    int u = lowest_bit(rem);
    uint64_t nbrs = adj[u] & rem;
    int64_t total = 0;
    while (nbrs) {
        uint64_t vbit = nbrs & (~nbrs + 1);
        nbrs ^= vbit;
        total += count_rec(adj, rem ^ BIT(u) ^ vbit, budget - total);
        if (total >= budget)
            return total;
    }
    return total;
}

static PyObject *pm_count(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    GraphHandle *h;
    uint64_t active;
    long long cap;
    int rc = parse_induced("pm_count", args, nargs, &h, &active, &cap);
    if (rc <= 0)
        return rc < 0 ? NULL : PyLong_FromLong(0);
    return PyLong_FromLongLong(count_rec(h->adj, active, cap));
}

typedef struct {
    const uint64_t *adj;
    long long limit;
    PyObject *out;               /* list of matchings found so far */
    PyObject *edges[MAXV / 2];   /* owned (u, v) tuples of the current branch */
    int depth;
} Enumeration;

/* 1: limit reached, 0: subtree done, -1: error. */
static int enum_rec(Enumeration *e, uint64_t rem)
{
    if (rem == 0) {
        PyObject *matching = PyTuple_New(e->depth);
        if (matching == NULL)
            return -1;
        for (int i = 0; i < e->depth; i++) {
            Py_INCREF(e->edges[i]);
            PyTuple_SET_ITEM(matching, i, e->edges[i]);
        }
        int rc = PyList_Append(e->out, matching);
        Py_DECREF(matching);
        if (rc < 0)
            return -1;
        return PyList_GET_SIZE(e->out) == e->limit;
    }
    int u = lowest_bit(rem);
    uint64_t nbrs = e->adj[u] & rem;
    while (nbrs) {
        uint64_t vbit = nbrs & (~nbrs + 1);
        nbrs ^= vbit;
        PyObject *edge = Py_BuildValue("(ii)", u, lowest_bit(vbit));
        if (edge == NULL)
            return -1;
        e->edges[e->depth++] = edge;
        int rc = enum_rec(e, rem ^ BIT(u) ^ vbit);
        Py_DECREF(e->edges[--e->depth]);
        if (rc != 0)
            return rc;
    }
    return 0;
}

static PyObject *pm_enumerate(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    GraphHandle *h;
    uint64_t active;
    long long limit;
    int rc = parse_induced("pm_enumerate", args, nargs, &h, &active, &limit);
    if (rc < 0)
        return NULL;
    Enumeration e = {.adj = h->adj, .limit = limit, .out = PyList_New(0), .depth = 0};
    if (e.out != NULL && rc > 0 && limit != 0 && enum_rec(&e, active) < 0)
        Py_CLEAR(e.out);
    return e.out;
}

/* ------------------------------------------------------------------------
 * alternating cycles */

typedef struct {
    const uint64_t *adj;
    const unsigned char *mates;
    int v0;
    int path[MAXV + 2];
    PyObject *out;               /* list of cycles found so far */
    long long ceiling;
} CycleSearch;

/* The cycle path[0..depth) rotated to path[0] and oriented toward its
 * smaller neighbour on the cycle. */
static PyObject *canonical_cycle(const int *path, int depth)
{
    PyObject *cycle = PyTuple_New(depth);
    if (cycle == NULL)
        return NULL;
    int forward = path[1] <= path[depth - 1];
    for (int i = 0; i < depth; i++) {
        PyObject *v = PyLong_FromLong(path[forward || i == 0 ? i : depth - i]);
        if (v == NULL) {
            Py_DECREF(cycle);
            return NULL;
        }
        PyTuple_SET_ITEM(cycle, i, v);
    }
    return cycle;
}

/* Arrived at x along its matching edge, leave along a non-matching one.
 * 1: more than ceiling cycles, 0: subtree done, -1: error. */
static int cycles_rec(CycleSearch *s, int x, uint64_t used, int depth)
{
    uint64_t cand = s->adj[x] & ~BIT(s->mates[x]);
    if (cand & BIT(s->v0)) {
        PyObject *cycle = canonical_cycle(s->path, depth);
        if (cycle == NULL)
            return -1;
        int rc = PyList_Append(s->out, cycle);
        Py_DECREF(cycle);
        if (rc < 0)
            return -1;
        if (PyList_GET_SIZE(s->out) > s->ceiling)
            return 1;
    }
    uint64_t ys = cand & ~used & bits_above(s->v0);
    while (ys) {
        uint64_t ybit = ys & (~ys + 1);
        ys ^= ybit;
        int y = lowest_bit(ybit);
        int z = s->mates[y];
        s->path[depth] = y;
        s->path[depth + 1] = z;
        int rc = cycles_rec(s, z, used | ybit | BIT(z), depth + 2);
        if (rc != 0)
            return rc;
    }
    return 0;
}

static PyObject *alt_cycles(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long ceiling;
    unsigned char mates[MAXV];
    GraphHandle *h = parse_handle("alt_cycles", args, nargs, 3);
    if (h == NULL || to_longlong(args[2], &ceiling) < 0
        || parse_matching_edges(h, args[1], mates) < 0)
        return NULL;
    CycleSearch s = {.adj = h->adj, .mates = mates, .out = PyList_New(0), .ceiling = ceiling};
    if (s.out == NULL)
        return NULL;
    for (int v0 = 0; v0 < h->n; v0++) {
        int m0 = mates[v0];
        if (m0 <= v0)
            continue;
        s.v0 = v0;
        s.path[0] = v0;
        s.path[1] = m0;
        int rc = cycles_rec(&s, m0, BIT(v0) | BIT(m0), 2);
        if (rc != 0) {
            Py_DECREF(s.out);
            return rc < 0 ? NULL : Py_NewRef(Py_None);
        }
    }
    return s.out;
}


/* ------------------------------------------------------------------------
 * disjoint packing */

/* One growing buffer holds every list of the recursion: a call's masks sit
 * at buf[start..start + len), and it lays out its own lists past them. */
typedef struct {
    uint64_t *buf;
    size_t cap;
    Py_ssize_t best;
} Packing;

static int reserve(Packing *p, size_t size)
{
    if (size <= p->cap)
        return 0;
    size_t cap = p->cap * 2 > size ? p->cap * 2 : size;
    uint64_t *buf = PyMem_Realloc(p->buf, cap * sizeof *buf);
    if (buf == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    p->buf = buf;
    p->cap = cap;
    return 0;
}

static int pack_rec(Packing *p, Py_ssize_t count, size_t start, size_t len)
{
    if (count > p->best)
        p->best = count;
    if (len == 0 || count + (Py_ssize_t)len <= p->best)
        return 0;
    size_t end = start + len;
    if (reserve(p, end + len) < 0)
        return -1;
    uint64_t union_mask = 0;
    for (size_t i = start; i < end; i++)
        union_mask |= p->buf[i];
    uint64_t vbit = union_mask & (~union_mask + 1);
    /* with_v = buf[end..end + nwith), without = buf[end + nwith..end + len) */
    size_t nwith = 0;
    for (size_t i = start; i < end; i++)
        nwith += (p->buf[i] & vbit) != 0;
    size_t w = end, wo = end + nwith;
    for (size_t i = start; i < end; i++) {
        if (p->buf[i] & vbit)
            p->buf[w++] = p->buf[i];
        else
            p->buf[wo++] = p->buf[i];
    }
    size_t child = end + len;
    for (size_t i = 0; i < nwith; i++) {
        if (reserve(p, child + len - nwith) < 0)
            return -1;
        uint64_t m = p->buf[end + i];
        size_t kept = 0;
        for (size_t j = end + nwith; j < end + len; j++) {
            if (!(p->buf[j] & m))
                p->buf[child + kept++] = p->buf[j];
        }
        if (pack_rec(p, count + 1, child, kept) < 0)
            return -1;
    }
    return pack_rec(p, count, end + nwith, len - nwith);
}

static PyObject *pack_masks(PyObject *self, PyObject *masks)
{
    PyObject *seq = PySequence_Tuple(masks);
    if (seq == NULL)
        return NULL;
    size_t n = (size_t)PyTuple_GET_SIZE(seq);
    Packing p = {.buf = NULL, .cap = 0, .best = 0};
    int rc = reserve(&p, n > 0 ? 2 * n : 1);
    for (size_t i = 0; rc == 0 && i < n; i++)
        rc = to_u64(PyTuple_GET_ITEM(seq, i), &p.buf[i]) ? 0 : -1;
    Py_DECREF(seq);
    if (rc == 0)
        rc = pack_rec(&p, 0, 0, n);
    PyMem_Free(p.buf);
    return rc < 0 ? NULL : PyLong_FromSsize_t(p.best);
}


/* ------------------------------------------------------------------------
 * whole searches: minimum forcing / anti-forcing sets
 *
 * These mirror _kernels_py._hitting_search, a bounded search tree over the
 * alternating cycles learnt so far, seeded with the matching's alternating
 * 4-cycles, and spend search nodes exactly as it does.  One call solves a list of perfect matchings of a graph.  Per
 * matching: the value (forcing_value, anti_forcing_value) or the
 * lexicographically first minimum set as a mask over the universe
 * (forcing_set, anti_forcing_set), -1 node budget exhausted, -2 the caller
 * must ask the twin (universe or cycle store too large). */

#define CONWORDS (MAXCON / 64)  /* words of a set of cycles */

/* The slot of the edge uv in an anti-forcing search's edge index. */
static inline int edge_slot(int u, int v) { return u < v ? MAXV * u + v : MAXV * v + u; }

/* The lexicographically first perfect matching of adj on rem that differs
 * from mates (same: the branch so far agrees with it) into other[]; returns
 * 1 if there is one, 0 if mates is the only one. */
static int other_matching(const uint64_t *adj, uint64_t rem, const int *mates, int same,
                          int *other)
{
    if (rem == 0)
        return !same;
    int u = lowest_bit(rem);
    uint64_t nbrs = adj[u] & rem;
    while (nbrs) {
        uint64_t vbit = nbrs & (~nbrs + 1);
        nbrs ^= vbit;
        int v = lowest_bit(vbit);
        other[u] = v;
        other[v] = u;
        if (other_matching(adj, rem ^ BIT(u) ^ vbit, mates, same && mates[u] == v, other))
            return 1;
    }
    return 0;
}

/* Constraint mask from the first cycle of the symmetric difference.
 *
 * edge_index maps a vertex (forcing: either endpoint of its matching edge)
 * or an edge slot (anti-forcing: 64*u+v with u < v) to the universe
 * position; see search_matching for the two encodings. */
static uint64_t difference_constraint(const int *rmates, const int *omates, int n,
                                      int mark_m_side, const int *edge_index)
{
    int v0 = -1;
    for (int i = 0; i < n; i++) {
        if (rmates[i] >= 0 && rmates[i] != omates[i]) {
            v0 = i;
            break;
        }
    }
    uint64_t mask = 0;
    int use_r = 1, v = v0;
    do {
        int nxt;
        if (use_r) {
            nxt = rmates[v];
            if (mark_m_side)
                mask |= BIT(edge_index[v]);
        } else {
            nxt = omates[v];
            if (!mark_m_side)
                mask |= BIT(edge_index[edge_slot(v, nxt)]);
        }
        v = nxt;
        use_r = !use_r;
    } while (v != v0);
    return mask;
}

/* One matching's search: its universe, the cycles learnt so far, and the
 * cycles each node of the current branch leaves unhit, as bit sets over
 * cycle indices of which only the first nwords words are in use. */
typedef struct {
    const uint64_t *adj;
    int n, forcing, n_universe;
    const int *mates, *edge_index;
    int uni_u[MAXUNI], uni_v[MAXUNI];
    int ncon, nwords;
    int64_t budget;
    uint64_t found;                         /* the witness */
    uint64_t con[MAXCON];                   /* each cycle's universe mask */
    uint64_t every[CONWORDS];               /* all cycles */
    uint64_t hits[MAXUNI][CONWORDS];        /* cycles each element hits */
    uint64_t unhit[MAXUNI + 1][CONWORDS];   /* cycles unhit at each depth */
} HitSearch;

/* Learn the cycle mask, found at a node of the given depth: its set is
 * disjoint from that node's, so every node of the branch leaves it unhit. */
static void add_constraint(HitSearch *hs, uint64_t mask, int depth)
{
    int j = hs->ncon++, w = j / 64;
    if (j % 64 == 0) {
        for (int i = 0; i < hs->n_universe; i++)
            hs->hits[i][w] = 0;
        for (int d = 0; d <= depth; d++)
            hs->unhit[d][w] = 0;
        hs->every[w] = 0;
        hs->nwords = w + 1;
    }
    uint64_t bit = BIT(j % 64);
    hs->con[j] = mask;
    hs->every[w] |= bit;
    for (uint64_t rest = mask; rest; rest &= rest - 1)
        hs->hits[lowest_bit(rest)][w] |= bit;
    for (int d = 0; d <= depth; d++)
        hs->unhit[d][w] |= bit;
}

/* Whether removing the set chosen (its edges' ends for a forcing set, its
 * edges for an anti-forcing set) leaves the matching unique: 1 if so, else
 * 0 with the cycle that tells learnt, or -2 when the store is full. */
static int check_set(HitSearch *hs, uint64_t chosen, int depth)
{
    uint64_t rows[MAXV], active = all_vertices(hs->n);
    int rmates[MAXV], omates[MAXV];
    memcpy(rows, hs->adj, hs->n * sizeof *rows);
    for (uint64_t rest = chosen; rest; rest &= rest - 1) {
        int i = lowest_bit(rest);
        if (hs->forcing) {
            active &= ~(BIT(hs->uni_u[i]) | BIT(hs->uni_v[i]));
        } else {
            rows[hs->uni_u[i]] &= ~BIT(hs->uni_v[i]);
            rows[hs->uni_v[i]] &= ~BIT(hs->uni_u[i]);
        }
    }
    for (int i = 0; i < hs->n; i++)
        rmates[i] = (active >> i) & 1 ? hs->mates[i] : -1;
    if (!other_matching(rows, active, rmates, 1, omates))
        return 1;
    if (hs->ncon >= MAXCON)
        return -2;
    add_constraint(hs, difference_constraint(rmates, omates, hs->n, hs->forcing, hs->edge_index),
                   depth);
    return 0;
}

/* One search node: a completion of chosen by at most slots elements outside
 * excluded that the check accepts, given the cycles unhit[depth] that chosen
 * leaves unhit.  A node where every cycle is hit runs the check, and a
 * cycle it learns is branched on from the same node.  Otherwise the node
 * branches on the unhit cycle with the fewest allowed elements, taking each
 * in turn and excluding it once tried; it prunes on a cycle with no allowed
 * element left, and on a greedy packing of the allowed remainders that
 * needs more sets than there are slots.  1 = an accepted set, 0 = none,
 * -1 = budget out, -2 = store full. */
static int branch(HitSearch *hs, int depth, uint64_t chosen, uint64_t excluded, int slots)
{
    if (--hs->budget < 0)
        return -1;
    uint64_t *unhit = hs->unhit[depth];
    uint64_t any = 0;
    for (int w = 0; w < hs->nwords; w++)
        any |= unhit[w];
    if (!any) {
        int rc = check_set(hs, chosen, depth);
        if (rc != 0)
            return rc;
    }
    if (slots == 0)
        return 0;
    uint64_t used = 0, pick = 0;
    int count = 0, fewest = MAXUNI + 1;
    for (int w = 0; w < hs->nwords; w++) {
        for (uint64_t rest = unhit[w]; rest; rest &= rest - 1) {
            uint64_t allowed = hs->con[64 * w + lowest_bit(rest)] & ~excluded;
            if (allowed == 0)
                return 0;
            if (!(allowed & used)) {
                used |= allowed;
                if (++count > slots)
                    return 0;
            }
            int size = popcount(allowed);
            if (size < fewest) {
                fewest = size;
                pick = allowed;
            }
        }
    }
    uint64_t *next = hs->unhit[depth + 1];
    for (; pick; pick &= pick - 1) {
        int e = lowest_bit(pick);
        for (int w = 0; w < hs->nwords; w++)
            next[w] = unhit[w] & ~hs->hits[e][w];
        int rc = branch(hs, depth + 1, chosen | BIT(e), excluded, slots - 1);
        if (rc != 0)
            return rc;
        excluded |= BIT(e);
    }
    return 0;
}

/* Seed the store with the matching's alternating 4-cycles: matching edges
 * ab before cd (by lower end), joined by bx and ya for (x, y) = (c, d) or
 * (d, c), and for a forcing set each pair of matching edges once.  0, or -2
 * when the store is full. */
static int seed_four_cycles(HitSearch *hs)
{
    const int *mates = hs->mates, *index = hs->edge_index;
    for (int a = 0; a < hs->n; a++) {
        int b = mates[a];
        for (int c = a + 1; b > a && c < hs->n; c++) {
            int d = mates[c];
            for (int o = 0; d > c && o < 2; o++) {
                int x = o ? d : c, y = o ? c : d;
                if (!((hs->adj[b] >> x) & 1) || !((hs->adj[y] >> a) & 1))
                    continue;
                if (hs->ncon >= MAXCON)
                    return -2;
                add_constraint(hs, hs->forcing ? BIT(index[a]) | BIT(index[c])
                                               : BIT(index[edge_slot(b, x)])
                                                     | BIT(index[edge_slot(y, a)]), 0);
                if (hs->forcing)
                    break;  /* the other orientation meets the same two edges */
            }
        }
    }
    return 0;
}

/* A search tree rooted at chosen. */
static int root(HitSearch *hs, uint64_t chosen, uint64_t excluded, int slots)
{
    for (int w = 0; w < hs->nwords; w++) {
        uint64_t word = hs->every[w];
        for (uint64_t rest = chosen; rest; rest &= rest - 1)
            word &= ~hs->hits[lowest_bit(rest)][w];
        hs->unhit[0][w] = word;
    }
    return branch(hs, 0, chosen, excluded, slots);
}

/* The learnt cycles taken greedily in index order, each when it shares no
 * element with one taken before: a lower bound on the value. */
static int greedy_count(const HitSearch *hs)
{
    uint64_t used = 0;
    int count = 0;
    for (int j = 0; j < hs->ncon; j++) {
        if (!(hs->con[j] & used)) {
            used |= hs->con[j];
            count++;
        }
    }
    return count;
}

/* The value: the least k whose search tree holds an accepted set, k deepened
 * from the greedy bound; -1 or -2 as branch. */
static int min_size(HitSearch *hs)
{
    for (int k = greedy_count(hs); k <= hs->n_universe;) {
        int rc = root(hs, 0, 0, k);
        if (rc != 0)
            return rc == 1 ? k : rc;
        int lb = greedy_count(hs);
        k = lb > k + 1 ? lb : k + 1;
    }
    return -2;  /* unreachable: the whole universe is accepted */
}

/* The lexicographically first accepted set of size k, the value, into
 * hs->found, built one element at a time: the next element is the smallest
 * one whose search tree, with the smaller ones excluded, still holds an
 * accepted set.  0, or -1 or -2 as branch. */
static int lex_first(HitSearch *hs, int k)
{
    uint64_t chosen = 0;
    int e = 0;
    for (int p = 0; p < k; p++) {
        for (;; e++) {
            if (e >= hs->n_universe)
                return -2;  /* unreachable: a set of size k exists */
            int rc = root(hs, chosen | BIT(e), (BIT(e) - 1) & ~chosen, k - p - 1);
            if (rc < 0)
                return rc;
            if (rc == 1)
                break;
        }
        chosen |= BIT(e++);
    }
    hs->found = chosen;
    return 0;
}

/* f(G,M) (forcing: the universe is M's edges) or af(G,M) (the edges off M)
 * of the perfect matching mates of h, with node_limit search nodes; with
 * witness, the lexicographically first minimum set too, in hs->found, from
 * the same budget. */
static int search_matching(HitSearch *hs, const GraphHandle *h, const int *mates, int forcing,
                           int witness, int64_t node_limit)
{
    /* only the slots set below are read, so one zeroed array serves every call */
    static int edge_index[MAXV * MAXV];
    int size = 0;
    for (int i = 0; i < h->n; i++) {
        if (forcing) {
            if (mates[i] > i) {
                hs->uni_u[size] = i;
                hs->uni_v[size] = mates[i];
                edge_index[i] = edge_index[mates[i]] = size++;
            }
            continue;
        }
        for (uint64_t row = h->adj[i] & bits_above(i); row; row &= row - 1) {
            int v = lowest_bit(row);
            if (mates[i] == v)
                continue;
            if (size >= MAXUNI)
                return -2;
            hs->uni_u[size] = i;
            hs->uni_v[size] = v;
            edge_index[MAXV * i + v] = size++;
        }
    }
    hs->adj = h->adj;
    hs->n = h->n;
    hs->forcing = forcing;
    hs->n_universe = size;
    hs->mates = mates;
    hs->edge_index = edge_index;
    hs->ncon = hs->nwords = 0;
    hs->budget = node_limit;
    int value = seed_four_cycles(hs);
    if (value == 0)
        value = min_size(hs);
    if (value < 0 || !witness)
        return value;
    int rc = lex_first(hs, value);
    return rc < 0 ? rc : value;
}

/* The four searches: (h, matchings, node_limit) -> a list of values or set
 * masks, one per matching, that ends at the first -1. */
static PyObject *search_all(const char *name, int forcing, int witness, PyObject *const *args,
                            Py_ssize_t nargs)
{
    long long node_limit;
    GraphHandle *h = parse_handle(name, args, nargs, 3);
    if (h == NULL || to_longlong(args[2], &node_limit) < 0)
        return NULL;
    PyObject *seq = PySequence_Fast(args[1], "matchings must be a sequence");
    if (seq == NULL)
        return NULL;
    Py_ssize_t count = PySequence_Fast_GET_SIZE(seq);
    /* every matching is checked before any search runs */
    unsigned char *all_mates = PyMem_Malloc(count * h->n + 1);
    int rc = all_mates == NULL ? (PyErr_NoMemory(), -1) : 0;
    for (Py_ssize_t i = 0; rc == 0 && i < count; i++)
        rc = parse_matching_edges(h, PySequence_Fast_GET_ITEM(seq, i), all_mates + i * h->n);
    Py_DECREF(seq);
    PyObject *out = rc == 0 ? PyList_New(0) : NULL;
    HitSearch hs;
    int mates[MAXV];
    for (Py_ssize_t i = 0; out != NULL && i < count; i++) {
        for (int v = 0; v < h->n; v++)
            mates[v] = all_mates[i * h->n + v];
        int value = search_matching(&hs, h, mates, forcing, witness, node_limit);
        PyObject *item = value < 0 || !witness ? PyLong_FromLong(value)
                                               : PyLong_FromUnsignedLongLong(hs.found);
        /* a signal (Ctrl-C) ends the call between two matchings */
        if (item == NULL || PyList_Append(out, item) < 0 || PyErr_CheckSignals() < 0)
            Py_CLEAR(out);
        Py_XDECREF(item);
        if (value == -1)
            break;
    }
    PyMem_Free(all_mates);
    return out;
}

static PyObject *forcing_value(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    return search_all("forcing_value", 1, 0, args, nargs);
}

static PyObject *anti_forcing_value(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    return search_all("anti_forcing_value", 0, 0, args, nargs);
}

static PyObject *forcing_set(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    return search_all("forcing_set", 1, 1, args, nargs);
}

static PyObject *anti_forcing_set(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    return search_all("anti_forcing_set", 0, 1, args, nargs);
}

/* ------------------------------------------------------------------------
 * class recognizers
 *
 * class_flags mirrors _kernels_py.class_flags, flag for flag: the component
 * searches run on vertex masks, the cograph recursion on the graph's and its
 * complement's rows, the split test on the degree counts, and the G2 test
 * finds the allowed edges with count_rec. */

enum {
    CONNECTED = 1 << 0,
    BIPARTITE = 1 << 1,
    BALANCED = 1 << 2,
    SPLIT = 1 << 3,
    COGRAPH = 1 << 4,
    F_N1 = 1 << 5,
    G1_MEMBER = 1 << 6,
    G2_MEMBER = 1 << 7,
};

/* The component of the lowest vertex of mask (not 0) in the subgraph that
 * rows[] induce on mask. */
static uint64_t first_component(const uint64_t *rows, uint64_t mask)
{
    uint64_t comp = mask & (~mask + 1), frontier = comp;
    while (frontier) {
        uint64_t next = 0;
        for (; frontier; frontier &= frontier - 1)
            next |= rows[lowest_bit(frontier)];
        frontier = next & mask & ~comp;
        comp |= frontier;
    }
    return comp;
}

/* The colour-0 side of the 2-colouring that puts the smallest vertex of each
 * component on it, into *side_u; returns 0 if adj has an odd cycle. */
static int two_colouring(const uint64_t *adj, int n, uint64_t *side_u)
{
    uint64_t full = all_vertices(n), seen = 0, side = 0;
    while (seen != full) {
        uint64_t unseen = full & ~seen, layer = unseen & (~unseen + 1);
        for (int even = 1; layer; even = !even) {
            seen |= layer;
            if (even)
                side |= layer;
            uint64_t next = 0;
            for (; layer; layer &= layer - 1)
                next |= adj[lowest_bit(layer)];
            layer = next & ~seen;
        }
    }
    for (int v = 0; v < n; v++)
        if (adj[v] & ((side >> v) & 1 ? side : full & ~side))
            return 0;
    *side_u = side;
    return 1;
}

/* Hammer-Simeone: with the degrees d_1 >= ... >= d_p and m = max{i : d_i >=
 * i-1}, split iff sum_{i<=m} d_i = m(m-1) + sum_{i>m} d_i.  As d_i - i falls
 * strictly, the i with d_i >= i-1 are 1..m. */
static int is_split(const uint64_t *adj, int n)
{
    int count[MAXV] = {0};
    for (int v = 0; v < n; v++)
        count[popcount(adj[v])]++;
    long long i = 0, m = 0, head = 0, total = 0;
    for (int d = n - 1; d >= 0; d--) {
        for (int c = 0; c < count[d]; c++) {
            total += d;
            if (d >= i++) {
                m = i;
                head += d;
            }
        }
    }
    return head == m * (m - 1) + total - head;
}

/* P4-free: the subgraph induced on mask is one vertex, or is disconnected in
 * the graph or in its complement co[] with every component a cograph.  Each
 * level drops a vertex, so the recursion is at most MAXV deep. */
static int is_cograph(const uint64_t *adj, const uint64_t *co, uint64_t mask)
{
    if (popcount(mask) <= 1)
        return 1;
    const uint64_t *rows = adj;
    if (first_component(adj, mask) == mask) {
        rows = co;
        if (first_component(co, mask) == mask)
            return 0;
    }
    for (uint64_t rest = mask, comp; rest; rest &= ~comp) {
        comp = first_component(rows, rest);
        if (!is_cograph(adj, co, comp))
            return 0;
    }
    return 1;
}

/* The f = n-1 predictor on 2n vertices: complete multipartite with parts of
 * at most n (the complement's components are cliques of at most n
 * vertices), or K_{n,n} with extra edges inside one side (the n vertices off
 * a degree-n vertex's row all have that row). */
static int predicts_f_n1(const uint64_t *adj, const uint64_t *co, int order)
{
    if (order & 1)
        return 0;
    int n = order / 2, small = 1;
    uint64_t full = all_vertices(order);
    long long pairs = (long long)order * (order - 1) / 2, clique_pairs = 0;
    for (int v = 0; v < order; v++)
        pairs -= popcount(adj[v] & bits_above(v));
    for (uint64_t rest = full, comp; rest; rest &= ~comp) {
        comp = first_component(co, rest);
        int k = popcount(comp);
        small &= k <= n;
        clique_pairs += (long long)k * (k - 1) / 2;
    }
    if (small && clique_pairs == pairs)
        return 1;
    for (int v = 0; v < order; v++) {
        uint64_t row = adj[v], side_b = full & ~row;
        if (popcount(row) != n || popcount(side_b) != n)
            continue;
        int same = 1;
        for (uint64_t b = side_b; same && b; b &= b - 1)
            same = adj[lowest_bit(b)] == row;
        if (same)
            return 1;
    }
    return 0;
}

/* Whether rows[] join, inside mask, every vertex of u_mask to every vertex
 * outside it and no two vertices on the same side. */
static int complete_bipartite(const uint64_t *rows, uint64_t mask, uint64_t u_mask)
{
    uint64_t cu = mask & u_mask, cv = mask & ~u_mask;
    for (uint64_t rest = mask; rest; rest &= rest - 1) {
        int x = lowest_bit(rest);
        if ((rows[x] & mask) != ((cu >> x) & 1 ? cv : cu))
            return 0;
    }
    return 1;
}

/* G1 on the balanced 2-colouring side_u of 2n vertices: the components of the
 * bipartite complement that meet both sides are complete bipartite, at least
 * one, each on at most n vertices. */
static int g1_member(const uint64_t *adj, int order, uint64_t side_u)
{
    uint64_t full = all_vertices(order), side_v = full & ~side_u, rows[MAXV];
    int parts = 0;
    for (int v = 0; v < order; v++)
        rows[v] = ((side_u >> v) & 1 ? side_v : side_u) & ~adj[v];
    for (uint64_t rest = full, comp; rest; rest &= ~comp) {
        comp = first_component(rows, rest);
        if (!(comp & side_u) || !(comp & side_v))
            continue;  /* an isolated vertex of the complement */
        if (!complete_bipartite(rows, comp, side_u) || 2 * popcount(comp) > order)
            return 0;
        parts++;
    }
    return parts > 0;
}

/* G2 on the 2-colouring side_u: the allowed edges (those in some perfect
 * matching) form two components, each with as many vertices on either side,
 * on which adj induces a complete bipartite graph. */
static int g2_member(const uint64_t *adj, int order, uint64_t side_u)
{
    uint64_t full = all_vertices(order), allowed[MAXV] = {0};
    for (int u = 0; u < order; u++) {
        for (uint64_t row = adj[u] & bits_above(u); row; row &= row - 1) {
            int v = lowest_bit(row);
            if (count_rec(adj, full & ~(BIT(u) | BIT(v)), 1) == 1) {
                allowed[u] |= BIT(v);
                allowed[v] |= BIT(u);
            }
        }
    }
    uint64_t first = first_component(allowed, full), second = full & ~first;
    if (second == 0 || first_component(allowed, second) != second)
        return 0;
    for (int k = 0; k < 2; k++) {
        uint64_t comp = k ? second : first;
        int cu = popcount(comp & side_u);
        if (cu == 0 || 2 * cu != popcount(comp) || !complete_bipartite(adj, comp, side_u))
            return 0;
    }
    return 1;
}

/* (h) -> (flags, side_u): the bits above, and the colour-0 side of the
 * 2-colouring (0 where the graph has an odd cycle). */
static PyObject *class_flags(PyObject *self, PyObject *arg)
{
    GraphHandle *h = parse_handle("class_flags", &arg, 1, 1);
    if (h == NULL)
        return NULL;
    int n = h->n;
    uint64_t full = all_vertices(n), side_u = 0, co[MAXV];
    for (int v = 0; v < n; v++)
        co[v] = full & ~h->adj[v] & ~BIT(v);
    long flags = 0;
    if (n > 0 && first_component(h->adj, full) == full)
        flags |= CONNECTED;
    if (two_colouring(h->adj, n, &side_u)) {
        flags |= BIPARTITE;
        if (2 * popcount(side_u) == n) {
            flags |= BALANCED;
            if (g1_member(h->adj, n, side_u))
                flags |= G1_MEMBER;
            if (g2_member(h->adj, n, side_u))
                flags |= G2_MEMBER;
        }
    }
    if (is_split(h->adj, n))
        flags |= SPLIT;
    if (is_cograph(h->adj, co, full))
        flags |= COGRAPH;
    if (predicts_f_n1(h->adj, co, n))
        flags |= F_N1;
    return Py_BuildValue("(lK)", flags, (unsigned long long)side_u);
}


/* ------------------------------------------------------------------------
 * canonical labelling
 *
 * canon mirrors _kernels_py._individualize step for step: the same
 * refinement, the same individualization tree walked in the same order and
 * pruned by the same orbits and twins, so it returns the twin's canonical
 * rows and its generators in its order.  A colour is the number of vertices
 * in earlier cells, as in the twin.  The refinement orders the vertices of a
 * cell by the sorted colours of their neighbours; the vertices of a cell
 * have equal degree, so of two such lists the first is the smaller exactly
 * when it has more neighbours in the first cell where their counts differ,
 * and the counts are word operations.  The leaves live in a hash table keyed
 * by their relabelled rows, each with the colouring that reached it first,
 * which is where an automorphism found at an equal leaf maps to. */

typedef struct {
    int n;
    const uint64_t *adj;
    uint64_t *keys;         /* the rows of leaf i at keys[i * n] */
    unsigned char *firsts;  /* the colouring that reached leaf i first */
    size_t leaves, cap, best;
    size_t *slots;          /* open addressing: leaf index + 1, or 0 if free */
    size_t nslots;
    unsigned char *autos;   /* automorphism i (v -> autos[i * n + v]) */
    size_t nautos, autos_cap;
    int twin_of[MAXV];      /* union-find over the twin transpositions kept */
    int twins[MAXV][2];     /* each kept one joins two classes: at most n - 1 */
    int ntwins;
} Canon;

/* refine: colors[] into the coarsest equitable colouring below it. */
static void refine(const uint64_t *adj, int n, unsigned char *colors)
{
    for (;;) {
        uint64_t cell[MAXV] = {0};
        for (int v = 0; v < n; v++)
            cell[colors[v]] |= BIT(v);
        int starts[MAXV], cells = 0;
        for (int c = 0; c < n; c++)
            if (cell[c])
                starts[cells++] = c;
        if (cells == n)
            return;
        /* count[v][i]: neighbours of v in the i-th cell, for v in a cell of two or more */
        unsigned char count[MAXV][MAXV], fresh[MAXV];
        int split = 0;
        for (int i = 0; i < cells; i++) {
            int c = starts[i], size = popcount(cell[c]), member[MAXV], k = 0;
            for (uint64_t rest = cell[c]; rest; rest &= rest - 1)
                member[k++] = lowest_bit(rest);
            if (size > 1)
                for (k = 0; k < size; k++)
                    for (int j = 0; j < cells; j++)
                        count[member[k]][j] = (unsigned char)popcount(adj[member[k]] & cell[starts[j]]);
            /* insertion sort: more neighbours in the first differing cell first */
            for (k = 1; k < size; k++) {
                int v = member[k], at = k;
                while (at > 0 && memcmp(count[member[at - 1]], count[v], cells) != 0) {
                    const unsigned char *a = count[member[at - 1]], *b = count[v];
                    int j = 0;
                    while (a[j] == b[j])
                        j++;
                    if (a[j] > b[j])
                        break;
                    member[at] = member[at - 1];
                    at--;
                }
                member[at] = v;
            }
            int start = c;
            for (k = 0; k < size; k++) {
                if (k == 0 || memcmp(count[member[k - 1]], count[member[k]], cells) != 0) {
                    start = c + k;
                    split++;
                }
                fresh[member[k]] = (unsigned char)start;
            }
        }
        if (split == cells)
            return;
        memcpy(colors, fresh, n);
    }
}

static size_t key_hash(const uint64_t *key, int n)
{
    uint64_t h = 0x9e3779b97f4a7c15u;
    for (int i = 0; i < n; i++) {
        h = (h ^ key[i]) * 0xff51afd7ed558ccdu;
        h ^= h >> 32;
    }
    return (size_t)h;
}

/* The slot of key: the one that holds it, or the free one it would go in. */
static size_t key_slot(const Canon *cs, const uint64_t *key)
{
    size_t mask = cs->nslots - 1, s = key_hash(key, cs->n) & mask;
    while (cs->slots[s] && memcmp(&cs->keys[(cs->slots[s] - 1) * cs->n], key, cs->n * sizeof *key))
        s = (s + 1) & mask;
    return s;
}

/* Room for one more leaf, with the table at most half full; -1 on no memory. */
static int reserve_leaf(Canon *cs)
{
    int n = cs->n;
    if (cs->leaves == cs->cap) {
        size_t cap = cs->cap ? 2 * cs->cap : 16;
        uint64_t *keys = PyMem_Realloc(cs->keys, cap * n * sizeof *keys);
        if (keys == NULL)
            return -1;
        cs->keys = keys;
        unsigned char *firsts = PyMem_Realloc(cs->firsts, cap * n);
        if (firsts == NULL)
            return -1;
        cs->firsts = firsts;
        cs->cap = cap;
    }
    if (2 * (cs->leaves + 1) > cs->nslots) {
        size_t nslots = cs->nslots ? 2 * cs->nslots : 32;
        size_t *slots = PyMem_Calloc(nslots, sizeof *slots);
        if (slots == NULL)
            return -1;
        PyMem_Free(cs->slots);
        cs->slots = slots;
        cs->nslots = nslots;
        for (size_t i = 0; i < cs->leaves; i++)
            slots[key_slot(cs, &cs->keys[i * n])] = i + 1;
    }
    return 0;
}

/* A leaf: a discrete colouring.  Its key is the rows relabelled by colour;
 * a key met before gives the automorphism onto the colouring that first
 * reached it.  -1 on no memory. */
static int leaf(Canon *cs, const unsigned char *colors)
{
    int n = cs->n;
    if (reserve_leaf(cs) < 0)
        return -1;
    uint64_t *key = &cs->keys[cs->leaves * n];
    for (int v = 0; v < n; v++) {
        uint64_t row = 0;
        for (uint64_t rest = cs->adj[v]; rest; rest &= rest - 1)
            row |= BIT(colors[lowest_bit(rest)]);
        key[colors[v]] = row;
    }
    size_t s = key_slot(cs, key);
    if (cs->slots[s] == 0) {
        memcpy(&cs->firsts[cs->leaves * n], colors, n);
        cs->slots[s] = ++cs->leaves;
        const uint64_t *best = &cs->keys[cs->best * n];
        int i = 0;
        while (i < n && key[i] == best[i])
            i++;
        if (i < n && key[i] < best[i])
            cs->best = cs->leaves - 1;
        return 0;
    }
    if (cs->nautos == cs->autos_cap) {
        size_t cap = cs->autos_cap ? 2 * cs->autos_cap : 16;
        unsigned char *autos = PyMem_Realloc(cs->autos, cap * n);
        if (autos == NULL)
            return -1;
        cs->autos = autos;
        cs->autos_cap = cap;
    }
    const unsigned char *first = &cs->firsts[(cs->slots[s] - 1) * n];
    unsigned char where[MAXV], *gamma = &cs->autos[cs->nautos++ * n];
    for (int v = 0; v < n; v++)
        where[first[v]] = (unsigned char)v;
    for (int v = 0; v < n; v++)
        gamma[v] = where[colors[v]];
    return 0;
}

static int twin_root(const Canon *cs, int v)
{
    while (cs->twin_of[v] != v)
        v = cs->twin_of[v];
    return v;
}

/* The subtree below the equitable colouring colors, reached by
 * individualizing prefix[0..depth); -1 on no memory. */
static int canon_search(Canon *cs, const unsigned char *colors, unsigned char *prefix, int depth)
{
    int n = cs->n, held[MAXV] = {0}, target = -1;
    for (int v = 0; v < n; v++)
        held[colors[v]]++;
    for (int c = 0; c < n && target < 0; c++)
        if (held[c] > 1)
            target = c;
    if (target < 0)
        return leaf(cs, colors);
    int orbit[MAXV], done[MAXV], ndone = 0;
    for (int x = 0; x < n; x++)
        orbit[x] = x;
    size_t seen = 0;
    for (int v = 0; v < n; v++) {
        if (colors[v] != target)
            continue;
        for (; seen < cs->nautos; seen++) {
            const unsigned char *gamma = &cs->autos[seen * n];
            int fixes = 1;
            for (int p = 0; fixes && p < depth; p++)
                fixes = gamma[prefix[p]] == prefix[p];
            for (int x = 0; fixes && x < n; x++) {
                int a = orbit[x], b = orbit[gamma[x]];
                if (a != b)
                    for (int o = 0; o < n; o++)
                        if (orbit[o] == b)
                            orbit[o] = a;
            }
        }
        int skip = 0;
        for (int k = 0; !skip && k < ndone; k++) {
            int u = done[k];
            if (orbit[u] == orbit[v]) {
                skip = 1;
            } else if (!((cs->adj[u] ^ cs->adj[v]) & ~(BIT(u) | BIT(v)))) {
                int a = twin_root(cs, u), b = twin_root(cs, v);
                if (a != b) {
                    cs->twin_of[b] = a;
                    cs->twins[cs->ntwins][0] = u;
                    cs->twins[cs->ntwins++][1] = v;
                }
                skip = 1;
            }
        }
        if (skip)
            continue;
        unsigned char child[MAXV];
        for (int u = 0; u < n; u++)
            child[u] = colors[u] == target && u != v ? (unsigned char)(target + 1) : colors[u];
        refine(cs->adj, n, child);
        prefix[depth] = (unsigned char)v;
        if (canon_search(cs, child, prefix, depth + 1) < 0)
            return -1;
        done[ndone++] = v;
    }
    return 0;
}

/* The permutation perm[0..n) as a tuple. */
static PyObject *perm_tuple(const unsigned char *perm, int n)
{
    PyObject *t = PyTuple_New(n);
    for (int v = 0; t != NULL && v < n; v++) {
        PyObject *x = PyLong_FromLong(perm[v]);
        if (x == NULL) {
            Py_CLEAR(t);
            break;
        }
        PyTuple_SET_ITEM(t, v, x);
    }
    return t;
}

/* (rows, generators) of the finished search, or NULL with an exception set. */
static PyObject *canon_result(const Canon *cs)
{
    int n = cs->n;
    PyObject *rows = PyTuple_New(n), *gens = PyList_New(0);
    for (int c = 0; rows != NULL && c < n; c++) {
        PyObject *x = PyLong_FromUnsignedLongLong(cs->keys[cs->best * n + c]);
        if (x == NULL)
            Py_CLEAR(rows);
        else
            PyTuple_SET_ITEM(rows, c, x);
    }
    int ok = rows != NULL && gens != NULL;
    for (size_t i = 0; ok && i < cs->nautos; i++) {
        PyObject *t = perm_tuple(&cs->autos[i * n], n);
        ok = t != NULL && PyList_Append(gens, t) == 0;
        Py_XDECREF(t);
    }
    for (int i = 0; ok && i < cs->ntwins; i++) {
        unsigned char swap[MAXV];
        for (int v = 0; v < n; v++)
            swap[v] = (unsigned char)v;
        swap[cs->twins[i][0]] = (unsigned char)cs->twins[i][1];
        swap[cs->twins[i][1]] = (unsigned char)cs->twins[i][0];
        PyObject *t = perm_tuple(swap, n);
        ok = t != NULL && PyList_Append(gens, t) == 0;
        Py_XDECREF(t);
    }
    PyObject *out = ok ? PyTuple_Pack(2, rows, gens) : NULL;
    Py_XDECREF(rows);
    Py_XDECREF(gens);
    return out;
}

/* (h) -> (rows, generators): the canonical rows, and the automorphisms found
 * followed by the transpositions of the skipped twins. */
static PyObject *canon(PyObject *self, PyObject *arg)
{
    GraphHandle *h = parse_handle("canon", &arg, 1, 1);
    if (h == NULL)
        return NULL;
    int n = h->n;
    if (n == 0)
        return Py_BuildValue("(()[])");
    Canon cs = {.n = n, .adj = h->adj};
    unsigned char colors[MAXV], prefix[MAXV];
    for (int v = 0; v < n; v++) {
        int below = 0, d = popcount(h->adj[v]);
        for (int u = 0; u < n; u++)
            below += popcount(h->adj[u]) < d;
        colors[v] = (unsigned char)below;
        cs.twin_of[v] = v;
    }
    refine(h->adj, n, colors);
    PyObject *out = canon_search(&cs, colors, prefix, 0) < 0 ? PyErr_NoMemory() : canon_result(&cs);
    PyMem_Free(cs.keys);
    PyMem_Free(cs.firsts);
    PyMem_Free(cs.slots);
    PyMem_Free(cs.autos);
    return out;
}


/* ------------------------------------------------------------------------
 * module */

#define FASTCALL(f) (PyCFunction)(void (*)(void))(f), METH_FASTCALL

static PyMethodDef methods[] = {
    {"make_handle", make_handle, METH_O,
     "make_handle($module, adj, /)\n--\n\nCopy adjacency rows into a C-array-backed handle."},
    {"pm_count", FASTCALL(pm_count),
     "pm_count($module, h, active, cap, /)\n--\n\n"
     "Count perfect matchings of the subgraph induced by ``active``, up to ``cap``."},
    {"pm_enumerate", FASTCALL(pm_enumerate),
     "pm_enumerate($module, h, active, limit, /)\n--\n\n"
     "All perfect matchings of the induced subgraph, lexicographic order."},
    {"alt_cycles", FASTCALL(alt_cycles),
     "alt_cycles($module, h, matching, ceiling, /)\n--\n\n"
     "Enumerate all M-alternating cycles in canonical form; None past ceiling."},
    {"pack_masks", pack_masks, METH_O,
     "pack_masks($module, masks, /)\n--\n\n"
     "Maximum number of pairwise-disjoint masks (exact branch and bound)."},
    {"forcing_value", FASTCALL(forcing_value),
     "forcing_value($module, h, matchings, node_limit, /)\n--\n\n"
     "f(G,M) of each perfect matching; the list ends at the first -1."},
    {"anti_forcing_value", FASTCALL(anti_forcing_value),
     "anti_forcing_value($module, h, matchings, node_limit, /)\n--\n\n"
     "af(G,M) of each perfect matching; the list ends at the first -1."},
    {"forcing_set", FASTCALL(forcing_set),
     "forcing_set($module, h, matchings, node_limit, /)\n--\n\n"
     "Lexicographically first minimum forcing set of each perfect matching as a mask; "
     "the list ends at the first -1."},
    {"anti_forcing_set", FASTCALL(anti_forcing_set),
     "anti_forcing_set($module, h, matchings, node_limit, /)\n--\n\n"
     "Lexicographically first minimum anti-forcing set of each perfect matching as a mask; "
     "the list ends at the first -1."},
    {"class_flags", class_flags, METH_O,
     "class_flags($module, h, /)\n--\n\n"
     "The graph's class flags and the colour-0 side of its 2-colouring."},
    {"canon", canon, METH_O,
     "canon($module, h, /)\n--\n\n"
     "Canonical adjacency rows and generators of the automorphism group, from one search."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "forcing_lab._ckernels",
    .m_doc = "Compiled bitmask kernels (hot inner loops).\n\n"
             "Twin of ``forcing_lab._kernels_py``; see that module for the contract.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__ckernels(void)
{
    if (PyType_Ready(&GraphHandleType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddStringConstant(m, "BACKEND_NAME", "compiled") < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
