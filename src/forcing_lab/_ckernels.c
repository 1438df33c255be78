/* Compiled bitmask kernels (hot inner loops), against the CPython C API.
 *
 * Twin of forcing_lab._kernels_py; see that module for the contract.  Every
 * function here has a pure-Python counterpart with identical results, and
 * tests/test_kernels.py holds the two bit for bit equal.  The two searches,
 * forcing_value and anti_forcing_value, take a graph's list of perfect
 * matchings and return one minimum set per matching as a bit mask over its
 * universe.  They run the twin's hitting-set search and spend search nodes
 * exactly as it does, but hold its constraints as bit sets over constraint
 * indices, so that a search node filters and prunes with word operations.
 * class_flags(h) returns (flags, side_u) for the graph: flags has bit 0
 * connected, 1 bipartite, 2 balanced (bipartite with equal sides), 3 split,
 * 4 cograph, 5 the f = n-1 predictor, 6 G1 member and 7 G2 member, and
 * side_u is the colour-0 side of the 2-colouring that puts each component's
 * smallest vertex on it (0 where the graph has an odd cycle).
 *
 * A graph handle copies the adjacency rows of a simple graph on at most 64
 * vertices into a C array.  Arguments that come from Python are checked
 * before any shift or array index uses them: masks and rows must fit in 64
 * unsigned bits (OverflowError otherwise), vertex indices must lie in
 * 0..n-1, mates must pair every vertex along an edge, and a matching must be
 * a sequence of (u, v) edges that covers every vertex once (ValueError).
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

/* The handle args[0] of a kernel called with min to max positional
 * arguments, or NULL with an exception set. */
static GraphHandle *parse_handle(const char *name, PyObject *const *args, Py_ssize_t nargs,
                                 Py_ssize_t min, Py_ssize_t max)
{
    if (nargs < min || nargs > max) {
        if (min == max)
            PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd positional arguments (%zd given)",
                         name, min, nargs);
        else
            PyErr_Format(PyExc_TypeError, "%s() takes %zd to %zd positional arguments (%zd given)",
                         name, min, max, nargs);
        return NULL;
    }
    if (!PyObject_TypeCheck(args[0], &GraphHandleType)) {
        PyErr_Format(PyExc_TypeError, "%s() argument 1 must be %s, not %.50s", name,
                     GraphHandleType.tp_name, Py_TYPE(args[0])->tp_name);
        return NULL;
    }
    return (GraphHandle *)args[0];
}

/* The arguments (h, active, cap or limit, removed=()) of pm_count and
 * pm_enumerate.  Copies the handle's rows minus each removed (u, v) pair into
 * rows[]; returns 1, or 0 when active has odd size, or -1 on error. */
static int parse_induced(const char *name, PyObject *const *args, Py_ssize_t nargs,
                         uint64_t *rows, uint64_t *active, long long *cap)
{
    GraphHandle *h = parse_handle(name, args, nargs, 3, 4);
    if (h == NULL || !to_u64(args[1], active) || to_longlong(args[2], cap) < 0)
        return -1;
    PyObject *removed = nargs > 3 ? args[3] : NULL, *pair;
    if (h->n < MAXV && *active >> h->n) {
        PyErr_Format(PyExc_ValueError, "active mask has vertices past the handle's %d", h->n);
        return -1;
    }
    if (popcount(*active) & 1)
        return 0;
    memcpy(rows, h->adj, sizeof h->adj);
    PyObject *it = removed == NULL ? NULL : PyObject_GetIter(removed);
    if (it == NULL)
        return removed == NULL ? 1 : -1;
    while ((pair = PyIter_Next(it)) != NULL) {
        int ends[2];
        for (int k = 0; k < 2; k++) {
            PyObject *end = PySequence_GetItem(pair, k);
            int rc = end == NULL ? -1 : to_vertex(end, h->n, "removed edge end", &ends[k]);
            Py_XDECREF(end);
            if (rc < 0) {
                Py_DECREF(pair);
                Py_DECREF(it);
                return -1;
            }
        }
        Py_DECREF(pair);
        rows[ends[0]] &= ~BIT(ends[1]);
        rows[ends[1]] &= ~BIT(ends[0]);
    }
    Py_DECREF(it);
    return PyErr_Occurred() ? -1 : 1;
}

/* The arguments (h, mates, ceiling) of alt_cycles: the handle, or NULL with
 * an exception set.  mates[] gets a sequence that pairs every vertex of the
 * handle along one of its edges (a perfect matching). */
static GraphHandle *parse_matching(const char *name, PyObject *const *args, Py_ssize_t nargs,
                                   int *mates, long long *limit)
{
    GraphHandle *h = parse_handle(name, args, nargs, 3, 3);
    if (h == NULL || to_longlong(args[2], limit) < 0)
        return NULL;
    PyObject *seq = PySequence_Tuple(args[1]);
    if (seq == NULL)
        return NULL;
    int rc = 0;
    if (PyTuple_GET_SIZE(seq) != h->n) {
        PyErr_Format(PyExc_ValueError, "mates must have one entry per vertex (%d)", h->n);
        rc = -1;
    }
    for (int i = 0; rc == 0 && i < h->n; i++)
        rc = to_vertex(PyTuple_GET_ITEM(seq, i), h->n, "mate", &mates[i]);
    Py_DECREF(seq);
    for (int v = 0; rc == 0 && v < h->n; v++) {
        if (mates[mates[v]] != v || !((h->adj[v] >> mates[v]) & 1)) {
            PyErr_Format(PyExc_ValueError, "mates is not a perfect matching of the handle (vertex %d)", v);
            rc = -1;
        }
    }
    return rc < 0 ? NULL : h;
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
    uint64_t rows[MAXV], active;
    long long cap;
    int rc = parse_induced("pm_count", args, nargs, rows, &active, &cap);
    if (rc <= 0)
        return rc < 0 ? NULL : PyLong_FromLong(0);
    return PyLong_FromLongLong(count_rec(rows, active, cap));
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
    uint64_t rows[MAXV], active;
    long long limit;
    int rc = parse_induced("pm_enumerate", args, nargs, rows, &active, &limit);
    if (rc < 0)
        return NULL;
    Enumeration e = {.adj = rows, .limit = limit, .out = PyList_New(0), .depth = 0};
    if (e.out != NULL && rc > 0 && limit != 0 && enum_rec(&e, active) < 0)
        Py_CLEAR(e.out);
    return e.out;
}

/* ------------------------------------------------------------------------
 * alternating cycles */

typedef struct {
    const uint64_t *adj;
    const int *mates;
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
    int mates[MAXV];
    GraphHandle *h = parse_matching("alt_cycles", args, nargs, mates, &ceiling);
    if (h == NULL)
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
 * These mirror _kernels_py._lazy_minimum_hitting, the lazy hitting-set
 * search (iterative deepening in lexicographic order, pruned by discovered
 * alternating cycles and their greedy disjoint packing), and spend search
 * nodes as it does.  One call solves a list of perfect matchings of a graph.
 * Per matching: the lexicographically first minimum set as a mask over the
 * universe, -1 node budget exhausted, -2 the caller must ask the twin
 * (universe or constraint store too large). */

#define CONWORDS (MAXCON / 64)  /* words of a set of constraints */

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
 * position; see search_value for the two encodings. */
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
                mask |= BIT(edge_index[v < nxt ? MAXV * v + nxt : MAXV * nxt + v]);
        }
        v = nxt;
        use_r = !use_r;
    } while (v != v0);
    return mask;
}

/* The constraints learnt so far, as bit sets over constraint indices; only
 * the first nwords words of a set are in use. */
typedef struct {
    int n_universe;
    int ncon;
    int nwords;
    int64_t budget;
    uint64_t found;                        /* the last candidate, the accepted one at the end */
    uint64_t every[CONWORDS];              /* all constraints */
    uint64_t hits[MAXUNI][CONWORDS];       /* constraints each element hits */
    uint64_t reach[MAXUNI + 1][CONWORDS];  /* constraints hit from each position on */
    uint64_t meets[MAXCON][CONWORDS];      /* constraints sharing an element with each */
} HitSearch;

static void add_constraint(HitSearch *hs, uint64_t mask)
{
    int j = hs->ncon++, w = j / 64;
    if (j % 64 == 0) {
        for (int i = 0; i < hs->n_universe; i++)
            hs->hits[i][w] = 0;
        for (int i = 0; i <= hs->n_universe; i++)
            hs->reach[i][w] = 0;
        for (int i = 0; i < j; i++)
            hs->meets[i][w] = 0;
        hs->every[w] = 0;
        hs->nwords = w + 1;
    }
    uint64_t bit = BIT(j % 64);
    hs->every[w] |= bit;
    for (uint64_t rest = mask; rest; rest &= rest - 1)
        hs->hits[lowest_bit(rest)][w] |= bit;
    for (int i = mask ? 63 - __builtin_clzll(mask) : -1; i >= 0; i--)
        hs->reach[i][w] |= bit;
    uint64_t *met = hs->meets[j];
    memset(met, 0, hs->nwords * sizeof *met);
    for (uint64_t rest = mask; rest; rest &= rest - 1) {
        for (int x = 0; x < hs->nwords; x++)
            met[x] |= hs->hits[lowest_bit(rest)][x];
    }
    for (int x = 0; x < hs->nwords; x++) {
        for (uint64_t rest = met[x]; rest; rest &= rest - 1)
            hs->meets[64 * x + lowest_bit(rest)][w] |= bit;
    }
}

/* The constraints of set taken greedily in index order, each when it shares
 * no element with one taken before: their number, or limit + 1 once that is
 * passed. */
static int greedy_count(const HitSearch *hs, const uint64_t *set, int limit)
{
    uint64_t rest[CONWORDS];
    int count = 0;
    memcpy(rest, set, hs->nwords * sizeof *rest);
    for (int w = 0; w < hs->nwords; w++) {
        while (rest[w]) {
            if (++count > limit)
                return count;
            /* drop the constraint taken and every one that meets it */
            const uint64_t *met = hs->meets[64 * w + lowest_bit(rest[w])];
            rest[w] &= rest[w] - 1;
            for (int x = w; x < hs->nwords; x++)
                rest[x] &= ~met[x];
        }
    }
    return count;
}

/* Lexicographically first completion of chosen by slots elements from start
 * on that hits every constraint of unhit.  Spends one node per call, plus
 * one per slot of a free completion.  1 = candidate in *result, 0 = none,
 * -1 = budget out. */
static int hit_rec(HitSearch *hs, int start, int slots, const uint64_t *unhit, uint64_t chosen,
                   uint64_t *result)
{
    if (--hs->budget < 0)
        return -1;
    uint64_t stranded = 0;
    int nunhit = 0;
    for (int w = 0; w < hs->nwords; w++) {
        nunhit += popcount(unhit[w]);
        stranded |= unhit[w] & ~hs->reach[start][w];
    }
    if (nunhit == 0) {
        /* free completion: lexicographically first = the lowest indices */
        if (start + slots > hs->n_universe)
            return 0;
        hs->budget -= slots;
        if (hs->budget < 0)
            return -1;
        *result = slots ? chosen | ~(uint64_t)0 >> (64 - slots) << start : chosen;
        return 1;
    }
    /* no slot left, a constraint no element from start on hits, or more
       disjoint constraints than slots */
    if (slots == 0 || stranded || (nunhit > slots && greedy_count(hs, unhit, slots) > slots))
        return 0;
    uint64_t next[CONWORDS];
    int last = hs->n_universe - slots;
    for (int i = start; i <= last; i++) {
        uint64_t left = 0, lost = 0;
        for (int w = 0; w < hs->nwords; w++) {
            next[w] = unhit[w] & ~hs->hits[i][w];
            left |= next[w];
            lost |= unhit[w] & ~hs->reach[i][w];
        }
        /* Children that return 0 at once are not called, but spend their
           node here: all from i on once a constraint has no element from i
           on, and a last slot's that leave a constraint unhit. */
        if (lost) {
            if (hs->budget < last - i + 1) {
                hs->budget = -1;
                return -1;
            }
            hs->budget -= last - i + 1;
            return 0;
        }
        if (slots == 1 && left) {
            if (--hs->budget < 0)
                return -1;
            continue;
        }
        int rc = hit_rec(hs, i + 1, slots - 1, next, chosen | BIT(i), result);
        if (rc != 0)
            return rc;
    }
    return 0;
}

static int lazy_search(HitSearch *hs, const uint64_t *adj, int n, const int *mates, int forcing,
                       const int *uni_u, const int *uni_v, const int *edge_index)
{
    uint64_t rows[MAXV];
    int rmates[MAXV], omates[MAXV];
    int k = 0;
    while (k <= hs->n_universe) {
        int rc = hit_rec(hs, 0, k, hs->every, 0, &hs->found);
        if (rc == -1)
            return -1;
        if (rc == 0) {
            k++;
            continue;
        }
        /* candidate found: run the uniqueness check */
        uint64_t cand = hs->found, active = all_vertices(n);
        memcpy(rows, adj, n * sizeof *rows);
        if (forcing) {
            for (int i = 0; i < hs->n_universe; i++) {
                if (cand & BIT(i))
                    active &= ~(BIT(uni_u[i]) | BIT(uni_v[i]));
            }
            for (int i = 0; i < n; i++)
                rmates[i] = (active >> i) & 1 ? mates[i] : -1;
        } else {
            for (int i = 0; i < n; i++)
                rmates[i] = mates[i];
            for (int i = 0; i < hs->n_universe; i++) {
                if (cand & BIT(i)) {
                    rows[uni_u[i]] &= ~BIT(uni_v[i]);
                    rows[uni_v[i]] &= ~BIT(uni_u[i]);
                }
            }
        }
        if (!other_matching(rows, active, rmates, 1, omates))
            return k;
        if (hs->ncon >= MAXCON)
            return -2;
        add_constraint(hs, difference_constraint(rmates, omates, n, forcing, edge_index));
        int lb = greedy_count(hs, hs->every, MAXCON);
        if (lb > k)
            k = lb;
    }
    return -2;  /* unreachable for well-formed inputs */
}

/* f(G,M) (forcing: the universe is M's edges) or af(G,M) (the edges off M)
 * of the perfect matching mates of h, with node_limit search nodes; a
 * minimum set is then in hs->found. */
static int search_value(HitSearch *hs, const GraphHandle *h, const int *mates, int forcing,
                        int64_t node_limit)
{
    /* only the slots set below are read, so one zeroed array serves every call */
    static int edge_index[MAXV * MAXV];
    int uni_u[MAXUNI], uni_v[MAXUNI], size = 0;
    for (int i = 0; i < h->n; i++) {
        if (forcing) {
            if (mates[i] > i) {
                uni_u[size] = i;
                uni_v[size] = mates[i];
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
            uni_u[size] = i;
            uni_v[size] = v;
            edge_index[MAXV * i + v] = size++;
        }
    }
    hs->n_universe = size;
    hs->ncon = hs->nwords = 0;
    hs->budget = node_limit;
    return lazy_search(hs, h->adj, h->n, mates, forcing, uni_u, uni_v, edge_index);
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

/* The two searches: (h, matchings, node_limit) -> a list of set masks, one
 * per matching, that ends at the first -1. */
static PyObject *search_values(const char *name, int forcing, PyObject *const *args,
                               Py_ssize_t nargs)
{
    long long node_limit;
    GraphHandle *h = parse_handle(name, args, nargs, 3, 3);
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
        int value = search_value(&hs, h, mates, forcing, node_limit);
        PyObject *item = value < 0 ? PyLong_FromLong(value)
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
    return search_values("forcing_value", 1, args, nargs);
}

static PyObject *anti_forcing_value(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    return search_values("anti_forcing_value", 0, args, nargs);
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
    GraphHandle *h = parse_handle("class_flags", &arg, 1, 1, 1);
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
 * module */

#define FASTCALL(f) (PyCFunction)(void (*)(void))(f), METH_FASTCALL

static PyMethodDef methods[] = {
    {"make_handle", make_handle, METH_O,
     "make_handle($module, adj, /)\n--\n\nCopy adjacency rows into a C-array-backed handle."},
    {"pm_count", FASTCALL(pm_count),
     "pm_count($module, h, active, cap, removed=(), /)\n--\n\n"
     "Count perfect matchings of the subgraph induced by ``active``, up to ``cap``."},
    {"pm_enumerate", FASTCALL(pm_enumerate),
     "pm_enumerate($module, h, active, limit, removed=(), /)\n--\n\n"
     "All perfect matchings of the induced subgraph, lexicographic order."},
    {"alt_cycles", FASTCALL(alt_cycles),
     "alt_cycles($module, h, mates, ceiling, /)\n--\n\n"
     "Enumerate all M-alternating cycles in canonical form; None past ceiling."},
    {"pack_masks", pack_masks, METH_O,
     "pack_masks($module, masks, /)\n--\n\n"
     "Maximum number of pairwise-disjoint masks (exact branch and bound)."},
    {"forcing_value", FASTCALL(forcing_value),
     "forcing_value($module, h, matchings, node_limit, /)\n--\n\n"
     "Minimum forcing set of each perfect matching as a mask; the list ends at the first -1."},
    {"anti_forcing_value", FASTCALL(anti_forcing_value),
     "anti_forcing_value($module, h, matchings, node_limit, /)\n--\n\n"
     "Minimum anti-forcing set of each perfect matching as a mask; the list ends at the first -1."},
    {"class_flags", class_flags, METH_O,
     "class_flags($module, h, /)\n--\n\n"
     "The graph's class flags and the colour-0 side of its 2-colouring."},
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
