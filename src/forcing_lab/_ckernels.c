/* Compiled bitmask kernels (hot inner loops), against the CPython C API.
 *
 * Twin of forcing_lab._kernels_py; see that module for the contract.  Every
 * function here but the two whole-search values has a pure-Python
 * counterpart with identical results, and tests/test_kernels.py holds the
 * two bit for bit equal.
 *
 * A graph handle copies the adjacency rows of a simple graph on at most 64
 * vertices into a C array.  Arguments that come from Python are checked
 * before any shift or array index uses them: masks and rows must fit in 64
 * unsigned bits (OverflowError otherwise), vertex indices must lie in
 * 0..n-1, and mates must pair every vertex along an edge (ValueError).
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

/* The arguments (h, mates, limit) of alt_cycles and the two searches: the
 * handle, or NULL with an exception set.  mates[] gets a sequence that pairs
 * every vertex of the handle along one of its edges (a perfect matching). */
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
 * whole-search fast paths: minimum forcing / anti-forcing values
 *
 * These mirror the Python lazy hitting-set search (iterative deepening in
 * lexicographic order, pruned by discovered alternating cycles and their
 * greedy disjoint packing) but run entirely in C and return only the value.
 * Return codes: >= 0 value, -1 node budget exhausted, -2 caller must use the
 * Python path (universe or constraint store too large). */

/* First two perfect matchings (lex order) as mate arrays out[0..64) and
 * out[64..128); returns 1 once both are found. */
static int enum2_rec(const uint64_t *adj, uint64_t rem, int *work, int *out, int *found)
{
    if (rem == 0) {
        memcpy(out + *found * MAXV, work, MAXV * sizeof *work);
        *found += 1;
        return *found == 2;
    }
    int u = lowest_bit(rem);
    uint64_t nbrs = adj[u] & rem;
    while (nbrs) {
        uint64_t vbit = nbrs & (~nbrs + 1);
        nbrs ^= vbit;
        int v = lowest_bit(vbit);
        work[u] = v;
        work[v] = u;
        if (enum2_rec(adj, rem ^ BIT(u) ^ vbit, work, out, found))
            return 1;
        work[u] = -1;
        work[v] = -1;
    }
    return 0;
}

static void enum2(const uint64_t *adj, uint64_t rem, int *out)
{
    int work[MAXV];
    int found = 0;
    for (int i = 0; i < MAXV; i++)
        work[i] = -1;
    enum2_rec(adj, rem, work, out, &found);
}

static int greedy_lb(const uint64_t *cons, int ncon)
{
    uint64_t used = 0;
    int count = 0;
    for (int i = 0; i < ncon; i++) {
        if (!(cons[i] & used)) {
            used |= cons[i];
            count++;
        }
    }
    return count;
}

/* Constraint mask from the first cycle of the symmetric difference.
 *
 * edge_index maps a vertex (forcing: either endpoint of its matching edge)
 * or an edge slot (anti-forcing: 64*u+v with u < v) to the universe
 * position; see the callers for the two encodings. */
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

typedef struct {
    int n_universe;
    int ncon;
    int64_t budget;
    uint64_t cons[MAXCON];
} HitSearch;

/* Lex enumeration of hitting candidates; 1 = candidate in *result,
 * 0 = subtree exhausted, -1 = budget out. */
static int hit_rec(HitSearch *hs, int start, int slots, const uint64_t *unhit, int nunhit,
                   uint64_t chosen, uint64_t *result)
{
    uint64_t newunhit[MAXCON];
    int rc;
    hs->budget -= 1;
    if (hs->budget < 0)
        return -1;
    if (nunhit == 0) {
        /* free completion: lexicographically first = take the lowest indices */
        if (slots == 0) {
            *result = chosen;
            return 1;
        }
        /* delegate remaining positions one at a time to keep lex order */
        for (int i = start; i < hs->n_universe - slots + 1; i++) {
            rc = hit_rec(hs, i + 1, slots - 1, unhit, 0, chosen | BIT(i), result);
            if (rc != 0)
                return rc;
        }
        return 0;
    }
    if (slots == 0)
        return 0;
    for (int j = 0; j < nunhit; j++) {
        if (unhit[j] >> start == 0)
            return 0;
    }
    if (greedy_lb(unhit, nunhit) > slots)
        return 0;
    for (int i = start; i < hs->n_universe - slots + 1; i++) {
        uint64_t bit = BIT(i);
        int nnew = 0;
        for (int j = 0; j < nunhit; j++) {
            if (!(unhit[j] & bit))
                newunhit[nnew++] = unhit[j];
        }
        rc = hit_rec(hs, i + 1, slots - 1, newunhit, nnew, chosen | bit, result);
        if (rc != 0)
            return rc;
    }
    return 0;
}

static int lazy_search(const uint64_t *adj, int n, const int *mates, int n_universe,
                       int forcing, const int *uni_u, const int *uni_v, const int *edge_index,
                       int64_t node_limit)
{
    HitSearch hs = {.n_universe = n_universe, .ncon = 0, .budget = node_limit};
    uint64_t result, unhit[MAXCON], rows[MAXV];
    int rmates[MAXV], pair_out[2 * MAXV];
    int k = 0;
    while (k <= n_universe) {
        memcpy(unhit, hs.cons, hs.ncon * sizeof *unhit);
        int rc = hit_rec(&hs, 0, k, unhit, hs.ncon, 0, &result);
        if (rc == -1)
            return -1;
        if (rc == 0) {
            k++;
            continue;
        }
        /* candidate found: run the uniqueness check */
        uint64_t cand = result, active = all_vertices(n);
        memcpy(rows, adj, n * sizeof *rows);
        if (forcing) {
            for (int i = 0; i < n_universe; i++) {
                if (cand & BIT(i))
                    active &= ~(BIT(uni_u[i]) | BIT(uni_v[i]));
            }
            for (int i = 0; i < n; i++)
                rmates[i] = (active >> i) & 1 ? mates[i] : -1;
        } else {
            for (int i = 0; i < n; i++)
                rmates[i] = mates[i];
            for (int i = 0; i < n_universe; i++) {
                if (cand & BIT(i)) {
                    rows[uni_u[i]] &= ~BIT(uni_v[i]);
                    rows[uni_v[i]] &= ~BIT(uni_u[i]);
                }
            }
        }
        if (count_rec(rows, active, 2) == 1)
            return k;
        enum2(rows, active, pair_out);
        /* pick the enumerated matching that differs from the residual one */
        int slot = 1;
        for (int i = 0; i < n; i++) {
            if (rmates[i] >= 0 && pair_out[i] != rmates[i]) {
                slot = 0;
                break;
            }
        }
        if (hs.ncon >= MAXCON)
            return -2;
        hs.cons[hs.ncon++] = difference_constraint(rmates, pair_out + slot * MAXV, n, forcing,
                                                   edge_index);
        int lb = greedy_lb(hs.cons, hs.ncon);
        if (lb > k)
            k = lb;
    }
    return -2;  /* unreachable for well-formed inputs */
}

static PyObject *forcing_value(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long node_limit;
    int mates[MAXV], uni_u[MAXUNI], uni_v[MAXUNI], edge_index[MAXV];
    GraphHandle *h = parse_matching("forcing_value", args, nargs, mates, &node_limit);
    if (h == NULL)
        return NULL;
    int nm = 0;
    for (int i = 0; i < h->n; i++) {
        if (mates[i] > i) {
            uni_u[nm] = i;
            uni_v[nm] = mates[i];
            edge_index[i] = edge_index[mates[i]] = nm++;
        }
    }
    return PyLong_FromLong(lazy_search(h->adj, h->n, mates, nm, 1, uni_u, uni_v, edge_index,
                                       node_limit));
}

static PyObject *anti_forcing_value(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long node_limit;
    int mates[MAXV], uni_u[MAXUNI], uni_v[MAXUNI];
    /* only the slots set below are read, so one zeroed array serves every call */
    static int edge_index[MAXV * MAXV];
    GraphHandle *h = parse_matching("anti_forcing_value", args, nargs, mates, &node_limit);
    if (h == NULL)
        return NULL;
    int ne = 0;
    for (int i = 0; i < h->n; i++) {
        for (uint64_t row = h->adj[i] & bits_above(i); row; row &= row - 1) {
            int v = lowest_bit(row);
            if (mates[i] == v)
                continue;
            if (ne >= MAXUNI)
                return PyLong_FromLong(-2);
            uni_u[ne] = i;
            uni_v[ne] = v;
            edge_index[MAXV * i + v] = ne++;
        }
    }
    return PyLong_FromLong(lazy_search(h->adj, h->n, mates, ne, 0, uni_u, uni_v, edge_index,
                                       node_limit));
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
     "forcing_value($module, h, mates, node_limit, /)\n--\n\n"
     "Minimum forcing-set size of the matching given by ``mates``."},
    {"anti_forcing_value", FASTCALL(anti_forcing_value),
     "anti_forcing_value($module, h, mates, node_limit, /)\n--\n\n"
     "Minimum anti-forcing-set size of the matching given by ``mates``."},
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
