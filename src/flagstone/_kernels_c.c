/* Compiled bitset kernels for graphs on at most 64 vertices.

   The four hot kernels of _kernels_py (maximal_cliques, clique_census,
   crowded_link, canonical_key), each with the contract of its namesake
   there; that module is the reference.  An adjacency row travels as one
   64-bit word.  A call copies its rows into a context struct on the C
   stack and hands it down the recursion, so the module keeps no state
   between calls.  Arguments are checked where Python
   calls in: n must lie in 0..64, masks must hold at least n rows, and every
   row (and crowded_link's `within`) must fit in n bits; anything else
   raises ValueError, OverflowError or TypeError.
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAXN 64

typedef uint64_t word;

typedef struct {
    int n;
    word rows[MAXN];
    int64_t counts[MAXN + 2];  /* clique_census: k-vertex cliques seen so far */
    int path[MAXN];            /* the vertices chosen so far, in order */
    int found;                 /* a witness was found: the search is over */
    word hit;                  /* crowded_link: the witness clique */
    word *cliques;             /* maximal_cliques: growable result buffer */
    size_t count, cap;
    PyObject *out;             /* clique_census: list of maximal cliques */
    word best[MAXN];           /* canonical_key: least key, one chunk per depth */
    word chunk[MAXN];          /* canonical_key: chunks of the current path */
    int placed[MAXN];          /* canonical_key: vertex put in each slot */
    unsigned long updates;     /* canonical_key: times best was lowered */
    int failed;                /* a Python error is set: unwind */
    int over;                  /* clique_census: past the limit: unwind */
    int64_t left;              /* clique_census: nonempty cliques still allowed, or -1 for no limit */
} Ctx;

static inline int
popcount(word x)
{
    return __builtin_popcountll(x);
}

static inline int
lowest(word x)
{
    return __builtin_ctzll(x);
}

static inline word
full_mask(int n)
{
    return n == MAXN ? ~(word)0 : ((word)1 << n) - 1;
}

/* Copy masks[0..n-1] into c->rows after checking n and every row. */
static int
load(Ctx *c, PyObject *masks, Py_ssize_t n)
{
    if (n < 0 || n > MAXN) {
        PyErr_Format(PyExc_ValueError, "n=%zd is outside 0..%d", n, MAXN);
        return -1;
    }
    PyObject *seq = PySequence_Fast(masks, "masks must be a sequence");
    if (seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) < n) {
        PyErr_Format(PyExc_ValueError, "masks has %zd rows, n=%zd needs %zd",
                     PySequence_Fast_GET_SIZE(seq), n, n);
        Py_DECREF(seq);
        return -1;
    }
    word full = full_mask((int)n);
    for (Py_ssize_t i = 0; i < n; i++) {
        word row = PyLong_AsUnsignedLongLong(PySequence_Fast_GET_ITEM(seq, i));
        if (row == (word)-1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
        if (row & ~full) {
            PyErr_Format(PyExc_ValueError, "row %zd has a bit at or above n=%zd", i, n);
            Py_DECREF(seq);
            return -1;
        }
        c->rows[i] = row;
    }
    Py_DECREF(seq);
    c->n = (int)n;
    return 0;
}

/* The vertices of a mask as an ascending tuple. */
static PyObject *
tuple_of_mask(word mask)
{
    PyObject *t = PyTuple_New(popcount(mask));
    for (Py_ssize_t i = 0; t != NULL && mask; i++, mask &= mask - 1) {
        PyObject *v = PyLong_FromLong(lowest(mask));
        if (v == NULL) {
            Py_CLEAR(t);
            break;
        }
        PyTuple_SET_ITEM(t, i, v);
    }
    return t;
}

static PyObject *
tuple_of_path(const int *path, int len)
{
    PyObject *t = PyTuple_New(len);
    for (int i = 0; t != NULL && i < len; i++) {
        PyObject *v = PyLong_FromLong(path[i]);
        if (v == NULL) {
            Py_CLEAR(t);
            break;
        }
        PyTuple_SET_ITEM(t, i, v);
    }
    return t;
}

/* counts[0..top] as a list without its trailing zeros, at least one entry. */
static PyObject *
list_of_counts(const int64_t *counts, Py_ssize_t top)
{
    while (top > 0 && counts[top] == 0)
        top--;
    PyObject *out = PyList_New(top + 1);
    for (Py_ssize_t i = 0; out != NULL && i <= top; i++) {
        PyObject *v = PyLong_FromLongLong(counts[i]);
        if (v == NULL) {
            Py_CLEAR(out);
            break;
        }
        PyList_SET_ITEM(out, i, v);
    }
    return out;
}

/* -- maximal_cliques -------------------------------------------------- */

static void
push_clique(Ctx *c, word r)
{
    if (c->count == c->cap) {
        size_t cap = c->cap ? 2 * c->cap : 64;
        word *grown = realloc(c->cliques, cap * sizeof(word));
        if (grown == NULL) {
            PyErr_NoMemory();
            c->failed = 1;
            return;
        }
        c->cliques = grown;
        c->cap = cap;
    }
    c->cliques[c->count++] = r;
}

/* Bron-Kerbosch with the Tomita pivot: the u in P|X with most of P. */
static void
bron_kerbosch(Ctx *c, word r, word p, word x)
{
    if (!p && !x) {
        push_clique(c, r);
        return;
    }
    int best = -1, pivot = 0;
    for (word m = p | x; m; m &= m - 1) {
        int u = lowest(m);
        int k = popcount(p & c->rows[u]);
        if (k > best) {
            best = k;
            pivot = u;
        }
    }
    for (word cand = p & ~c->rows[pivot]; cand && !c->failed; cand &= cand - 1) {
        int v = lowest(cand);
        word bit = (word)1 << v;
        bron_kerbosch(c, r | bit, p & c->rows[v], x & c->rows[v]);
        p ^= bit;
        x |= bit;
    }
}

/* Lexicographic order of the ascending vertex tuples of two masks.  At the
   lowest vertex in one mask only, the other mask either holds a larger
   vertex (and sorts after) or has ended (and, being a prefix, sorts first). */
static int
lex_order(const void *pa, const void *pb)
{
    word a = *(const word *)pa, b = *(const word *)pb;
    if (a == b)
        return 0;
    int v = lowest(a ^ b);
    if ((a >> v) & 1)
        return (b >> v >> 1) ? -1 : 1;
    return (a >> v >> 1) ? 1 : -1;
}

static PyObject *
py_maximal_cliques(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *masks, *out = NULL;
    Py_ssize_t n;
    Ctx c;
    if (!PyArg_ParseTuple(args, "On:maximal_cliques", &masks, &n))
        return NULL;
    if (load(&c, masks, n) < 0)
        return NULL;
    if (n == 0)
        return PyList_New(0);
    c.cliques = NULL;
    c.count = c.cap = 0;
    c.failed = 0;
    bron_kerbosch(&c, 0, full_mask(c.n), 0);
    if (!c.failed) {
        qsort(c.cliques, c.count, sizeof(word), lex_order);
        out = PyList_New((Py_ssize_t)c.count);
        for (size_t i = 0; out != NULL && i < c.count; i++) {
            PyObject *t = tuple_of_mask(c.cliques[i]);
            if (t == NULL) {
                Py_CLEAR(out);
                break;
            }
            PyList_SET_ITEM(out, (Py_ssize_t)i, t);
        }
    }
    free(c.cliques);
    return out;
}

/* -- clique_census ---------------------------------------------------- */

/* Every clique in lexicographic order: cand holds the vertices above the
   last chosen one adjacent to all chosen, common every vertex adjacent to
   all chosen.  A clique is maximal exactly when common & row is empty.
   The candidates are counted before any is visited, so a capped pass
   visits at most its limit of cliques. */
static void
census_rec(Ctx *c, word cand, word common, int size)
{
    int k = popcount(cand);
    c->counts[size] += k;
    if (c->left >= 0 && (c->left -= k) < 0) {
        c->over = 1;
        return;
    }
    while (cand && !c->failed && !c->over) {
        int v = lowest(cand);
        cand &= cand - 1;
        word row = c->rows[v];
        word sub = cand & row;
        c->path[size - 1] = v;
        if (sub) {
            census_rec(c, sub, common & row, size + 1);
        } else if (!(common & row)) {
            PyObject *t = tuple_of_path(c->path, size);
            if (t == NULL || PyList_Append(c->out, t) < 0)
                c->failed = 1;
            Py_XDECREF(t);
        }
    }
}

static PyObject *
py_clique_census(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *masks, *counts;
    Py_ssize_t n, limit = -1;
    Ctx c;
    if (!PyArg_ParseTuple(args, "On|n:clique_census", &masks, &n, &limit))
        return NULL;
    if (load(&c, masks, n) < 0)
        return NULL;
    if (limit == 0)
        Py_RETURN_NONE;  /* the empty clique is already one too many */
    c.out = PyList_New(0);
    if (c.out == NULL)
        return NULL;
    memset(c.counts, 0, sizeof c.counts);
    c.counts[0] = 1;
    c.failed = c.over = 0;
    c.left = limit > 0 ? (int64_t)limit - 1 : -1;
    census_rec(&c, full_mask(c.n), full_mask(c.n), 1);
    if (c.over) {
        Py_DECREF(c.out);
        Py_RETURN_NONE;
    }
    if (c.failed || (counts = list_of_counts(c.counts, n)) == NULL) {
        Py_DECREF(c.out);
        return NULL;
    }
    PyObject *result = PyTuple_Pack(2, counts, c.out);
    Py_DECREF(counts);
    Py_DECREF(c.out);
    return result;
}

/* -- crowded_link ----------------------------------------------------- */

/* More than two vertices, or two adjacent ones. */
static int
crowded(const Ctx *c, word common)
{
    if (popcount(common) <= 1)
        return 0;
    word rest = common & (common - 1);
    if (rest & (rest - 1))
        return 1;
    return (c->rows[lowest(common)] & rest) != 0;
}

/* A prefix whose common neighbourhood is already uncrowded cannot grow
   into a crowded d-clique, so its branch is cut. */
static void
crowded_rec(Ctx *c, word chosen, word cand, word common, Py_ssize_t need)
{
    if (!crowded(c, common))
        return;
    if (need == 0) {
        c->found = 1;
        c->hit = chosen;
        return;
    }
    while (cand && !c->found) {
        int v = lowest(cand);
        cand &= cand - 1;
        word sub = cand & c->rows[v];
        if (popcount(sub) >= need - 1)
            crowded_rec(c, chosen | (word)1 << v, sub, common & c->rows[v], need - 1);
    }
}

static PyObject *
py_crowded_link(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *masks, *within_obj;
    Py_ssize_t n, d;
    Ctx c;
    if (!PyArg_ParseTuple(args, "OnnO:crowded_link", &masks, &n, &d, &within_obj))
        return NULL;
    if (load(&c, masks, n) < 0)
        return NULL;
    word within = PyLong_AsUnsignedLongLong(within_obj);
    if (within == (word)-1 && PyErr_Occurred())
        return NULL;
    if (within & ~full_mask(c.n)) {
        PyErr_Format(PyExc_ValueError, "within has a bit at or above n=%zd", n);
        return NULL;
    }
    if (d < 0)
        Py_RETURN_NONE;  /* no clique has a negative size */
    c.found = 0;
    crowded_rec(&c, 0, within, full_mask(c.n), d);
    if (!c.found)
        Py_RETURN_NONE;
    return tuple_of_mask(c.hit);
}

/* -- canonical_key ---------------------------------------------------- */

/* Placing a vertex in slot `depth` appends its `depth` adjacency bits to
   the placed vertices, a chunk of at most 63 bits, so a key is one chunk
   per depth and two keys compare chunk by chunk.  `tight` says the chunks
   placed so far equal best's; a lowered best always comes from the
   current subtree, so a frame turns tight whenever its child lowered it.
   pat[v] holds v's chunk against the vertices placed above this frame. */
static void
canon_rec(Ctx *c, int depth, word unplaced, int tight, const word *parent_pat)
{
    word pat[MAXN], pats[MAXN];
    int verts[MAXN], cnt = 0;
    for (word m = unplaced; m; m &= m - 1) {
        int v = lowest(m);
        pat[v] = depth ? (parent_pat[v] << 1) | ((c->rows[c->placed[depth - 1]] >> v) & 1) : 0;
        /* insertion sort by (pattern, vertex); vertices arrive ascending */
        int k = cnt++;
        while (k > 0 && pats[k - 1] > pat[v]) {
            pats[k] = pats[k - 1];
            verts[k] = verts[k - 1];
            k--;
        }
        pats[k] = pat[v];
        verts[k] = v;
    }
    int run = 0;  /* first item with the current pattern */
    for (int k = 0; k < cnt; k++) {
        word p = pats[k];
        int v = verts[k];
        word rest = unplaced & ~((word)1 << v);
        if (k > 0 && pats[k - 1] != p)
            run = k;
        /* skip v if a same-pattern predecessor is interchangeable with it */
        int twin = 0;
        for (int a = run; a < k && !twin; a++) {
            int u = verts[a];
            word r2 = rest & ~((word)1 << u);
            twin = (c->rows[u] & r2) == (c->rows[v] & r2);
        }
        if (twin)
            continue;
        if (tight && p > c->best[depth])
            break;  /* items sorted by pattern: the rest only get bigger */
        if (depth + 1 == c->n) {
            if (!tight || p < c->best[depth]) {
                memcpy(c->best, c->chunk, depth * sizeof(word));
                c->best[depth] = p;
                c->updates++;
                tight = 1;
            }
        } else {
            unsigned long before = c->updates;
            c->placed[depth] = v;
            c->chunk[depth] = p;
            canon_rec(c, depth + 1, rest, tight && p == c->best[depth], pat);
            if (c->updates != before)
                tight = 1;
        }
    }
}

static PyObject *
py_canonical_key(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *masks;
    Py_ssize_t n;
    Ctx c;
    if (!PyArg_ParseTuple(args, "On:canonical_key", &masks, &n))
        return NULL;
    if (load(&c, masks, n) < 0)
        return NULL;
    if (n <= 1)
        return PyLong_FromLong(0);
    c.updates = 0;
    canon_rec(&c, 0, full_mask(c.n), 0, NULL);
    /* chunks 1..n-1, first bit most significant, as hex digits */
    char hex[MAXN * (MAXN - 1) / 8 + 2];
    int total = (int)(n * (n - 1) / 2), len = 0, filled = (4 - total % 4) % 4;
    unsigned nibble = 0;
    for (int j = 1; j < n; j++) {
        for (int b = j - 1; b >= 0; b--) {
            nibble = (nibble << 1) | (unsigned)((c.best[j] >> b) & 1);
            if (++filled == 4) {
                hex[len++] = "0123456789abcdef"[nibble];
                nibble = 0;
                filled = 0;
            }
        }
    }
    hex[len] = '\0';
    return PyLong_FromString(hex, NULL, 16);
}

static PyMethodDef methods[] = {
    {"maximal_cliques", py_maximal_cliques, METH_VARARGS,
     "maximal_cliques(masks, n): inclusion-maximal cliques, sorted."},
    {"clique_census", py_clique_census, METH_VARARGS,
     "clique_census(masks, n, limit=-1): (full clique counts, maximal cliques) from one pass,\n"
     "or None once more than limit cliques, the empty one included, are counted (limit >= 0)."},
    {"crowded_link", py_crowded_link, METH_VARARGS,
     "crowded_link(masks, n, d, within): first crowded d-clique inside within, or None."},
    {"canonical_key", py_canonical_key, METH_VARARGS,
     "canonical_key(masks, n): least adjacency bitstring over all relabelings."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernels_c",
    .m_doc = "Compiled bitset kernels for n <= 64; contracts as in _kernels_py.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__kernels_c(void)
{
    return PyModule_Create(&module);
}
