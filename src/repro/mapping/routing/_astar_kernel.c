/* Native A* routing kernel: every layer of a circuit in one call.
 *
 * Mirror of the pure-Python layer search in `_astar_impl.py`, compiled
 * on demand by `_astar_native.py` (plain `cc -O2 -shared`; no build
 * system, no third-party dependency).  The implementation must stay
 * semantically identical to its Python reference: same search state
 * identity, same candidate enumeration order (ascending edge id over
 * the sorted undirected edge list), same `(priority, counter)`
 * tie-breaking, and the same IEEE double arithmetic — every float
 * expression here matches the Python expression operation for
 * operation, so priorities are bit-identical and the search pops nodes
 * in exactly the same order.  The Python side verifies availability and
 * falls back transparently, so this file is an accelerator, never a
 * behaviour change.
 *
 * State representation: a search state packs the physical position of
 * each *active* program-qubit slot into a multi-word bitset.  `nbits`
 * bits per slot, `spw = 64 / nbits` slots per 64-bit word (slots never
 * straddle a word boundary), `nwords = ceil(m / spw)` words per key.
 * Devices are not limited to 64 qubits, 64 edges, or `m * nbits <= 64`
 * packed keys.
 *
 * One entry point, `solve_layers_batch`: the per-layer preprocessing
 * and the placement evolution between layers run natively, so a whole
 * circuit costs one ctypes crossing.  It takes a relative time budget
 * in seconds (`INFINITY` for none), turns it into a stop time on its
 * own monotonic clock at entry, and checks that stop time before each
 * layer and every 256th node expansion — the polling rate of the
 * Python loop.
 *
 * Return codes: >= 0 total swap-sequence length across layers, -1
 * search exhausted, -2 expansion budget exceeded, -3 capacity or
 * allocation failure (the caller falls back to the Python kernel), -4
 * time budget exhausted.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

typedef struct {
    double priority;
    uint64_t counter;
    int32_t node;   /* index into the node/key arenas */
    int32_t g;
    int64_t pending;
    double lookahead;
} Entry;

typedef struct {
    int32_t g;
    int32_t parent; /* node index of the parent record, -1 for root */
    int32_t swap_pa;
    int32_t swap_pb;
} Node;

/* ---- binary min-heap on (priority, counter) ---- */

static int entry_lt(const Entry *a, const Entry *b) {
    if (a->priority != b->priority)
        return a->priority < b->priority;
    return a->counter < b->counter;
}

typedef struct {
    Entry *data;
    int64_t size;
    int64_t cap;
} Heap;

static int heap_push(Heap *h, Entry e) {
    if (h->size == h->cap) {
        int64_t ncap = h->cap * 2;
        Entry *nd = (Entry *)realloc(h->data, (size_t)ncap * sizeof(Entry));
        if (!nd)
            return 0;
        h->data = nd;
        h->cap = ncap;
    }
    int64_t i = h->size++;
    h->data[i] = e;
    while (i > 0) {
        int64_t p = (i - 1) / 2;
        if (!entry_lt(&h->data[i], &h->data[p]))
            break;
        Entry tmp = h->data[i];
        h->data[i] = h->data[p];
        h->data[p] = tmp;
        i = p;
    }
    return 1;
}

static Entry heap_pop(Heap *h) {
    Entry top = h->data[0];
    h->data[0] = h->data[--h->size];
    int64_t i = 0;
    for (;;) {
        int64_t l = 2 * i + 1, r = l + 1, best = i;
        if (l < h->size && entry_lt(&h->data[l], &h->data[best]))
            best = l;
        if (r < h->size && entry_lt(&h->data[r], &h->data[best]))
            best = r;
        if (best == i)
            break;
        Entry tmp = h->data[i];
        h->data[i] = h->data[best];
        h->data[best] = tmp;
        i = best;
    }
    return top;
}

/* ---- open-addressing hash map: multi-word key -> node index ---- */

static uint64_t mix64(uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

typedef struct {
    Node *nodes;
    uint64_t *keys;  /* node i's key lives at keys[i * nwords] */
    int32_t n_nodes;
    int32_t cap_nodes;
    int32_t *table;  /* power-of-two sized, -1 = empty */
    uint64_t table_mask;
    int64_t table_cap;
    int32_t nwords;
} Map;

static uint64_t key_hash(const uint64_t *key, int32_t nwords) {
    uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (int32_t i = 0; i < nwords; i++)
        h = mix64(h ^ key[i]);
    return h;
}

static int key_eq(const uint64_t *a, const uint64_t *b, int32_t nwords) {
    for (int32_t i = 0; i < nwords; i++)
        if (a[i] != b[i])
            return 0;
    return 1;
}

static int map_grow_table(Map *m) {
    int64_t ncap = m->table_cap * 2;
    int32_t *nt = (int32_t *)malloc((size_t)ncap * sizeof(int32_t));
    if (!nt)
        return 0;
    memset(nt, 0xFF, (size_t)ncap * sizeof(int32_t));
    uint64_t nmask = (uint64_t)ncap - 1;
    for (int32_t i = 0; i < m->n_nodes; i++) {
        uint64_t j = key_hash(m->keys + (size_t)i * m->nwords, m->nwords) & nmask;
        while (nt[j] >= 0)
            j = (j + 1) & nmask;
        nt[j] = i;
    }
    free(m->table);
    m->table = nt;
    m->table_cap = ncap;
    m->table_mask = nmask;
    return 1;
}

/* Find the node for `key`, or create a fresh record (g = INT32_MAX).
 * Returns the node index, or -1 on allocation failure.  May realloc the
 * key arena: callers must not hold raw pointers into `m->keys` across a
 * call (copy the popped key into a local buffer first). */
static int32_t map_find_or_add(Map *m, const uint64_t *key) {
    uint64_t j = key_hash(key, m->nwords) & m->table_mask;
    while (m->table[j] >= 0) {
        int32_t idx = m->table[j];
        if (key_eq(m->keys + (size_t)idx * m->nwords, key, m->nwords))
            return idx;
        j = (j + 1) & m->table_mask;
    }
    if ((int64_t)m->n_nodes * 10 >= m->table_cap * 7) {
        if (!map_grow_table(m))
            return -1;
        j = key_hash(key, m->nwords) & m->table_mask;
        while (m->table[j] >= 0)
            j = (j + 1) & m->table_mask;
    }
    if (m->n_nodes == m->cap_nodes) {
        int32_t ncap = m->cap_nodes * 2;
        Node *nn = (Node *)realloc(m->nodes, (size_t)ncap * sizeof(Node));
        if (!nn)
            return -1;
        m->nodes = nn;
        uint64_t *nk = (uint64_t *)realloc(
            m->keys, (size_t)ncap * m->nwords * sizeof(uint64_t));
        if (!nk)
            return -1;
        m->keys = nk;
        m->cap_nodes = ncap;
    }
    int32_t idx = m->n_nodes++;
    memcpy(m->keys + (size_t)idx * m->nwords, key,
           (size_t)m->nwords * sizeof(uint64_t));
    m->nodes[idx].g = INT32_MAX;
    m->nodes[idx].parent = -1;
    m->nodes[idx].swap_pa = -1;
    m->nodes[idx].swap_pb = -1;
    m->table[j] = idx;
    return idx;
}

/* Seconds on the monotonic clock (only differences are meaningful). */
static double now_s(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

/* ---- one A* layer search over multi-word packed states ---- */

typedef struct {
    int32_t n;        /* physical qubits */
    int32_t nbits;    /* bits per slot */
    int32_t m;        /* active slots */
    int32_t nwords;   /* key words */
    uint64_t mask;    /* (1 << nbits) - 1 */
    int32_t n_edges;
    int32_t ewords;   /* edge-mask words */
    const int32_t *edge_pa;
    const int32_t *edge_pb;
    const int32_t *dflat;
    int32_t n_pairs;
    const int32_t *pair_sa;
    const int32_t *pair_sb;
    int32_t n_future;
    const int32_t *fut_sa;
    const int32_t *fut_sb;
    const double *fut_w;
    const uint8_t *future_active;  /* per slot */
    const int32_t *tf_idx;
    const int32_t *tf_start;       /* m + 1 entries */
    const uint64_t *qmask;         /* n rows x ewords incident-edge masks */
    const int32_t *slot_word;      /* word index per slot */
    const int32_t *slot_shift;     /* bit shift per slot */
} Search;

static int64_t slot_pos_of(const Search *s, const uint64_t *key, int32_t slot) {
    return (int64_t)((key[s->slot_word[slot]] >> s->slot_shift[slot]) & s->mask);
}

static int64_t run_search(
    const Search *s,
    const uint64_t *key0,
    int64_t max_expansions,
    double stop_s,
    int32_t *out_pa, int32_t *out_pb, int32_t max_out)
{
    const int32_t n = s->n;
    const int32_t nwords = s->nwords;

    /* Root heuristic terms (mirrors pending_of / lookahead_of). */
    int64_t pending0 = 0;
    for (int32_t i = 0; i < s->n_pairs; i++)
        pending0 += s->dflat[slot_pos_of(s, key0, s->pair_sa[i]) * n
                             + slot_pos_of(s, key0, s->pair_sb[i])] - 1;
    if (pending0 == 0)
        return 0;
    double lookahead0 = 0.0;
    for (int32_t i = 0; i < s->n_future; i++)
        lookahead0 += s->fut_w[i] * (double)(
            s->dflat[slot_pos_of(s, key0, s->fut_sa[i]) * n
                     + slot_pos_of(s, key0, s->fut_sb[i])] - 1);

    Heap heap;
    heap.cap = 1 << 14;
    heap.size = 0;
    heap.data = (Entry *)malloc((size_t)heap.cap * sizeof(Entry));
    Map map;
    map.nwords = nwords;
    map.cap_nodes = 1 << 14;
    map.n_nodes = 0;
    map.nodes = (Node *)malloc((size_t)map.cap_nodes * sizeof(Node));
    map.keys = (uint64_t *)malloc(
        (size_t)map.cap_nodes * nwords * sizeof(uint64_t));
    map.table_cap = 1 << 15;
    map.table_mask = (uint64_t)map.table_cap - 1;
    map.table = (int32_t *)malloc((size_t)map.table_cap * sizeof(int32_t));
    /* Scratch: occupancy (phys -> slot), candidate edge mask, popped key
     * and neighbour key buffers. */
    int32_t *occ = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    uint64_t *emask = (uint64_t *)malloc((size_t)s->ewords * sizeof(uint64_t));
    uint64_t *ckey = (uint64_t *)malloc((size_t)nwords * sizeof(uint64_t));
    uint64_t *nkey = (uint64_t *)malloc((size_t)nwords * sizeof(uint64_t));
    if (!heap.data || !map.nodes || !map.keys || !map.table
        || !occ || !emask || !ckey || !nkey) {
        free(heap.data); free(map.nodes); free(map.keys); free(map.table);
        free(occ); free(emask); free(ckey); free(nkey);
        return -3;
    }
    memset(map.table, 0xFF, (size_t)map.table_cap * sizeof(int32_t));

    int64_t rc = -1; /* default: search exhausted */
    uint64_t counter = 0;

    int32_t root = map_find_or_add(&map, key0);
    map.nodes[root].g = 0;
    Entry e0;
    e0.priority = (double)pending0 / 2.0 + lookahead0;
    e0.counter = counter++;
    e0.node = root;
    e0.g = 0;
    e0.pending = pending0;
    e0.lookahead = lookahead0;
    if (!heap_push(&heap, e0)) {
        rc = -3;
        goto done;
    }

    int64_t expansions = 0;

    while (heap.size > 0) {
        Entry e = heap_pop(&heap);
        int32_t ni = e.node;
        if (e.g > map.nodes[ni].g)
            continue;
        if (e.pending == 0) {
            /* Reconstruct root->goal; sequence length equals g. */
            if (e.g > max_out) {
                rc = -3;
                goto done;
            }
            int32_t idx = ni;
            for (int32_t i = e.g - 1; i >= 0; i--) {
                out_pa[i] = map.nodes[idx].swap_pa;
                out_pb[i] = map.nodes[idx].swap_pb;
                idx = map.nodes[idx].parent;
            }
            rc = e.g;
            goto done;
        }
        if (!(++expansions & 0xFF) && now_s() >= stop_s) {
            rc = -4;
            goto done;
        }
        if (expansions > max_expansions) {
            rc = -2;
            goto done;
        }
        /* The key arena may move on pushes below: work on a copy. */
        memcpy(ckey, map.keys + (size_t)ni * nwords,
               (size_t)nwords * sizeof(uint64_t));
        memset(occ, 0xFF, (size_t)n * sizeof(int32_t));
        for (int32_t i = 0; i < s->m; i++)
            occ[slot_pos_of(s, ckey, i)] = i;
        /* Candidate edges: operands of unsatisfied pairs, plus operands
         * of satisfied pairs whose program qubit has look-ahead work. */
        memset(emask, 0, (size_t)s->ewords * sizeof(uint64_t));
        for (int32_t i = 0; i < s->n_pairs; i++) {
            int64_t oa = slot_pos_of(s, ckey, s->pair_sa[i]);
            int64_t ob = slot_pos_of(s, ckey, s->pair_sb[i]);
            if (s->dflat[oa * n + ob] > 1) {
                const uint64_t *qa = s->qmask + oa * s->ewords;
                const uint64_t *qb = s->qmask + ob * s->ewords;
                for (int32_t w = 0; w < s->ewords; w++)
                    emask[w] |= qa[w] | qb[w];
            } else {
                if (s->future_active[s->pair_sa[i]]) {
                    const uint64_t *qa = s->qmask + oa * s->ewords;
                    for (int32_t w = 0; w < s->ewords; w++)
                        emask[w] |= qa[w];
                }
                if (s->future_active[s->pair_sb[i]]) {
                    const uint64_t *qb = s->qmask + ob * s->ewords;
                    for (int32_t w = 0; w < s->ewords; w++)
                        emask[w] |= qb[w];
                }
            }
        }
        int32_t ng = e.g + 1;
        for (int32_t w = 0; w < s->ewords; w++) {
            uint64_t bits = emask[w];
            while (bits) {
                int32_t eid = (int32_t)(w * 64 + __builtin_ctzll(bits));
                bits &= bits - 1;
                int32_t pa = s->edge_pa[eid];
                int32_t pb = s->edge_pb[eid];
                int32_t x = occ[pa];
                int32_t y = occ[pb];
                uint64_t exor = (uint64_t)(pa ^ pb);
                memcpy(nkey, ckey, (size_t)nwords * sizeof(uint64_t));
                if (x >= 0)
                    nkey[s->slot_word[x]] ^= exor << s->slot_shift[x];
                if (y >= 0)
                    nkey[s->slot_word[y]] ^= exor << s->slot_shift[y];
                int32_t si = map_find_or_add(&map, nkey);
                if (si < 0) {
                    rc = -3;
                    goto done;
                }
                if (ng < map.nodes[si].g) {
                    map.nodes[si].g = ng;
                    map.nodes[si].parent = ni;
                    map.nodes[si].swap_pa = pa;
                    map.nodes[si].swap_pb = pb;
                    int64_t nsum = 0;
                    for (int32_t i = 0; i < s->n_pairs; i++)
                        nsum += s->dflat[slot_pos_of(s, nkey, s->pair_sa[i]) * n
                                         + slot_pos_of(s, nkey, s->pair_sb[i])];
                    int64_t npending = nsum - s->n_pairs;
                    double d_look = 0.0;
                    if (x >= 0) {
                        for (int32_t t = s->tf_start[x]; t < s->tf_start[x + 1]; t++) {
                            int32_t i = s->tf_idx[t];
                            d_look += s->fut_w[i] * (double)(
                                s->dflat[slot_pos_of(s, nkey, s->fut_sa[i]) * n
                                         + slot_pos_of(s, nkey, s->fut_sb[i])]
                                - s->dflat[slot_pos_of(s, ckey, s->fut_sa[i]) * n
                                           + slot_pos_of(s, ckey, s->fut_sb[i])]);
                        }
                    }
                    if (y >= 0) {
                        for (int32_t t = s->tf_start[y]; t < s->tf_start[y + 1]; t++) {
                            int32_t i = s->tf_idx[t];
                            if (s->fut_sa[i] == x || s->fut_sb[i] == x)
                                continue; /* already counted via x */
                            d_look += s->fut_w[i] * (double)(
                                s->dflat[slot_pos_of(s, nkey, s->fut_sa[i]) * n
                                         + slot_pos_of(s, nkey, s->fut_sb[i])]
                                - s->dflat[slot_pos_of(s, ckey, s->fut_sa[i]) * n
                                           + slot_pos_of(s, ckey, s->fut_sb[i])]);
                        }
                    }
                    double nlookahead = e.lookahead + d_look;
                    Entry ne;
                    ne.priority = (double)ng + (double)npending / 2.0 + nlookahead;
                    ne.counter = counter++;
                    ne.node = si;
                    ne.g = ng;
                    ne.pending = npending;
                    ne.lookahead = nlookahead;
                    if (!heap_push(&heap, ne)) {
                        rc = -3;
                        goto done;
                    }
                }
            }
        }
    }

done:
    free(heap.data);
    free(map.nodes);
    free(map.keys);
    free(map.table);
    free(occ);
    free(emask);
    free(ckey);
    free(nkey);
    return rc;
}

/* Fill the per-qubit incident-edge bitmasks (n rows x ewords). */
static void build_qmask(
    uint64_t *qmask, int32_t n, int32_t ewords,
    const int32_t *edge_pa, const int32_t *edge_pb, int32_t n_edges)
{
    memset(qmask, 0, (size_t)n * ewords * sizeof(uint64_t));
    for (int32_t e = 0; e < n_edges; e++) {
        qmask[(size_t)edge_pa[e] * ewords + e / 64] |= (uint64_t)1 << (e % 64);
        qmask[(size_t)edge_pb[e] * ewords + e / 64] |= (uint64_t)1 << (e % 64);
    }
}

/* ---- entry point: every layer of one circuit in a single crossing ----
 *
 * Inputs are CSR-concatenated per-layer gate lists over *program*
 * qubits; the per-layer preprocessing (active-slot discovery, slot
 * tables, look-ahead touch lists) and the placement evolution between
 * layers run natively.  `p2h` is the full program->physical permutation
 * (dummies included, length n) and is updated in place as each layer's
 * SWAPs are applied — pass a copy.  `out_start` receives n_layers + 1
 * offsets into the output swap arrays.  `budget_s` is the time left, in
 * seconds (`INFINITY`: no limit); once it is used up the call returns -4.
 */

int64_t solve_layers_batch(
    int32_t n, int32_t nbits,
    const int32_t *edge_pa, const int32_t *edge_pb, int32_t n_edges,
    const int32_t *dflat,
    int32_t n_layers,
    const int32_t *pair_a, const int32_t *pair_b, const int32_t *pair_start,
    const int32_t *fut_a, const int32_t *fut_b, const double *fut_w_all,
    const int32_t *fut_start,
    int32_t *p2h,
    int64_t max_expansions,
    double budget_s,
    int32_t *out_pa, int32_t *out_pb, int32_t *out_start, int32_t max_out)
{
    const double stop_s = now_s() + budget_s;
    if (nbits <= 0 || nbits > 63 || n <= 0)
        return -3;
    int32_t spw = 64 / nbits;
    int32_t ewords = (n_edges + 63) / 64;
    if (ewords < 1)
        ewords = 1;

    /* Upper bounds for the per-layer scratch: an active slot count can
     * never exceed n, and touch lists hold at most two entries per
     * look-ahead gate. */
    int32_t max_fut = 0;
    for (int32_t l = 0; l < n_layers; l++) {
        int32_t nf = fut_start[l + 1] - fut_start[l];
        if (nf > max_fut)
            max_fut = nf;
    }
    int32_t max_pairs = 0;
    for (int32_t l = 0; l < n_layers; l++) {
        int32_t np = pair_start[l + 1] - pair_start[l];
        if (np > max_pairs)
            max_pairs = np;
    }

    uint64_t *qmask = (uint64_t *)malloc((size_t)n * ewords * sizeof(uint64_t));
    int32_t *slot_word = (int32_t *)malloc((size_t)n * 2 * sizeof(int32_t));
    int32_t *h2p = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    int32_t *slot_of = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    int32_t *active = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    uint8_t *markq = (uint8_t *)calloc((size_t)n, 1);
    int32_t *pair_sa = (int32_t *)malloc((size_t)(max_pairs > 0 ? max_pairs : 1)
                                         * 2 * sizeof(int32_t));
    int32_t *fut_sa = (int32_t *)malloc((size_t)(max_fut > 0 ? max_fut : 1)
                                        * 2 * sizeof(int32_t));
    uint8_t *future_active = (uint8_t *)malloc((size_t)n);
    int32_t *tf_idx = (int32_t *)malloc(
        (size_t)(max_fut > 0 ? 2 * max_fut : 1) * sizeof(int32_t));
    int32_t *tf_start = (int32_t *)malloc((size_t)(n + 1) * sizeof(int32_t));
    int32_t *tf_cur = (int32_t *)malloc((size_t)(n + 1) * sizeof(int32_t));
    int32_t *slot_pos = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    uint64_t *key0 = (uint64_t *)malloc(
        (size_t)((n + spw - 1) / spw) * sizeof(uint64_t));
    int64_t total = -3;
    if (!qmask || !slot_word || !h2p || !slot_of || !active || !markq
        || !pair_sa || !fut_sa || !future_active || !tf_idx || !tf_start
        || !tf_cur || !slot_pos || !key0)
        goto cleanup;
    {
        int32_t *slot_shift = slot_word + n;
        int32_t *pair_sb = pair_sa + (max_pairs > 0 ? max_pairs : 1);
        int32_t *fut_sb = fut_sa + (max_fut > 0 ? max_fut : 1);
        for (int32_t i = 0; i < n; i++) {
            slot_word[i] = i / spw;
            slot_shift[i] = (i % spw) * nbits;
            h2p[p2h[i]] = i;
        }
        build_qmask(qmask, n, ewords, edge_pa, edge_pb, n_edges);

        int32_t used = 0;
        out_start[0] = 0;
        for (int32_t l = 0; l < n_layers; l++) {
            if (now_s() >= stop_s) {
                total = -4;
                goto cleanup;
            }
            int32_t p0 = pair_start[l], p1 = pair_start[l + 1];
            int32_t f0 = fut_start[l], f1 = fut_start[l + 1];
            int32_t n_pairs = p1 - p0;
            int32_t n_future = f1 - f0;
            /* Active program qubits, ascending (mirrors Python's
             * sorted-set construction). */
            for (int32_t i = p0; i < p1; i++) {
                markq[pair_a[i]] = 1;
                markq[pair_b[i]] = 1;
            }
            for (int32_t i = f0; i < f1; i++) {
                markq[fut_a[i]] = 1;
                markq[fut_b[i]] = 1;
            }
            int32_t m = 0;
            for (int32_t q = 0; q < n; q++) {
                if (markq[q]) {
                    slot_of[q] = m;
                    active[m++] = q;
                    markq[q] = 0;
                }
            }
            if (m == 0) {
                out_start[l + 1] = used;
                continue;
            }
            for (int32_t i = 0; i < n_pairs; i++) {
                pair_sa[i] = slot_of[pair_a[p0 + i]];
                pair_sb[i] = slot_of[pair_b[p0 + i]];
            }
            memset(future_active, 0, (size_t)m);
            memset(tf_cur, 0, (size_t)(m + 1) * sizeof(int32_t));
            for (int32_t i = 0; i < n_future; i++) {
                int32_t sa = slot_of[fut_a[f0 + i]];
                int32_t sb = slot_of[fut_b[f0 + i]];
                fut_sa[i] = sa;
                fut_sb[i] = sb;
                future_active[sa] = 1;
                future_active[sb] = 1;
                tf_cur[sa]++;
                if (sb != sa)
                    tf_cur[sb]++;
            }
            tf_start[0] = 0;
            for (int32_t sl = 0; sl < m; sl++)
                tf_start[sl + 1] = tf_start[sl] + tf_cur[sl];
            memcpy(tf_cur, tf_start, (size_t)(m + 1) * sizeof(int32_t));
            for (int32_t i = 0; i < n_future; i++) {
                tf_idx[tf_cur[fut_sa[i]]++] = i;
                if (fut_sb[i] != fut_sa[i])
                    tf_idx[tf_cur[fut_sb[i]]++] = i;
            }
            for (int32_t i = 0; i < m; i++)
                slot_pos[i] = p2h[active[i]];

            int32_t nwords = (m + spw - 1) / spw;
            memset(key0, 0, (size_t)nwords * sizeof(uint64_t));
            for (int32_t i = 0; i < m; i++)
                key0[slot_word[i]] |= (uint64_t)slot_pos[i] << slot_shift[i];

            Search s;
            s.n = n; s.nbits = nbits; s.m = m; s.nwords = nwords;
            s.mask = (nbits == 63) ? 0x7FFFFFFFFFFFFFFFULL
                                   : (((uint64_t)1 << nbits) - 1);
            s.n_edges = n_edges; s.ewords = ewords;
            s.edge_pa = edge_pa; s.edge_pb = edge_pb;
            s.dflat = dflat;
            s.n_pairs = n_pairs; s.pair_sa = pair_sa; s.pair_sb = pair_sb;
            s.n_future = n_future; s.fut_sa = fut_sa; s.fut_sb = fut_sb;
            s.fut_w = fut_w_all + f0;
            s.future_active = future_active;
            s.tf_idx = tf_idx; s.tf_start = tf_start;
            s.qmask = qmask;
            s.slot_word = slot_word; s.slot_shift = slot_shift;

            int64_t rc = run_search(&s, key0, max_expansions, stop_s,
                                    out_pa + used, out_pb + used,
                                    max_out - used);
            if (rc < 0) {
                total = rc;
                goto cleanup;
            }
            /* Apply the layer's SWAPs to the evolving placement
             * (mirrors Placement.apply_swap). */
            for (int32_t i = 0; i < (int32_t)rc; i++) {
                int32_t pa = out_pa[used + i];
                int32_t pb = out_pb[used + i];
                int32_t x = h2p[pa], y = h2p[pb];
                h2p[pa] = y;
                h2p[pb] = x;
                p2h[x] = pb;
                p2h[y] = pa;
            }
            used += (int32_t)rc;
            out_start[l + 1] = used;
        }
        total = used;
    }

cleanup:
    free(qmask); free(slot_word); free(h2p); free(slot_of); free(active);
    free(markq); free(pair_sa); free(fut_sa); free(future_active);
    free(tf_idx); free(tf_start); free(tf_cur); free(slot_pos); free(key0);
    return total;
}
