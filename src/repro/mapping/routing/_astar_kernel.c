/* Native mapping kernels: A* layer search, the SABRE-family loop and
 * the assignment placer's exchange climb.
 *
 * Mirrors of the pure-Python routers and placer, compiled on demand by
 * `_astar_native.py` (`cc -O2 -ffp-contract=off -shared`; no build
 * system, no third-party dependency).  Each entry point must stay
 * semantically identical to its Python reference: the same state, the
 * same candidate enumeration order (ascending edge id over the sorted
 * undirected edge list), the same tie-breaking, and the same IEEE double
 * arithmetic -- every float expression here matches the Python
 * expression operation for operation, so scores and priorities are
 * bit-identical.  `-ffp-contract=off` keeps the compiler from fusing
 * `a * b + c` into one FMA (GCC does by default on aarch64), which would
 * round differently from Python.  The Python side checks availability
 * and falls back transparently, so this file is an accelerator, never a
 * behaviour change.
 *
 * Both routing entry points take a relative time budget in seconds
 * (`INFINITY` for none), turn it into a stop time on their own monotonic
 * clock at entry, and return -4 once it has passed.
 *
 * `solve_layers_batch` mirrors `_astar_impl.py`: every layer of one A*
 * call in a single crossing, with the per-layer preprocessing and the
 * placement evolution between layers run natively.  A search state
 * packs the physical position of each *active* program-qubit slot into
 * a multi-word bitset: `nbits` bits per slot, `spw = 64 / nbits` slots
 * per 64-bit word (slots never straddle a word boundary), `nwords =
 * ceil(m / spw)` words per key, so devices are not limited to 64 qubits
 * or edges.  It checks the stop time before each layer and every 256th
 * node expansion -- the polling rate of the Python loop.  Return codes:
 * >= 0 total swap-sequence length across layers, -1 search exhausted,
 * -2 expansion budget exceeded, -3 capacity or allocation failure (the
 * caller falls back to the Python kernel), -4 time budget exhausted.
 *
 * `route_family_batch` mirrors `family.route_family` with the sabre,
 * latency and reliability policies: the whole front-layer loop of one
 * circuit in a single crossing, returning the emission order (gate
 * indices and ordered SWAPs).  It checks the stop time once per
 * decision, as the Python loop does.  Return codes: >= 0 the number of
 * events, -3 allocation failure or a latency value outside the exactly
 * representable range (the caller runs the Python loop), -4 time budget
 * exhausted, -5 the stall valve fired or no candidate SWAP exists (the
 * caller reruns the Python loop, which force-routes or raises), -6 the
 * event buffer is full (the caller grows it and calls again).
 *
 * `assignment_climb` mirrors the pairwise-exchange climb of
 * `placement.assignment_placement`: the rounds over all physical pairs
 * of one placement in a single crossing, on the int32 hop table the A*
 * kernel reads.  Its sums are integers (weights and hop counts), so they
 * are exact and their order does not matter; the wrapper declines
 * inputs whose sums could leave +-2^53, where Python's float objective
 * would round.  Return codes: 0 done, -5 the objective left +-2^53 (the
 * caller runs the Python climb).
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

/* ---- the SABRE-family loop: one circuit in a single crossing ---- */

enum { POLICY_SABRE = 0, POLICY_LATENCY = 1, POLICY_RELIABILITY = 2 };

static int cmp_i32(const void *a, const void *b) {
    int32_t x = *(const int32_t *)a, y = *(const int32_t *)b;
    return (x > y) - (x < y);
}

static void sort_i32(int32_t *a, int32_t len) {
    if (len > 1)
        qsort(a, (size_t)len, sizeof(int32_t), cmp_i32);
}

/* The terms of one decision (`_Terms`): entry i is the pair of blocked
 * gate i (i < front_n) or of look-ahead gate i - front_n, on physical
 * qubits (qa[i], qb[i]), at distance terms[i]. */
typedef struct {
    int32_t n;
    const double *dist;
    int32_t count;
    int32_t front_n;
    const int32_t *qa;
    const int32_t *qb;
    const double *terms;
} Terms;

/* `_Terms.deltas`: the change of the (front, look-ahead) sums under the
 * SWAP of (pa, pb), over pa's entries in entry order, then pb's not
 * already counted.  `swapped`, when given, receives the changed terms. */
static void terms_deltas(const Terms *t, int32_t pa, int32_t pb,
                         double *d_front, double *d_ext, double *swapped) {
    double df = 0.0, de = 0.0;
    for (int side = 0; side < 2; side++) {
        int32_t here = side ? pb : pa;
        int32_t there = side ? pa : pb;
        for (int32_t i = 0; i < t->count; i++) {
            int32_t other;
            int first;
            if (t->qa[i] == here) {
                other = t->qb[i];
                first = 1;
            } else if (t->qb[i] == here) {
                other = t->qa[i];
                first = 0;
            } else {
                continue;
            }
            if (other == there) {
                if (side)
                    continue;
                other = pa;
            }
            double nw = first ? t->dist[(int64_t)there * t->n + other]
                              : t->dist[(int64_t)other * t->n + there];
            if (swapped)
                swapped[i] = nw;
            if (i < t->front_n)
                df += nw - t->terms[i];
            else
                de += nw - t->terms[i];
        }
    }
    *d_front = df;
    *d_ext = de;
}

/* ---- entry point: the family loop of one circuit in a single crossing ----
 *
 * Gate g needs the coupled program pair (pair_a[g], pair_b[g]), or none
 * when pair_a[g] is -1; its successors are succ_idx[succ_start[g] ..
 * succ_start[g + 1]) and pred_count[g] is its number of predecessors
 * (the `DependencyGraph` the Python loop builds).  `p2h` is the full
 * program->physical permutation (n entries) and is updated in place.
 * `policy` selects the score: sabre (`use_decay`), latency (`avail`, the
 * per-qubit ASAP schedule, read and written; each gate's program
 * operands `op_a` / `op_b`, -1 for none, and duration `dur`; the SWAP
 * duration `swap_dur`) or reliability (`swap_err` per edge).  `events`
 * receives the emission order: a gate index, or `-1 - (pa * n + pb)`
 * for the SWAP of physical (pa, pb).  `counts` receives the candidates
 * scored and the decisions made.
 */

int64_t route_family_batch(
    int32_t n,
    const int32_t *edge_pa, const int32_t *edge_pb, int32_t n_edges,
    const double *dist,
    int32_t n_gates,
    const int32_t *pair_a, const int32_t *pair_b,
    const int32_t *succ_start, const int32_t *succ_idx,
    const int32_t *pred_count,
    const int32_t *op_a, const int32_t *op_b, const int64_t *dur,
    int32_t *p2h,
    int32_t policy, int32_t lookahead, double weight, int64_t max_stall,
    int32_t use_decay, double latency_weight, int64_t swap_dur,
    const double *swap_err, int64_t *avail,
    double budget_s,
    int32_t *events, int64_t max_events, int64_t *counts)
{
    const double stop_s = now_s() + budget_s;
    /* Beyond 2^52 a latency key would no longer be exact in a double. */
    const int64_t avail_limit = (int64_t)1 << 52;
    int32_t ewords = (n_edges + 63) / 64;
    if (ewords < 1)
        ewords = 1;
    int32_t gcap = n_gates > 0 ? n_gates : 1;

    int32_t *h2p = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    uint8_t *adj = (uint8_t *)calloc((size_t)n * n, 1);
    uint64_t *qmask = (uint64_t *)malloc((size_t)n * ewords * sizeof(uint64_t));
    uint64_t *emask = (uint64_t *)malloc((size_t)ewords * sizeof(uint64_t));
    int32_t *cand = (int32_t *)malloc((size_t)(n_edges > 0 ? n_edges : 1)
                                      * sizeof(int32_t));
    double *decay = (double *)malloc((size_t)n * sizeof(double));
    /* Per-gate scratch: eleven int32 arrays (a look-ahead set holds at
     * most n_gates entries), and the terms and swapped terms. */
    int32_t *gbuf = (int32_t *)malloc((size_t)gcap * 11 * sizeof(int32_t));
    double *tbuf = (double *)malloc((size_t)gcap * 2 * sizeof(double));
    int64_t rc = -3;
    if (!h2p || !adj || !qmask || !emask || !cand || !decay || !gbuf || !tbuf)
        goto cleanup;
    {
        int32_t *waiting = gbuf;
        int32_t *front_pos = gbuf + (size_t)gcap;
        int32_t *front = gbuf + (size_t)gcap * 2;
        int32_t *pending = gbuf + (size_t)gcap * 3;
        int32_t *ready = gbuf + (size_t)gcap * 4;
        int32_t *blocked = gbuf + (size_t)gcap * 5;
        int32_t *seen = gbuf + (size_t)gcap * 6;
        int32_t *queue = gbuf + (size_t)gcap * 7;
        int32_t *look = gbuf + (size_t)gcap * 8;   /* gate of each entry */
        int32_t *qa = gbuf + (size_t)gcap * 9;     /* its physical pair */
        int32_t *qb = gbuf + (size_t)gcap * 10;
        double *terms = tbuf;
        double *swapped = tbuf + (size_t)gcap;

        for (int32_t q = 0; q < n; q++) {
            h2p[p2h[q]] = q;
            decay[q] = 1.0;
        }
        build_qmask(qmask, n, ewords, edge_pa, edge_pb, n_edges);
        for (int32_t e = 0; e < n_edges; e++) {
            adj[(int64_t)edge_pa[e] * n + edge_pb[e]] = 1;
            adj[(int64_t)edge_pb[e] * n + edge_pa[e]] = 1;
        }

        /* The front layer: gates whose predecessor count is 0. */
        int32_t n_front = 0, n_pending = 0;
        for (int32_t g = 0; g < n_gates; g++) {
            waiting[g] = pred_count[g];
            seen[g] = 0;
            front_pos[g] = -1;
            if (!waiting[g]) {
                front_pos[g] = n_front;
                front[n_front++] = g;
                pending[n_pending++] = g;
            }
        }

        Terms t;
        t.n = n;
        t.dist = dist;
        t.count = 0;
        t.front_n = 0;
        t.qa = qa;
        t.qb = qb;
        t.terms = terms;
        int look_valid = 0;
        int32_t stamp = 0;
        int64_t n_events = 0, stall = 0, decisions = 0, scored = 0;

        while (n_front > 0) {
            /* Deadline poll: one clock read per decision. */
            if (now_s() >= stop_s) {
                rc = -4;
                goto cleanup;
            }
            /* Emission passes: each checks, in ascending order, only the
             * gates the previous pass made ready (after a SWAP, the whole
             * blocked front). */
            while (n_pending > 0) {
                int32_t n_ready = 0;
                for (int32_t k = 0; k < n_pending; k++) {
                    int32_t g = pending[k];
                    if (pair_a[g] >= 0
                        && !adj[(int64_t)p2h[pair_a[g]] * n + p2h[pair_b[g]]])
                        continue;
                    if (n_events >= max_events) {
                        rc = -6;
                        goto cleanup;
                    }
                    events[n_events++] = g;
                    if (policy == POLICY_LATENCY && op_a[g] >= 0) {
                        /* `_LatencyPolicy.emitted`: an ASAP step. */
                        int32_t x = p2h[op_a[g]];
                        int64_t start = avail[x];
                        int32_t y = op_b[g] >= 0 ? p2h[op_b[g]] : -1;
                        if (y >= 0 && avail[y] > start)
                            start = avail[y];
                        int64_t finish = start + dur[g];
                        if (finish > avail_limit || finish < -avail_limit) {
                            rc = -3;
                            goto cleanup;
                        }
                        avail[x] = finish;
                        if (y >= 0)
                            avail[y] = finish;
                    }
                    /* Leave the front (swap-remove). */
                    int32_t pos = front_pos[g];
                    int32_t last = front[--n_front];
                    front[pos] = last;
                    front_pos[last] = pos;
                    front_pos[g] = -1;
                    for (int32_t s = succ_start[g]; s < succ_start[g + 1]; s++) {
                        int32_t succ = succ_idx[s];
                        if (!--waiting[succ]) {
                            front_pos[succ] = n_front;
                            front[n_front++] = succ;
                            ready[n_ready++] = succ;
                        }
                    }
                    stall = 0;
                    look_valid = 0;
                }
                sort_i32(ready, n_ready);
                int32_t *tmp = pending;
                pending = ready;
                ready = tmp;
                n_pending = n_ready;
            }
            if (n_front == 0)
                break;

            if (!look_valid) {
                /* The blocked front, sorted, then up to `lookahead`
                 * two-qubit gates breadth first from it over successors;
                 * rebuilt only after an emission. */
                memcpy(blocked, front, (size_t)n_front * sizeof(int32_t));
                sort_i32(blocked, n_front);
                t.front_n = n_front;
                memcpy(look, blocked, (size_t)n_front * sizeof(int32_t));
                int32_t count = n_front;
                if (lookahead > 0) {
                    stamp++;
                    for (int32_t i = 0; i < n_front; i++) {
                        seen[blocked[i]] = stamp;
                        queue[i] = blocked[i];
                    }
                    int32_t head = 0, tail = n_front, extended = 0;
                    while (head < tail && extended < lookahead) {
                        int32_t g = queue[head++];
                        for (int32_t s = succ_start[g]; s < succ_start[g + 1]; s++) {
                            int32_t succ = succ_idx[s];
                            if (seen[succ] == stamp)
                                continue;
                            seen[succ] = stamp;
                            queue[tail++] = succ;
                            if (pair_a[succ] >= 0) {
                                look[count++] = succ;
                                if (++extended >= lookahead)
                                    break;
                            }
                        }
                    }
                }
                t.count = count;
                look_valid = 1;
            }
            const int32_t front_n = t.front_n;
            const int32_t ext_n = t.count - front_n;

            /* The terms under the current placement, and their sums left
             * to right from 0. */
            double front_base = 0.0, ext_base = 0.0;
            for (int32_t i = 0; i < t.count; i++) {
                int32_t g = look[i];
                qa[i] = p2h[pair_a[g]];
                qb[i] = p2h[pair_b[g]];
                terms[i] = dist[(int64_t)qa[i] * n + qb[i]];
                if (i < front_n)
                    front_base += terms[i];
                else
                    ext_base += terms[i];
            }

            /* Candidates: the edges incident to the blocked operands, in
             * ascending edge id. */
            memset(emask, 0, (size_t)ewords * sizeof(uint64_t));
            for (int32_t i = 0; i < front_n; i++) {
                const uint64_t *ma = qmask + (int64_t)qa[i] * ewords;
                const uint64_t *mb = qmask + (int64_t)qb[i] * ewords;
                for (int32_t w = 0; w < ewords; w++)
                    emask[w] |= ma[w] | mb[w];
            }
            int32_t n_cand = 0;
            for (int32_t w = 0; w < ewords; w++) {
                uint64_t bits = emask[w];
                while (bits) {
                    cand[n_cand++] = (int32_t)(w * 64 + __builtin_ctzll(bits));
                    bits &= bits - 1;
                }
            }
            if (n_cand == 0) {
                rc = -5;
                goto cleanup;
            }
            scored += n_cand;

            /* The policy's choice: the first strict minimum. */
            int32_t best = -1, progress = -1;
            double best_score = 0.0, progress_score = 0.0;
            for (int32_t c = 0; c < n_cand; c++) {
                int32_t pa = edge_pa[cand[c]], pb = edge_pb[cand[c]];
                double d_front, d_ext, score;
                if (policy == POLICY_RELIABILITY) {
                    /* `_Terms.resum`, then the SWAP's own error. */
                    memcpy(swapped, terms, (size_t)t.count * sizeof(double));
                    terms_deltas(&t, pa, pb, &d_front, &d_ext, swapped);
                    double sum = 0.0;
                    for (int32_t i = 0; i < front_n; i++)
                        sum += swapped[i];
                    score = sum / (double)front_n;
                    if (ext_n) {
                        sum = 0.0;
                        for (int32_t i = front_n; i < t.count; i++)
                            sum += swapped[i];
                        score += weight * sum / (double)ext_n;
                    }
                    score += swap_err[cand[c]];
                    if (d_front < -1e-12 && (progress < 0 || score < progress_score)) {
                        progress = c;
                        progress_score = score;
                    }
                } else {
                    /* `_Terms.score`. */
                    terms_deltas(&t, pa, pb, &d_front, &d_ext, NULL);
                    score = (front_base + d_front) / (double)front_n;
                    if (ext_n)
                        score += weight * (ext_base + d_ext) / (double)ext_n;
                    if (policy == POLICY_SABRE) {
                        if (use_decay)
                            score *= decay[pa] > decay[pb] ? decay[pa] : decay[pb];
                    } else {
                        int64_t ready_at = avail[pa] > avail[pb] ? avail[pa] : avail[pb];
                        score = score + latency_weight * (double)ready_at;
                    }
                }
                if (best < 0 || score < best_score) {
                    best = c;
                    best_score = score;
                }
            }
            if (progress >= 0)
                best = progress;
            int32_t pa = edge_pa[cand[best]], pb = edge_pb[cand[best]];
            if (policy == POLICY_LATENCY) {
                int64_t ready_at = avail[pa] > avail[pb] ? avail[pa] : avail[pb];
                int64_t finish = ready_at + swap_dur;
                if (finish > avail_limit || finish < -avail_limit) {
                    rc = -3;
                    goto cleanup;
                }
                avail[pa] = avail[pb] = finish;
            }

            /* Apply the SWAP. */
            if (n_events >= max_events) {
                rc = -6;
                goto cleanup;
            }
            events[n_events++] = -1 - (pa * n + pb);
            int32_t x = h2p[pa], y = h2p[pb];
            h2p[pa] = y;
            h2p[pb] = x;
            p2h[x] = pb;
            p2h[y] = pa;
            if (++stall > max_stall) {
                rc = -5;
                goto cleanup;
            }
            decisions++;
            if (policy == POLICY_SABRE && use_decay) {
                if (decisions % 5 == 0)
                    for (int32_t q = 0; q < n; q++)
                        decay[q] = 1.0;
                decay[pa] += 0.001;
                decay[pb] += 0.001;
            }
            memcpy(pending, blocked, (size_t)front_n * sizeof(int32_t));
            n_pending = front_n;
        }
        counts[0] = scored;
        counts[1] = decisions;
        rc = n_events;
    }

cleanup:
    free(h2p); free(adj); free(qmask); free(emask); free(cand); free(decay);
    free(gbuf); free(tbuf);
    return rc;
}

/* ---- entry point: the assignment placer's exchange climb ----
 *
 * Mirrors the pairwise-exchange climb of `placement.assignment_placement`
 * (`_exchange_climb`): rounds of every physical pair a < b, ascending a
 * then ascending b, skipping a pair when neither position holds a
 * program index with interaction partners, accepting an exchange when
 * its exact change of the hop-count objective is negative, and stopping
 * after a round without an acceptance or with the objective at 0.
 * `dist` is the m x m hop table; the partners of program index x are
 * part_idx[part_start[x] .. part_start[x + 1]) with weights part_w.
 * `p2h` / `h2p` are the placement's program->physical and
 * physical->program permutations (m entries each) and are updated in
 * place.  `best` is the objective of the starting placement.  The
 * caller bounds every delta by 2^53 (hop span times the summed weights),
 * so the int64 sums are exact and equal Python's; `best` is kept within
 * 2^53 too, where the Python climb's float is exact.  `out` receives the
 * final objective, the exchanges scored, the exchanges applied and the
 * rounds run.  Return codes: 0 done, -5 `best` left +-2^53 (the caller
 * discards the arrays and runs the Python climb).
 */

int64_t assignment_climb(
    int32_t m, const int32_t *dist,
    const int32_t *part_start, const int32_t *part_idx, const int64_t *part_w,
    int32_t *p2h, int32_t *h2p,
    int64_t best, int64_t max_rounds, int64_t *out)
{
    const int64_t limit = (int64_t)1 << 53;
    int64_t scored = 0, applied = 0, rounds = 0;
    for (int64_t r = 0; r < max_rounds; r++) {
        int improved = 0;
        rounds++;
        for (int32_t a = 0; a < m; a++) {
            const int32_t *row_a = dist + (int64_t)a * m;
            for (int32_t b = a + 1; b < m; b++) {
                int32_t pa = h2p[a], pb = h2p[b];
                int32_t a0 = part_start[pa], a1 = part_start[pa + 1];
                int32_t b0 = part_start[pb], b1 = part_start[pb + 1];
                if (a0 == a1 && b0 == b1)
                    continue;
                /* `_exchange_delta`: only pairs touching pa or pb move,
                 * and the pair joining them keeps its distance. */
                const int32_t *row_b = dist + (int64_t)b * m;
                int64_t delta = 0;
                for (int32_t k = a0; k < a1; k++) {
                    int32_t other = part_idx[k];
                    if (other != pb) {
                        int32_t q = p2h[other];
                        delta += part_w[k] * ((int64_t)row_b[q] - row_a[q]);
                    }
                }
                for (int32_t k = b0; k < b1; k++) {
                    int32_t other = part_idx[k];
                    if (other != pa) {
                        int32_t q = p2h[other];
                        delta += part_w[k] * ((int64_t)row_a[q] - row_b[q]);
                    }
                }
                scored++;
                if (delta < 0) {
                    /* `Placement.apply_swap(a, b)`. */
                    h2p[a] = pb;
                    h2p[b] = pa;
                    p2h[pa] = b;
                    p2h[pb] = a;
                    best += delta;
                    applied++;
                    improved = 1;
                    if (best > limit || best < -limit)
                        return -5;
                }
            }
        }
        if (!improved || best == 0)
            break;
    }
    out[0] = best;
    out[1] = scored;
    out[2] = applied;
    out[3] = rounds;
    return 0;
}
