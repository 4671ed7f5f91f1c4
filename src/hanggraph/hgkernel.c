/* Compiled kernels: the semantics twin of _pykernel.py, for graphs of up to
 * 32767 vertices (_contract.MAX_DISTANCE_N).
 *
 * Plain C with no Python headers; _ckernel.py compiles this file with the
 * system C compiler and calls it through ctypes.  Adjacency lives in masks
 * of W = ceil(n / 64) 64-bit words per vertex, vertex after vertex: bit j of
 * vertex i's mask is bit j % 64 of adj[i * W + j / 64], set iff ij is an
 * edge.  Every entry point works W out from n.  Distances are int16_t, flat
 * row-major, -1 for unreachable pairs; on 32767 vertices every distance
 * fits.  Callers check every size limit before calling in.
 *
 * Nothing here allocates or fails, and no array is sized by n: every buffer
 * that grows with n comes from the caller, one scratch buffer per call where
 * a call needs several (struct work).  Only W-word masks live on the stack,
 * at MAX_WORDS words of which the code touches the W in use; and
 * hg_classify keeps fixed arrays of MAX_CLASSIFY_N vertices.  Tuples come
 * back packed into one 64-bit word, laid out in the comment on each entry;
 * arrays go out through buffers the caller passes in.  kmin reads G's own
 * matrix: one subset decider judges every power G^k through a threshold on
 * G's distances, and no power matrix is built.  hg_subgraph_counts walks
 * every k-subset of a host in lexicographic order and runs the same
 * connectivity, APSP and subset cores on each induced subgraph; the current
 * subset lives in the caller's index array, so a walk stopped by a full hits
 * buffer resumes where it stopped.
 */

#include <stddef.h>
#include <stdint.h>

#define MAX_WORDS 512 /* words per mask at 32767 vertices */
#define MAX_CLASSIFY_N 11
#define BLOCK_INTS 6 /* block_core's scratch ints per vertex */
#define SELF_COMPLEMENTARY_MAX_N 8

enum {
    F_CONNECTED = 1, F_HANGABLE = 2, F_HANGABLE_TRIPLES = 4, F_SELF_CENTERED = 8,
    F_BLOCK_GRAPH = 16, F_TREE = 32, F_COMPLEMENT_CONNECTED = 64, F_SELF_COMPLEMENTARY = 128
};

enum { /* 0, 1, ... 6 */
    VERIFY_OK, VERIFY_DISTANCE, VERIFY_ECCENTRICITY, VERIFY_DIAMETER,
    VERIFY_VERTEX_PERIPHERY, VERIFY_GRAPH_PERIPHERY, VERIFY_HANGABLE
};

static inline int ctz64(uint64_t x) { return __builtin_ctzll(x); }

static inline int words(int n) { return (n + 63) >> 6; }

static inline void set_bit(uint64_t *mask, int i) { mask[i >> 6] |= (uint64_t)1 << (i & 63); }

/* the lowest set bit at or above i of a W-word mask, or -1 */
static inline int next_bit(const uint64_t *mask, int W, int i)
{
    int k = i >> 6;
    if (k >= W)
        return -1;
    uint64_t word = mask[k] & (~(uint64_t)0 << (i & 63));
    while (!word) {
        if (++k == W)
            return -1;
        word = mask[k];
    }
    return k * 64 + ctz64(word);
}

/* word k of the mask with bits 0 .. n-1 set */
static inline uint64_t full_word(int n, int k)
{
    int r = n - 64 * k;
    return r >= 64 ? ~(uint64_t)0 : r <= 0 ? 0 : ((uint64_t)1 << r) - 1;
}

/* out = the union of the masks of the vertices in frontier */
static inline void expand(const uint64_t *adj, int W, const uint64_t *frontier, uint64_t *out)
{
    for (int j = 0; j < W; j++)
        out[j] = 0;
    for (int k = 0; k < W; k++)
        for (uint64_t f = frontier[k]; f; f &= f - 1) {
            const uint64_t *a = adj + (size_t)(k * 64 + ctz64(f)) * W;
            for (int j = 0; j < W; j++)
                out[j] |= a[j];
        }
}

/* the caller's scratch for a graph on n vertices that an entry builds and
 * measures, as _ckernel._work_words sizes it: two words of counts out, n * W
 * mask words, BLOCK_INTS * n ints, the n * n matrix and n eccentricities,
 * then the entry's own int16s */
struct work { uint64_t *out, *adj; int *ints; int16_t *dist, *ecc; };

static struct work carve(uint64_t *buf, int n)
{
    struct work w;
    w.out = buf;
    w.adj = buf + 2;
    w.ints = (int *)(w.adj + (size_t)n * words(n));
    w.dist = (int16_t *)(w.ints + (size_t)BLOCK_INTS * n);
    w.ecc = w.dist + (size_t)n * n;
    return w;
}

static inline __attribute__((always_inline)) void
apsp_core(const uint64_t *adj, int n, int W, int16_t *dist)
{
    uint64_t seen[MAX_WORDS], frontier[MAX_WORDS], nxt[MAX_WORDS];
    for (int s = 0; s < n; s++) {
        int16_t *row = dist + (size_t)s * n;
        for (int v = 0; v < n; v++)
            row[v] = -1;
        row[s] = 0;
        /* no set_bit here: its variable index would keep the words in memory */
        for (int k = 0; k < W; k++)
            seen[k] = frontier[k] = k == s >> 6 ? (uint64_t)1 << (s & 63) : 0;
        for (int d = 1;; d++) {
            uint64_t any = 0;
            expand(adj, W, frontier, nxt);
            for (int k = 0; k < W; k++) {
                frontier[k] = nxt[k] & ~seen[k];
                seen[k] |= frontier[k];
                any |= frontier[k];
                for (uint64_t f = frontier[k]; f; f &= f - 1)
                    row[k * 64 + ctz64(f)] = (int16_t)d;
            }
            if (!any)
                break;
        }
    }
}

/* apsp_core with the word count a constant 1 up to 64 vertices, so that
 * the inlined copy that serves them unrolls its loops over words */
static void apsp_words(const uint64_t *adj, int n, int16_t *dist)
{
    if (n <= 64)
        apsp_core(adj, n, 1, dist);
    else
        apsp_core(adj, n, words(n), dist);
}

static inline __attribute__((always_inline)) int
connected_core(const uint64_t *adj, int n, int W)
{
    uint64_t seen[MAX_WORDS], frontier[MAX_WORDS], nxt[MAX_WORDS], any = 1;
    if (n <= 1)
        return 1;
    for (int k = 0; k < W; k++)
        seen[k] = frontier[k] = k == 0;
    while (any) {
        any = 0;
        expand(adj, W, frontier, nxt);
        for (int k = 0; k < W; k++) {
            frontier[k] = nxt[k] & ~seen[k];
            seen[k] |= frontier[k];
            any |= frontier[k];
        }
    }
    for (int k = 0; k < W; k++)
        if (seen[k] != full_word(n, k))
            return 0;
    return 1;
}

/* ecc[v], the largest entry of row v, for every vertex; returns the diameter */
static int16_t ecc_core(const int16_t *dist, int n, int16_t *ecc)
{
    int16_t diam = 0;
    for (int v = 0; v < n; v++) {
        const int16_t *row = dist + (size_t)v * n;
        int16_t e = 0;
        for (int u = 0; u < n; u++)
            if (row[u] > e)
                e = row[u];
        ecc[v] = e;
        if (e > diam)
            diam = e;
    }
    return diam;
}

/* t(e), the least d with ceil(d / k) = ceil(e / k); t(0) = 0 */
static inline int threshold(int e, int k) { return e ? e - (e - 1) % k : 0; }

/* 1 when G^k is hangable, else 0 with the first witness in (*wv, *wu).  G^k
 * has the distances ceil(d / k) of G's matrix dist, and ceil never
 * decreases, so u is farthest from v in G^k iff d(v, u) >= t(ecc[v]), and u
 * lies in P(G^k) iff ecc[u] >= t(diam).  At k = 1, t(e) = e. */
static int subset_core(const int16_t *dist, int n, const int16_t *ecc, int diam, int k,
                       int *wv, int *wu)
{
    int td = threshold(diam, k);
    for (int v = 0; v < n; v++) {
        const int16_t *row = dist + (size_t)v * n;
        int tv = threshold(ecc[v], k);
        for (int u = 0; u < n; u++)
            if (row[u] >= tv && ecc[u] < td) {
                *wv = v;
                *wu = u;
                return 0;
            }
    }
    return 1;
}

/* the smallest j >= k with G^j hangable, subset_core walked over the powers;
 * G^diam is complete, so the walk ends there at the latest */
static int kmin_core(const int16_t *dist, int n, const int16_t *ecc, int diam, int k)
{
    int wv, wu;
    while (k < diam && !subset_core(dist, n, ecc, diam, k, &wv, &wu))
        k++;
    return k;
}

/* 1 when hangable, else 0 with the first violating triple in w[0..2] */
static int triples_core(const int16_t *dist, int n, const int16_t *ecc, int diam, int *w)
{
    for (int v = 0; v < n; v++)
        for (int u = 0; u < n; u++) {
            if (dist[(size_t)v * n + u] != ecc[v] || ecc[u] == diam)
                continue;
            for (int x = 0; x < n; x++)
                if (dist[(size_t)u * n + x] == ecc[u]) {
                    w[0] = v;
                    w[1] = u;
                    w[2] = x;
                    return 0;
                }
        }
    return 1;
}

/* 1 when every block is a clique.  Iterative lowpoint DFS of a connected
 * graph with a stack of vertices (Hopcroft & Tarjan, CACM 16(6), 1973):
 * when the DFS backs up from v to u with low[v] >= disc[u], the vertices
 * popped down to v, plus u, are a block.  Each vertex counts its edges up
 * the DFS tree (to its parent and its ancestors), which all lie in the block
 * it is popped with, so a block of k vertices is a clique iff the counts of
 * its popped vertices sum to k(k-1)/2.  work: BLOCK_INTS * n ints. */
static inline int block_core(const uint64_t *adj, int n, int W, int *work)
{
    int *disc = work, *low = work + n, *cursor = work + 2 * n; /* cursor: next neighbor */
    int *up = work + 3 * n, *path = work + 4 * n, *popped = work + 5 * n;
    if (n <= 2)
        return 1;
    for (int v = 0; v < n; v++)
        disc[v] = -1;
    int top = 0, ptop = 0, timer = 1;
    path[0] = 0;
    disc[0] = low[0] = cursor[0] = 0;
    for (;;) {
        int v = path[top];
        int w = next_bit(adj + (size_t)v * W, W, cursor[v]);
        if (w >= 0) {
            cursor[v] = w + 1;
            if (disc[w] == -1) {
                disc[w] = low[w] = timer++;
                cursor[w] = 0;
                up[w] = 1;
                path[++top] = w;
                popped[ptop++] = w;
            } else if (disc[w] < disc[v] && w != path[top - 1]) { /* an edge to an ancestor */
                up[v]++;
                if (disc[w] < low[v])
                    low[v] = disc[w];
            }
            continue;
        }
        if (--top < 0)
            return 1;
        int u = path[top];
        if (low[v] < low[u])
            low[u] = low[v];
        if (low[v] < disc[u])
            continue;
        int64_t k = 1, edges = 0;
        int x;
        do {
            x = popped[--ptop];
            k++;
            edges += up[x];
        } while (x != v);
        if (2 * edges != k * (k - 1))
            return 0;
    }
}

/* --- entry points ----------------------------------------------------------
 * The cores above stay static, and the mask walkers inline, so that under
 * -fPIC the compiler may still inline them.  Where they inline, the constant
 * W = 1 of hg_classify, and of apsp_words and hg_classify_masks up to 64
 * vertices, lets it unroll the loops over words. */

void hg_apsp(const uint64_t *adj, int n, int16_t *dist) { apsp_words(adj, n, dist); }

int hg_connected(const uint64_t *adj, int n) { return connected_core(adj, n, words(n)); }

/* work: BLOCK_INTS * n ints */
int hg_block(const uint64_t *adj, int n, int *work) { return block_core(adj, n, words(n), work); }

/* ecc: n int16 of scratch, here and in the two deciders */
int hg_kmin(const int16_t *dist, int n, int16_t *ecc)
{
    int diam = ecc_core(dist, n, ecc);
    return kmin_core(dist, n, ecc, diam, 1);
}

/* -1 when hangable, else the first witness as v << 16 | u */
int64_t hg_subset(const int16_t *dist, int n, int16_t *ecc)
{
    int wv, wu;
    int diam = ecc_core(dist, n, ecc);
    if (subset_core(dist, n, ecc, diam, 1, &wv, &wu))
        return -1;
    return (int64_t)wv << 16 | wu;
}

/* -1 when hangable, else the first violating triple (v, u, w) as
 * v << 32 | u << 16 | w */
int64_t hg_triples(const int16_t *dist, int n, int16_t *ecc)
{
    int w[3];
    int diam = ecc_core(dist, n, ecc);
    if (triples_core(dist, n, ecc, diam, w))
        return -1;
    return (int64_t)w[0] << 32 | (int64_t)w[1] << 16 | w[2];
}

/* the metric profile but its members: ecc[v] for every vertex and |P(v)|
 * into counts[v]; returns diameter | radius << 16 | the counts' sum << 32 */
int64_t hg_profile(const int16_t *dist, int n, int16_t *ecc, uint16_t *counts)
{
    int16_t diam = ecc_core(dist, n, ecc), radius = diam;
    int64_t total = 0;
    for (int v = 0; v < n; v++) {
        const int16_t *row = dist + (size_t)v * n;
        int16_t e = ecc[v];
        uint16_t c = 0;
        for (int u = 0; u < n; u++)
            c += row[u] == e;
        counts[v] = c;
        total += c;
        if (e < radius)
            radius = e;
    }
    return total << 32 | (int64_t)radius << 16 | diam;
}

/* each P(v) as ascending vertex ids, row after row, into members, given the
 * eccentricities hg_profile left in ecc: as many ids as its counts sum to */
void hg_profile_members(const int16_t *dist, int n, const int16_t *ecc, uint16_t *members)
{
    size_t t = 0;
    for (int v = 0; v < n; v++) {
        const int16_t *row = dist + (size_t)v * n;
        for (int u = 0; u < n; u++)
            if (row[u] == ecc[v])
                members[t++] = (uint16_t)u;
    }
}

/* the k-subsets of a host on n vertices, from the one in idx[0 .. k-1] on,
 * in lexicographic order, which is itertools.combinations' (Knuth, TAOCP 4A,
 * 7.2.1.3, Algorithm L).  Each subset's masks are compressed into w.adj, k
 * words of Wk per vertex, with k(k-1)/2 bit tests; w.out[0] counts the
 * connected subsets this call visits and w.out[1] the hangable ones.  With
 * cap > 0 the k host ids of each hangable subset go into hits, and once cap
 * subsets are there the walk stops with idx at the next subset.  Returns 1
 * when the walk has passed the last subset, else 0. */
static inline __attribute__((always_inline)) int
subgraph_walk(const uint64_t *adj, int n, int k, int Wk, int *idx, struct work w,
              int *hits, int cap)
{
    int W = words(n), found = 0, wv, wu;
    uint64_t *sub = w.adj;
    w.out[0] = w.out[1] = 0;
    for (;;) {
        for (size_t i = 0; i < (size_t)k * Wk; i++)
            sub[i] = 0;
        for (int i = 0; i < k; i++) {
            const uint64_t *a = adj + (size_t)idx[i] * W;
            for (int j = i + 1; j < k; j++)
                if (a[idx[j] >> 6] >> (idx[j] & 63) & 1) {
                    set_bit(sub + (size_t)i * Wk, j);
                    set_bit(sub + (size_t)j * Wk, i);
                }
        }
        if (connected_core(sub, k, Wk)) {
            w.out[0]++;
            apsp_core(sub, k, Wk, w.dist);
            int diam = ecc_core(w.dist, k, w.ecc);
            if (subset_core(w.dist, k, w.ecc, diam, 1, &wv, &wu)) {
                w.out[1]++;
                if (cap) {
                    for (int i = 0; i < k; i++)
                        hits[(size_t)found * k + i] = idx[i];
                    found++;
                }
            }
        }
        int i = k - 1; /* the last id that can still grow */
        while (i >= 0 && idx[i] == n - k + i)
            i--;
        if (i < 0)
            return 1;
        idx[i]++;
        for (int j = i + 1; j < k; j++)
            idx[j] = idx[j - 1] + 1;
        if (found == cap && cap)
            return 0;
    }
}

/* subgraph_walk over a host with masks adj; work: scratch for a graph on k
 * vertices (struct work), whose two count words get the walk's counts;
 * hits: cap * k ints */
int hg_subgraph_counts(const uint64_t *adj, int n, int k, int *idx, uint64_t *work,
                       int *hits, int cap)
{
    if (k <= 64)
        return subgraph_walk(adj, n, k, 1, idx, carve(work, k), hits, cap);
    return subgraph_walk(adj, n, k, words(k), idx, carve(work, k), hits, cap);
}

/* the classify flags of a connected graph with m edges and masks of W
 * words, with its diameter, radius and kmin in out[0..2].  Leaves the
 * distance matrix in dist and the eccentricities in ecc; work holds
 * BLOCK_INTS * n ints.  Always inlined, so that each caller's constant W
 * unrolls the loops over words. */
static inline __attribute__((always_inline)) int64_t
classify_core(const uint64_t *adj, int n, int W, int64_t m, int16_t *dist, int16_t *ecc,
              int *work, int *out)
{
    int wv, wu, w[3];
    apsp_core(adj, n, W, dist);
    int diam = ecc_core(dist, n, ecc), radius = diam;
    for (int i = 0; i < n; i++)
        if (ecc[i] < radius)
            radius = ecc[i];
    int64_t flags = F_CONNECTED;
    int hangable = subset_core(dist, n, ecc, diam, 1, &wv, &wu);
    if (hangable)
        flags |= F_HANGABLE;
    if (triples_core(dist, n, ecc, diam, w))
        flags |= F_HANGABLE_TRIPLES;
    if (radius == diam)
        flags |= F_SELF_CENTERED;
    if (block_core(adj, n, W, work))
        flags |= F_BLOCK_GRAPH;
    if (m == n - 1)
        flags |= F_TREE;
    out[0] = diam;
    out[1] = radius;
    out[2] = hangable ? 1 : kmin_core(dist, n, ecc, diam, 2);
    return flags;
}

/* 0 when disconnected, else flags | diameter << 8 | radius << 16 | kmin << 24.
 * n <= MAX_CLASSIFY_N, so every mask is one word. */
int64_t hg_classify(int n, uint64_t bits)
{
    uint64_t adj[MAX_CLASSIFY_N];
    int16_t dist[MAX_CLASSIFY_N * MAX_CLASSIFY_N], ecc[MAX_CLASSIFY_N];
    int work[BLOCK_INTS * MAX_CLASSIFY_N], f[3];
    int k = 0, m = 0;
    for (int i = 0; i < n; i++)
        adj[i] = 0;
    for (int i = 0; i < n; i++)
        for (int j = i + 1; j < n; j++, k++)
            if ((bits >> k) & 1) {
                adj[i] |= (uint64_t)1 << j;
                adj[j] |= (uint64_t)1 << i;
                m++;
            }
    if (!connected_core(adj, n, 1))
        return 0;
    int64_t flags = classify_core(adj, n, 1, m, dist, ecc, work, f);
    return flags | (int64_t)f[0] << 8 | (int64_t)f[1] << 16 | (int64_t)f[2] << 24;
}

/* 1 when image[0 .. v-1] extends to an isomorphism from g onto its
 * complement co: vertices v .. n-1 go, in order, each to an unused vertex of
 * co of the same degree whose adjacency to the vertices already mapped
 * agrees.  n <= SELF_COMPLEMENTARY_MAX_N, so every mask is one word. */
static int selfco_extend(const uint64_t *adj, const uint64_t *co, int n, int v,
                         unsigned used, int *image)
{
    if (v == n)
        return 1;
    int degree = __builtin_popcountll(adj[v]);
    for (int w = 0; w < n; w++) {
        if (used >> w & 1 || __builtin_popcountll(co[w]) != degree)
            continue;
        int u = 0;
        while (u < v && (adj[v] >> u & 1) == (co[w] >> image[u] & 1))
            u++;
        if (u < v)
            continue;
        image[v] = w;
        if (selfco_extend(adj, co, n, v + 1, used | 1u << w, image))
            return 1;
    }
    return 0;
}

/* hg_classify_masks on masks of W words; the complement goes into w.adj */
static inline __attribute__((always_inline)) int64_t
classify_masks_core(const uint64_t *adj, int n, int W, int16_t *co_dist, struct work w)
{
    uint64_t *co = w.adj;
    int image[SELF_COMPLEMENTARY_MAX_N], f[3];
    int64_t flags = 0, deg = 0, periphery = 0;
    for (int v = 0; v < n; v++)
        for (int k = 0; k < W; k++) {
            uint64_t a = adj[(size_t)v * W + k], self = k == v >> 6 ? (uint64_t)1 << (v & 63) : 0;
            deg += __builtin_popcountll(a);
            co[(size_t)v * W + k] = full_word(n, k) & ~a & ~self;
        }
    int64_t m = deg / 2;
    w.out[0] = (uint64_t)m;
    if (n <= SELF_COMPLEMENTARY_MAX_N && 4 * m == n * (n - 1)
        && selfco_extend(adj, co, n, 0, 0, image))
        flags |= F_SELF_COMPLEMENTARY;
    if (connected_core(co, n, W)) {
        flags |= F_COMPLEMENT_CONNECTED;
        apsp_core(co, n, W, co_dist);
    }
    if (!connected_core(adj, n, W))
        return flags;
    flags |= classify_core(adj, n, W, m, w.dist, w.ecc, w.ints, f);
    for (int v = 0; v < n; v++)
        periphery += w.ecc[v] == f[0];
    w.out[1] = (uint64_t)periphery;
    return flags | (int64_t)f[0] << 8 | (int64_t)f[1] << 24 | (int64_t)f[2] << 40;
}

/* the complement flags when g is disconnected, else those flags with
 * hg_classify's, diameter << 8 | radius << 24 | kmin << 40 (16 bits each).
 * work: scratch for a graph on n vertices (struct work), whose two count
 * words get m, and |P(G)| when g is connected.
 * F_COMPLEMENT_CONNECTED: the complement is connected, and its distance
 * matrix went to co_dist (n * n), which is otherwise left as it was.
 * F_SELF_COMPLEMENTARY: n <= SELF_COMPLEMENTARY_MAX_N and g is isomorphic
 * to its complement. */
int64_t hg_classify_masks(const uint64_t *adj, int n, int16_t *co_dist, uint64_t *work)
{
    if (n <= 64)
        return classify_masks_core(adj, n, 1, co_dist, carve(work, n));
    return classify_masks_core(adj, n, words(n), co_dist, carve(work, n));
}

/* the masks (W words per vertex) of the n-vertex graph whose graph6 bit field
 * is body: pair t of the upper triangle, column by column, (0,1), (0,2),
 * (1,2), (0,3), ..., is bit 5 - t % 6 of body[t / 6] - 63.  The caller has
 * checked that body holds ceil(n(n-1)/2 / 6) bytes, each in '?' .. '~' */
void hg_graph6_masks(const uint8_t *body, int n, uint64_t *adj)
{
    int W = words(n);
    int64_t t = 0;
    for (size_t i = 0; i < (size_t)n * W; i++)
        adj[i] = 0;
    for (int j = 1; j < n; j++)
        for (int i = 0; i < j; i++, t++)
            if ((body[t / 6] - 63) >> (5 - t % 6) & 1) {
                set_bit(adj + (size_t)i * W, j);
                set_bit(adj + (size_t)j * W, i);
            }
}

/* builds the corona G o H (copy v of H hangs off base vertex v) and checks
 * every closed-form statement against BFS on it; work: scratch for a graph
 * on ng * (1 + nh) vertices with ng int16s more */
int hg_corona_verify(const uint64_t *adjg, int ng, const int16_t *dg,
                     const uint64_t *adjh, int nh, uint64_t *work)
{
    int nc = ng * (1 + nh), wg = words(ng), wh = words(nh), wc = words(nc), wv, wu;
    struct work w = carve(work, nc);
    uint64_t *adjc = w.adj;
    int16_t *dc = w.dist, *eccc = w.ecc, *eccg = w.ecc + nc;
    for (size_t i = 0; i < (size_t)nc * wc; i++)
        adjc[i] = 0;
    for (int v = 0; v < ng; v++) {
        for (int k = 0; k < wg; k++)
            adjc[(size_t)v * wc + k] = adjg[(size_t)v * wg + k];
        for (int x = 0; x < nh; x++) {
            int p = ng + v * nh + x;
            const uint64_t *hx = adjh + (size_t)x * wh;
            set_bit(adjc + (size_t)v * wc, p);
            set_bit(adjc + (size_t)p * wc, v);
            for (int y = next_bit(hx, wh, 0); y >= 0; y = next_bit(hx, wh, y + 1))
                set_bit(adjc + (size_t)p * wc, ng + v * nh + y);
        }
    }
    apsp_words(adjc, nc, dc);
    int diam_g = ecc_core(dg, ng, eccg);

    for (int u = 0; u < ng; u++)
        for (int v = 0; v < ng; v++) {
            int want = dg[u * ng + v];
            if (dc[u * nc + v] != want)
                return VERIFY_DISTANCE;
            for (int y = 0; y < nh; y++)
                if (dc[u * nc + ng + v * nh + y] != want + 1)
                    return VERIFY_DISTANCE;
            for (int x = 0; x < nh; x++) {
                int p = ng + u * nh + x;
                for (int y = 0; y < nh; y++) {
                    int got = dc[p * nc + ng + v * nh + y];
                    int edge = adjh[x * wh + (y >> 6)] >> (y & 63) & 1;
                    int expect = u != v ? want + 2 : x == y ? 0 : 2 - edge;
                    if (got != expect)
                        return VERIFY_DISTANCE;
                }
            }
        }

    int diam_c = ecc_core(dc, nc, eccc);
    if (diam_c != diam_g + 2)
        return VERIFY_DIAMETER;

    /* product vertex q lies in a periphery iff it is a copy vertex over a
     * base vertex of the matching base periphery */
    for (int p = 0; p < nc; p++) {
        int base_u = p < ng ? p : (p - ng) / nh;
        for (int q = 0; q < nc; q++) {
            int expected = q >= ng && dg[base_u * ng + (q - ng) / nh] == eccg[base_u];
            if ((dc[p * nc + q] == eccc[p]) != expected)
                return VERIFY_VERTEX_PERIPHERY;
        }
    }
    for (int q = 0; q < nc; q++) {
        int expected = q >= ng && eccg[(q - ng) / nh] == diam_g;
        if ((eccc[q] == diam_c) != expected)
            return VERIFY_GRAPH_PERIPHERY;
    }

    int hang_c = subset_core(dc, nc, eccc, diam_c, 1, &wv, &wu);
    int hang_g = subset_core(dg, ng, eccg, diam_g, 1, &wv, &wu);
    return hang_c == hang_g ? VERIFY_OK : VERIFY_HANGABLE;
}

/* builds the box product G [] H (vertex (a, b) at a * nh + b) and checks the
 * sum formulas for distances, eccentricities, diameter and peripheries;
 * work: scratch for a graph on ng * nh vertices with ng + nh int16s more */
int hg_cartesian_verify(const uint64_t *adjg, int ng, const int16_t *dg,
                        const uint64_t *adjh, int nh, const int16_t *dh, uint64_t *work)
{
    int np = ng * nh, wg = words(ng), wh = words(nh), wp = words(np), wv, wu;
    struct work w = carve(work, np);
    uint64_t *adjp = w.adj;
    int16_t *dp = w.dist, *eccp = w.ecc, *eccg = w.ecc + np, *ecch = eccg + ng;
    for (size_t i = 0; i < (size_t)np * wp; i++)
        adjp[i] = 0;
    for (int a = 0; a < ng; a++)
        for (int b = 0; b < nh; b++) {
            uint64_t *mask = adjp + (size_t)(a * nh + b) * wp;
            const uint64_t *ga = adjg + (size_t)a * wg, *hb = adjh + (size_t)b * wh;
            for (int d = next_bit(hb, wh, 0); d >= 0; d = next_bit(hb, wh, d + 1))
                set_bit(mask, a * nh + d);
            for (int c = next_bit(ga, wg, 0); c >= 0; c = next_bit(ga, wg, c + 1))
                set_bit(mask, c * nh + b);
        }
    apsp_words(adjp, np, dp);

    for (int a = 0; a < ng; a++)
        for (int b = 0; b < nh; b++)
            for (int c = 0; c < ng; c++)
                for (int d = 0; d < nh; d++)
                    if (dp[(a * nh + b) * np + c * nh + d] != dg[a * ng + c] + dh[b * nh + d])
                        return VERIFY_DISTANCE;

    int diam_g = ecc_core(dg, ng, eccg), diam_h = ecc_core(dh, nh, ecch);
    int diam_p = ecc_core(dp, np, eccp);
    for (int a = 0; a < ng; a++)
        for (int b = 0; b < nh; b++)
            if (eccp[a * nh + b] != eccg[a] + ecch[b])
                return VERIFY_ECCENTRICITY;

    int diam = diam_g + diam_h;
    if (diam_p != diam)
        return VERIFY_DIAMETER;

    for (int a = 0; a < ng; a++)
        for (int b = 0; b < nh; b++) {
            int p = a * nh + b;
            for (int c = 0; c < ng; c++)
                for (int d = 0; d < nh; d++) {
                    int expected = dg[a * ng + c] == eccg[a] && dh[b * nh + d] == ecch[b];
                    if ((dp[p * np + c * nh + d] == eccp[p]) != expected)
                        return VERIFY_VERTEX_PERIPHERY;
                }
        }

    for (int c = 0; c < ng; c++)
        for (int d = 0; d < nh; d++) {
            int expected = eccg[c] == diam_g && ecch[d] == diam_h;
            if ((eccp[c * nh + d] == diam) != expected)
                return VERIFY_GRAPH_PERIPHERY;
        }

    int hup = subset_core(dp, np, eccp, diam_p, 1, &wv, &wu);
    int hg = subset_core(dg, ng, eccg, diam_g, 1, &wv, &wu);
    int hh = subset_core(dh, nh, ecch, diam_h, 1, &wv, &wu);
    return hup == (hg && hh) ? VERIFY_OK : VERIFY_HANGABLE;
}

/* builds the join G + H and checks that it is hangable exactly when it is
 * complete or has at most one universal vertex; work: scratch for a graph
 * on ng + nh vertices */
int hg_join_verify(const uint64_t *adjg, int ng, const uint64_t *adjh, int nh, uint64_t *work)
{
    int nj = ng + nh, wg = words(ng), wh = words(nh), wj = words(nj), universal = 0, wv, wu;
    struct work w = carve(work, nj);
    uint64_t *adjj = w.adj;
    for (size_t i = 0; i < (size_t)nj * wj; i++)
        adjj[i] = 0;
    for (int i = 0; i < ng; i++) {
        for (int k = 0; k < wg; k++)
            adjj[(size_t)i * wj + k] = adjg[(size_t)i * wg + k];
        for (int x = 0; x < nh; x++)
            set_bit(adjj + (size_t)i * wj, ng + x);
    }
    for (int x = 0; x < nh; x++) {
        uint64_t *mask = adjj + (size_t)(ng + x) * wj;
        const uint64_t *hx = adjh + (size_t)x * wh;
        for (int y = next_bit(hx, wh, 0); y >= 0; y = next_bit(hx, wh, y + 1))
            set_bit(mask, ng + y);
        for (int v = 0; v < ng; v++)
            set_bit(mask, v);
    }
    for (int i = 0; i < nj; i++) {
        int all_others = 1;
        for (int k = 0; k < wj; k++) {
            uint64_t others = full_word(nj, k);
            if (k == i >> 6)
                others ^= (uint64_t)1 << (i & 63);
            all_others &= adjj[(size_t)i * wj + k] == others;
        }
        universal += all_others;
    }
    int predicted = universal == nj || universal <= 1;
    apsp_words(adjj, nj, w.dist);
    int diam = ecc_core(w.dist, nj, w.ecc);
    int hangable = subset_core(w.dist, nj, w.ecc, diam, 1, &wv, &wu);
    return predicted == hangable ? VERIFY_OK : VERIFY_HANGABLE;
}
