/* Compiled kernels: the semantics twin of _pykernel.py for n <= 128.
 *
 * Plain C with no Python headers; _ckernel.py compiles this file with the
 * system C compiler and calls it through ctypes.  Adjacency lives in masks
 * of W = ceil(n / 64) 64-bit words per vertex, vertex after vertex: bit j of
 * vertex i's mask is bit j % 64 of adj[i * W + j / 64], set iff ij is an
 * edge.  Every entry point works W out from n.  Distances are signed bytes,
 * flat row-major, -1 for unreachable pairs; a connected graph on 128
 * vertices has diameter at most 127, so every distance fits.  Callers check
 * every size limit before calling in; nothing here allocates or fails.
 *
 * Results that are tuples on the Python side come back packed into one
 * 64-bit integer so that no output buffer is shared between calls; see the
 * comment on each hg_* function for its layout.  Only arrays go out through
 * buffers the caller passes in: hg_apsp's matrix, hg_graph6_masks' masks,
 * the complement's matrix of hg_classify_masks, and hg_profile's three:
 * the eccentricities (n signed bytes), every vertex periphery P(v) as
 * ascending vertex ids, P(0) first, then P(1), and so on (at most n * n
 * bytes), and |P(v)| per vertex (n bytes); its word packs the diameter in
 * bits 0-7 and the radius in 8-15.  The two classify entries share one
 * layout: flags in bits 0-7, diameter in 8-15, radius in 16-23, kmin in
 * 24-31.  hg_classify_masks adds |P(G)| in bits 32-39 and the edge count m
 * from bit 40, and two flags about the complement: F_COMPLEMENT_CONNECTED
 * (64) and F_SELF_COMPLEMENTARY (128), the latter decided for
 * n <= SELF_COMPLEMENTARY_MAX_N only.  kmin reads G's own matrix: one subset
 * decider judges every power G^k through a threshold on G's distances, and
 * no power matrix is built.
 */

#include <stdint.h>

#define MAXN 128
#define MAXW 2 /* words per mask at MAXN vertices */
#define MAXN2 (MAXN * MAXN)
#define MAXE (MAXN * (MAXN - 1) / 2) /* edges of the complete graph K_MAXN */
#define SELF_COMPLEMENTARY_MAX_N 8

enum {
    F_CONNECTED = 1,
    F_HANGABLE = 2,
    F_HANGABLE_TRIPLES = 4,
    F_SELF_CENTERED = 8,
    F_BLOCK_GRAPH = 16,
    F_TREE = 32,
    F_COMPLEMENT_CONNECTED = 64,
    F_SELF_COMPLEMENTARY = 128
};

enum {
    VERIFY_OK = 0,
    VERIFY_DISTANCE = 1,
    VERIFY_ECCENTRICITY = 2,
    VERIFY_DIAMETER = 3,
    VERIFY_VERTEX_PERIPHERY = 4,
    VERIFY_GRAPH_PERIPHERY = 5,
    VERIFY_HANGABLE = 6
};

static inline int ctz64(uint64_t x) { return __builtin_ctzll(x); }

static inline int words(int n) { return (n + 63) >> 6; }

static inline void set_bit(uint64_t *mask, int i) { mask[i >> 6] |= (uint64_t)1 << (i & 63); }

static inline int has_bit(const uint64_t *mask, int i) { return mask[i >> 6] >> (i & 63) & 1; }

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
            const uint64_t *a = adj + (k * 64 + ctz64(f)) * W;
            for (int j = 0; j < W; j++)
                out[j] |= a[j];
        }
}

static inline void apsp_core(const uint64_t *adj, int n, int W, int8_t *dist)
{
    for (int s = 0; s < n; s++) {
        int8_t *row = dist + s * n;
        uint64_t seen[MAXW], frontier[MAXW], nxt[MAXW];
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
                    row[k * 64 + ctz64(f)] = (int8_t)d;
            }
            if (!any)
                break;
        }
    }
}

/* apsp_core with the word count as a constant, 1 up to 64 vertices and
 * MAXW past them, so that each inlined copy unrolls its loops over words */
static void apsp_words(const uint64_t *adj, int n, int8_t *dist)
{
    if (n <= 64)
        apsp_core(adj, n, 1, dist);
    else
        apsp_core(adj, n, MAXW, dist);
}

static inline int connected_core(const uint64_t *adj, int n, int W)
{
    uint64_t seen[MAXW] = {1}, frontier[MAXW] = {1}, nxt[MAXW], any = 1;
    if (n <= 1)
        return 1;
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
static int8_t ecc_core(const int8_t *dist, int n, int8_t *ecc)
{
    int8_t diam = 0;
    for (int v = 0; v < n; v++) {
        int8_t e = 0;
        for (int u = 0; u < n; u++)
            if (dist[v * n + u] > e)
                e = dist[v * n + u];
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
static int subset_core(const int8_t *dist, int n, const int8_t *ecc, int8_t diam, int k,
                       int *wv, int *wu)
{
    int td = threshold(diam, k);
    for (int v = 0; v < n; v++) {
        int tv = threshold(ecc[v], k);
        for (int u = 0; u < n; u++)
            if (dist[v * n + u] >= tv && ecc[u] < td) {
                *wv = v;
                *wu = u;
                return 0;
            }
    }
    return 1;
}

/* the smallest j >= k with G^j hangable, subset_core walked over the powers;
 * G^diam is complete, so the walk ends there at the latest */
static int kmin_core(const int8_t *dist, int n, const int8_t *ecc, int8_t diam, int k)
{
    int wv, wu;
    while (k < diam && !subset_core(dist, n, ecc, diam, k, &wv, &wu))
        k++;
    return k;
}

/* 1 when hangable, else 0 with the first violating triple in w[0..2] */
static int triples_core(const int8_t *dist, int n, const int8_t *ecc, int8_t diam, int *w)
{
    for (int v = 0; v < n; v++)
        for (int u = 0; u < n; u++) {
            if (dist[v * n + u] != ecc[v] || ecc[u] == diam)
                continue;
            for (int x = 0; x < n; x++)
                if (dist[u * n + x] == ecc[u]) {
                    w[0] = v;
                    w[1] = u;
                    w[2] = x;
                    return 0;
                }
        }
    return 1;
}

/* iterative lowpoint DFS; connected input assumed.  Every block must be a
 * clique: each vertex of a finished block sees all of its other vertices.
 * Each edge goes on the edge stack once, so MAXE entries always suffice. */
static inline int block_core(const uint64_t *adj, int n, int W)
{
    int disc[MAXN], low[MAXN], parent[MAXN], cursor[MAXN]; /* cursor: next neighbor to try */
    uint8_t vstack[MAXN], eu_stack[MAXE], ev_stack[MAXE];
    if (n <= 2)
        return 1;
    for (int v = 0; v < n; v++) {
        disc[v] = -1;
        parent[v] = -1;
        cursor[v] = 0;
    }
    int top = 0, etop = 0, timer = 1;
    vstack[0] = 0;
    disc[0] = low[0] = 0;
    while (top >= 0) {
        int v = vstack[top];
        int w = next_bit(adj + v * W, W, cursor[v]);
        if (w >= 0) {
            cursor[v] = w + 1;
            if (disc[w] == -1) {
                parent[w] = v;
                disc[w] = low[w] = timer++;
                eu_stack[etop] = (uint8_t)v;
                ev_stack[etop] = (uint8_t)w;
                etop++;
                vstack[++top] = (uint8_t)w;
            } else if (w != parent[v] && disc[w] < disc[v]) {
                eu_stack[etop] = (uint8_t)v;
                ev_stack[etop] = (uint8_t)w;
                etop++;
                if (disc[w] < low[v])
                    low[v] = disc[w];
            }
            continue;
        }
        if (--top < 0)
            break;
        int u = vstack[top];
        if (low[v] < low[u])
            low[u] = low[v];
        if (low[v] < disc[u])
            continue;
        uint64_t bmask[MAXW] = {0};
        for (;;) {
            etop--;
            int a = eu_stack[etop], b = ev_stack[etop];
            set_bit(bmask, a);
            set_bit(bmask, b);
            if (a == u && b == v)
                break;
        }
        for (int x = next_bit(bmask, W, 0); x >= 0; x = next_bit(bmask, W, x + 1))
            for (int k = 0; k < W; k++) {
                uint64_t others = k == x >> 6 ? bmask[k] ^ (uint64_t)1 << (x & 63) : bmask[k];
                if ((adj[x * W + k] & bmask[k]) != others)
                    return 0;
            }
    }
    return 1;
}

/* --- entry points ----------------------------------------------------------
 * The cores above stay static, and the mask walkers inline, so that under
 * -fPIC the compiler may still inline them.  Where they inline, the constant
 * W of hg_classify (1), apsp_words and hg_classify_masks (1, or MAXW past 64
 * vertices) lets it unroll the loops over words. */

void hg_apsp(const uint64_t *adj, int n, int8_t *dist) { apsp_words(adj, n, dist); }

int hg_connected(const uint64_t *adj, int n) { return connected_core(adj, n, words(n)); }

int hg_block(const uint64_t *adj, int n) { return block_core(adj, n, words(n)); }

int hg_kmin(const int8_t *dist, int n)
{
    int8_t ecc[MAXN];
    int8_t diam = ecc_core(dist, n, ecc);
    return kmin_core(dist, n, ecc, diam, 1);
}

/* -1 when hangable, else the first witness as v << 7 | u */
int64_t hg_subset(const int8_t *dist, int n)
{
    int8_t ecc[MAXN];
    int wv, wu;
    int8_t diam = ecc_core(dist, n, ecc);
    if (subset_core(dist, n, ecc, diam, 1, &wv, &wu))
        return -1;
    return (int64_t)wv << 7 | wu;
}

/* -1 when hangable, else the first violating triple (v, u, w) as
 * v << 14 | u << 7 | w */
int64_t hg_triples(const int8_t *dist, int n)
{
    int8_t ecc[MAXN];
    int w[3];
    int8_t diam = ecc_core(dist, n, ecc);
    if (triples_core(dist, n, ecc, diam, w))
        return -1;
    return (int64_t)w[0] << 14 | w[1] << 7 | w[2];
}

/* the metric profile: ecc[v] for every vertex, each P(v) as ascending vertex
 * ids, row after row, into members (at most n * n bytes), and |P(v)| into
 * counts[v]; returns diameter | radius << 8 */
int64_t hg_profile(const int8_t *dist, int n, int8_t *ecc, uint8_t *members, uint8_t *counts)
{
    int8_t diam = ecc_core(dist, n, ecc), radius = diam;
    int t = 0;
    for (int v = 0; v < n; v++) {
        const int8_t *row = dist + v * n;
        int8_t e = ecc[v];
        int start = t;
        for (int u = 0; u < n; u++)
            if (row[u] == e)
                members[t++] = (uint8_t)u;
        counts[v] = (uint8_t)(t - start);
        if (e < radius)
            radius = e;
    }
    return (int64_t)radius << 8 | diam;
}

/* the classify fields of a connected graph with m edges and masks of W
 * words: flags | diameter << 8 | radius << 16 | kmin << 24.  Leaves the
 * distance matrix in dist and the eccentricities in ecc.  Always inlined,
 * so that each caller's constant W unrolls the loops over words. */
static inline __attribute__((always_inline)) int64_t
classify_core(const uint64_t *adj, int n, int W, int m, int8_t *dist, int8_t *ecc)
{
    int wv, wu, w[3];
    apsp_core(adj, n, W, dist);
    int8_t diam = ecc_core(dist, n, ecc), radius = diam;
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
    if (block_core(adj, n, W))
        flags |= F_BLOCK_GRAPH;
    if (m == n - 1)
        flags |= F_TREE;
    int kmin = hangable ? 1 : kmin_core(dist, n, ecc, diam, 2);
    return flags | (int64_t)diam << 8 | (int64_t)radius << 16 | (int64_t)kmin << 24;
}

/* 0 when disconnected, else flags | diameter << 8 | radius << 16 | kmin << 24.
 * n <= 11, so every mask is one word. */
int64_t hg_classify(int n, uint64_t bits)
{
    uint64_t adj[MAXN];
    int8_t dist[MAXN2], ecc[MAXN];
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
    return classify_core(adj, n, 1, m, dist, ecc);
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

/* hg_classify on masks of W words, plus |P(G)|, m and the complement, whose
 * distance matrix goes to co_dist when it is connected */
static inline __attribute__((always_inline)) int64_t
classify_masks_core(const uint64_t *adj, int n, int W, int8_t *co_dist)
{
    uint64_t co[MAXN * MAXW];
    int8_t dist[MAXN2], ecc[MAXN];
    int image[SELF_COMPLEMENTARY_MAX_N];
    int64_t flags = 0;
    int deg = 0, periphery = 0;
    for (int v = 0; v < n; v++)
        for (int k = 0; k < W; k++) {
            uint64_t a = adj[v * W + k], self = k == v >> 6 ? (uint64_t)1 << (v & 63) : 0;
            deg += __builtin_popcountll(a);
            co[v * W + k] = full_word(n, k) & ~a & ~self;
        }
    int m = deg / 2;
    if (n <= SELF_COMPLEMENTARY_MAX_N && 4 * m == n * (n - 1)
        && selfco_extend(adj, co, n, 0, 0, image))
        flags |= F_SELF_COMPLEMENTARY;
    if (connected_core(co, n, W)) {
        flags |= F_COMPLEMENT_CONNECTED;
        apsp_core(co, n, W, co_dist);
    }
    flags |= (int64_t)m << 40;
    if (!connected_core(adj, n, W))
        return flags;
    int64_t r = classify_core(adj, n, W, m, dist, ecc);
    int8_t diam = (int8_t)(r >> 8);
    for (int v = 0; v < n; v++)
        periphery += ecc[v] == diam;
    return flags | r | (int64_t)periphery << 32;
}

/* m << 40 with the complement flags when g is disconnected, else
 * hg_classify's word with those flags, |P(G)| in bits 32-39 and m from bit 40.
 * F_COMPLEMENT_CONNECTED: the complement is connected, and its distance
 * matrix went to co_dist (n * n bytes), which is otherwise left as it was.
 * F_SELF_COMPLEMENTARY: n <= SELF_COMPLEMENTARY_MAX_N and g is isomorphic
 * to its complement.  n <= 128 */
int64_t hg_classify_masks(const uint64_t *adj, int n, int8_t *co_dist)
{
    if (n <= 64)
        return classify_masks_core(adj, n, 1, co_dist);
    return classify_masks_core(adj, n, MAXW, co_dist);
}

/* the masks (W words per vertex) of the n-vertex graph whose graph6 bit field
 * is body: pair t of the upper triangle, column by column, (0,1), (0,2),
 * (1,2), (0,3), ..., is bit 5 - t % 6 of body[t / 6] - 63.  The caller has
 * checked that body holds ceil(n(n-1)/2 / 6) bytes, each in '?' .. '~';
 * n <= 128 */
void hg_graph6_masks(const uint8_t *body, int n, uint64_t *adj)
{
    int W = words(n), t = 0;
    for (int i = 0; i < n * W; i++)
        adj[i] = 0;
    for (int j = 1; j < n; j++)
        for (int i = 0; i < j; i++, t++)
            if ((body[t / 6] - 63) >> (5 - t % 6) & 1) {
                set_bit(adj + i * W, j);
                set_bit(adj + j * W, i);
            }
}

/* builds the corona G o H (copy v of H hangs off base vertex v) and checks
 * every closed-form statement against BFS on it; ng * (1 + nh) <= 128 */
int hg_corona_verify(const uint64_t *adjg, int ng, const int8_t *dg,
                     const uint64_t *adjh, int nh)
{
    uint64_t adjc[MAXN * MAXW];
    int8_t dc[MAXN2], eccg[MAXN], eccc[MAXN];
    int nc = ng * (1 + nh), wg = words(ng), wh = words(nh), wc = words(nc), wv, wu;
    for (int i = 0; i < nc * wc; i++)
        adjc[i] = 0;
    for (int v = 0; v < ng; v++) {
        for (int k = 0; k < wg; k++)
            adjc[v * wc + k] = adjg[v * wg + k];
        for (int x = 0; x < nh; x++) {
            int p = ng + v * nh + x;
            const uint64_t *hx = adjh + x * wh;
            set_bit(adjc + v * wc, p);
            set_bit(adjc + p * wc, v);
            for (int y = next_bit(hx, wh, 0); y >= 0; y = next_bit(hx, wh, y + 1))
                set_bit(adjc + p * wc, ng + v * nh + y);
        }
    }
    apsp_words(adjc, nc, dc);
    int8_t diam_g = ecc_core(dg, ng, eccg);

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
                    int expect = u != v ? want + 2 : x == y ? 0 : has_bit(adjh + x * wh, y) ? 1 : 2;
                    if (got != expect)
                        return VERIFY_DISTANCE;
                }
            }
        }

    int8_t diam_c = ecc_core(dc, nc, eccc);
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
 * ng * nh <= 128 */
int hg_cartesian_verify(const uint64_t *adjg, int ng, const int8_t *dg,
                        const uint64_t *adjh, int nh, const int8_t *dh)
{
    uint64_t adjp[MAXN * MAXW];
    int8_t dp[MAXN2], eccg[MAXN], ecch[MAXN], eccp[MAXN];
    int np = ng * nh, wg = words(ng), wh = words(nh), wp = words(np), wv, wu;
    for (int i = 0; i < np * wp; i++)
        adjp[i] = 0;
    for (int a = 0; a < ng; a++)
        for (int b = 0; b < nh; b++) {
            uint64_t *mask = adjp + (a * nh + b) * wp;
            const uint64_t *ga = adjg + a * wg, *hb = adjh + b * wh;
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

    int8_t diam_g = ecc_core(dg, ng, eccg), diam_h = ecc_core(dh, nh, ecch);
    int8_t diam_p = ecc_core(dp, np, eccp);
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
 * complete or has at most one universal vertex; ng + nh <= 128 */
int hg_join_verify(const uint64_t *adjg, int ng, const uint64_t *adjh, int nh)
{
    uint64_t adjj[MAXN * MAXW];
    int8_t dj[MAXN2];
    int nj = ng + nh, wg = words(ng), wh = words(nh), wj = words(nj), universal = 0;
    for (int i = 0; i < nj * wj; i++)
        adjj[i] = 0;
    for (int i = 0; i < ng; i++) {
        for (int k = 0; k < wg; k++)
            adjj[i * wj + k] = adjg[i * wg + k];
        for (int x = 0; x < nh; x++)
            set_bit(adjj + i * wj, ng + x);
    }
    for (int x = 0; x < nh; x++) {
        uint64_t *mask = adjj + (ng + x) * wj;
        const uint64_t *hx = adjh + x * wh;
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
            all_others &= adjj[i * wj + k] == others;
        }
        universal += all_others;
    }
    int predicted = universal == nj || universal <= 1;
    apsp_words(adjj, nj, dj);
    return predicted == (hg_subset(dj, nj) < 0) ? VERIFY_OK : VERIFY_HANGABLE;
}
