/* Compiled kernels: the semantics twin of _pykernel.py for n <= 64.
 *
 * Plain C with no Python headers; _ckernel.py compiles this file with the
 * system C compiler and calls it through ctypes.  Adjacency lives in 64-bit
 * masks (bit j of adj[i] set iff ij is an edge), distances in signed bytes,
 * flat row-major, -1 for unreachable pairs.  Callers check every size limit
 * before calling in; nothing here allocates or fails.
 *
 * Results that are tuples on the Python side come back packed into one
 * 64-bit integer so that no output buffer is shared between calls; see the
 * comment on each hg_* function for its layout.
 */

#include <stdint.h>

#define MAXN 64
#define MAXN2 (MAXN * MAXN)

enum {
    F_CONNECTED = 1,
    F_HANGABLE = 2,
    F_HANGABLE_TRIPLES = 4,
    F_SELF_CENTERED = 8,
    F_BLOCK_GRAPH = 16,
    F_TREE = 32
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

/* x << s with shifts of 64 or more giving 0 instead of undefined behaviour */
static inline uint64_t shl(uint64_t x, int s) { return s < 64 ? x << s : 0; }

/* the n lowest bits set */
static inline uint64_t low_bits(int n) { return n < 64 ? ((uint64_t)1 << n) - 1 : ~(uint64_t)0; }

static int8_t max8(const int8_t *a, int len)
{
    int8_t best = 0;
    for (int i = 0; i < len; i++)
        if (a[i] > best)
            best = a[i];
    return best;
}

static void apsp_core(const uint64_t *adj, int n, int8_t *dist)
{
    for (int s = 0; s < n; s++) {
        int8_t *row = dist + s * n;
        for (int v = 0; v < n; v++)
            row[v] = -1;
        row[s] = 0;
        uint64_t seen = (uint64_t)1 << s, frontier = seen;
        int d = 0;
        while (frontier) {
            uint64_t nxt = 0;
            for (uint64_t f = frontier; f; f &= f - 1)
                nxt |= adj[ctz64(f)];
            nxt &= ~seen;
            if (!nxt)
                break;
            d++;
            for (uint64_t f = nxt; f; f &= f - 1)
                row[ctz64(f)] = (int8_t)d;
            seen |= nxt;
            frontier = nxt;
        }
    }
}

static int connected_core(const uint64_t *adj, int n)
{
    if (n <= 1)
        return 1;
    uint64_t seen = 1, frontier = 1;
    while (frontier) {
        uint64_t nxt = 0;
        for (uint64_t f = frontier; f; f &= f - 1)
            nxt |= adj[ctz64(f)];
        frontier = nxt & ~seen;
        seen |= frontier;
    }
    return seen == low_bits(n);
}

static void ecc_core(const int8_t *dist, int n, int8_t *ecc)
{
    for (int v = 0; v < n; v++)
        ecc[v] = max8(dist + v * n, n);
}

/* 1 when hangable, else 0 with the first witness in (*wv, *wu) */
static int subset_core(const int8_t *dist, int n, const int8_t *ecc, int8_t diam,
                       int *wv, int *wu)
{
    for (int v = 0; v < n; v++)
        for (int u = 0; u < n; u++)
            if (dist[v * n + u] == ecc[v] && ecc[u] != diam) {
                *wv = v;
                *wu = u;
                return 0;
            }
    return 1;
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
 * clique: each vertex of a finished block sees all of its other vertices. */
static int block_core(const uint64_t *adj, int n)
{
    int disc[MAXN], low[MAXN], parent[MAXN], vstack[MAXN];
    int eu_stack[MAXN * 32], ev_stack[MAXN * 32];
    uint64_t rem[MAXN];
    if (n <= 2)
        return 1;
    for (int v = 0; v < n; v++) {
        disc[v] = -1;
        parent[v] = -1;
        rem[v] = adj[v];
    }
    int top = 0, etop = 0, timer = 1;
    vstack[0] = 0;
    disc[0] = low[0] = 0;
    while (top >= 0) {
        int v = vstack[top];
        if (rem[v]) {
            uint64_t lowbit = rem[v] & (0 - rem[v]);
            rem[v] ^= lowbit;
            int w = ctz64(lowbit);
            if (disc[w] == -1) {
                parent[w] = v;
                disc[w] = low[w] = timer++;
                eu_stack[etop] = v;
                ev_stack[etop] = w;
                etop++;
                vstack[++top] = w;
            } else if (w != parent[v] && disc[w] < disc[v]) {
                eu_stack[etop] = v;
                ev_stack[etop] = w;
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
        uint64_t bmask = 0;
        for (;;) {
            etop--;
            int a = eu_stack[etop], b = ev_stack[etop];
            bmask |= ((uint64_t)1 << a) | ((uint64_t)1 << b);
            if (a == u && b == v)
                break;
        }
        for (uint64_t m = bmask; m; m &= m - 1) {
            int x = ctz64(m);
            if ((adj[x] & bmask) != (bmask ^ ((uint64_t)1 << x)))
                return 0;
        }
    }
    return 1;
}

static int hangable_core(const int8_t *dist, int n)
{
    int8_t ecc[MAXN];
    int wv, wu;
    ecc_core(dist, n, ecc);
    return subset_core(dist, n, ecc, max8(ecc, n), &wv, &wu);
}

/* smallest k with G^k hangable, through d_{G^k} = ceil(d_G / k) */
static int kmin_core(const int8_t *dist, int n)
{
    int8_t dk[MAXN2];
    int8_t diam = max8(dist, n * n);
    if (diam <= 1 || hangable_core(dist, n))
        return 1;
    for (int k = 2; k <= diam; k++) {
        for (int i = 0; i < n * n; i++)
            dk[i] = (int8_t)((dist[i] + k - 1) / k);
        if (hangable_core(dk, n))
            return k;
    }
    return diam; /* unreachable: the power at k = diameter is complete */
}

/* --- entry points ----------------------------------------------------------
 * The cores above stay static so that, under -fPIC, the compiler may still
 * inline them into hg_classify and the verifiers. */

void hg_apsp(const uint64_t *adj, int n, int8_t *dist) { apsp_core(adj, n, dist); }

int hg_connected(const uint64_t *adj, int n) { return connected_core(adj, n); }

int hg_block(const uint64_t *adj, int n) { return block_core(adj, n); }

int hg_kmin(const int8_t *dist, int n) { return kmin_core(dist, n); }

/* -1 when hangable, else the first witness as v << 6 | u */
int64_t hg_subset(const int8_t *dist, int n)
{
    int8_t ecc[MAXN];
    int wv, wu;
    ecc_core(dist, n, ecc);
    if (subset_core(dist, n, ecc, max8(ecc, n), &wv, &wu))
        return -1;
    return (int64_t)wv << 6 | wu;
}

/* -1 when hangable, else the first violating triple (v, u, w) as
 * v << 12 | u << 6 | w */
int64_t hg_triples(const int8_t *dist, int n)
{
    int8_t ecc[MAXN];
    int w[3];
    ecc_core(dist, n, ecc);
    if (triples_core(dist, n, ecc, max8(ecc, n), w))
        return -1;
    return (int64_t)w[0] << 12 | w[1] << 6 | w[2];
}

/* 0 when disconnected, else flags | diameter << 8 | radius << 16 | kmin << 24 */
int64_t hg_classify(int n, uint64_t bits)
{
    uint64_t adj[MAXN] = {0};
    int8_t dist[MAXN2], ecc[MAXN];
    int k = 0, m = 0, wv, wu, w[3];
    for (int i = 0; i < n; i++)
        for (int j = i + 1; j < n; j++, k++)
            if ((bits >> k) & 1) {
                adj[i] |= (uint64_t)1 << j;
                adj[j] |= (uint64_t)1 << i;
                m++;
            }
    if (!connected_core(adj, n))
        return 0;
    apsp_core(adj, n, dist);
    ecc_core(dist, n, ecc);
    int8_t diam = 0, radius = 127;
    for (int i = 0; i < n; i++) {
        if (ecc[i] > diam)
            diam = ecc[i];
        if (ecc[i] < radius)
            radius = ecc[i];
    }
    int64_t flags = F_CONNECTED;
    if (subset_core(dist, n, ecc, diam, &wv, &wu))
        flags |= F_HANGABLE;
    if (triples_core(dist, n, ecc, diam, w))
        flags |= F_HANGABLE_TRIPLES;
    if (radius == diam)
        flags |= F_SELF_CENTERED;
    if (block_core(adj, n))
        flags |= F_BLOCK_GRAPH;
    if (m == n - 1)
        flags |= F_TREE;
    return flags | (int64_t)diam << 8 | (int64_t)radius << 16 | (int64_t)kmin_core(dist, n) << 24;
}

/* builds the corona G o H (copy v of H hangs off base vertex v) and checks
 * every closed-form statement against BFS on it; ng * (1 + nh) <= 64 */
int hg_corona_verify(const uint64_t *adjg, int ng, const int8_t *dg,
                     const uint64_t *adjh, int nh)
{
    uint64_t adjc[MAXN];
    int8_t dc[MAXN2], eccg[MAXN], eccc[MAXN];
    int nc = ng * (1 + nh), wv, wu;
    uint64_t hfull = low_bits(nh);
    for (int v = 0; v < ng; v++) {
        adjc[v] = adjg[v] | shl(hfull, ng + v * nh);
        for (int x = 0; x < nh; x++)
            adjc[ng + v * nh + x] = ((uint64_t)1 << v) | shl(adjh[x], ng + v * nh);
    }
    apsp_core(adjc, nc, dc);
    int8_t diam_g = max8(dg, ng * ng);

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
                    int expect = u != v ? want + 2 : x == y ? 0 : (adjh[x] >> y) & 1 ? 1 : 2;
                    if (got != expect)
                        return VERIFY_DISTANCE;
                }
            }
        }

    ecc_core(dc, nc, eccc);
    int8_t diam_c = max8(eccc, nc);
    if (diam_c != diam_g + 2)
        return VERIFY_DIAMETER;

    ecc_core(dg, ng, eccg);
    for (int p = 0; p < nc; p++) {
        int base_u = p < ng ? p : (p - ng) / nh;
        uint64_t expected = 0, actual = 0;
        for (int v = 0; v < ng; v++)
            if (dg[base_u * ng + v] == eccg[base_u])
                expected |= shl(hfull, ng + v * nh);
        for (int q = 0; q < nc; q++)
            if (dc[p * nc + q] == eccc[p])
                actual |= (uint64_t)1 << q;
        if (actual != expected)
            return VERIFY_VERTEX_PERIPHERY;
    }

    uint64_t expected = 0, actual = 0;
    for (int v = 0; v < ng; v++)
        if (eccg[v] == diam_g)
            expected |= shl(hfull, ng + v * nh);
    for (int q = 0; q < nc; q++)
        if (eccc[q] == diam_c)
            actual |= (uint64_t)1 << q;
    if (actual != expected)
        return VERIFY_GRAPH_PERIPHERY;

    int hang_c = subset_core(dc, nc, eccc, diam_c, &wv, &wu);
    int hang_g = subset_core(dg, ng, eccg, diam_g, &wv, &wu);
    return hang_c == hang_g ? VERIFY_OK : VERIFY_HANGABLE;
}

/* builds the box product G [] H (vertex (a, b) at a * nh + b) and checks the
 * sum formulas for distances, eccentricities, diameter and peripheries;
 * ng * nh <= 64 */
int hg_cartesian_verify(const uint64_t *adjg, int ng, const int8_t *dg,
                        const uint64_t *adjh, int nh, const int8_t *dh)
{
    uint64_t adjp[MAXN], spread[MAXN];
    int8_t dp[MAXN2], eccg[MAXN], ecch[MAXN], eccp[MAXN];
    int np = ng * nh, wv, wu;
    for (int a = 0; a < ng; a++) {
        spread[a] = 0;
        for (uint64_t f = adjg[a]; f; f &= f - 1)
            spread[a] |= (uint64_t)1 << (ctz64(f) * nh);
    }
    for (int a = 0; a < ng; a++)
        for (int b = 0; b < nh; b++)
            adjp[a * nh + b] = (adjh[b] << (a * nh)) | (spread[a] << b);
    apsp_core(adjp, np, dp);

    for (int a = 0; a < ng; a++)
        for (int b = 0; b < nh; b++)
            for (int c = 0; c < ng; c++)
                for (int d = 0; d < nh; d++)
                    if (dp[(a * nh + b) * np + c * nh + d] != dg[a * ng + c] + dh[b * nh + d])
                        return VERIFY_DISTANCE;

    ecc_core(dg, ng, eccg);
    ecc_core(dh, nh, ecch);
    ecc_core(dp, np, eccp);
    for (int a = 0; a < ng; a++)
        for (int b = 0; b < nh; b++)
            if (eccp[a * nh + b] != eccg[a] + ecch[b])
                return VERIFY_ECCENTRICITY;

    int8_t diam_g = max8(eccg, ng), diam_h = max8(ecch, nh);
    int diam = diam_g + diam_h;
    if (max8(eccp, np) != diam)
        return VERIFY_DIAMETER;

    for (int a = 0; a < ng; a++)
        for (int b = 0; b < nh; b++) {
            int p = a * nh + b;
            uint64_t expected = 0, actual = 0;
            for (int c = 0; c < ng; c++) {
                if (dg[a * ng + c] != eccg[a])
                    continue;
                for (int d = 0; d < nh; d++)
                    if (dh[b * nh + d] == ecch[b])
                        expected |= (uint64_t)1 << (c * nh + d);
            }
            for (int q = 0; q < np; q++)
                if (dp[p * np + q] == eccp[p])
                    actual |= (uint64_t)1 << q;
            if (actual != expected)
                return VERIFY_VERTEX_PERIPHERY;
        }

    uint64_t expected = 0, actual = 0;
    for (int c = 0; c < ng; c++) {
        if (eccg[c] != diam_g)
            continue;
        for (int d = 0; d < nh; d++)
            if (ecch[d] == diam_h)
                expected |= (uint64_t)1 << (c * nh + d);
    }
    for (int q = 0; q < np; q++)
        if (eccp[q] == diam)
            actual |= (uint64_t)1 << q;
    if (actual != expected)
        return VERIFY_GRAPH_PERIPHERY;

    int hup = subset_core(dp, np, eccp, (int8_t)diam, &wv, &wu);
    int hg = subset_core(dg, ng, eccg, diam_g, &wv, &wu);
    int hh = subset_core(dh, nh, ecch, diam_h, &wv, &wu);
    return hup == (hg && hh) ? VERIFY_OK : VERIFY_HANGABLE;
}

/* builds the join G + H and checks that it is hangable exactly when it is
 * complete or has at most one universal vertex; ng + nh <= 64 */
int hg_join_verify(const uint64_t *adjg, int ng, const uint64_t *adjh, int nh)
{
    uint64_t adjj[MAXN];
    int8_t dj[MAXN2];
    int nj = ng + nh, universal = 0;
    uint64_t full = low_bits(nj);
    for (int i = 0; i < ng; i++)
        adjj[i] = adjg[i] | shl(low_bits(nh), ng);
    for (int i = 0; i < nh; i++)
        adjj[ng + i] = shl(adjh[i], ng) | low_bits(ng);
    for (int i = 0; i < nj; i++)
        universal += adjj[i] == (full ^ ((uint64_t)1 << i));
    int predicted = universal == nj || universal <= 1;
    apsp_core(adjj, nj, dj);
    return predicted == hangable_core(dj, nj) ? VERIFY_OK : VERIFY_HANGABLE;
}
