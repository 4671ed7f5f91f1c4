"""Pure-Python kernels over bitmask adjacency.

A graph on n vertices is a sequence ``masks`` of n ints where bit j of
``masks[i]`` is set iff ij is an edge.  Distance matrices are flat row-major
sequences of length n*n with -1 for unreachable pairs: ``apsp`` returns a
list, and every function taking a matrix reads any int sequence, the
compiled twin's ``array('h')`` included.  The compiled twin in ``_ckernel``
mirrors the signatures exactly; ``kernels`` picks one of the two at import.

This module has two roles: it is the reference that the tests hold every
compiled answer against, and the backend when no C compiler works or
HANGGRAPH_PURE=1 is set.  It loads at import of ``kernels`` on the pure
backend; on the compiled one, only when ``blocks.biconnected_components``
first runs.  Python ints double as unbounded bitsets, but every call holds
its size to the compiled twin's limits (``_contract.size_error``).  The flag
bits, verifier codes and limits come from ``_contract``, which both backends
share.  ``classify_bits`` and ``classify_masks`` share one body,
``_classify``: the tuple (flags, diameter, radius, |P(G)|, kmin) that the
compiled twin packs into one word; it computes the eccentricities once for
both deciders and takes kmin = 1 from the subset verdict it already has.
kmin reads G's own matrix: ``_subset`` judges each power G^k through a
threshold on G's distances, and no power matrix is built.
``subgraph_counts`` judges each induced subgraph with ``apsp`` and
``_subset``, building no ``Graph``.  ``biconnected_blocks`` has no compiled
twin; it serves ``blocks.biconnected_components`` and
``is_block_graph_masks``.
"""

from __future__ import annotations

from itertools import combinations, compress, repeat
from operator import eq
from typing import Callable, Iterator, Sequence

from ._contract import (F_BLOCK_GRAPH, F_COMPLEMENT_CONNECTED, F_CONNECTED, F_HANGABLE,
                        F_HANGABLE_TRIPLES, F_SELF_CENTERED, F_SELF_COMPLEMENTARY, F_TREE,
                        MAX_CLASSIFY_N, MAX_DISTANCE_N, SELF_COMPLEMENTARY_MAX_N,
                        VERIFY_DIAMETER, VERIFY_DISTANCE, VERIFY_ECCENTRICITY,
                        VERIFY_GRAPH_PERIPHERY, VERIFY_HANGABLE, VERIFY_OK,
                        VERIFY_VERTEX_PERIPHERY, size_error)

# a graph6 data byte and its six bits as text, most significant first
_GRAPH6_BITS = {c + 63: format(c, "06b") for c in range(64)}


def masks_from_bits(n: int, bits: int) -> list[int]:
    """Decode an edge-subset index into adjacency masks.

    Bit k of ``bits`` is the k-th vertex pair in the order
    (0,1), (0,2), ..., (0,n-1), (1,2), ..., (n-2,n-1).
    """
    masks = [0] * n
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (bits >> k) & 1:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
            k += 1
    return masks


def graph6_masks(n: int, body: bytes) -> tuple[int, ...]:
    """Neighbor masks of the n-vertex graph whose graph6 bit field is ``body``.

    The field holds the upper triangle column by column, pairs (0,1), (0,2),
    (1,2), (0,3), ..., six bits per byte, most significant first, each byte
    offset by 63; padding bits are never read.  ``body`` must hold exactly
    ceil(n(n-1)/2 / 6) bytes (else ``ValueError``), each in b"?" .. b"~".
    """
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 bit field of {n} vertices needs {need} bytes, got {len(body)}")
    # bit t of ``bits`` is the t-th bit of the stream
    bits = int("".join([_GRAPH6_BITS[c] for c in body])[::-1] or "0", 2)
    masks = [0] * n
    for j in range(1, n):
        col = bits & ((1 << j) - 1)  # bit i set iff ij is an edge, i < j
        bits >>= j
        masks[j] = col
        while col:
            low = col & -col
            masks[low.bit_length() - 1] |= 1 << j
            col ^= low
    return tuple(masks)


def is_connected_masks(masks: Sequence[int]) -> bool:
    n = len(masks)
    if n > MAX_DISTANCE_N:
        raise size_error("is_connected_masks", n, MAX_DISTANCE_N)
    if n <= 1:
        return True
    seen = frontier = 1
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= masks[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def apsp(masks: Sequence[int]) -> list[int]:
    """All-pairs BFS distances, flat row-major, -1 where unreachable."""
    n = len(masks)
    if n > MAX_DISTANCE_N:
        raise size_error("apsp", n, MAX_DISTANCE_N)
    dist = [-1] * (n * n)
    for s in range(n):
        base = s * n
        dist[base + s] = 0
        seen = frontier = 1 << s
        d = 0
        while frontier:
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                nxt |= masks[low.bit_length() - 1]
                f ^= low
            nxt &= ~seen
            if not nxt:
                break
            d += 1
            f = nxt
            while f:
                low = f & -f
                dist[base + low.bit_length() - 1] = d
                f ^= low
            seen |= nxt
            frontier = nxt
    return dist


def _eccentricities(dist: Sequence[int], n: int) -> list[int]:
    return [max(dist[i * n:(i + 1) * n]) for i in range(n)]


def profile(dist: Sequence[int], n: int) -> tuple[list[int], int, int, list[int], list[int]]:
    """The metric profile of a connected distance matrix.

    Returns (eccentricities, diameter, radius, members, counts): members
    holds every P(v) as ascending vertex ids, P(0) first, then P(1), and so
    on, and counts[v] = |P(v)|.  No Python loop visits the entries: a row
    whose maximum is rare is searched with the sequence's own ``index``, one
    call per member; a row where it is common, by ``compress`` over its
    comparisons with the maximum, which costs less than those calls.
    """
    if not 0 < n <= MAX_DISTANCE_N:
        raise size_error("profile", n, MAX_DISTANCE_N)
    ecc: list[int] = []
    members: list[int] = []
    counts: list[int] = []
    for v in range(n):
        row = dist[v * n:(v + 1) * n]
        e = max(row)
        c = row.count(e)
        if 4 * c > n:
            members += compress(range(n), map(eq, row, repeat(e)))
        else:
            u = -1
            for _ in range(c):
                u = row.index(e, u + 1)
                members.append(u)
        ecc.append(e)
        counts.append(c)
    return ecc, max(ecc), min(ecc), members, counts


def hangable_subset(dist: Sequence[int], n: int) -> tuple[bool, int, int]:
    """Peripheral-containment check on a connected distance matrix.

    Returns (True, -1, -1), or (False, v, u) for the lexicographically first
    pair where u attains v's eccentricity but not the diameter.
    """
    if not 0 < n <= MAX_DISTANCE_N:
        raise size_error("hangable_subset", n, MAX_DISTANCE_N)
    ecc = _eccentricities(dist, n)
    return _subset(dist, n, ecc, max(ecc), 1)


def _threshold(e: int, k: int) -> int:
    """The least d with ceil(d/k) = ceil(e/k): e - (e - 1) mod k, and 0 at e = 0."""
    return e - (e - 1) % k if e else 0


def _subset(dist: Sequence[int], n: int, ecc: list[int], diam: int,
            k: int) -> tuple[bool, int, int]:
    """``hangable_subset`` of G^k, given G's matrix, eccentricities and diameter.

    G^k has the distances ceil(d/k), and ceil never decreases, so u is
    farthest from v in G^k iff d(v, u) >= t(ecc[v]), and u lies in P(G^k)
    iff ecc[u] >= t(diam), with t = ``_threshold``; at k = 1, t(e) = e.
    """
    td = _threshold(diam, k)
    for v in range(n):
        base = v * n
        tv = _threshold(ecc[v], k)
        for u in range(n):
            if dist[base + u] >= tv and ecc[u] < td:
                return (False, v, u)
    return (True, -1, -1)


def subgraph_counts(masks: Sequence[int], k: int,
                    emit: Callable[[tuple[int, ...]], object] | None = None) -> tuple[int, int]:
    """(connected, hangable) over the k-subsets of the vertices of ``masks``:
    how many subsets induce a connected subgraph, and how many of those a
    hangable one.  The subsets are walked in lexicographic order, the order
    of ``itertools.combinations``; ``emit``, when given, gets each hangable
    subset's ascending vertex ids as a tuple, in that order.  Raises
    ``ValueError`` unless 1 <= k <= min(n, ``MAX_DISTANCE_N``)."""
    n = len(masks)
    if not 1 <= k <= min(n, MAX_DISTANCE_N):
        raise size_error("subgraph_counts", k, min(n, MAX_DISTANCE_N))
    connected = hangable = 0
    for ids in combinations(range(n), k):
        bit = {v: 1 << i for i, v in enumerate(ids)}  # host vertex -> its bit in the subset
        keep = sum([1 << v for v in ids])
        sub = []
        for v in ids:
            old, new = masks[v] & keep, 0
            while old:
                low = old & -old
                new |= bit[low.bit_length() - 1]
                old ^= low
            sub.append(new)
        if not is_connected_masks(sub):
            continue
        connected += 1
        dist = apsp(sub)
        ecc = _eccentricities(dist, k)
        if _subset(dist, k, ecc, max(ecc), 1)[0]:
            hangable += 1
            if emit is not None:
                emit(ids)
    return connected, hangable


def hangable_triples(dist: Sequence[int], n: int) -> tuple[bool, int, int, int]:
    """Farthest-of-farthest check on a connected distance matrix.

    A violation is a triple (v, u, w) with u farthest from v, w farthest from
    u, and d(u, w) below the diameter.  Returns (True, -1, -1, -1), or
    (False, v, u, w) for the lexicographically first violating triple.
    """
    if not 0 < n <= MAX_DISTANCE_N:
        raise size_error("hangable_triples", n, MAX_DISTANCE_N)
    ecc = _eccentricities(dist, n)
    return _triples(dist, n, ecc, max(ecc))


def _triples(dist: Sequence[int], n: int, ecc: list[int],
             diam: int) -> tuple[bool, int, int, int]:
    """``hangable_triples`` given the matrix's eccentricities and diameter."""
    for v in range(n):
        base = v * n
        ev = ecc[v]
        for u in range(n):
            if dist[base + u] != ev:
                continue
            eu = ecc[u]
            if eu == diam:
                continue
            ubase = u * n
            for w in range(n):
                if dist[ubase + w] == eu:
                    return (False, v, u, w)
    return (True, -1, -1, -1)


def biconnected_blocks(masks: Sequence[int]) -> Iterator[tuple[set[int], int]]:
    """Biconnected blocks of vertex 0's component, each as it closes.

    Iterative lowpoint DFS with an explicit edge stack (Hopcroft & Tarjan,
    CACM 16(6), 1973), so paths of a hundred thousand vertices never touch
    the recursion limit.  Yields (vertex set, number of edges) per block; an
    edgeless vertex 0 closes none.  The DFS walks neighbor lists built once
    from the masks, which beats peeling mask bits on wide sparse masks.
    """
    n = len(masks)
    if not n:
        return
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, mask in enumerate(masks):
        higher = mask >> u + 1
        while higher:
            lowbit = higher & -higher
            v = u + lowbit.bit_length()
            nbrs[u].append(v)
            nbrs[v].append(u)
            higher ^= lowbit
    disc = [-1] * n
    low = [0] * n
    nexti = [0] * n  # per-vertex cursor into nbrs
    disc[0] = 0
    timer = 1
    estack: list[int] = []  # the edges, each as two entries: tail, head
    stack = [0]
    while stack:
        v = stack[-1]
        i = nexti[v]
        if i < len(nbrs[v]):
            w = nbrs[v][i]
            nexti[v] = i + 1
            if disc[w] == -1:
                disc[w] = low[w] = timer
                timer += 1
                estack += (v, w)
                stack.append(w)
            elif disc[w] < disc[v] and w != stack[-2]:  # back edge; stack[-2] is v's parent
                estack += (v, w)
                if disc[w] < low[v]:
                    low[v] = disc[w]
            continue
        stack.pop()
        if not stack:
            break
        u = stack[-1]
        if low[v] < low[u]:
            low[u] = low[v]
        if low[v] >= disc[u]:
            members: set[int] = set()
            edges = 0
            while True:
                b = estack.pop()
                a = estack.pop()
                members.add(a)
                members.add(b)
                edges += 1
                if a == u and b == v:
                    break
            yield members, edges


def is_block_graph_masks(masks: Sequence[int]) -> bool:
    """True iff every biconnected block is a clique: a block on k vertices
    has k(k-1)/2 edges.  Requires connected input."""
    return all(2 * edges == len(members) * (len(members) - 1)
               for members, edges in biconnected_blocks(masks))


def smallest_power_k(dist: Sequence[int], n: int) -> int:
    """Least k for which the power G^k of a connected graph is hangable; the
    walk ends by k = diameter, where the power is complete."""
    if not 0 < n <= MAX_DISTANCE_N:
        raise size_error("smallest_power_k", n, MAX_DISTANCE_N)
    ecc = _eccentricities(dist, n)
    return _kmin(dist, n, ecc, max(ecc), 1)


def _kmin(dist: Sequence[int], n: int, ecc: list[int], diam: int, k: int) -> int:
    """The least j >= k with G^j hangable."""
    while k < diam and not _subset(dist, n, ecc, diam, k)[0]:
        k += 1
    return k


def _classify(masks: Sequence[int], m: int) -> tuple[int, int, int, int, int]:
    """(flags, diameter, radius, |P(G)|, kmin) of the graph ``masks`` with m
    edges; the last four are -1 when it is disconnected (flags then 0)."""
    n = len(masks)
    if not is_connected_masks(masks):
        return (0, -1, -1, -1, -1)
    dist = apsp(masks)
    ecc = _eccentricities(dist, n)
    diam = max(ecc)
    radius = min(ecc)
    flags = F_CONNECTED
    hangable = _subset(dist, n, ecc, diam, 1)[0]
    if hangable:
        flags |= F_HANGABLE
    if _triples(dist, n, ecc, diam)[0]:
        flags |= F_HANGABLE_TRIPLES
    if radius == diam:
        flags |= F_SELF_CENTERED
    if is_block_graph_masks(masks):
        flags |= F_BLOCK_GRAPH
    if m == n - 1:
        flags |= F_TREE
    kmin = 1 if hangable else _kmin(dist, n, ecc, diam, 2)
    return (flags, diam, radius, ecc.count(diam), kmin)


def classify_bits(n: int, bits: int) -> tuple[int, int, int, int]:
    """One-shot classification of the edge subset ``bits`` on n vertices.

    Returns (flags, diameter, radius, smallest_hangable_power); the last three
    are -1 when the graph is disconnected (flags then carries no other bits).
    Raises ``ValueError`` past ``MAX_CLASSIFY_N`` vertices, where the index
    no longer fits the compiled twin's word.
    """
    if not 1 <= n <= MAX_CLASSIFY_N:
        raise size_error("classify_bits", n, MAX_CLASSIFY_N)
    flags, diam, radius, _, kmin = _classify(masks_from_bits(n, bits), bits.bit_count())
    return (flags, diam, radius, kmin)


def _self_complementary(masks: Sequence[int], co: Sequence[int]) -> bool:
    """True iff the graph ``masks`` is isomorphic to its complement ``co``.

    Backtracking: vertices 0..n-1 are mapped in order, each to an unused
    complement vertex of the same degree whose adjacency to the vertices
    already mapped agrees.
    """
    n = len(masks)
    image = [0] * n

    def extend(v: int, used: int) -> bool:
        if v == n:
            return True
        mv = masks[v]
        for w, cw in enumerate(co):
            if (not used & (1 << w) and cw.bit_count() == mv.bit_count()
                    and all((mv >> u & 1) == (cw >> image[u] & 1) for u in range(v))):
                image[v] = w
                if extend(v + 1, used | 1 << w):
                    return True
        return False

    return extend(0, 0)


def classify_masks(masks: Sequence[int]) -> tuple[int, int, int, int, int, int,
                                                  list[int] | None]:
    """The classify fields of the graph ``masks``, and its complement's matrix.

    Returns (flags, m, diameter, radius, |P(G)|, smallest_hangable_power,
    complement distances): ``classify_bits``' flags and fields plus the edge
    count m and |P(G)|, -1 in the four metric fields when the graph is
    disconnected.  Flags carry F_COMPLEMENT_CONNECTED when the complement is
    connected, and then the last item is its flat distance matrix, else
    None; and F_SELF_COMPLEMENTARY when n <= SELF_COMPLEMENTARY_MAX_N and the
    graph is isomorphic to its complement.
    """
    n = len(masks)
    if not 0 < n <= MAX_DISTANCE_N:
        raise size_error("classify_masks", n, MAX_DISTANCE_N)
    full = (1 << n) - 1
    co = [full ^ 1 << v ^ mask for v, mask in enumerate(masks)]
    m = sum(mask.bit_count() for mask in masks) // 2
    flags, diam, radius, periphery, kmin = _classify(masks, m)
    if n <= SELF_COMPLEMENTARY_MAX_N and 4 * m == n * (n - 1) and _self_complementary(masks, co):
        flags |= F_SELF_COMPLEMENTARY
    co_dist = None
    if is_connected_masks(co):
        flags |= F_COMPLEMENT_CONNECTED
        co_dist = apsp(co)
    return (flags, m, diam, radius, periphery, kmin, co_dist)


def _corona_masks(masks_g: Sequence[int], masks_h: Sequence[int]) -> list[int]:
    ng = len(masks_g)
    nh = len(masks_h)
    out = list(masks_g)
    hfull = (1 << nh) - 1
    for v in range(ng):
        off = ng + v * nh
        out[v] |= hfull << off
        for x in range(nh):
            out.append((1 << v) | (masks_h[x] << off))
    return out


def corona_verify(masks_g: Sequence[int], dist_g: Sequence[int],
                  masks_h: Sequence[int]) -> int:
    """BFS on the corona versus its closed forms; 0 iff every statement holds.

    Requires the base graph connected with at least 2 vertices.  Vertex v of
    the base keeps id v; copy x attached to v gets id ng + v*nh + x.  Checked
    in order: pairwise distances (including copies sharing a base), diameter,
    every vertex periphery, the graph periphery, and agreement of the two
    hangability verdicts (corona versus base).
    """
    ng = len(masks_g)
    nh = len(masks_h)
    nc = ng * (1 + nh)
    if not 0 < nc <= MAX_DISTANCE_N:
        raise size_error("corona_verify", nc, MAX_DISTANCE_N)
    cmasks = _corona_masks(masks_g, masks_h)
    dist_c = apsp(cmasks)

    def cid(v: int, x: int) -> int:
        return ng + v * nh + x

    diam_g = max(dist_g)
    for u in range(ng):
        for v in range(ng):
            duv = dist_g[u * ng + v]
            if dist_c[u * nc + v] != duv:
                return VERIFY_DISTANCE
            for y in range(nh):
                if dist_c[u * nc + cid(v, y)] != duv + 1:
                    return VERIFY_DISTANCE
            for x in range(nh):
                for y in range(nh):
                    got = dist_c[cid(u, x) * nc + cid(v, y)]
                    if u != v:
                        want = duv + 2
                    elif x == y:
                        want = 0
                    elif (masks_h[x] >> y) & 1:
                        want = 1
                    else:
                        want = 2
                    if got != want:
                        return VERIFY_DISTANCE

    ecc_c = _eccentricities(dist_c, nc)
    diam_c = max(ecc_c)
    if diam_c != diam_g + 2:
        return VERIFY_DIAMETER

    ecc_g = _eccentricities(dist_g, ng)
    pg = [v for v in range(ng) if ecc_g[v] == diam_g]

    # every product vertex with base u has periphery P_G(u) x V_H
    for p in range(nc):
        u = p if p < ng else (p - ng) // nh
        expected = {cid(v, y)
                    for v in range(ng) if dist_g[u * ng + v] == ecc_g[u]
                    for y in range(nh)}
        actual = {q for q in range(nc) if dist_c[p * nc + q] == ecc_c[p]}
        if actual != expected:
            return VERIFY_VERTEX_PERIPHERY

    expected_gp = {cid(v, y) for v in pg for y in range(nh)}
    actual_gp = {q for q in range(nc) if ecc_c[q] == diam_c}
    if actual_gp != expected_gp:
        return VERIFY_GRAPH_PERIPHERY

    if hangable_subset(dist_c, nc)[0] != hangable_subset(dist_g, ng)[0]:
        return VERIFY_HANGABLE
    return VERIFY_OK


def _cartesian_masks(masks_g: Sequence[int], masks_h: Sequence[int]) -> list[int]:
    ng = len(masks_g)
    nh = len(masks_h)
    spread = []
    for a in range(ng):
        s = 0
        f = masks_g[a]
        while f:
            low = f & -f
            s |= 1 << ((low.bit_length() - 1) * nh)
            f ^= low
        spread.append(s)
    out = []
    for a in range(ng):
        for b in range(nh):
            out.append((masks_h[b] << (a * nh)) | (spread[a] << b))
    return out


def cartesian_verify(masks_g: Sequence[int], dist_g: Sequence[int],
                     masks_h: Sequence[int], dist_h: Sequence[int]) -> int:
    """BFS on the box product versus its closed forms; 0 iff all hold.

    Both factors must be connected.  Vertex (a, b) gets id a*nh + b.  Checked
    in order: distance sums, eccentricity sums, diameter sum, vertex
    peripheries as products, graph periphery as a product, and the
    hangability biconditional (product hangable iff both factors are).
    """
    ng = len(masks_g)
    nh = len(masks_h)
    np_ = ng * nh
    if not 0 < np_ <= MAX_DISTANCE_N:
        raise size_error("cartesian_verify", np_, MAX_DISTANCE_N)
    pmasks = _cartesian_masks(masks_g, masks_h)
    dist_p = apsp(pmasks)

    for a in range(ng):
        for b in range(nh):
            p = a * nh + b
            for c in range(ng):
                dac = dist_g[a * ng + c]
                for d in range(nh):
                    if dist_p[p * np_ + c * nh + d] != dac + dist_h[b * nh + d]:
                        return VERIFY_DISTANCE

    ecc_g = _eccentricities(dist_g, ng)
    ecc_h = _eccentricities(dist_h, nh)
    ecc_p = _eccentricities(dist_p, np_)
    for a in range(ng):
        for b in range(nh):
            if ecc_p[a * nh + b] != ecc_g[a] + ecc_h[b]:
                return VERIFY_ECCENTRICITY

    diam_g = max(ecc_g)
    diam_h = max(ecc_h)
    if max(ecc_p) != diam_g + diam_h:
        return VERIFY_DIAMETER

    for a in range(ng):
        pga = {c for c in range(ng) if dist_g[a * ng + c] == ecc_g[a]}
        for b in range(nh):
            phb = {d for d in range(nh) if dist_h[b * nh + d] == ecc_h[b]}
            p = a * nh + b
            expected = {c * nh + d for c in pga for d in phb}
            actual = {q for q in range(np_)
                      if dist_p[p * np_ + q] == ecc_p[p]}
            if actual != expected:
                return VERIFY_VERTEX_PERIPHERY

    expected_gp = {c * nh + d
                   for c in range(ng) if ecc_g[c] == diam_g
                   for d in range(nh) if ecc_h[d] == diam_h}
    actual_gp = {q for q in range(np_) if ecc_p[q] == diam_g + diam_h}
    if actual_gp != expected_gp:
        return VERIFY_GRAPH_PERIPHERY

    both = hangable_subset(dist_g, ng)[0] and hangable_subset(dist_h, nh)[0]
    if hangable_subset(dist_p, np_)[0] != both:
        return VERIFY_HANGABLE
    return VERIFY_OK


def join_verify(masks_g: Sequence[int], masks_h: Sequence[int]) -> int:
    """Join hangability rule versus brute force; 0 iff they agree.

    The rule: the join is hangable iff it is complete or has at most one
    universal vertex.  Both factors must be nonempty: then the join is
    connected even when a factor is not.  ``join_verify([], P2+K1)``, whose
    join is disconnected, reports a mismatch on both backends.
    """
    ng = len(masks_g)
    nh = len(masks_h)
    nj = ng + nh
    if not 0 < nj <= MAX_DISTANCE_N:
        raise size_error("join_verify", nj, MAX_DISTANCE_N)
    gfull = (1 << ng) - 1
    hfull = (1 << nh) - 1
    jmasks = [masks_g[v] | (hfull << ng) for v in range(ng)]
    jmasks += [(masks_h[x] << ng) | gfull for x in range(nh)]
    full = (1 << nj) - 1
    universal = sum(1 for i in range(nj) if jmasks[i] == full ^ (1 << i))
    complete = universal == nj
    predicted = complete or universal <= 1
    actual = hangable_subset(apsp(jmasks), nj)[0]
    return VERIFY_OK if predicted == actual else VERIFY_HANGABLE
