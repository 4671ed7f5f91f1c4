"""Kernel backends against each other and against the public routes.

Three layers are kept honest here: the pure-Python kernel, the compiled
kernel (when built), and the public API, which goes through plain
adjacency-list BFS and explicit graph constructions rather than the kernels'
bit tricks.  Any two of them disagreeing is a bug somewhere.  The last
section checks the compiled kernel's loader in fresh interpreters: one build
per cache however many processes import at once, a stated reason whenever
the pure backend is in use, and one compiler run for a failing compile.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
from array import array
from functools import cache
from itertools import chain
from pathlib import Path

import pytest

from hanggraph import _pykernel as pyk
from hanggraph import (
    Graph,
    Graph6Error,
    all_pairs_distances,
    bfs_distances,
    check_hangable,
    check_hangable_triples,
    from_graph6,
    is_connected,
    kernels,
    power,
    smallest_hangable_power,
    to_graph6,
)
from hanggraph.corpus import (
    graph_from_bits,
    iter_graphs,
    pair_count,
    random_connected_graph,
)
from hanggraph.generators import complete, cycle, path
from hanggraph.graph import disjoint_union

try:
    from hanggraph import _ckernel as ck
except ImportError:
    ck = None

compiled = pytest.mark.skipif(ck is None or kernels.BACKEND != "compiled",
                              reason="compiled kernel not built or not selected")

# fig H flat distances, for pinpoint kernel-level goldens
FIG_H_MASKS = [0b1010, 0b1101, 0b1010, 0b0111]
FIG_H_DIST = [0, 1, 2, 1, 1, 0, 1, 1, 2, 1, 0, 1, 1, 1, 1, 0]


def bits_from_masks(masks):
    """Inverse of ``masks_from_bits``: the edge-subset index of ``masks``."""
    n = len(masks)
    bits = 0
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (masks[i] >> j) & 1:
                bits |= 1 << k
            k += 1
    return bits


def all_bits(n):
    return range(1 << pair_count(n))


def rand_masks(rng, n, p):
    masks = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


# --- pure kernel against the public slow path ----------------------------------


def test_pure_apsp_matches_bfs_rows():
    for g in iter_graphs(5, connected_only=True):
        flat = pyk.apsp(g.masks)
        for v in range(g.n):
            assert tuple(flat[v * g.n : (v + 1) * g.n]) == bfs_distances(g, v)


def test_pure_connectivity_matches_public():
    for g in iter_graphs(5):
        assert pyk.is_connected_masks(g.masks) == is_connected(g)


def test_pure_block_matches_public(block_graph_reference):
    for g in iter_graphs(5, connected_only=True):
        assert pyk.is_block_graph_masks(g.masks) == block_graph_reference(g)


def test_pure_kmin_matches_explicit_powers():
    # the kernel shortcuts through the distance transform; the public route
    # builds each power graph and runs the checker on it
    for g in iter_graphs(5, connected_only=True):
        flat = pyk.apsp(g.masks)
        k_kernel = pyk.smallest_power_k(flat, g.n)
        k_public = smallest_hangable_power(g)
        assert k_kernel == k_public
        if k_public > 1:
            assert not check_hangable(g).hangable
            assert check_hangable(power(g, k_public)).hangable
            assert not check_hangable(power(g, k_public - 1)).hangable


def test_pure_hangable_fig_h_goldens():
    ok, v, u = pyk.hangable_subset(FIG_H_DIST, 4)
    assert (ok, v, u) == (False, 1, 3)
    assert pyk.hangable_triples(FIG_H_DIST, 4) == (False, 1, 3, 0)


def test_masks_round_trip():
    for n in range(6):
        for bits in all_bits(n):
            masks = pyk.masks_from_bits(n, bits)
            assert bits_from_masks(masks) == bits


def test_classify_bits_flags_consistent():
    for bits in all_bits(5):
        flags, diam, radius, kmin = pyk.classify_bits(5, bits)
        if not flags & pyk.F_CONNECTED:
            assert (diam, radius, kmin) == (-1, -1, -1)
            continue
        assert bool(flags & pyk.F_HANGABLE) == bool(flags & pyk.F_HANGABLE_TRIPLES)
        assert (flags & pyk.F_SELF_CENTERED != 0) == (radius == diam)
        if flags & pyk.F_TREE:
            assert flags & pyk.F_BLOCK_GRAPH
        if flags & pyk.F_BLOCK_GRAPH:
            assert flags & pyk.F_HANGABLE
        assert (kmin == 1) == bool(flags & pyk.F_HANGABLE)
        assert kmin <= max(diam, 1)


# --- compiled against pure -------------------------------------------------------


@compiled
def test_backends_agree_exhaustive_n5():
    for n in range(1, 6):
        for bits in all_bits(n):
            assert pyk.classify_bits(n, bits) == ck.classify_bits(n, bits)
    for kernel in (pyk, ck):  # a graph with no vertices has no metrics
        with pytest.raises(ValueError):
            kernel.classify_bits(0, 0)
        # past 11 vertices the edge index no longer fits the compiled word
        assert kernel.classify_bits(11, 1 << 54)[0] == 0
        with pytest.raises(ValueError):
            kernel.classify_bits(12, 1)


def classify_masks_lists(kernel, masks):
    """``kernel.classify_masks`` with the complement's matrix as a list."""
    *fields, co_dist = kernel.classify_masks(masks)
    return (*fields, None if co_dist is None else list(co_dist))


@compiled
def test_backends_agree_classify_masks_exhaustive_n5(self_complementary_reference):
    complement_flags = pyk.F_COMPLEMENT_CONNECTED | pyk.F_SELF_COMPLEMENTARY
    for n in range(1, 6):
        full = (1 << n) - 1
        for bits in all_bits(n):
            masks = pyk.masks_from_bits(n, bits)
            result = classify_masks_lists(ck, masks)
            assert result == classify_masks_lists(pyk, masks)
            flags, m, diam, radius, periphery, kmin, co_dist = result
            # classify_bits' word is part of classify_masks'
            assert (flags & ~complement_flags, diam, radius, kmin) == ck.classify_bits(n, bits)
            assert m == bits.bit_count()
            assert (bool(flags & pyk.F_SELF_COMPLEMENTARY)
                    == self_complementary_reference(Graph(n, tuple(masks))))
            co = [full ^ 1 << v ^ mask for v, mask in enumerate(masks)]
            if pyk.is_connected_masks(co):
                assert flags & pyk.F_COMPLEMENT_CONNECTED and co_dist == pyk.apsp(co)
            else:
                assert not flags & pyk.F_COMPLEMENT_CONNECTED and co_dist is None
            if flags & pyk.F_CONNECTED:
                dist = pyk.apsp(masks)
                ecc = [max(dist[v * n:(v + 1) * n]) for v in range(n)]
                assert periphery == ecc.count(diam)
    for kernel in (pyk, ck):  # a graph with no vertices has no metrics
        with pytest.raises(ValueError):
            kernel.classify_masks([])


# the data byte that holds six stream bits, the first of them the most significant
_REVERSED6 = [int(format(c, "06b")[::-1], 2) for c in range(64)]


@cache
def graph6_pairs(n):
    return [(i, j) for j in range(1, n) for i in range(j)]


def graph6_case(n, bits):
    """(body, masks) of the n-vertex graph whose graph6 stream is ``bits``,
    bit t for the t-th pair (0,1), (0,2), (1,2), (0,3), ..., straight off the
    format description."""
    pairs = graph6_pairs(n)
    masks = [0] * n
    rest = bits
    while rest:
        low = rest & -rest
        i, j = pairs[low.bit_length() - 1]
        masks[i] |= 1 << j
        masks[j] |= 1 << i
        rest ^= low
    body = bytes(63 + _REVERSED6[bits >> 6 * k & 63] for k in range((len(pairs) + 5) // 6))
    return body, tuple(masks)


def self_complementary_flag(kernel, g):
    return bool(kernel.classify_masks(g.masks)[0] & pyk.F_SELF_COMPLEMENTARY)


@compiled
def test_backends_agree_self_complementary(self_complementary_reference,
                                           n8_self_complementary_cases):
    # the exhaustive test above covers both backends on every graph to n = 5;
    # here the compiled kernel takes every labeled graph on 6 vertices (15
    # pairs, so none is self-complementary) and the pure twin, at about 70 us
    # a graph, a seeded sample of them
    for bits in all_bits(6):
        masks = graph6_case(6, bits)[1]
        flags, m = ck.classify_masks(masks)[:2]
        assert m == bits.bit_count()
        assert bool(flags & pyk.F_SELF_COMPLEMENTARY) == self_complementary_reference(Graph(6, masks))
    for bits in random.Random(59).sample(all_bits(6), 300):
        masks = graph6_case(6, bits)[1]
        assert pyk.classify_masks(masks)[:2] == ck.classify_masks(masks)[:2]
    positives, matched = n8_self_complementary_cases
    for g in positives + matched:
        want = self_complementary_reference(g)
        assert self_complementary_flag(ck, g) == self_complementary_flag(pyk, g) == want, g
    assert all(self_complementary_reference(g) for g in positives)
    # past SELF_COMPLEMENTARY_MAX_N the search is not run: K_3 x K_3, the
    # Paley graph on 9 vertices, is self-complementary, and neither kernel says so
    rook = Graph(9, tuple(sum(1 << u for u in range(9)
                              if u != v and (u // 3 == v // 3 or u % 3 == v % 3))
                          for v in range(9)))
    assert not self_complementary_flag(ck, rook) and not self_complementary_flag(pyk, rook)


@compiled
def test_backends_agree_classify_masks_random():
    # one word per mask up to 64 vertices, two past it
    rng = random.Random(37)
    graphs = [rand_masks(rng, rng.randint(7, 64), p)
              for p in (0.03, 0.1, 0.3, 0.5, 0.8, 0.97) for _ in range(8)]
    graphs += [random_connected_graph(n, rng, p).masks for n, p in ((64, 0.0), (64, 0.05))]
    graphs += [rand_masks(rng, n, p) for n, p in ((70, 0.04), (100, 0.5), (128, 0.98))]
    graphs += [random_connected_graph(n, rng, p).masks
               for n, p in ((65, 0.0), (90, 0.02), (110, 0.97), (128, 0.1))]
    kinds = set()
    for masks in graphs:
        result = classify_masks_lists(ck, masks)
        assert result == classify_masks_lists(pyk, masks)
        kinds.add((len(masks) > 64, result[0] & (pyk.F_CONNECTED | pyk.F_COMPLEMENT_CONNECTED)))
    # disconnected, connected with a disconnected complement, and both
    # connected, each at one and at two words per mask
    assert len(kinds) == 6, kinds


def past_128_graphs(seed):
    """Seeded graphs of 129-300 vertices, sparse and dense, connected or not,
    with masks of three to five words; the last has a universal vertex, so
    its complement is disconnected."""
    rng = random.Random(seed)
    graphs = [random_connected_graph(n, rng, p).masks
              for n, p in ((129, 0.0), (192, 0.01), (256, 0.95), (300, 0.003))]
    graphs += [rand_masks(rng, n, p) for n, p in ((150, 0.01), (257, 0.5))]
    hub = random_connected_graph(200, rng, 0.02).masks
    graphs.append([(1 << 200) - 2] + [mask | 1 for mask in hub[1:]])
    return graphs


def watch_pure(monkeypatch):
    """Record every call of a ``_pykernel`` function from now on."""
    calls = []
    for name, fn in vars(pyk).items():
        if callable(fn) and getattr(fn, "__module__", None) == pyk.__name__:
            monkeypatch.setattr(pyk, name, lambda *a, _name=name, _fn=fn: calls.append(_name) or _fn(*a))
    return calls


@compiled
def test_backends_agree_classify_masks_past_128(monkeypatch):
    # C answers past 128 vertices itself, with no call to the pure twin
    graphs = past_128_graphs(41)
    want = [classify_masks_lists(pyk, masks) for masks in graphs]
    pure_calls = watch_pure(monkeypatch)
    assert [classify_masks_lists(ck, masks) for masks in graphs] == want
    assert {w[0] & (pyk.F_CONNECTED | pyk.F_COMPLEMENT_CONNECTED) for w in want} == {
        pyk.F_CONNECTED, pyk.F_COMPLEMENT_CONNECTED, pyk.F_CONNECTED | pyk.F_COMPLEMENT_CONNECTED}
    assert pure_calls == []


@compiled
def test_backends_agree_graph6_masks():
    cases = [graph6_case(n, bits) for n in range(7) for bits in all_bits(n)]
    rng = random.Random(53)
    for n in chain(range(7, 24), (31, 32, 62, 63, 64, 65, 90, 127, 128)):
        pairs = n * (n - 1) // 2
        sparse = rng.getrandbits(pairs) & rng.getrandbits(pairs) & rng.getrandbits(pairs)
        for bits in (sparse, rng.getrandbits(pairs), ~sparse & (1 << pairs) - 1):
            cases.append(graph6_case(n, bits))
    for body, masks in cases:
        n = len(masks)
        assert ck.graph6_masks(n, body) == pyk.graph6_masks(n, body) == masks, (n, body)
    # nonzero padding bits are never read
    assert ck.graph6_masks(2, b"~") == pyk.graph6_masks(2, b"~") == (2, 1)
    for decode in (ck.graph6_masks, pyk.graph6_masks):  # a body of the wrong length never reaches C
        for n, body in ((4, b"??"), (4, b""), (7, b"???"), (1, b"?")):
            with pytest.raises(ValueError):
                decode(n, body)


@compiled
def test_backends_agree_graph6_masks_past_128(monkeypatch):
    rng = random.Random(53)
    cases = [graph6_case(n, rng.getrandbits(n * (n - 1) // 2)) for n in (129, 191, 192, 193, 300)]
    cases += [graph6_case(len(masks), bits_of_graph6_stream(masks)) for masks in past_128_graphs(53)]
    want = [pyk.graph6_masks(len(masks), body) for body, masks in cases]
    pure_calls = watch_pure(monkeypatch)
    assert [ck.graph6_masks(len(masks), body) for body, masks in cases] == want
    assert want == [masks for _, masks in cases]
    assert pure_calls == []


def bits_of_graph6_stream(masks):
    """The graph6 stream of ``masks``: bit t for the t-th pair (0,1), (0,2), (1,2), ..."""
    return sum(1 << t for t, (i, j) in enumerate(graph6_pairs(len(masks))) if masks[i] >> j & 1)


@compiled
def test_backends_agree_graph6_errors(monkeypatch):
    # every byte of a line broken in turn gives the same error on both
    # backends: the checks run before the kernel's decoder
    small = Graph(10, graph6_case(10, 0x155555555555)[1])
    large = path(70)  # a four-byte size header
    bad_bytes = (">", "!", "\x7f", "\x00", "\udcff", "\u00e9")
    for kernel in (ck, pyk):
        monkeypatch.setattr(kernels, "graph6_masks", kernel.graph6_masks)
        for g, header in ((small, 1), (large, 4)):
            line = to_graph6(g)
            assert from_graph6(line) == g
            for pos in range(1, len(line)):
                for bad in bad_bytes:
                    broken = line[:pos] + bad + line[pos + 1:]
                    where = "size header" if pos < header else "bit field"
                    # offsets count from the start of the string as given
                    for prefix in ("", ">>graph6<<", "   "):
                        at = pos + len(prefix)
                        want = f"invalid byte {bad!r} in {where} (byte offset {at})"
                        with pytest.raises(Graph6Error) as exc:
                            from_graph6(prefix + broken)
                        assert (str(exc.value), exc.value.offset) == (want, at)
            with pytest.raises(Graph6Error) as exc:
                from_graph6(">" + line[1:])
            assert str(exc.value) == "invalid leading byte '>' (byte offset 0)"
            # the first of two bad bytes is the one reported
            with pytest.raises(Graph6Error) as exc:
                from_graph6(line[:5] + "!" + line[6:-1] + "\x7f")
            assert str(exc.value) == "invalid byte '!' in bit field (byte offset 5)"


@compiled
def test_backends_agree_random_shapes():
    rng = random.Random(3)
    # the large shapes put witness ids past 15 into both packed layouts
    sizes = chain((rng.randint(1, 16) for _ in range(400)), (33, 48, 64) * 12)
    high_witnesses = 0
    for n in sizes:
        masks = rand_masks(rng, n, rng.choice([0.2, 0.5, 0.8]))
        assert pyk.is_connected_masks(masks) == ck.is_connected_masks(masks)
        da, db = pyk.apsp(masks), ck.apsp(masks)
        assert da == list(db)
        if not pyk.is_connected_masks(masks):
            continue
        subset, triples = pyk.hangable_subset(da, n), pyk.hangable_triples(da, n)
        kmin = pyk.smallest_power_k(da, n)
        # the compiled kernels take their own array and the pure list alike
        for dist in (db, da):
            assert ck.hangable_subset(dist, n) == subset
            assert ck.hangable_triples(dist, n) == triples
            assert ck.smallest_power_k(dist, n) == kmin
        high_witnesses += max(triples[1:]) > 15
        assert pyk.is_block_graph_masks(masks) == ck.is_block_graph_masks(masks)
    assert high_witnesses > 0
    for kernel in (pyk, ck):  # a graph with no vertices has no metrics
        for decide in (kernel.hangable_subset, kernel.hangable_triples,
                       kernel.smallest_power_k):
            with pytest.raises(ValueError):
                decide([], 0)


def smallest_power_reference(dist, n):
    """kmin by the route the kernels no longer take: the first k whose
    explicit ceil(d/k) matrix ``hangable_subset`` accepts."""
    k = 1
    while not pyk.hangable_subset([-(-d // k) for d in dist], n)[0]:
        k += 1
    return k


@compiled
def test_backends_agree_smallest_power_reference(one_labeling_per_class):
    # both kernels judge G^k through a threshold on G's own matrix; here each
    # power's matrix is built and judged instead
    rng = random.Random(41)
    graphs = [g for n in range(1, 6) for g in iter_graphs(n, connected_only=True)]
    graphs += [g for g in one_labeling_per_class(6) if is_connected(g)]
    graphs += [random_connected_graph(rng.randint(7, 128), rng,
                                      rng.choice([0.005, 0.02, 0.05, 0.2]))
               for _ in range(120)]
    graphs.append(path(129))
    seen = set()
    for g in graphs:
        dist = pyk.apsp(g.masks)
        k = smallest_power_reference(dist, g.n)
        assert pyk.smallest_power_k(dist, g.n) == k
        assert ck.smallest_power_k(dist, g.n) == k
        seen.add(k)
    assert seen >= {1, 2, 3, 4, 5}, seen


@compiled
def test_backends_agree_product_verifiers():
    rng = random.Random(23)
    for _ in range(150):
        ng, nh = rng.randint(2, 5), rng.randint(1, 4)
        mg = random_connected_graph(ng, rng).masks
        mh = rand_masks(rng, nh, rng.choice([0.0, 0.5, 1.0]))
        mh2 = random_connected_graph(rng.randint(1, 5), rng).masks
        dg, dh2 = pyk.apsp(mg), pyk.apsp(mh2)
        corona = pyk.corona_verify(mg, dg, mh)
        cartesian = pyk.cartesian_verify(mg, dg, mh2, dh2)
        # the compiled verifiers take their own arrays and the pure lists alike
        for dist_g, dist_h in ((ck.apsp(mg), ck.apsp(mh2)), (dg, dh2)):
            assert ck.corona_verify(mg, dist_g, mh) == corona
            assert ck.cartesian_verify(mg, dist_g, mh2, dist_h) == cartesian
        assert pyk.join_verify(mg, mh) == ck.join_verify(mg, mh)
    for kernel in (pyk, ck):  # products with no vertices have no metrics
        with pytest.raises(ValueError):
            kernel.corona_verify([], [], [0])
        with pytest.raises(ValueError):
            kernel.cartesian_verify([], [], [0], [0])
        with pytest.raises(ValueError):
            kernel.join_verify([], [])


def profile_lists(kernel, dist, n):
    """``kernel.profile`` as lists; it returns no more member ids than it uses."""
    ecc, diameter, radius, members, counts = kernel.profile(dist, n)
    assert len(members) == sum(counts)
    return list(ecc), diameter, radius, list(members), list(counts)


@compiled
def test_backends_agree_profile(one_labeling_per_class, profile_reference):
    rng = random.Random(31)
    graphs = [g for n in range(1, 6) for g in iter_graphs(n, connected_only=True)]
    graphs += [g for g in one_labeling_per_class(6) if is_connected(g)]
    # one and two words per mask, each P(v) from a single vertex to most of V
    sizes = (7, 9, 12, 20, 31, 40, 50, 63, 64, 65, 72, 80, 90, 100, 110, 120, 127, 128)
    graphs += [random_connected_graph(n, rng, (0.05, 0.5)[k % 2]) for k, n in enumerate(sizes)]
    graphs += [path(128), complete(128)]
    for g in graphs:
        n = g.n
        da, db = pyk.apsp(g.masks), ck.apsp(g.masks)
        ref = profile_reference([da[v * n:(v + 1) * n] for v in range(n)])
        want = (list(ref.eccentricity), ref.diameter, ref.radius,
                [u for p in ref.vertex_periphery for u in sorted(p)],
                [len(p) for p in ref.vertex_periphery])
        assert profile_lists(pyk, da, n) == want
        # the compiled kernel takes its own array and the pure list alike
        assert profile_lists(ck, db, n) == want
        assert profile_lists(ck, da, n) == want
    for kernel in (pyk, ck):  # a graph with no vertices has no metrics
        with pytest.raises(ValueError):
            kernel.profile([], 0)


@compiled
def test_backends_agree_profile_past_128(monkeypatch):
    # every P(v) from a single vertex to most of V, ids past 255, and
    # path(300)'s diameter of 299, which an int8 matrix could not hold
    graphs = [masks for masks in past_128_graphs(31) if pyk.is_connected_masks(masks)]
    graphs += [path(300).masks, complete(200).masks]
    dists = [pyk.apsp(masks) for masks in graphs]
    want = [profile_lists(pyk, dist, len(masks)) for dist, masks in zip(dists, graphs)]
    assert max(w[1] for w in want) == 299
    pure_calls = watch_pure(monkeypatch)
    assert [profile_lists(ck, ck.apsp(masks), len(masks)) for masks in graphs] == want
    assert [profile_lists(ck, dist, len(masks)) for dist, masks in zip(dists, graphs)] == want
    assert pure_calls == []


def subgraph_answers(kernel, masks, sizes, emit=True):
    """``kernel.subgraph_counts`` at each size k: (k, counts, the hits emitted)."""
    out = []
    for k in sizes:
        hits = []
        out.append((k, kernel.subgraph_counts(masks, k, hits.append if emit else None), hits))
    return out


@compiled
def test_backends_agree_subgraph_counts(monkeypatch, one_labeling_per_class,
                                        subgraph_search_reference):
    from hanggraph.explorer import search_hangable_subgraphs

    rng = random.Random(27)
    hosts = [(g, g.n) for n in range(1, 6) for g in iter_graphs(n)]
    # the fixture's 936 graphs hold every class at n = 6, and these vertex
    # invariants tell all 156 classes apart, so one graph per invariant is
    # one per class
    per_class = {}
    for g in one_labeling_per_class(6):
        m, deg = g.masks, [mask.bit_count() for mask in g.masks]
        nbrs = [[u for u in range(6) if m[v] >> u & 1] for v in range(6)]
        key = sorted((deg[v], tuple(sorted(deg[u] for u in nbrs[v])),  # and v's triangles:
                      sum((m[u] & m[v]).bit_count() for u in nbrs[v])) for v in range(6))
        per_class.setdefault(tuple(key), g)
    assert len(per_class) == 156
    hosts += [(g, 6) for g in per_class.values()]
    hosts += [(random_connected_graph(n, rng, p), 3 + n % 2)
              for n, p in ((8, 0.3), (11, 0.5), (16, 0.2), (24, 0.1))]
    hosts += [(graph_from_bits(10, rng.getrandbits(pair_count(10))), 4)]
    # masks of two and three words; the whole host is also a subset of more
    # than 64 vertices, which takes masks of as many words
    hosts += [(random_connected_graph(n, rng, p), 2) for n, p in ((65, 0.1), (129, 0.05))]
    settings = [(mode, collect) for mode in ("induced", "connected-induced")
                for collect in (False, True)]
    for i, (host, max_vertices) in enumerate(hosts):
        masks, n = host.masks, host.n
        sizes = range(1, max_vertices + 1)
        got = subgraph_answers(ck, masks, sizes)
        assert subgraph_answers(pyk, masks, sizes) == got, host
        if n > 64:
            assert subgraph_answers(ck, masks, (n,)) == subgraph_answers(pyk, masks, (n,))
        # each host in one mode, with or without its graph6 hits, in turn
        mode, collect = settings[i % 4]
        assert search_hangable_subgraphs(host, max_vertices, mode, collect_graph6=collect) == (
            subgraph_search_reference(host, max_vertices, mode, collect)), host

    # a hits buffer of three subsets fills and resumes many times
    monkeypatch.setattr(ck, "HITS", 3)
    host = random_connected_graph(12, rng, 0.3).masks
    assert subgraph_answers(ck, host, range(1, 6)) == subgraph_answers(pyk, host, range(1, 6))
    for kernel in (pyk, ck):
        for k in (0, 13, -1):
            with pytest.raises(ValueError):
                kernel.subgraph_counts(host, k)


@compiled
def test_compiled_rejects_mismatched_distance_length():
    # the length check guards C against reading past the matrix it is given
    mg, mh = FIG_H_MASKS, [0b10, 0b01]
    for dist, n in ((FIG_H_DIST[:-1], 4), (FIG_H_DIST, 3), (FIG_H_DIST + [0], 4),
                    ([], -1), (FIG_H_DIST, -4), ([], 0)):
        with pytest.raises(ValueError):
            ck.hangable_subset(dist, n)
        with pytest.raises(ValueError):
            ck.hangable_triples(dist, n)
        with pytest.raises(ValueError):
            ck.smallest_power_k(dist, n)
        with pytest.raises(ValueError):
            ck.profile(dist, n)
    for dist in (FIG_H_DIST[:-1], FIG_H_DIST + [0], []):
        with pytest.raises(ValueError):
            ck.corona_verify(mg, dist, mh)


RAW_ENTRIES = ("_apsp", "_connected", "_block", "_kmin", "_subset", "_triples", "_profile",
               "_profile_members", "_classify", "_classify_masks", "_graph6", "_corona",
               "_cartesian", "_join", "_subgraphs")


@compiled
def test_compiled_writes_stay_in_their_buffers(monkeypatch):
    # every buffer C writes is a repeat of one of ck._ZERO's zero items; here
    # each comes 64 bytes longer and filled with a sentinel, which C must
    # neither read as data nor overwrite past the size the wrapper asked for
    pad, sentinel = 64, b"\xa5"
    buffers = []

    class Guarded:
        def __init__(self, typecode):
            self.typecode = typecode

        def __mul__(self, count):
            buf = array(self.typecode, sentinel * (array(self.typecode).itemsize * count + pad))
            buffers.append((buf, buf.itemsize * count))
            return buf

    called = set()
    for name in RAW_ENTRIES:
        monkeypatch.setattr(ck, name, lambda *a, _name=name, _fn=getattr(ck, name):
                            called.add(_name) or _fn(*a))
    monkeypatch.setattr(ck, "_ZERO", {code: Guarded(code) for code in ck._ZERO})
    monkeypatch.setattr(ck, "HITS", 5)  # so that the subset walks fill their hits buffers
    rng = random.Random(61)
    for n in (1, 63, 64, 65, 128, 129, 300):
        masks = random_connected_graph(n, rng, 4 / n).masks
        dist = pyk.apsp(masks)
        h = random_connected_graph(n - 1, rng, 0.1).masks if n > 1 else []
        half = random_connected_graph(max(1, n // 2), rng, 0.1).masks
        rest = random_connected_graph(n - len(half), rng, 0.1).masks if n > 1 else []
        body = graph6_case(n, bits_of_graph6_stream(masks))[0]
        # single vertices, whose hits fill the buffer many times, and the
        # whole graph, in one and two words
        subset_sizes = sorted({1, n}) if n <= 65 else (1,)

        def answers(kernel):
            out = [list(kernel.apsp(masks))[:n * n], kernel.is_connected_masks(masks),
                   kernel.is_block_graph_masks(masks), kernel.smallest_power_k(dist, n),
                   kernel.hangable_subset(dist, n), kernel.hangable_triples(dist, n),
                   tuple(kernel.profile(dist, n)[1:3]), kernel.classify_masks(masks)[:6],
                   kernel.graph6_masks(n, body)[:n],
                   kernel.corona_verify([0], [0], h),  # on 1 + (n - 1) vertices
                   kernel.cartesian_verify([0], [0], masks, dist),  # on 1 x n vertices
                   kernel.join_verify(half, rest),  # on n vertices
                   subgraph_answers(kernel, masks, subset_sizes)]
            if n <= pyk.MAX_CLASSIFY_N:
                out.append(kernel.classify_bits(n, 0))
            return out

        want = answers(pyk)
        assert answers(ck) == want, n
        for buf, used in buffers:
            assert buf.tobytes()[used:] == sentinel * pad, (n, buf.typecode, used)
        buffers.clear()
    assert called == set(RAW_ENTRIES)


@compiled
def test_backends_agree_65_to_128():
    # the sizes that take two words per mask: witness ids of 64 and more,
    # path(128) at diameter 127, and K_128, one block of 128 vertices
    rng = random.Random(29)
    connected = [path(128).masks, path(65).masks, complete(128).masks,
                 random_connected_graph(100, rng, 0.5).masks]
    connected += [random_connected_graph(n, rng, p).masks
                  for n in (65, 72, 100, 127, 128) for p in (0.005, 0.02)]
    high_witnesses = [0, 0]
    for masks in connected:
        n = len(masks)
        assert ck.is_connected_masks(masks)
        da, db = pyk.apsp(masks), ck.apsp(masks)
        assert da == list(db)
        subset, triples = pyk.hangable_subset(da, n), pyk.hangable_triples(da, n)
        assert ck.hangable_subset(db, n) == subset
        assert ck.hangable_triples(db, n) == triples
        assert ck.smallest_power_k(db, n) == pyk.smallest_power_k(da, n)
        assert ck.is_block_graph_masks(masks) == pyk.is_block_graph_masks(masks)
        high_witnesses[0] += max(subset[1:]) >= 64
        high_witnesses[1] += max(triples[1:]) >= 64
    assert all(high_witnesses), high_witnesses
    assert max(ck.apsp(path(128).masks)) == 127
    for g in (disjoint_union(path(60), cycle(50)), disjoint_union(cycle(3), path(125))):
        assert not ck.is_connected_masks(g.masks)
        db = ck.apsp(g.masks)
        assert pyk.apsp(g.masks) == list(db) and -1 in db

    # products on 65-128 vertices, and factors that take two words themselves
    for ng, nh in ((5, 13), (8, 15), (2, 63), (100, 0)):
        mg, mh = random_connected_graph(ng, rng).masks, rand_masks(rng, nh, 0.4)
        dg = pyk.apsp(mg)
        assert ck.corona_verify(mg, ck.apsp(mg), mh) == pyk.corona_verify(mg, dg, mh)
    for ng, nh in ((8, 16), (1, 100), (65, 1)):
        mg, mh = random_connected_graph(ng, rng).masks, random_connected_graph(nh, rng).masks
        assert (ck.cartesian_verify(mg, ck.apsp(mg), mh, ck.apsp(mh))
                == pyk.cartesian_verify(mg, pyk.apsp(mg), mh, pyk.apsp(mh)))
    for ng, nh in ((70, 58), (1, 127), (100, 0)):
        for mg in (rand_masks(rng, ng, 0.3), complete(ng).masks):
            mh = rand_masks(rng, nh, 0.3)
            assert ck.join_verify(mg, mh) == pyk.join_verify(mg, mh)


@compiled
def test_backends_agree_past_128(monkeypatch):
    # every other entry point past 128 vertices, answered by C alone:
    # witness ids past 255 and distances past 127 in the packed words
    graphs = past_128_graphs(5) + [path(300).masks, complete(129).masks,
                                   random_connected_graph(300, random.Random(6), 0.003).masks]
    products = [(cycle(5).masks, random_connected_graph(25, random.Random(5)).masks),  # corona on 130
                (path(3).masks, path(60).masks),  # corona on 183, cartesian on 180
                (random_connected_graph(2, random.Random(5)).masks, complete(150).masks)]

    connected = [pyk.is_connected_masks(masks) for masks in graphs]

    def answers(kernel):
        out = []
        for masks, is_connected in zip(graphs, connected):
            n = len(masks)
            dist = kernel.apsp(masks)
            out.append((list(dist), kernel.is_connected_masks(masks)))
            if is_connected:
                out.append((kernel.hangable_subset(dist, n), kernel.hangable_triples(dist, n),
                            kernel.smallest_power_k(dist, n), kernel.is_block_graph_masks(masks)))
        for mg, mh in products:  # every H here is connected
            dg, dh = kernel.apsp(mg), kernel.apsp(mh)
            out.append((kernel.corona_verify(mg, dg, mh), kernel.join_verify(mg, mh),
                        kernel.cartesian_verify(mg, dg, mh, dh)))
        return out

    want = answers(pyk)
    assert max(max(w[0]) for w in want if len(w) == 2 and isinstance(w[0], list)) == 299
    assert any(w[0][0] is False and max(w[0][1:]) > 255 for w in want if len(w) == 4)
    pure_calls = watch_pure(monkeypatch)
    assert answers(ck) == want
    assert pure_calls == []


@compiled
def test_analyze_100_vertices_stays_compiled(monkeypatch, capsys):
    # 100 vertices take two words per mask; nothing may fall back to pure
    from hanggraph.cli import main

    pure_calls = []
    for name, fn in vars(pyk).items():
        if callable(fn) and getattr(fn, "__module__", None) == pyk.__name__:
            monkeypatch.setattr(pyk, name, lambda *a, _name=name, **k: pure_calls.append(_name))
    assert main(["analyze", "grid:10x10", "--format", "structured"]) == 0
    assert '"diameter": 18' in capsys.readouterr().out
    assert pure_calls == []


# --- the selected backend --------------------------------------------------------


KERNEL_NAMES = ("apsp", "is_connected_masks", "hangable_subset", "hangable_triples",
                "is_block_graph_masks", "smallest_power_k", "classify_bits", "classify_masks",
                "graph6_masks", "corona_verify", "cartesian_verify", "join_verify", "profile",
                "subgraph_counts")


def test_wrapper_backend_reported():
    assert kernels.BACKEND in ("pure", "compiled")
    backend = ck if kernels.BACKEND == "compiled" else pyk
    for name in KERNEL_NAMES:
        assert getattr(kernels, name) is getattr(backend, name), name


def test_backends_agree_selected_past_128(monkeypatch):
    # the selected backend answers past 128 vertices, with distances past a
    # signed byte, and on the compiled backend never asks the pure twin
    g = path(300)
    want = (pyk.apsp(g.masks), pyk.hangable_triples(pyk.apsp(g.masks), 300))
    pure_calls = watch_pure(monkeypatch)
    flat = kernels.apsp(g.masks)
    assert (list(flat), kernels.hangable_triples(flat, 300)) == want
    assert flat[299] == 299 and kernels.is_connected_masks(g.masks)
    if kernels.BACKEND == "compiled":
        assert pure_calls == []


def test_wrapper_verify_codes_ok():
    for g in iter_graphs(3, connected_only=True):
        mg = g.masks
        dg = kernels.apsp(mg)
        for h in iter_graphs(2):
            mh = h.masks
            if g.n >= 2:
                assert kernels.corona_verify(mg, dg, mh) == kernels.VERIFY_OK
            if is_connected(h):
                dh = kernels.apsp(mh)
                assert (
                    kernels.cartesian_verify(mg, dg, mh, dh) == kernels.VERIFY_OK
                )
            assert kernels.join_verify(mg, mh) == kernels.VERIFY_OK


def test_public_checkers_route_through_wrapper(fig_h):
    # same witnesses whichever backend is active
    rep = check_hangable(fig_h)
    assert rep.witness == (1, 3)
    rep = check_hangable_triples(fig_h)
    assert rep.triple_witness == (1, 3, 0)


def test_apsp_matches_public_matrix():
    for g in iter_graphs(4, connected_only=True):
        dm = all_pairs_distances(g)
        flat = kernels.apsp(g.masks)
        for u in range(g.n):
            for v in range(g.n):
                assert dm.dist(u, v) == flat[u * g.n + v]


# --- the compiled kernel's loader, in fresh interpreters --------------------------

SRC = str(Path(kernels.__file__).resolve().parent.parent)
SHOW_BACKEND = ("import hanggraph; print(hanggraph.kernel_backend); "
                "print(hanggraph.kernel_backend_reason)")


def child_env(**extra):
    env = {k: v for k, v in os.environ.items() if k != "HANGGRAPH_PURE"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(extra)
    return env


def show_backend(env):
    return subprocess.run([sys.executable, "-c", SHOW_BACKEND], env=env,
                          capture_output=True, text=True, timeout=120)


# the loader runs the first word of $CC (default cc)
CC_PROGRAM = ((os.environ.get("CC") or "cc").split() or ["cc"])[0]


UBSAN = ("-fsanitize=undefined", "-fno-sanitize-recover=all")


def test_backend_agreement_under_ubsan(tmp_path):
    # the agreement tests again, in a child whose kernel is built with every
    # undefined-behaviour check fatal; a probe first shows that the runtime
    # loads under ctypes and aborts on a bad shift
    cc = [*((os.environ.get("CC") or "cc").split() or ["cc"]), *UBSAN]
    probe = tmp_path / "probe.c"
    probe.write_text("int shift(int s) { return 1 << s; }\n")
    lib = tmp_path / "probe.so"
    try:
        built = subprocess.run([*cc, "-shared", "-fPIC", "-o", str(lib), str(probe)],
                               capture_output=True, timeout=120).returncode == 0
    except OSError:
        built = False
    if not built:
        pytest.skip("the C compiler cannot build with -fsanitize=undefined")
    res = subprocess.run([sys.executable, "-c", f"import ctypes; ctypes.CDLL({str(lib)!r}).shift(40)"],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode != 0 and "runtime error" in res.stderr, res.stderr

    cache = tmp_path / "cache"
    # -s: a sanitizer report must reach this stderr before the child aborts
    res = subprocess.run([sys.executable, "-m", "pytest", "-s", "-p", "no:cacheprovider", __file__,
                          "-k", "backends_agree or compiled_rejects or oversized"],
                         env=child_env(CC=" ".join(cc), XDG_CACHE_HOME=str(cache)),
                         capture_output=True, text=True, timeout=300)
    # a silent fallback to the pure kernel would pass without testing C
    assert f"hanggraph kernel: compiled (loaded {cache}" in res.stdout, res.stdout + res.stderr
    assert res.returncode == 0, res.stdout + res.stderr


@pytest.mark.skipif(shutil.which(CC_PROGRAM) is None, reason="no C compiler")
def test_kernel_compiles_without_warnings(tmp_path):
    # a leftover static core, such as an unused decider, fails here as
    # -Wunused-function instead of shipping, and a stack array sized by n
    # as -Wvla
    cc = (os.environ.get("CC") or "cc").split() or ["cc"]
    source = Path(SRC) / "hanggraph" / "hgkernel.c"
    res = subprocess.run([*cc, "-O2", "-Wall", "-Wextra", "-Werror", "-Wvla", "-shared", "-fPIC",
                          "-o", str(tmp_path / "hgkernel.so"), str(source)],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


@pytest.mark.skipif(shutil.which(CC_PROGRAM) is None, reason="no C compiler")
def test_concurrent_first_imports_share_one_build(tmp_path):
    env = child_env(XDG_CACHE_HOME=str(tmp_path))
    procs = [subprocess.Popen([sys.executable, "-c", SHOW_BACKEND], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [out.splitlines()[0] for out, _ in outs] == ["compiled", "compiled"], outs
    cached = list((tmp_path / "hanggraph").iterdir())
    assert len(cached) == 1 and cached[0].suffix == ".so", cached
    assert all(out.splitlines()[1] == f"loaded {cached[0]}" for out, _ in outs)


def test_forced_pure_backend_states_reason(tmp_path):
    res = show_backend(child_env(HANGGRAPH_PURE="1", XDG_CACHE_HOME=str(tmp_path)))
    assert res.stdout.splitlines() == ["pure", "HANGGRAPH_PURE=1"], res.stderr
    assert res.stderr == ""  # a requested fallback is not warned about
    assert not (tmp_path / "hanggraph").exists()  # and no build was tried


def test_missing_compiler_falls_back_with_warning(tmp_path):
    cc = str(tmp_path / "no-such-cc")
    res = show_backend(child_env(CC=cc, XDG_CACHE_HOME=str(tmp_path)))
    assert res.stdout.splitlines() == ["pure", f"no C compiler found (CC={cc})"]
    assert "RuntimeWarning" in res.stderr


def test_failed_compile_falls_back_and_is_remembered(tmp_path):
    # a compiler that logs each run and fails: the second import must take
    # the cached reason instead of running it again
    log = tmp_path / "runs.log"
    cc = tmp_path / "failing-cc"
    cc.write_text(f"#!/bin/sh\necho run >> '{log}'\necho 'no such flag' >&2\nexit 1\n")
    cc.chmod(0o755)
    env = child_env(CC=str(cc), XDG_CACHE_HOME=str(tmp_path))
    first, second = show_backend(env), show_backend(env)
    assert log.read_text() == "run\n"
    backend, reason = first.stdout.splitlines()
    assert second.stdout.splitlines() == [backend, reason]
    assert backend == "pure" and reason.startswith(f"{cc} failed on "), reason
    marker, = (tmp_path / "hanggraph").iterdir()  # no object and no temporary file
    assert marker.name.endswith(".so.failed") and marker.read_text() == reason
    assert reason.endswith(f"no such flag (cached in {marker}; delete it to compile again)")
    assert "RuntimeWarning" in second.stderr


def test_unwritable_cache_falls_back_with_warning(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")  # a file where the cache directory's parent should be
    res = show_backend(child_env(XDG_CACHE_HOME=str(blocker)))
    backend, reason = res.stdout.splitlines()
    assert backend == "pure" and reason.startswith("compiled kernel unavailable: "), reason
    assert "RuntimeWarning" in res.stderr


@compiled
def test_foreign_cached_object_falls_back_with_warning(tmp_path):
    # an object under the kernel's cache name that lacks the kernel's symbols
    other = tmp_path / "other.c"
    other.write_text("int hg_other(void) { return 0; }\n")
    (tmp_path / "hanggraph").mkdir()
    path = tmp_path / "hanggraph" / ck.library_name(Path(ck.SOURCE).read_bytes(), ck.compiler())
    subprocess.run([*ck.compiler(), *ck.CFLAGS, "-o", str(path), str(other)], check=True)
    res = show_backend(child_env(XDG_CACHE_HOME=str(tmp_path)))
    backend, reason = res.stdout.splitlines()
    assert backend == "pure" and reason.startswith("compiled kernel unavailable: "), reason
    assert "hg_apsp" in reason and "RuntimeWarning" in res.stderr
