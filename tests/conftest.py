"""Shared fixtures: the two worked-example graphs and corpus helpers.

``fig_g`` is the 5-vertex graph with edges ab, ad, bd, bc, cd, ce; it is
hangable.  ``fig_h`` is the same graph without e; it is the smallest kind of
counterexample the checkers must catch (two vertices of full degree).  Their
metric values are pinned in test_metrics as computed goldens.
``block_graph_reference`` recognizes block graphs without any DFS, so it
shares no code with the lowpoint DFS behind ``biconnected_components`` and
``is_block_graph`` (pure or compiled) that it checks.
``one_labeling_per_class`` covers every isomorphism class on n vertices at
a fraction of the cost of every labeled graph.
``self_complementary_reference`` tries every degree-preserving vertex
permutation whole, with no pruning by adjacency, so it shares nothing with
the kernels' backtracking, and
``n8_self_complementary_cases`` gives the n = 8 graphs that search must get
right: relabelings of a self-complementary graph, and graphs whose degrees
match their complement's.
``profile_reference`` builds a ``MetricProfile`` from distance rows by
scanning every entry in Python, as the package did before the profile became
a kernel call; it checks both kernels' ``profile`` and ``metric_profile``.
``subgraph_search_reference`` is ``search_hangable_subgraphs`` as it was
before the walk became a kernel call: one ``Graph`` per subset through
``induced_subgraph``, ``is_connected`` and ``check_hangable``.
"""

from __future__ import annotations

import itertools
import random
from functools import cache

import pytest

from hanggraph import (Graph, MetricProfile, check_hangable, complement, from_edge_list,
                       induced_subgraph, is_connected, kernels, to_graph6)
from hanggraph.explorer import SizeCount, SubgraphSearchReport

FIG_G_EDGES = [(0, 1), (0, 3), (1, 3), (1, 2), (2, 3), (2, 4)]
FIG_H_EDGES = [(0, 1), (0, 3), (1, 3), (1, 2), (2, 3)]
ABCDE = ("a", "b", "c", "d", "e")


def pytest_report_header(config):
    # the acceptance budgets assume the compiled kernel; say which one ran and why
    return f"hanggraph kernel: {kernels.BACKEND} ({kernels.BACKEND_REASON})"


@pytest.fixture
def fig_g() -> Graph:
    return from_edge_list(5, FIG_G_EDGES, labels=ABCDE)


@pytest.fixture
def fig_h() -> Graph:
    return from_edge_list(4, FIG_H_EDGES, labels=ABCDE[:4])


def _block_graph_by_chordality(g: Graph) -> bool:
    """True iff the connected graph is chordal and diamond-free, which is
    exactly when it is a block graph (Bandelt & Mulder, J. Combin. Theory B
    41, 1986).  Chordality by simplicial elimination; diamond-freeness by
    asking every edge's common neighborhood to be a clique."""
    masks = g.masks

    def members(s: int) -> list[int]:
        return [v for v in range(g.n) if s >> v & 1]

    def is_clique(s: int) -> bool:
        return all(masks[v] & s == s ^ 1 << v for v in members(s))

    if not all(is_clique(masks[u] & masks[v]) for u, v in g.edges()):
        return False
    left = (1 << g.n) - 1
    while left:
        simplicial = [v for v in members(left) if is_clique(masks[v] & left)]
        if not simplicial:
            return False
        left ^= 1 << simplicial[0]
    return True


@pytest.fixture
def block_graph_reference():
    return _block_graph_by_chordality


@cache
def _one_labeling_per_class(n: int) -> tuple[Graph, ...]:
    """The labeled graphs on n vertices whose degrees never increase with the
    vertex index.  Sorting a graph's vertices by degree gives one, so every
    isomorphism class is here: 936 graphs for the 156 classes at n = 6,
    against 32,768 labeled graphs.  Built once per session."""
    from hanggraph.corpus import iter_graphs

    def degrees_fall(g: Graph) -> bool:
        degrees = [mask.bit_count() for mask in g.masks]
        return degrees == sorted(degrees, reverse=True)

    return tuple(filter(degrees_fall, iter_graphs(n)))


@pytest.fixture
def one_labeling_per_class():
    return _one_labeling_per_class


def _self_complementary_by_permutations(g: Graph) -> bool:
    """Reference: try every vertex permutation that could map g onto its
    complement, those sending each vertex to one of the same degree there."""
    n = g.n
    if n * (n - 1) // 2 != 2 * g.m:
        return False
    co = complement(g)
    classes: dict[int, list[int]] = {}  # degree -> the vertices of g with it
    for v in range(n):
        classes.setdefault(g.degree(v), []).append(v)
    targets = [[w for w in range(n) if co.degree(w) == d] for d in classes]
    if [len(ws) for ws in targets] != [len(vs) for vs in classes.values()]:
        return False
    for choice in itertools.product(*map(itertools.permutations, targets)):
        perm = [0] * n
        for vs, ws in zip(classes.values(), choice):
            for v, w in zip(vs, ws):
                perm[v] = w
        if all(co.has_edge(perm[u], perm[v]) for u, v in g.edges()):
            return True
    return False


@pytest.fixture
def self_complementary_reference():
    return _self_complementary_by_permutations


def _relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@cache
def _n8_self_complementary_cases() -> tuple[tuple[Graph, ...], tuple[Graph, ...]]:
    """(positives, degree-matched) graphs on 8 vertices.  The positives are 20
    relabelings of P_4 with its end vertices blown up to 2K_1 and its middle
    ones to K_2.  The degree-matched ones are 25 seeded graphs with 14 edges
    whose degrees match their complement's, so no degree count decides them."""
    from hanggraph.corpus import graph_from_bits, pair_count

    parts = ((0, 1), (2, 3), (4, 5), (6, 7))
    edges = [(2, 3), (4, 5)]
    edges += [(x, y) for a, b in ((0, 1), (1, 2), (2, 3)) for x in parts[a] for y in parts[b]]
    blown_up = from_edge_list(8, edges)
    rng = random.Random(8)
    positives = tuple(_relabeled(blown_up, rng) for _ in range(20))
    rng = random.Random(14)
    matched = []
    while len(matched) < 25:
        g = graph_from_bits(8, rng.getrandbits(pair_count(8)))
        degrees = sorted(g.degree(v) for v in range(8))
        if g.m == 14 and degrees == sorted(7 - d for d in degrees):
            matched.append(g)
    return positives, tuple(matched)


@pytest.fixture
def n8_self_complementary_cases():
    return _n8_self_complementary_cases()


def _profile_by_rows(rows) -> MetricProfile:
    """The metric profile of the distance rows of a connected graph."""
    ecc = tuple(max(row) for row in rows)
    diameter = max(ecc)
    radius = min(ecc)
    vp = tuple(frozenset(u for u, d in enumerate(row) if d == ecc[v])
               for v, row in enumerate(rows))
    gp = frozenset(v for v, e in enumerate(ecc) if e == diameter)
    return MetricProfile(ecc, diameter, radius, vp, gp)


@pytest.fixture(scope="session")  # session scope, so hypothesis tests may take it
def profile_reference():
    return _profile_by_rows


def _search_by_public_routes(host: Graph, max_vertices: int, mode: str,
                             collect_graph6: bool) -> SubgraphSearchReport:
    """The search report of ``host`` without its budget check."""
    found: set[str] | None = set() if collect_graph6 else None
    counts = []
    for k in range(1, max_vertices + 1):
        subsets = connected = hangable = 0
        for combo in itertools.combinations(range(host.n), k):
            subsets += 1
            sub = induced_subgraph(host, combo)
            if not is_connected(sub):
                continue
            connected += 1
            if check_hangable(sub).hangable:
                hangable += 1
                if found is not None:
                    found.add(to_graph6(sub))
        reported = connected if mode == "connected-induced" else subsets
        counts.append(SizeCount(k, reported, connected, hangable))
    emitted = tuple(sorted(found)) if found is not None else None
    return SubgraphSearchReport(mode, max_vertices, tuple(counts), emitted)


@pytest.fixture(scope="session")
def subgraph_search_reference():
    return _search_by_public_routes
