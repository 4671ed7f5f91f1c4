"""Exhaustive and random graph corpora for sweeps and tests.

Exhaustive enumeration walks every labeled graph on n vertices as an edge
subset index: bit k of the index is the k-th pair in the order (0,1), (0,2),
..., (0,n-1), (1,2), ..., (n-2,n-1).  Random generators take an explicit
random.Random so runs are reproducible.
"""

from __future__ import annotations

import random
from typing import Iterator

from .graph import Graph, _build, is_connected


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def edge_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def graph_from_bits(n: int, bits: int) -> Graph:
    edges = [pair for k, pair in enumerate(edge_pairs(n)) if (bits >> k) & 1]
    return _build(n, edges)


def iter_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """Every labeled graph on n vertices, in edge-subset order."""
    for bits in range(1 << pair_count(n)):
        g = graph_from_bits(n, bits)
        if connected_only and not is_connected(g):
            continue
        yield g


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform-ish random tree: each vertex after the first attaches to an
    earlier vertex chosen uniformly."""
    if n < 1:
        raise ValueError("tree needs at least 1 vertex")
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return _build(n, edges)


def random_connected_graph(n: int, rng: random.Random,
                           extra_edge_prob: float = 0.2) -> Graph:
    """Random spanning tree plus independent extra edges."""
    if n < 1:
        raise ValueError("graph needs at least 1 vertex")
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    present = set(edges)
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in present and rng.random() < extra_edge_prob:
                edges.append((i, j))
    return _build(n, edges)


def random_block_graph(rng: random.Random, max_vertices: int = 40,
                       max_clique: int = 5) -> Graph:
    """Random connected graph whose blocks are all cliques.

    Grown as a tree of cliques: start from one clique, then repeatedly glue a
    fresh clique onto a random existing vertex (which becomes a cut vertex)
    until the vertex budget is spent.
    """
    if max_vertices < 1:
        raise ValueError("need at least 1 vertex")
    size = min(rng.randint(1, max_clique), max_vertices)
    vertices = list(range(size))
    edges = [(i, j) for i in range(size) for j in range(i + 1, size)]
    while len(vertices) < max_vertices:
        room = max_vertices - len(vertices)
        extra = min(rng.randint(1, max_clique - 1), room)
        anchor = rng.choice(vertices)
        fresh = [len(vertices) + i for i in range(extra)]
        vertices.extend(fresh)
        members = [anchor] + fresh
        edges += [(a, b) for idx, a in enumerate(members)
                  for b in members[idx + 1:]]
    return _build(len(vertices), edges)
