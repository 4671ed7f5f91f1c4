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
"""

from __future__ import annotations

from functools import cache

import pytest

from hanggraph import Graph, from_edge_list, kernels

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
