"""Shared fixtures: the two worked-example graphs and corpus helpers.

``fig_g`` is the 5-vertex graph with edges ab, ad, bd, bc, cd, ce; it is
hangable.  ``fig_h`` is the same graph without e; it is the smallest kind of
counterexample the checkers must catch (two vertices of full degree).  Their
metric values are pinned in test_metrics as computed goldens.
``block_graph_reference`` is the block-graph test by decomposition plus a
clique check per block, independent of the kernel that ``is_block_graph``
asks.
"""

from __future__ import annotations

import pytest

from hanggraph import Graph, biconnected_components, from_edge_list, kernels

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


def _block_graph_by_decomposition(g: Graph) -> bool:
    """True iff every block of the (connected) graph induces a complete graph."""
    for blk in biconnected_components(g).blocks:  # raises on empty or disconnected input
        for i, u in enumerate(blk):
            nbrs = set(g.adj[u])
            for v in blk[i + 1:]:
                if v not in nbrs:
                    return False
    return True


@pytest.fixture
def block_graph_reference():
    return _block_graph_by_decomposition


def connected_graphs(max_n: int, min_n: int = 1):
    """All connected labeled graphs with min_n <= n <= max_n."""
    from hanggraph.corpus import iter_graphs

    for n in range(min_n, max_n + 1):
        yield from iter_graphs(n, connected_only=True)


def all_graphs(max_n: int, min_n: int = 1):
    from hanggraph.corpus import iter_graphs

    for n in range(min_n, max_n + 1):
        yield from iter_graphs(n)
