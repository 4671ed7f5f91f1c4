"""Block decomposition, cut vertices, and the block-graph recognizer."""

from __future__ import annotations

import random

import pytest

from hanggraph import (
    DisconnectedGraphError,
    biconnected_components,
    check_hangable,
    from_edge_list,
    is_block_graph,
    is_tree,
)
from hanggraph.corpus import iter_graphs, random_block_graph, random_tree
from hanggraph.generators import complete, cycle, path


def test_single_vertex_block():
    d = biconnected_components(from_edge_list(1, []))
    assert d.blocks == ((0,),)
    assert d.cut_vertices == frozenset()


def test_single_edge_block():
    d = biconnected_components(from_edge_list(2, [(0, 1)]))
    assert d.blocks == ((0, 1),)
    assert d.cut_vertices == frozenset()


def test_path_blocks_are_edges():
    d = biconnected_components(path(5))
    assert d.blocks == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert d.cut_vertices == frozenset({1, 2, 3})


def test_cycle_is_one_block():
    d = biconnected_components(cycle(6))
    assert d.blocks == (tuple(range(6)),)
    assert d.cut_vertices == frozenset()


def test_two_triangles_sharing_a_vertex():
    g = from_edge_list(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    d = biconnected_components(g)
    assert d.blocks == ((0, 1, 2), (2, 3, 4))
    assert d.cut_vertices == frozenset({2})


def test_fig_g_decomposition(fig_g):
    # the 4-clique-minus-an-edge part plus the pendant edge ce
    d = biconnected_components(fig_g)
    assert d.blocks == ((0, 1, 2, 3), (2, 4))
    assert d.cut_vertices == frozenset({2})


def test_bridge_rich_graph():
    # two triangles joined by a bridge
    g = from_edge_list(
        6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]
    )
    d = biconnected_components(g)
    assert (2, 3) in d.blocks
    assert d.cut_vertices == frozenset({2, 3})


def test_decomposition_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        biconnected_components(from_edge_list(4, [(0, 1), (2, 3)]))
    with pytest.raises(DisconnectedGraphError):
        is_block_graph(from_edge_list(2, []))
    with pytest.raises(DisconnectedGraphError):
        is_tree(from_edge_list(2, []))


def test_blocks_partition_edges():
    # every edge in exactly one block; blocks overlap only in cut vertices
    for g in iter_graphs(5, connected_only=True):
        d = biconnected_components(g)
        seen = set()
        for blk in d.blocks:
            bs = set(blk)
            for u, v in g.edges():
                if u in bs and v in bs:
                    assert (u, v) not in seen
                    seen.add((u, v))
        assert seen == set(g.edges()) or g.n == 1


def test_is_tree():
    assert is_tree(path(7))
    assert is_tree(from_edge_list(1, []))
    assert not is_tree(cycle(4))
    assert not is_tree(complete(4))


def test_trees_are_block_graphs():
    rng = random.Random(5)
    for _ in range(50):
        t = random_tree(rng.randint(1, 30), rng)
        assert is_tree(t)
        assert is_block_graph(t)


def test_cliques_are_block_graphs():
    for n in range(1, 7):
        assert is_block_graph(complete(n))


def test_cycle_not_block_graph_beyond_triangle():
    assert is_block_graph(cycle(3))
    assert not is_block_graph(cycle(4))
    assert not is_block_graph(cycle(5))


def test_fig_g_not_block_graph(fig_g):
    # its big block is K_4 minus an edge
    assert not is_block_graph(fig_g)


def test_random_block_graphs_recognized_and_hangable():
    rng = random.Random(99)
    for _ in range(60):
        g = random_block_graph(rng, max_vertices=30)
        assert is_block_graph(g)
        assert check_hangable(g).hangable


def test_long_path_no_recursion_limit():
    n = 30000
    g = path(n)
    d = biconnected_components(g)
    assert len(d.blocks) == n - 1
    assert len(d.cut_vertices) == n - 2


def test_to_text(fig_g):
    d = biconnected_components(fig_g)
    text = d.to_text(fig_g)
    assert "block: a b c d" in text
    assert "cut_vertices: c" in text
