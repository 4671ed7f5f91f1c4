"""Block decomposition, cut vertices, and the block-graph recognizer."""

from __future__ import annotations

import random
from itertools import chain

import pytest

from hanggraph import (
    DisconnectedGraphError,
    GraphInputError,
    biconnected_components,
    check_hangable,
    from_edge_list,
    is_block_graph,
    is_connected,
    is_tree,
)
from hanggraph.corpus import iter_graphs, random_block_graph, random_connected_graph, random_tree
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
    with pytest.raises(DisconnectedGraphError, match="vertex 1 is unreachable from 0"):
        is_block_graph(from_edge_list(2, []))
    with pytest.raises(GraphInputError, match="block decomposition needs at least one vertex"):
        is_block_graph(from_edge_list(0, []))
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


def test_decomposition_block_graph_matches_is_block_graph(one_labeling_per_class):
    # the decomposition's flag comes from its own DFS pass; is_block_graph
    # asks the kernel.  Every labeled graph to n = 5, every isomorphism class
    # at n = 6, and graphs past 128 vertices.
    graphs = chain.from_iterable(iter_graphs(n, connected_only=True) for n in range(1, 6))
    graphs = chain(graphs, filter(is_connected, one_labeling_per_class(6)),
                   [path(300), cycle(300), complete(130)])
    seen = set()
    for g in graphs:
        flag = biconnected_components(g).block_graph
        assert flag == is_block_graph(g), g
        seen.add(flag)
    assert seen == {False, True}


def test_block_graph_matches_decomposition_reference(block_graph_reference):
    # exhaustive to n = 5, then random graphs on both sides of 64 vertices
    graphs = list(iter_graphs(5, connected_only=True))
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 90)
        graphs.append(random_block_graph(rng, max_vertices=n))
        graphs.append(random_connected_graph(n, rng, extra_edge_prob=rng.choice([0.0, 0.01, 0.1])))
    hits = 0
    for g in graphs:
        expected = block_graph_reference(g)
        assert is_block_graph(g) == expected
        assert biconnected_components(g).block_graph == expected
        hits += expected
    assert 0 < hits < len(graphs)


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
