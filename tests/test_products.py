"""Corona, box product, join: constructions and their closed-form metrics.

The oracles never run BFS on the product; every test here pits them against
``all_pairs_distances``/``bfs_distances``/``metric_profile`` of the explicitly
built product.
"""

from __future__ import annotations

import itertools
import random

import pytest

from hanggraph import (
    GraphInputError,
    all_pairs_distances,
    bfs_distances,
    cartesian,
    cartesian_distance_matrix,
    cartesian_metric_oracle,
    check_hangable,
    corona,
    corona_distance_matrix,
    corona_distance_oracle,
    corona_metric_oracle,
    from_edge_list,
    is_connected,
    join,
    join_hangability_predicate,
    metric_profile,
    universal_vertices,
)
from hanggraph.corpus import iter_graphs, random_connected_graph
from hanggraph.generators import complete, cycle, grid, path

K1 = complete(1)


def copy_id(vmap, v, x):
    """The corona id of copy vertex x over base vertex v: ng + v*nh + x."""
    return vmap.g_n + v * vmap.h_n + x


def pair_id(vmap, a, b):
    """The box-product id of the pair (a, b): a*nh + b."""
    return a * vmap.h_n + b


# --- constructions -------------------------------------------------------------


def test_corona_shape():
    g, h = path(3), complete(2)
    c, vmap = corona(g, h)
    assert c.n == 3 + 3 * 2
    assert c.m == g.m + 3 * (h.m + h.n)
    for v in range(3):
        for x in range(2):
            assert c.has_edge(v, copy_id(vmap, v, x))
    # copies are private: no edges between different copies
    assert not c.has_edge(copy_id(vmap, 0, 0), copy_id(vmap, 1, 0))


def test_corona_not_commutative():
    g, h = path(3), complete(2)
    a, _ = corona(g, h)
    b, _ = corona(h, g)
    assert a.n == 9 and b.n == 8


def test_corona_empty_h():
    c, _ = corona(path(3), from_edge_list(0, []))
    assert c.adj == path(3).adj


def test_cartesian_shape():
    g, h = path(3), path(2)
    p, vmap = cartesian(g, h)
    assert p.n == 6
    assert p.m == g.m * h.n + h.m * g.n
    assert p.has_edge(pair_id(vmap, 0, 0), pair_id(vmap, 1, 0))
    assert p.has_edge(pair_id(vmap, 0, 0), pair_id(vmap, 0, 1))
    assert not p.has_edge(pair_id(vmap, 0, 0), pair_id(vmap, 1, 1))


def test_cartesian_grid_identity():
    p, _ = cartesian(path(3), path(4))
    assert p.adj == grid(3, 4).adj


def test_join_shape():
    g, h = from_edge_list(2, []), from_edge_list(3, [])
    j, vmap = join(g, h)
    assert j.n == 5
    assert j.m == 6  # exactly the cross edges
    assert j.adj == __import__("hanggraph").generators.complete_bipartite(2, 3).adj


def test_join_of_completes_is_complete():
    j, _ = join(complete(2), complete(3))
    assert j.adj == complete(5).adj


def test_product_vertex_map_text():
    g, h = path(2), path(2)
    _, vmap = cartesian(g, h)
    text = vmap.to_text(g, h)
    assert "0 ↦ (0,0)" in text


def test_package_exports():
    import hanggraph

    assert "cartesian_distance_matrix" in hanggraph.__all__
    missing = [name for name in hanggraph.__all__ if not hasattr(hanggraph, name)]
    assert missing == []
    namespace: dict = {}
    exec("from hanggraph import *", namespace)
    assert set(hanggraph.__all__) <= set(namespace)


def test_product_labels_pairs():
    g = from_edge_list(2, [(0, 1)], labels=("u", "v"))
    h = from_edge_list(2, [(0, 1)], labels=("x", "y"))
    p, vmap = cartesian(g, h)
    assert p.label_of(pair_id(vmap, 1, 0)) == "(v,x)"


# --- corona oracles --------------------------------------------------------------


def corona_cases():
    yield path(2), K1
    yield path(3), complete(2)
    yield cycle(4), path(2)
    yield complete(3), from_edge_list(2, [])
    yield path(4), from_edge_list(3, [(0, 1)])


@pytest.mark.parametrize("g,h", list(corona_cases()))
def test_corona_distance_oracle_vs_bfs(g, h):
    c, _ = corona(g, h)
    dm = all_pairs_distances(c)
    dg = all_pairs_distances(g)
    for p in range(c.n):
        for q in range(c.n):
            assert corona_distance_oracle(dg, h, p, q) == dm.dist(p, q)


@pytest.mark.parametrize("g,h", list(corona_cases()))
def test_corona_metric_oracle_vs_bfs(g, h):
    c, _ = corona(g, h)
    prof = metric_profile(c)
    om = corona_metric_oracle(g, h)
    assert om.diameter == prof.diameter
    assert om.graph_periphery == prof.graph_periphery
    assert om.vertex_periphery == prof.vertex_periphery


@pytest.mark.parametrize("g,h", list(corona_cases()))
def test_corona_hangable_iff_base(g, h):
    c, _ = corona(g, h)
    assert check_hangable(c).hangable == check_hangable(g).hangable


def test_corona_of_non_hangable_base(fig_h):
    c, _ = corona(fig_h, complete(2))
    assert not check_hangable(c).hangable


def test_corona_oracle_rejects_small_base():
    # only the metric forms need two base vertices; the distance forms hold
    # on a one-vertex base too
    with pytest.raises(GraphInputError):
        corona_metric_oracle(K1, complete(2))
    dg = all_pairs_distances(K1)
    for h in small_graphs(range(1, 5)):
        c, _ = corona(K1, h)
        dm = all_pairs_distances(c)
        for p in range(c.n):
            for q in range(c.n):
                assert corona_distance_oracle(dg, h, p, q) == dm.dist(p, q)


def test_corona_oracle_rejects_empty_h():
    with pytest.raises(GraphInputError):
        corona_metric_oracle(path(2), from_edge_list(0, []))


def test_corona_same_base_copies_distance():
    # inside one copy: adjacency in h gives 1, otherwise 2 through the base
    g, h = path(2), from_edge_list(3, [(0, 1)])
    dg = all_pairs_distances(g)
    c, vmap = corona(g, h)
    dm = all_pairs_distances(c)
    p = copy_id(vmap, 0, 0)
    q1 = copy_id(vmap, 0, 1)
    q2 = copy_id(vmap, 0, 2)
    assert dm.dist(p, q1) == 1 == corona_distance_oracle(dg, h, p, q1)
    assert dm.dist(p, q2) == 2 == corona_distance_oracle(dg, h, p, q2)


def small_graphs(sizes, connected_only=False):
    return [g for n in sizes for g in iter_graphs(n, connected_only)]


def test_distance_matrices_match_per_pair_forms():
    # the whole-matrix builders against the per-pair corona form and against
    # BFS on the built box product, on every labeled connected factor with up
    # to 4 vertices and every factor with up to 3
    bases = small_graphs(range(1, 5), connected_only=True)
    for g in bases:
        dg = all_pairs_distances(g)
        for h in small_graphs(range(4)):
            total = g.n * (1 + h.n)
            want = [corona_distance_oracle(dg, h, p, q) for p in range(total) for q in range(total)]
            assert corona_distance_matrix(g, h) == want
            if g.n < 2:  # the per-pair form itself, against BFS on the corona
                c, _ = corona(g, h)
                assert want == [d for source in range(c.n) for d in bfs_distances(c, source)]
        for h in small_graphs(range(1, 4), connected_only=True):
            p, _ = cartesian(g, h)
            assert cartesian_distance_matrix(g, h) == [
                d for source in range(p.n) for d in bfs_distances(p, source)]


# --- cartesian oracles ------------------------------------------------------------


def cartesian_cases():
    yield path(2), path(2)
    yield path(3), cycle(3)
    yield cycle(4), path(3)
    yield complete(3), complete(2)
    yield path(5), K1


@pytest.mark.parametrize("g,h", list(cartesian_cases()))
def test_cartesian_oracle_vs_bfs(g, h):
    p, vmap = cartesian(g, h)
    dm = all_pairs_distances(p)
    prof = metric_profile(p)
    om = cartesian_metric_oracle(g, h)
    assert om.diameter == prof.diameter
    assert om.eccentricity == prof.eccentricity
    assert om.vertex_periphery == prof.vertex_periphery
    assert om.graph_periphery == prof.graph_periphery
    flat = cartesian_distance_matrix(g, h)
    for a, b in itertools.product(range(p.n), range(p.n)):
        assert flat[a * p.n + b] == dm.dist(a, b)


@pytest.mark.parametrize("g,h", list(cartesian_cases()))
def test_cartesian_hangable_iff_both(g, h):
    p, _ = cartesian(g, h)
    want = check_hangable(g).hangable and check_hangable(h).hangable
    assert check_hangable(p).hangable == want


def test_cartesian_breaks_one_bad_factor(fig_h):
    p, _ = cartesian(fig_h, path(2))
    assert not check_hangable(p).hangable


def test_cartesian_oracle_rejects_disconnected():
    with pytest.raises(Exception):
        cartesian_metric_oracle(from_edge_list(2, []), path(2))


def test_grids_hangable_up_to_8():
    for m in range(1, 9):
        for n in range(1, 9):
            g = grid(m, n)
            assert check_hangable(g).hangable, (m, n)


def test_random_cartesian_pairs_match_oracle():
    rng = random.Random(17)
    for _ in range(10):
        g = random_connected_graph(rng.randint(2, 5), rng)
        h = random_connected_graph(rng.randint(2, 5), rng)
        p, _ = cartesian(g, h)
        prof = metric_profile(p)
        om = cartesian_metric_oracle(g, h)
        assert om.eccentricity == prof.eccentricity
        assert om.graph_periphery == prof.graph_periphery


# --- join ------------------------------------------------------------------------


def test_universal_vertices():
    assert universal_vertices(complete(4)) == frozenset({0, 1, 2, 3})
    assert universal_vertices(path(3)) == frozenset({1})
    assert universal_vertices(from_edge_list(3, [])) == frozenset()


def test_join_predicate_star():
    # K_1 + empty graph = star: one universal vertex, hangable
    h = from_edge_list(4, [])
    assert join_hangability_predicate(K1, h)
    j, _ = join(K1, h)
    assert check_hangable(j).hangable


def test_join_predicate_two_apexes(fig_h):
    # joining two K_1s onto a 2-vertex empty graph gives 2 universal vertices
    g = complete(2)
    h = from_edge_list(2, [])
    assert not join_hangability_predicate(g, h)
    j, _ = join(g, h)
    assert not check_hangable(j).hangable


def test_join_predicate_complete_case():
    assert join_hangability_predicate(complete(2), complete(3))


def test_join_exhaustive_small():
    # predicate versus brute force on every factor pair with n <= 3
    pool = [g for n in range(1, 4) for g in iter_graphs(n)]
    for g, h in itertools.product(pool, pool):
        j, _ = join(g, h)
        assert is_connected(j)
        assert join_hangability_predicate(g, h) == check_hangable(j).hangable


def test_join_predicate_with_an_empty_factor():
    # the join is then the other factor itself; every factor with up to 4
    # vertices is hangable exactly when the rule says so
    empty = from_edge_list(0, [])
    for g in small_graphs(range(1, 5), connected_only=True):
        for a, b in ((empty, g), (g, empty)):
            j, _ = join(a, b)
            assert join_hangability_predicate(a, b) == check_hangable(j).hangable


def test_join_accepts_disconnected_factors():
    g = from_edge_list(4, [(0, 1), (2, 3)])
    j, _ = join(g, K1)
    assert is_connected(j)
    assert join_hangability_predicate(g, K1) == check_hangable(j).hangable
