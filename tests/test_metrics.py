"""Distances, peripheries, and the two hangability checkers.

The two worked examples are pinned exactly: the 5-vertex graph G is hangable
with periphery {a, e}; dropping e leaves a graph H that fails, with b and d
each seeing the whole rest of the graph as farthest while only a and c are
peripheral.  Some write-ups of this pair list P_H(d) = {a, c, d} and
P(H) = {a, d}; BFS says otherwise (d is adjacent to everything, so its
periphery is everything else, and e_H(d) = 1 < 2 keeps d out of P(H)).
The computed values are the ones asserted here.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hanggraph import (
    DisconnectedGraphError,
    all_pairs_distances,
    bfs_distances,
    check_hangable,
    check_hangable_triples,
    complement,
    from_edge_list,
    is_self_centered,
    metric_profile,
)
from hanggraph.corpus import graph_from_bits, iter_graphs, pair_count
from hanggraph.generators import complete, cycle, path
from hanggraph.metrics import profile_of_matrix

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None)


def bits_strategy(max_n: int):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(min_value=0, max_value=(1 << pair_count(n)) - 1)
        )
    )


# --- distances ---------------------------------------------------------------


def test_bfs_distances_path():
    p4 = path(4)
    assert bfs_distances(p4, 0) == (0, 1, 2, 3)
    assert bfs_distances(p4, 2) == (2, 1, 0, 1)


def test_bfs_distances_rejects_disconnected():
    g = from_edge_list(3, [(0, 1)])
    with pytest.raises(DisconnectedGraphError) as exc:
        bfs_distances(g, 0)
    assert exc.value.unreached == 2


def test_all_pairs_matches_bfs_rows(fig_g):
    dm = all_pairs_distances(fig_g)
    for v in range(fig_g.n):
        assert tuple(dm[v]) == bfs_distances(fig_g, v)


def test_all_pairs_rejects_disconnected():
    g = from_edge_list(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError) as exc:
        all_pairs_distances(g)
    assert exc.value.unreached in (2, 3)


def test_all_pairs_rejects_empty():
    from hanggraph import GraphInputError

    with pytest.raises(GraphInputError):
        all_pairs_distances(from_edge_list(0, []))


@PROPERTY_SETTINGS
@given(bits_strategy(6))
def test_distance_axioms(nb):
    from hanggraph import is_connected

    n, bits = nb
    g = graph_from_bits(n, bits)
    if not is_connected(g):
        return
    rows = [bfs_distances(g, v) for v in range(n)]
    for u in range(n):
        assert rows[u][u] == 0
        for v in range(n):
            assert rows[u][v] == rows[v][u]
            assert (rows[u][v] == 1) == g.has_edge(u, v)
            for w in range(n):
                assert rows[u][w] <= rows[u][v] + rows[v][w]


# --- the worked examples, exact ----------------------------------------------


def test_fig_g_metrics(fig_g):
    prof = metric_profile(fig_g)
    assert prof.eccentricity == (3, 2, 2, 2, 3)
    assert prof.diameter == 3
    assert prof.radius == 2
    assert prof.graph_periphery == frozenset({0, 4})  # {a, e}
    e, a = frozenset({4}), frozenset({0})
    assert prof.vertex_periphery == (e, e, a, e, a)


def test_fig_g_hangable(fig_g):
    rep = check_hangable(fig_g)
    assert rep.hangable
    assert rep.witness is None
    assert check_hangable_triples(fig_g).hangable


def test_fig_h_metrics(fig_h):
    prof = metric_profile(fig_h)
    assert prof.eccentricity == (2, 1, 2, 1)
    assert prof.diameter == 2
    assert prof.radius == 1
    assert prof.graph_periphery == frozenset({0, 2})  # {a, c}
    assert prof.vertex_periphery[1] == frozenset({0, 2, 3})  # P_H(b)
    assert prof.vertex_periphery[3] == frozenset({0, 1, 2})  # P_H(d)


def test_fig_h_not_hangable(fig_h):
    rep = check_hangable(fig_h)
    assert not rep.hangable
    assert rep.witness == (1, 3)  # b hangs at d, but d is not peripheral
    trep = check_hangable_triples(fig_h)
    assert not trep.hangable
    assert trep.triple_witness == (1, 3, 0)


def test_fig_h_witness_revalidates(fig_h):
    prof = metric_profile(fig_h)
    v, u = check_hangable(fig_h).witness
    assert u in prof.vertex_periphery[v]
    assert u not in prof.graph_periphery


# --- small closed-form families ------------------------------------------------


def test_complete_graphs_self_centered_and_hangable():
    for n in range(1, 7):
        g = complete(n)
        prof = metric_profile(g)
        assert is_self_centered(g)
        assert prof.graph_periphery == frozenset(range(n))
        assert check_hangable(g).hangable


def test_cycles_self_centered_and_hangable():
    for n in range(3, 9):
        g = cycle(n)
        assert is_self_centered(g)
        assert check_hangable(g).hangable


def test_paths_hangable_with_end_periphery():
    for n in range(2, 9):
        prof = metric_profile(path(n))
        assert prof.diameter == n - 1
        assert prof.graph_periphery == frozenset({0, n - 1})
        assert check_hangable(path(n)).hangable


def test_single_vertex():
    g = complete(1)
    prof = metric_profile(g)
    assert prof.diameter == 0
    assert prof.graph_periphery == frozenset({0})
    assert check_hangable(g).hangable


def test_metric_ops_reject_disconnected():
    g = from_edge_list(2, [])
    with pytest.raises(DisconnectedGraphError):
        metric_profile(g)
    with pytest.raises(DisconnectedGraphError):
        check_hangable(g)
    with pytest.raises(DisconnectedGraphError):
        check_hangable_triples(g)


# --- structural properties -----------------------------------------------------


def test_self_centered_implies_hangable_exhaustive_n5():
    # radius = diameter forces every vertex periphery into the graph periphery
    for g in iter_graphs(5, connected_only=True):
        if is_self_centered(g):
            assert check_hangable(g).hangable


@PROPERTY_SETTINGS
@given(bits_strategy(6))
def test_checkers_agree(nb):
    n, bits = nb
    g = graph_from_bits(n, bits)
    from hanggraph import is_connected

    if not is_connected(g):
        return
    a = check_hangable(g)
    b = check_hangable_triples(g)
    assert a.hangable == b.hangable
    # the first violating pair starts the first violating triple
    assert a.witness == b.witness


@PROPERTY_SETTINGS
@given(bits_strategy(6))
def test_profile_consistency(profile_reference, nb):
    n, bits = nb
    g = graph_from_bits(n, bits)
    from hanggraph import is_connected

    if not is_connected(g):
        return
    dm = all_pairs_distances(g)
    prof = metric_profile(g)
    assert prof == profile_of_matrix(dm)
    assert prof == profile_reference(dm.rows)
    assert prof.diameter == max(prof.eccentricity)
    assert prof.radius == min(prof.eccentricity)
    assert prof.diameter <= 2 * prof.radius
    for v in range(n):
        assert prof.vertex_periphery[v] == {
            u for u in range(n) if dm.dist(v, u) == prof.eccentricity[v]
        }
    assert prof.graph_periphery == {
        v for v in range(n) if prof.eccentricity[v] == prof.diameter
    }


def test_graph_or_complement_diameter_small():
    # one of g, complement(g) always has diameter <= 3; cheap sanity net
    for g in iter_graphs(4):
        from hanggraph import is_connected

        c = complement(g)
        diams = []
        for x in (g, c):
            if x.n and is_connected(x):
                diams.append(metric_profile(x).diameter)
        assert any(d <= 3 for d in diams) or not diams
