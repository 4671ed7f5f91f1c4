"""Classification records, stream driver, powers, and subset search."""

from __future__ import annotations

import itertools
import random

import pytest

from hanggraph import (
    DisconnectedGraphError,
    check_hangable,
    complement,
    from_edge_list,
    kernels,
    power,
    search_hangable_subgraphs,
    smallest_hangable_power,
    to_graph6,
)
from hanggraph.corpus import graph_from_bits, iter_graphs, pair_count
from hanggraph.explorer import (
    COLUMNS,
    BudgetExceededError,
    classify_graph,
    classify_stream,
    is_self_complementary,
)
from hanggraph.generators import complete, cycle, from_expression, grid, path

# frozen by the exhaustive n=5 sweep in test_acceptance
N5_CONNECTED_CLASSES = 21
N5_HANGABLE_CLASSES = 17


def test_classify_c5():
    rec = classify_graph(cycle(5))
    assert rec.hangable and rec.self_centered
    assert rec.self_complementary
    assert rec.smallest_hangable_power == 1
    assert rec.tree is False and rec.block_graph is False


def test_classify_fig_h(fig_h):
    rec = classify_graph(fig_h)
    assert rec.hangable is False
    assert rec.smallest_hangable_power == 2
    assert rec.diameter == 2


def test_classify_p4():
    rec = classify_graph(path(4))
    assert rec.tree and rec.block_graph and rec.hangable
    assert rec.smallest_hangable_power == 1
    assert rec.self_complementary  # P_4 is the smallest self-complementary tree


def test_classify_disconnected_partial_record():
    rec = classify_graph(from_edge_list(4, [(0, 1)]))
    assert rec.connected is False
    assert rec.diameter is None
    assert rec.hangable is None
    assert "disconnected" in rec.note
    # complement of a disconnected graph is connected, so this is computable
    assert rec.complement_hangable is not None


def test_classify_empty_graph():
    rec = classify_graph(from_edge_list(0, []))
    assert rec.n == 0
    assert rec.error is None


def test_classify_implication_chain():
    for g in iter_graphs(5, connected_only=True):
        rec = classify_graph(g)
        if rec.tree:
            assert rec.block_graph
        if rec.block_graph:
            assert rec.hangable
        if rec.self_centered:
            assert rec.hangable
        assert (rec.smallest_hangable_power == 1) == rec.hangable


def test_self_complementary_known_cases():
    assert is_self_complementary(complete(1))
    assert is_self_complementary(path(4))
    assert is_self_complementary(cycle(5))
    assert not is_self_complementary(path(3))
    assert not is_self_complementary(complete(4))


def permutation_self_complementary(g):
    """Reference: try every vertex permutation as an isomorphism onto the complement."""
    n = g.n
    if n * (n - 1) // 2 != 2 * g.m:
        return False
    co = complement(g)
    deg_g = [g.degree(v) for v in range(n)]
    deg_c = [co.degree(v) for v in range(n)]
    if sorted(deg_g) != sorted(deg_c):
        return False
    masks = g.neighbor_masks()
    cmasks = co.neighbor_masks()
    for perm in itertools.permutations(range(n)):
        if any(deg_g[v] != deg_c[perm[v]] for v in range(n)):
            continue
        ok = True
        for v in range(n):
            image = 0
            mv = masks[v]
            while mv:
                low = mv & -mv
                image |= 1 << perm[low.bit_length() - 1]
                mv ^= low
            if image != cmasks[perm[v]]:
                ok = False
                break
        if ok:
            return True
    return False


def test_self_complementary_matches_permutation_search_n5():
    for n, labeled in ((0, 1), (1, 1), (2, 0), (3, 0), (4, 12), (5, 72)):
        hits = 0
        for g in iter_graphs(n):
            got = is_self_complementary(g)
            assert got == permutation_self_complementary(g), g
            hits += got
        assert hits == labeled, n  # P_4 at n=4; C_5 and the bull at n=5


def relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_self_complementary_n8_positives():
    # P_4 with its end vertices blown up to 2K_1 and its middle ones to K_2
    parts = ((0, 1), (2, 3), (4, 5), (6, 7))
    edges = [(2, 3), (4, 5)]
    edges += [(x, y) for a, b in ((0, 1), (1, 2), (2, 3)) for x in parts[a] for y in parts[b]]
    blown_up = from_edge_list(8, edges)
    rng = random.Random(8)
    for _ in range(20):
        assert is_self_complementary(relabeled(blown_up, rng))


def test_self_complementary_n8_degree_matched_negatives():
    rng = random.Random(14)
    checked = 0
    while checked < 25:
        g = graph_from_bits(8, rng.getrandbits(pair_count(8)))
        degrees = sorted(g.degree(v) for v in range(8))
        if g.m != 14 or degrees != sorted(7 - d for d in degrees):
            continue
        assert is_self_complementary(g) == permutation_self_complementary(g), g
        checked += 1


def test_classify_graph_one_apsp_per_graph(monkeypatch, fig_h):
    calls = []
    apsp = kernels.apsp

    def counting_apsp(masks):
        calls.append(masks)
        return apsp(masks)

    monkeypatch.setattr(kernels, "apsp", counting_apsp)
    p4 = path(4)  # hangable, with a connected complement
    classify_graph(p4)
    assert sorted(calls) == sorted([p4.neighbor_masks(), complement(p4).neighbor_masks()])
    # not hangable, with a disconnected complement: the graph, then its square
    calls.clear()
    classify_graph(fig_h)
    assert calls == [fig_h.neighbor_masks(), power(fig_h, 2).neighbor_masks()]


def test_self_complementary_needs_half_edges():
    # n = 6: 15 edges is odd, no graph can match its complement
    for g in iter_graphs(6, connected_only=True):
        if g.m != 7 and g.m != 8:
            assert not is_self_complementary(g)
            break


def test_smallest_power_examples(fig_h):
    assert smallest_hangable_power(fig_h) == 2
    assert smallest_hangable_power(complete(1)) == 1
    assert smallest_hangable_power(cycle(6)) == 1
    assert smallest_hangable_power(path(5)) == 1


def test_smallest_power_bound_exhaustive_n5():
    from hanggraph import metric_profile

    ks = set()
    for g in iter_graphs(5, connected_only=True):
        k = smallest_hangable_power(g)
        ks.add(k)
        assert 1 <= k <= max(metric_profile(g).diameter, 1)
        assert (k == 1) == check_hangable(g).hangable
    assert max(ks) == 3  # frozen: some 5-vertex graph needs its cube


def test_smallest_power_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        smallest_hangable_power(from_edge_list(3, [(0, 1)]))


def test_classify_stream_order_and_errors():
    lines = [to_graph6(path(4)), "not graph6 at all", to_graph6(cycle(5))]
    recs = list(classify_stream(lines))
    assert len(recs) == 3
    assert recs[0].hangable is True
    assert recs[1].error is not None
    assert "line" in recs[1].note
    assert recs[2].self_centered is True


def test_classify_stream_record_per_line():
    recs = list(
        classify_stream(to_graph6(g) for g in iter_graphs(4, connected_only=True))
    )
    assert len(recs) == 38  # labeled connected graphs on 4 vertices
    assert all(r.error is None for r in recs)
    assert sum(1 for r in recs if r.hangable) > 0


def test_columns_match_dataclass():
    rec = classify_graph(path(2))
    for col in COLUMNS:
        assert hasattr(rec, col)


def test_search_on_c4():
    c4 = cycle(4)
    rep = search_hangable_subgraphs(c4, 4)
    assert rep.mode == "connected-induced"
    by_size = {s.size: s for s in rep.sizes}
    assert by_size[1].hangable == 4
    assert by_size[2].connected == 4  # the four edges; diagonals drop out
    assert by_size[3].hangable == 4  # all P_3s, trees, hence hangable
    assert by_size[4].hangable == 1
    assert rep.total_hangable == 13


def test_search_q2_equals_c4_report():
    c4 = cycle(4)
    q2 = from_expression("hypercube:2")
    a = search_hangable_subgraphs(c4, 4)
    b = search_hangable_subgraphs(q2, 4)
    assert [(s.size, s.connected, s.hangable) for s in a.sizes] == [
        (s.size, s.connected, s.hangable) for s in b.sizes
    ]


def test_search_grid_pairs_all_hangable():
    rep = search_hangable_subgraphs(grid(3, 3), 2)
    by_size = {s.size: s for s in rep.sizes}
    # every connected 2-vertex induced subgraph is K_2
    assert by_size[2].connected == grid(3, 3).m
    assert by_size[2].hangable == by_size[2].connected


def test_search_induced_mode_counts_all_subsets():
    rep = search_hangable_subgraphs(cycle(4), 2, mode="induced")
    by_size = {s.size: s for s in rep.sizes}
    assert by_size[2].subsets == 6
    assert by_size[2].connected == 4


def test_search_collects_graph6():
    rep = search_hangable_subgraphs(cycle(4), 3, collect_graph6=True)
    assert rep.hangable_graph6 is not None
    assert to_graph6(path(3)) in rep.hangable_graph6
    assert sorted(rep.hangable_graph6) == list(rep.hangable_graph6)


def test_search_budget_refusal():
    big = grid(8, 8)
    with pytest.raises(BudgetExceededError) as exc:
        search_hangable_subgraphs(big, 20, budget=1000)
    assert "1000" in str(exc.value)


def test_search_rejects_oversized_bound():
    with pytest.raises(Exception):
        search_hangable_subgraphs(cycle(4), 5)
