"""Classification records, stream driver, powers, and subset search."""

from __future__ import annotations

import random

import pytest

from hanggraph import (
    DisconnectedGraphError,
    Graph,
    check_hangable,
    complement,
    from_edge_list,
    is_block_graph,
    is_connected,
    kernels,
    metric_profile,
    search_hangable_subgraphs,
    smallest_hangable_power,
    to_graph6,
)
from hanggraph.corpus import graph_from_bits, iter_graphs, pair_count
from hanggraph.explorer import (
    COLUMNS,
    BudgetExceededError,
    Classification,
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


def test_self_complementary_matches_permutation_search_n5(self_complementary_reference):
    for n, labeled in ((0, 1), (1, 1), (2, 0), (3, 0), (4, 12), (5, 72)):
        hits = 0
        for g in iter_graphs(n):
            got = is_self_complementary(g)
            assert got == self_complementary_reference(g), g
            hits += got
        assert hits == labeled, n  # P_4 at n=4; C_5 and the bull at n=5


def test_self_complementary_n8_positives(n8_self_complementary_cases):
    positives, _ = n8_self_complementary_cases
    assert all(is_self_complementary(g) for g in positives)


def test_self_complementary_n8_degree_matched_negatives(n8_self_complementary_cases,
                                                        self_complementary_reference):
    _, matched = n8_self_complementary_cases
    for g in matched:
        assert is_self_complementary(g) == self_complementary_reference(g), g


def test_classify_graph_past_the_distance_limit(monkeypatch):
    # a distance on 32768 vertices may not fit int16: an error record,
    # on either backend, before any kernel call
    monkeypatch.setattr(kernels, "classify_masks", None)
    record = classify_graph(Graph(32768, (0,) * 32768))
    assert record.n == 32768 and record.connected is None
    assert record.error == ("a distance matrix needs at most 32767 vertices; "
                            "the graph has 32768")


def test_classify_graph_one_classify_masks_call(monkeypatch, fig_h):
    calls = []
    backend = ("hanggraph._ckernel", "hanggraph._pykernel")
    names = [name for name, fn in vars(kernels).items()
             if callable(fn) and getattr(fn, "__module__", None) in backend]
    assert "classify_masks" in names and "apsp" in names
    for name in names:
        def counting(*args, _name=name, _fn=getattr(kernels, name)):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(kernels, name, counting)
    # no apsp call: the complement's matrix comes back from classify_masks,
    # and only the subset decider runs on it, when the complement is connected
    for g, complement_connected in ((cycle(5), True), (path(4), True), (fig_h, False),
                                    (from_edge_list(4, [(0, 1)]), True),
                                    (complete(1), True), (complete(3), False)):
        calls.clear()
        classify_graph(g)
        assert calls == ["classify_masks"] + ["hangable_subset"] * complement_connected, g


def classify_by_separate_calls(g):
    """classify_graph's record the way it was assembled before the one-call
    kernel: a public call per field, the complement built and decided on its
    own, and the smallest hangable power found by building each power."""
    n, m = g.n, g.m
    co = complement(g)
    comp_hang = check_hangable(co).hangable if is_connected(co) else None
    selfco = is_self_complementary(g)
    if not is_connected(g):
        return Classification(
            n=n, m=m, connected=False,
            complement_hangable=comp_hang, self_complementary=selfco,
            note="disconnected: metric fields not computed")
    profile = metric_profile(g)
    return Classification(
        n=n, m=m, connected=True,
        tree=m == n - 1,
        block_graph=is_block_graph(g),
        self_centered=profile.radius == profile.diameter,
        hangable=check_hangable(g).hangable,
        diameter=profile.diameter,
        radius=profile.radius,
        periphery_size=len(profile.graph_periphery),
        complement_hangable=comp_hang,
        self_complementary=selfco,
        smallest_hangable_power=smallest_hangable_power(g))


def test_classify_graph_matches_separate_calls(one_labeling_per_class):
    # every labeled graph to n = 5, every isomorphism class at n = 6 (the
    # record is invariant under relabeling), then seeded graphs past 6
    graphs = [g for n in range(1, 6) for g in iter_graphs(n)]
    graphs += one_labeling_per_class(6)
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randint(7, 12)
        graphs.append(graph_from_bits(n, rng.getrandbits(pair_count(n))
                                      & rng.getrandbits(pair_count(n))))  # density 1/4
        graphs.append(graph_from_bits(n, rng.getrandbits(pair_count(n))))
    kmins = set()
    for g in graphs:
        rec = classify_graph(g)
        assert rec == classify_by_separate_calls(g), g
        kmins.add(rec.smallest_hangable_power)
    assert {None, 1, 2, 3} <= kmins


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


def test_columns_match_record():
    rec = classify_graph(path(2))
    for col in COLUMNS:
        assert hasattr(rec, col)
    assert Classification._fields == COLUMNS + ("error",)
    assert Classification._field_defaults == dict.fromkeys(Classification._fields)
    assert Classification() == (None,) * len(Classification._fields)


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
