"""Acceptance gate: nine criteria, one test (one pass/fail line) each.

Criterion 1 pins the worked-example goldens with a latency bound.  Criteria
2, 3 and 8 share one exhaustive edge-subset sweep over every labeled graph on
at most 7 vertices (2,131,019 classifications), done once per session through
the kernel and cross-checked against the public API on the graphs that
matter.  Criteria 4-6 pit the product oracles against BFS on explicitly
built products, exhaustively at the stated sizes.  Criterion 7 embeds every
graph on at most 6 vertices.  Criterion 9 compares bytes across separate
processes with hostile hash seeds.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time

import pytest

from hanggraph import (
    all_pairs_distances,
    cartesian,
    cartesian_metric_oracle,
    check_hangable,
    check_hangable_triples,
    corona,
    corona_distance_oracle,
    corona_metric_oracle,
    from_edge_list,
    hangable_embedding,
    is_block_graph,
    is_connected,
    join,
    join_hangability_predicate,
    kernels,
    metric_profile,
    smallest_hangable_power,
    verify_induced_subgraph,
)
from hanggraph.corpus import (
    graph_from_bits,
    iter_graphs,
    pair_count,
    random_block_graph,
)
from hanggraph.generators import grid

# frozen sweep totals; any drift is a regression in the enumerator or kernels
CONNECTED_BY_N = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}
HANGABLE_N6 = 19304
HANGABLE_N7 = 1107652


class SweepResult:
    __slots__ = (
        "connected",
        "hangable",
        "decider_mismatches",
        "block_bits",
        "kmin_violations",
        "elapsed",
    )

    def __init__(self):
        self.connected = {}
        self.hangable = {}
        self.decider_mismatches = 0
        self.block_bits = {}
        self.kmin_violations = 0
        self.elapsed = 0.0


@pytest.fixture(scope="session")
def sweep():
    """Classify every labeled graph on 1..7 vertices, once."""
    res = SweepResult()
    t0 = time.perf_counter()
    for n in range(1, 8):
        connected = hangable = 0
        blocks = []
        for bits in range(1 << pair_count(n)):
            flags, diam, radius, kmin = kernels.classify_bits(n, bits)
            if not flags & kernels.F_CONNECTED:
                continue
            connected += 1
            subset_ok = bool(flags & kernels.F_HANGABLE)
            triples_ok = bool(flags & kernels.F_HANGABLE_TRIPLES)
            if subset_ok != triples_ok:
                res.decider_mismatches += 1
            if subset_ok:
                hangable += 1
            if flags & kernels.F_BLOCK_GRAPH:
                blocks.append((bits, subset_ok))
            if not (1 <= kmin <= max(diam, 1)) or (kmin == 1) != subset_ok:
                res.kmin_violations += 1
        res.connected[n] = connected
        res.hangable[n] = hangable
        res.block_bits[n] = blocks
    res.elapsed = time.perf_counter() - t0
    return res


def report(num: int, name: str, detail: str = "") -> None:
    line = f"criterion {num} ({name}): PASS"
    if detail:
        line += f" [{detail}]"
    print(line)


# --- criterion 1: worked-example goldens under 1 ms -----------------------------


def test_criterion_1_figure_goldens():
    g = from_edge_list(
        5, [(0, 1), (0, 3), (1, 3), (1, 2), (2, 3), (2, 4)], labels="abcde"
    )
    h = from_edge_list(4, [(0, 1), (0, 3), (1, 3), (1, 2), (2, 3)], labels="abcd")

    t0 = time.perf_counter()
    prof = metric_profile(g)
    rep_g = check_hangable(g)
    rep_h = check_hangable(h)
    elapsed = time.perf_counter() - t0

    e, a = frozenset({4}), frozenset({0})
    assert prof.vertex_periphery == (e, e, a, e, a)
    assert prof.graph_periphery == frozenset({0, 4})
    assert rep_g.hangable

    assert not rep_h.hangable
    v, u = rep_h.witness
    hp = metric_profile(h)
    assert u in hp.vertex_periphery[v] and u not in hp.graph_periphery

    assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"
    report(1, "figure goldens", f"{elapsed * 1e6:.0f} us")


# --- criterion 2: every block graph is hangable ----------------------------------


def test_criterion_2_block_graphs_hangable(sweep, block_graph_reference):
    t0 = time.perf_counter()
    assert sweep.connected == CONNECTED_BY_N

    total_blocks = 0
    for n in range(1, 8):
        for bits, subset_ok in sweep.block_bits[n]:
            assert subset_ok, f"block graph n={n} bits={bits} not hangable"
            total_blocks += 1

    # public-route re-validation of every sweep hit at n <= 5, sampled above
    rng = random.Random(2024)
    for n in range(1, 8):
        hits = sweep.block_bits[n]
        picks = hits if n <= 5 else [hits[rng.randrange(len(hits))] for _ in range(300)]
        for bits, _ in picks:
            g = graph_from_bits(n, bits)
            assert is_block_graph(g)
            assert check_hangable(g).hangable
            assert check_hangable_triples(g).hangable

    # the kernel must not under-report block graphs: cross-check a slice
    # against the chordal-and-diamond-free reference, which shares no code
    # with the kernel's block test
    for bits in range(1 << pair_count(5)):
        g = graph_from_bits(5, bits)
        if not is_connected(g):
            continue
        flags, *_ = kernels.classify_bits(5, bits)
        assert bool(flags & kernels.F_BLOCK_GRAPH) == block_graph_reference(g)

    rng = random.Random(7)
    for _ in range(500):
        g = random_block_graph(rng, max_vertices=40)
        assert is_block_graph(g)
        assert check_hangable(g).hangable

    elapsed = sweep.elapsed + (time.perf_counter() - t0)
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    report(2, "block graphs hangable", f"{total_blocks} exhaustive + 500 random, {elapsed:.1f} s")


# --- criterion 3: the two deciders agree ------------------------------------------


def test_criterion_3_decider_equivalence(sweep):
    assert sweep.decider_mismatches == 0
    assert sweep.hangable[6] == HANGABLE_N6
    assert sweep.hangable[7] == HANGABLE_N7
    # same property through the public functions, exhaustively at n <= 5
    for n in range(1, 6):
        for g in iter_graphs(n, connected_only=True):
            assert check_hangable(g).hangable == check_hangable_triples(g).hangable
    total = sum(sweep.connected.values())
    report(3, "decider equivalence", f"{total} connected graphs, 0 mismatches")


# --- criterion 4: corona closed forms ----------------------------------------------


def test_criterion_4_corona_oracles():
    t0 = time.perf_counter()
    hs = [g for n in range(1, 4) for g in iter_graphs(n)]
    pairs = 0
    for ng in range(2, 6):
        for g in iter_graphs(ng, connected_only=True):
            dg = all_pairs_distances(g)
            hang_g = check_hangable(g).hangable
            for h in hs:
                c, _ = corona(g, h)
                dm = all_pairs_distances(c)
                for p in range(c.n):
                    for q in range(c.n):
                        assert corona_distance_oracle(dg, h, p, q) == dm.dist(p, q)
                om = corona_metric_oracle(g, h)
                prof_c = metric_profile(c)
                assert om.diameter == prof_c.diameter
                assert om.vertex_periphery == prof_c.vertex_periphery
                assert om.graph_periphery == prof_c.graph_periphery
                assert check_hangable(c).hangable == hang_g
                pairs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f} s"
    report(4, "corona oracles", f"{pairs} pairs entrywise, {elapsed:.1f} s")


# --- criterion 5: box-product closed forms ------------------------------------------


def test_criterion_5_cartesian_oracles():
    # kernel route: every ordered pair of connected factors with n <= 5
    factors = []
    for n in range(1, 6):
        for g in iter_graphs(n, connected_only=True):
            factors.append((g.masks, kernels.apsp(g.masks)))
    pairs = 0
    for mg, dg in factors:
        for mh, dh in factors:
            code = kernels.cartesian_verify(mg, dg, mh, dh)
            assert code == kernels.VERIFY_OK, code
            pairs += 1

    # public route: exhaustive at n <= 4, plus every grid up to 8 x 8
    for ng in range(1, 5):
        for g in iter_graphs(ng, connected_only=True):
            for nh in range(1, 5):
                for h in iter_graphs(nh, connected_only=True):
                    p, _ = cartesian(g, h)
                    om = cartesian_metric_oracle(g, h)
                    prof = metric_profile(p)
                    assert om.eccentricity == prof.eccentricity
                    assert om.diameter == prof.diameter
                    assert om.vertex_periphery == prof.vertex_periphery
                    assert om.graph_periphery == prof.graph_periphery
                    both = check_hangable(g).hangable and check_hangable(h).hangable
                    assert check_hangable(p).hangable == both

    for m in range(1, 9):
        for n in range(1, 9):
            assert check_hangable(grid(m, n)).hangable

    report(5, "box-product oracles", f"{pairs} kernel pairs + n<=4 public + grids")


# --- criterion 6: join rule ----------------------------------------------------------


def test_criterion_6_join_rule():
    # kernel route: every ordered factor pair with n <= 5, disconnected included
    masks = []
    for n in range(1, 6):
        for g in iter_graphs(n):
            masks.append(g.masks)
    pairs = 0
    for mg in masks:
        for mh in masks:
            assert kernels.join_verify(mg, mh) == kernels.VERIFY_OK
            pairs += 1

    # public route: exhaustive at n <= 4
    pool = [g for n in range(1, 5) for g in iter_graphs(n)]
    for g in pool:
        for h in pool:
            j, _ = join(g, h)
            assert join_hangability_predicate(g, h) == check_hangable(j).hangable

    report(6, "join rule", f"{pairs} kernel pairs + n<=4 public")


# --- criterion 7: one-vertex hangable embedding ----------------------------------------


def test_criterion_7_embedding():
    count = 0
    for n in range(0, 7):
        for h in iter_graphs(n):
            res = hangable_embedding(h)
            assert res.supergraph.n - h.n <= 1
            assert check_hangable(res.supergraph).hangable
            assert verify_induced_subgraph(res.supergraph, h, res.injection)
            count += 1
    report(7, "hangable embedding", f"{count} graphs, at most one added vertex")


# --- criterion 8: power bound ------------------------------------------------------------


def test_criterion_8_power_bound(sweep):
    assert sweep.kmin_violations == 0
    # public route re-derivation on every connected graph with n <= 5
    for n in range(1, 6):
        for g in iter_graphs(n, connected_only=True):
            k = smallest_hangable_power(g)
            assert 1 <= k <= max(metric_profile(g).diameter, 1)
            assert (k == 1) == check_hangable(g).hangable
    total = sum(sweep.connected.values())
    report(8, "power bound", f"{total} connected graphs, 0 violations")


# --- criterion 9: byte determinism ----------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    edge_file = tmp_path / "g.txt"
    edge_file.write_text("5 6\n0 1\n0 3\n1 3\n1 2\n2 3\n2 4\n")
    stream_file = tmp_path / "stream.g6"
    stream_file.write_text("Ch\nDhc\nBw\nnot-a-graph\n@\n")

    def run(argv, seed):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "hanggraph", *argv],
            capture_output=True,
            env=env,
            check=False,
        )
        return proc.stdout

    for argv in (
        ["analyze", str(edge_file), "--labels", "a,b,c,d,e"],
        ["analyze", str(edge_file), "--format", "structured"],
        ["classify", str(stream_file)],
        ["classify", str(stream_file), "--format", "structured"],
    ):
        first = run(argv, "1")
        second = run(argv, "2")
        assert first == second, f"output drifted for {argv}"
        assert first  # sanity: the runs actually produced bytes

    report(9, "byte determinism", "4 command forms x 2 hash seeds")
