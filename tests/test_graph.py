"""Core graph type: construction, validation, basic ops, text round-trips."""

from __future__ import annotations

import random
from collections import deque
from types import SimpleNamespace

import pytest

from hanggraph import (
    DisconnectedGraphError,
    Graph,
    GraphInputError,
    complement,
    disjoint_union,
    from_edge_list,
    from_graph6,
    induced_subgraph,
    is_connected,
    parse_edge_list,
    power,
    to_edge_list,
    to_graph6,
)


def test_from_edge_list_basic(fig_g):
    assert fig_g.n == 5
    assert fig_g.m == 6
    assert fig_g.has_edge(0, 1)
    assert fig_g.has_edge(1, 0)
    assert not fig_g.has_edge(0, 2)
    assert fig_g.degree(2) == 3
    assert fig_g.adj[0] == (1, 3)


def test_graph_is_an_immutable_value():
    masks = (0b110, 0b101, 0b011)
    g, same, labeled = Graph(3, masks), Graph(3, masks), Graph(3, masks, ("a", "b", "c"))
    assert g == same and hash(g) == hash(same) and len({g, same, labeled}) == 2
    assert g != labeled and g != Graph(3, (0b010, 0b001, 0))
    assert repr(g) == "Graph(n=3, masks=(6, 5, 3), labels=None)"
    # equality is per class: another object with the same fields is not a Graph
    assert g != SimpleNamespace(n=3, masks=masks, labels=None)
    assert g != (3, masks, None)
    with pytest.raises(AttributeError):
        g.n = 4
    with pytest.raises(AttributeError):
        del g.masks
    assert g.adj == ((1, 2), (0, 2), (0, 1))  # cached views still compute and stick
    assert g.adj is g.adj and g.unreached is None
    assert g.m == 3 and vars(g)["m"] == 3 and "m" not in vars(same)  # counted once
    with pytest.raises(AttributeError):
        g.m = 4
    assert g == same and hash(g) == hash(same)  # cached views are not fields
    assert repr(g) == "Graph(n=3, masks=(6, 5, 3), labels=None)"


def test_duplicate_edges_collapse():
    g = from_edge_list(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
    assert g.m == 2


def test_edges_sorted_pairs(fig_g):
    es = list(fig_g.edges())
    assert es == sorted(es)
    assert all(u < v for u, v in es)
    assert len(es) == fig_g.m


def test_rejects_self_loop():
    with pytest.raises(GraphInputError):
        from_edge_list(3, [(1, 1)])


def test_rejects_out_of_range_endpoint():
    with pytest.raises(GraphInputError):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(GraphInputError):
        from_edge_list(3, [(-1, 0)])


def test_rejects_negative_n():
    with pytest.raises(GraphInputError):
        from_edge_list(-1, [])


def test_rejects_duplicate_labels():
    with pytest.raises(GraphInputError):
        from_edge_list(2, [(0, 1)], labels=("x", "x"))


def test_rejects_label_count_mismatch():
    with pytest.raises(GraphInputError):
        from_edge_list(2, [(0, 1)], labels=("x",))


def test_labels_default_to_ids():
    g = from_edge_list(2, [(0, 1)])
    assert g.label_of(0) == "0"
    g2 = from_edge_list(2, [(0, 1)], labels=("u", "v"))
    assert g2.label_of(1) == "v"


def test_empty_graph_allowed():
    g = from_edge_list(0, [])
    assert g.n == 0 and g.m == 0
    assert is_connected(g)


def test_neighbor_masks(fig_g):
    masks = fig_g.masks
    assert masks[0] == (1 << 1) | (1 << 3)
    assert masks[4] == 1 << 2


def test_is_connected():
    assert is_connected(from_edge_list(1, []))
    assert is_connected(from_edge_list(3, [(0, 1), (1, 2)]))
    assert not is_connected(from_edge_list(3, [(0, 1)]))
    assert not is_connected(from_edge_list(2, []))


def test_unreached_names_the_smallest_unreachable_vertex():
    g = from_edge_list(4, [(0, 1), (2, 3)])
    assert g.unreached == 2
    assert from_edge_list(3, [(0, 2)]).unreached == 1
    assert from_edge_list(3, [(0, 1), (1, 2)]).unreached is None
    assert from_edge_list(0, []).unreached is None


def test_complement():
    g = from_edge_list(4, [(0, 1), (2, 3)])
    c = complement(g)
    assert c.m == 6 - 2
    assert not c.has_edge(0, 1)
    assert c.has_edge(0, 2)
    cc = complement(c)
    assert cc.adj == g.adj


def test_complement_keeps_labels():
    g = from_edge_list(2, [], labels=("u", "v"))
    assert complement(g).labels == ("u", "v")


def test_power_of_path():
    p5 = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    p2 = power(p5, 2)
    assert p2.has_edge(0, 2)
    assert not p2.has_edge(0, 3)
    p4 = power(p5, 4)
    assert p4.m == 10  # complete at k = diameter


def test_power_k1_is_identity(fig_g):
    assert power(fig_g, 1).adj == fig_g.adj


def test_power_rejects_bad_k(fig_g):
    with pytest.raises(GraphInputError):
        power(fig_g, 0)


def test_power_rejects_disconnected():
    g = from_edge_list(3, [(0, 1)])
    with pytest.raises(DisconnectedGraphError):
        power(g, 2)


def test_induced_subgraph(fig_g):
    # vertices a, b, d form a triangle in the example graph
    sub = induced_subgraph(fig_g, [0, 1, 3])
    assert sub.n == 3
    assert sub.m == 3
    assert sub.labels == ("a", "b", "d")


def test_induced_subgraph_rejects_bad_vertex(fig_g):
    with pytest.raises(GraphInputError):
        induced_subgraph(fig_g, [0, 9])


def test_disjoint_union():
    g = from_edge_list(2, [(0, 1)])
    h = from_edge_list(3, [(0, 1), (1, 2)])
    u = disjoint_union(g, h)
    assert u.n == 5
    assert u.m == 3
    assert u.has_edge(0, 1)
    assert u.has_edge(2, 3) and u.has_edge(3, 4)
    assert not u.has_edge(1, 2)


def test_parse_edge_list_round_trip(fig_g):
    text = to_edge_list(fig_g)
    g2 = parse_edge_list(text)
    assert g2.n == fig_g.n
    assert g2.adj == fig_g.adj


def test_parse_edge_list_comments_and_blanks():
    g = parse_edge_list("# a comment\n\n3 2\n0 1\n\n1 2\n")
    assert g.n == 3 and g.m == 2


def test_parse_edge_list_errors_carry_line_numbers():
    with pytest.raises(GraphInputError) as exc:
        parse_edge_list("3 2\n0 1\nbogus x\n")
    assert "line 3" in str(exc.value)


def test_parse_edge_list_wrong_edge_count():
    with pytest.raises(GraphInputError):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(GraphInputError):
        parse_edge_list("3 1\n0 1\n1 2\n")


def test_parse_edge_list_missing_header():
    with pytest.raises(GraphInputError):
        parse_edge_list("")


def parse_edge_list_by_lines(text: str) -> Graph:
    """The edge-list parser as it was before the one-pass split: each line
    split on its own, its comment cut first, and each token converted with
    its line number at hand."""
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for tok in line.split("#", 1)[0].split():
            tokens.append((lineno, tok))
    if len(tokens) < 2:
        raise GraphInputError("edge list needs an 'n m' header line")
    values = []
    for lineno, tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise GraphInputError(f"line {lineno}: expected an integer, got {tok!r}") from None
    n, m = values[0], values[1]
    if n < 0 or m < 0:
        raise GraphInputError("header counts must be non-negative")
    rest = values[2:]
    if len(rest) != 2 * m:
        raise GraphInputError(
            f"header announces {m} edges but {len(rest) // 2} endpoint pairs follow")
    return from_edge_list(n, [(rest[2 * i], rest[2 * i + 1]) for i in range(m)])


# every line break str.splitlines knows, and whitespace that breaks no line
LINE_BREAKS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
               "\u2029")
SPACES = (" ", "  ", "\t", "\x1f", "\xa0", "\u3000", "\u2009")
# tokens int() refuses, and ones it takes that a digit test would not
ODD_TOKENS = ("x", "1.5", "0x3", "--1", "\u0663", "1_0", "+2", "-1", "9" * 5000)


def parse_outcome(parse, text: str):
    try:
        g = parse(text)
    except GraphInputError as exc:
        return "error", str(exc)
    return g.n, g.masks


def test_parse_edge_list_matches_line_by_line_parse():
    rng = random.Random(43)
    for case in range(400):
        n = rng.randint(2, 7)
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 8))]
        if case % 9 == 0:  # a self-loop or an endpoint out of range
            pairs.append((n - 1, n - 1 + case % 2))
        lines = [f"{n} {len(pairs) + (case % 11 == 0)}"] + [f"{u} {v}" for u, v in pairs]
        lines = [rng.choice(SPACES).join(line.split()) for line in lines]
        for _ in range(rng.randint(0, 3)):  # comments and blank lines
            extra = rng.choice(["# note 1 2", "#", "", rng.choice(SPACES),
                                f"# {rng.choice(ODD_TOKENS)}"])
            lines.insert(rng.randint(0, len(lines)), extra)
        if case % 4 == 1:
            k = rng.randrange(len(lines))
            lines[k] += rng.choice(SPACES) + rng.choice(ODD_TOKENS)
        if case % 3 == 0:
            k = rng.randrange(len(lines))
            lines[k] += " #" + rng.choice(ODD_TOKENS + ("3 4",))
        text = "".join(line + rng.choice(LINE_BREAKS) for line in lines)
        if case % 4 == 0:
            text = text[:rng.randint(0, len(text))]
        want = parse_outcome(parse_edge_list_by_lines, text)
        assert parse_outcome(parse_edge_list, text) == want, repr(text)


def test_graph_is_hashable_and_frozen(fig_g):
    with pytest.raises(Exception):
        fig_g.n = 7  # type: ignore[misc]


# --- differential test: bitmask Graph against the tuple-based construction ------
#
# The references below are the sorted-neighbor-tuple implementations the
# bitmask representation replaced.  A reference graph is (n, adj, labels).


def ref_build(n, edges, labels=None):
    sets = [set() for _ in range(n)]
    for u, v in edges:
        sets[u].add(v)
        sets[v].add(u)
    return n, tuple(tuple(sorted(s)) for s in sets), tuple(labels) if labels is not None else None


def ref_edges(ref):
    n, adj, _ = ref
    return [(u, v) for u in range(n) for v in adj[u] if u < v]


def ref_complement(ref):
    n, adj, labels = ref
    return n, tuple(tuple(v for v in range(n) if v != u and v not in set(adj[u]))
                    for u in range(n)), labels


def ref_power(ref, k):
    n, adj, labels = ref
    edges = []
    for s in range(n):
        depth = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if depth[u] == k:
                continue
            for v in adj[u]:
                if v not in depth:
                    depth[v] = depth[u] + 1
                    queue.append(v)
        edges += [(s, v) for v in depth if s < v]
    return ref_build(n, edges, labels)


def ref_induced(ref, vertices):
    _, _, labels = ref
    keep = sorted(set(vertices))
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in ref_edges(ref) if u in index and v in index]
    return ref_build(len(keep), edges,
                     tuple(labels[v] for v in keep) if labels is not None else None)


def ref_disjoint_union(a, b):
    na, nb = a[0], b[0]
    edges = ref_edges(a) + [(u + na, v + na) for u, v in ref_edges(b)]
    labels = None
    if a[2] is not None and b[2] is not None and len(set(a[2] + b[2])) == na + nb:
        labels = a[2] + b[2]
    return ref_build(na + nb, edges, labels)


def ref_to_graph6(ref):
    n, adj, _ = ref  # n < 2**18
    head = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    bits = "".join("1" if i in adj[j] else "0" for j in range(1, n) for i in range(j))
    bits += "0" * (-len(bits) % 6)
    return head + "".join(chr(int(bits[p:p + 6], 2) + 63) for p in range(0, len(bits), 6))


def ref_from_graph6(line):
    if line[0] == "~":  # n < 2**18
        n = sum(ord(ch) - 63 << s for ch, s in zip(line[1:4], (12, 6, 0)))
        body = line[4:]
    else:
        n, body = ord(line[0]) - 63, line[1:]
    nbits = n * (n - 1) // 2
    bits = 0
    for ch in body:
        bits = (bits << 6) | (ord(ch) - 63)
    bits >>= 6 * len(body) - nbits
    edges = []
    k = nbits - 1
    for j in range(1, n):
        for i in range(j):
            if (bits >> k) & 1:
                edges.append((i, j))
            k -= 1
    return ref_build(n, edges)


def assert_same(g, ref):
    n, adj, labels = ref
    assert (g.n, g.adj, g.labels) == (n, adj, labels)
    assert list(g.edges()) == ref_edges(ref)
    assert g.m == len(ref_edges(ref))
    assert [g.degree(v) for v in range(n)] == [len(a) for a in adj]
    fresh = from_edge_list(n, ref_edges(ref), labels)  # no cached views yet
    assert g == fresh and hash(g) == hash(fresh)


def differential_cases():
    rng = random.Random(20240)
    for n in range(6):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for bits in range(1 << len(pairs)):
            edges = [p for k, p in enumerate(pairs) if bits >> k & 1]
            labels = tuple("abcde"[:n]) if bits % 3 == 0 else None
            yield n, edges, labels, rng
    for n in range(60, 131, 10):
        for connected in (True, False):
            p = rng.choice([0.03, 0.1, 0.4])
            edges = [(rng.randrange(i), i) for i in range(1, n)] if connected else []
            edges += [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            rng.shuffle(edges)
            labels = tuple(f"v{i}" for i in range(n)) if connected else None
            yield n, edges, labels, rng


def test_bitmask_graph_matches_tuple_reference():
    for n, edges, labels, rng in differential_cases():
        g, ref = from_edge_list(n, edges, labels), ref_build(n, edges, labels)
        assert_same(g, ref)
        assert_same(complement(g), ref_complement(ref))
        line = to_graph6(g)
        assert line == ref_to_graph6(ref)
        assert_same(from_graph6(line), ref_from_graph6(line))
        if n >= 1 and is_connected(g):
            for k in (1, 2, 3):
                assert_same(power(g, k), ref_power(ref, k))
        for _ in range(2):
            sub = rng.sample(range(n), rng.randint(0, n))
            assert_same(induced_subgraph(g, sub), ref_induced(ref, sub))
        other_n = rng.randint(0, 4)
        other_edges = [(0, v) for v in range(1, other_n)]
        other_labels = tuple(f"w{i}" for i in range(other_n)) if labels else None
        assert_same(disjoint_union(g, from_edge_list(other_n, other_edges, other_labels)),
                    ref_disjoint_union(ref, ref_build(other_n, other_edges, other_labels)))
