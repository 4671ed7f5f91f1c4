"""Batch classification and brute-force search over small graphs.

classify_graph fills one flat record per graph from one kernel APSP of the
graph and one of its complement; classify_stream maps a graph6 stream to
records in input order, turning bad lines into error records instead of
dying.  search_hangable_subgraphs enumerates induced subgraphs of a host up
to a subset budget.  smallest_hangable_power walks k = 1, 2, ... building
each power explicitly; the kernels contain an independent shortcut
(ceil-divided distances) the tests hold it against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator

from . import graph6 as g6
from .blocks import is_block_graph
from .graph import Graph, GraphInputError, complement, induced_subgraph, is_connected, power
from .metrics import check_hangable, metric_profile


@dataclass(frozen=True)
class Classification:
    """One record per graph; metric fields are None when undefined.

    ``self_complementary`` is only computed for n <= 8 (backtracking search)
    and ``complement_hangable`` only when the complement is connected; both
    are None otherwise.  ``hangable`` is ``smallest_hangable_power == 1``.
    ``error`` is set on records for unparseable input lines, ``note``
    explains missing fields.
    """
    n: int | None = None
    m: int | None = None
    connected: bool | None = None
    tree: bool | None = None
    block_graph: bool | None = None
    self_centered: bool | None = None
    hangable: bool | None = None
    diameter: int | None = None
    radius: int | None = None
    periphery_size: int | None = None
    complement_hangable: bool | None = None
    self_complementary: bool | None = None
    smallest_hangable_power: int | None = None
    note: str | None = None
    error: str | None = None


COLUMNS = ("n", "m", "connected", "tree", "block_graph", "self_centered",
           "hangable", "diameter", "radius", "periphery_size",
           "complement_hangable", "self_complementary",
           "smallest_hangable_power", "note")

SELF_COMPLEMENTARY_MAX_N = 8


def is_self_complementary(g: Graph) -> bool | None:
    """Backtracking search for an isomorphism onto the complement.

    Maps vertices 0..n-1 in order, each to an unused complement vertex of the
    same degree whose adjacency to the vertices already mapped agrees.
    Returns None above SELF_COMPLEMENTARY_MAX_N vertices (not computed).
    """
    n = g.n
    if n > SELF_COMPLEMENTARY_MAX_N:
        return None
    if n * (n - 1) // 2 != 2 * g.m:
        return False
    masks = g.neighbor_masks()
    cmasks = [((1 << n) - 1) ^ (1 << v) ^ mv for v, mv in enumerate(masks)]
    image = [0] * n

    def extend(v: int, used: int) -> bool:
        if v == n:
            return True
        mv = masks[v]
        for w, cw in enumerate(cmasks):
            if (not used & (1 << w) and cw.bit_count() == mv.bit_count()
                    and all((mv >> u & 1) == (cw >> image[u] & 1) for u in range(v))):
                image[v] = w
                if extend(v + 1, used | 1 << w):
                    return True
        return False

    return extend(0, 0)


def smallest_hangable_power(g: Graph) -> int:
    """Least k with the k-th power hangable; at most the diameter.

    Builds each power graph outright and runs the decider on it.  The power
    at k = diameter <= n - 1 is complete, so the loop over k < n returns.
    """
    if check_hangable(g).hangable:  # connectivity errors surface here
        return 1
    for k in range(2, g.n):
        if check_hangable(power(g, k)).hangable:
            return k
    raise AssertionError("power at k = diameter is complete, hence hangable")


def classify_graph(g: Graph) -> Classification:
    n, m = g.n, g.m
    if n < 1:
        return Classification(n=n, m=m, connected=True, note="empty graph")
    co = complement(g)
    comp_hang = check_hangable(co).hangable if is_connected(co) else None
    selfco = is_self_complementary(g)
    if not is_connected(g):
        return Classification(
            n=n, m=m, connected=False,
            complement_hangable=comp_hang, self_complementary=selfco,
            note="disconnected: metric fields not computed")
    profile = metric_profile(g)
    k = smallest_hangable_power(g)
    return Classification(
        n=n, m=m, connected=True,
        tree=m == n - 1,
        block_graph=is_block_graph(g),
        self_centered=profile.radius == profile.diameter,
        hangable=k == 1,
        diameter=profile.diameter,
        radius=profile.radius,
        periphery_size=len(profile.graph_periphery),
        complement_hangable=comp_hang,
        self_complementary=selfco,
        smallest_hangable_power=k)


def classify_stream(lines: Iterable[str]) -> Iterator[Classification]:
    """One record per input line, in order; parse failures become records."""
    for line in lines:
        text = line.strip()
        try:
            g = g6.from_graph6(text)
        except GraphInputError as exc:
            yield Classification(error=str(exc), note=f"input line {text!r}")
            continue
        yield classify_graph(g)


# --- induced-subgraph search -------------------------------------------------


class BudgetExceededError(ValueError):
    pass


@dataclass(frozen=True)
class SizeCount:
    size: int
    subsets: int
    connected: int
    hangable: int


@dataclass(frozen=True)
class SubgraphSearchReport:
    mode: str
    max_vertices: int
    sizes: tuple[SizeCount, ...]
    hangable_graph6: tuple[str, ...] | None

    @property
    def total_hangable(self) -> int:
        return sum(s.hangable for s in self.sizes)


def search_hangable_subgraphs(host: Graph, max_vertices: int,
                              mode: str = "connected-induced",
                              budget: int = 10_000_000,
                              collect_graph6: bool = False) -> SubgraphSearchReport:
    """Count hangable induced subgraphs of ``host`` per subset size.

    Every vertex subset of size 1..max_vertices is visited (there is no
    isomorphism reduction; counts are over labeled subsets).  Hangability is
    only defined for connected graphs, so hangable counts range over the
    connected subsets either way; the two modes differ in what the subset
    column reports: "induced" counts every subset, "connected-induced" counts
    only the connected ones.  Refuses outright when the subset count exceeds
    ``budget``.  ``collect_graph6`` gathers the distinct graph6 strings of
    the hangable subgraphs (distinct as labeled encodings of the renumbered
    subgraphs, not up to isomorphism).
    """
    if mode not in ("induced", "connected-induced"):
        raise GraphInputError(f"unknown search mode {mode!r}")
    if not 1 <= max_vertices <= host.n:
        raise GraphInputError(
            f"max_vertices must be in 1..{host.n}, got {max_vertices}")
    total = sum(comb(host.n, k) for k in range(1, max_vertices + 1))
    if total > budget:
        raise BudgetExceededError(
            f"search needs {total} subsets, over the budget of {budget}")

    found: set[str] | None = set() if collect_graph6 else None
    counts = []
    for k in range(1, max_vertices + 1):
        subsets = connected = hangable = 0
        for combo in itertools.combinations(range(host.n), k):
            subsets += 1
            sub = induced_subgraph(host, combo)
            if not is_connected(sub):
                continue
            connected += 1
            if check_hangable(sub).hangable:
                hangable += 1
                if found is not None:
                    found.add(g6.to_graph6(sub))
        reported = connected if mode == "connected-induced" else subsets
        counts.append(SizeCount(k, reported, connected, hangable))
    emitted = tuple(sorted(found)) if found is not None else None
    return SubgraphSearchReport(mode, max_vertices, tuple(counts), emitted)
