"""Batch classification and brute-force search over small graphs.

classify_graph fills one flat record per graph from one kernel call,
``classify_masks``, which counts the edges and decides connectivity, the
flags, diameter, radius, |P(G)|, the smallest hangable power (the ceil(d/k)
transform of the graph's one distance matrix) and self-complementarity, and
returns the complement's distance matrix when the complement is connected.
The subset decider judges that matrix for the complement's hangability, so
no APSP runs here; a graph too large for a distance matrix gets an error
record.  classify_stream maps
a graph6 stream to records in input order, turning bad lines into error
records instead of dying.  search_hangable_subgraphs counts the connected
and the hangable induced subgraphs of a host per subset size, up to a subset
budget, with one ``subgraph_counts`` kernel call per size: the kernel walks
the subsets and builds no ``Graph``; only a hangable subset whose graph6 is
asked for becomes one.  smallest_hangable_power walks
k = 1, 2, ... building each power explicitly: it is the independent route
the tests hold the kernel's transform against.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from . import graph6 as g6
from . import kernels
from ._contract import (F_BLOCK_GRAPH, F_CONNECTED, F_SELF_CENTERED, F_SELF_COMPLEMENTARY,
                        F_TREE, MAX_DISTANCE_N, SELF_COMPLEMENTARY_MAX_N)
from .graph import Graph, GraphInputError, distance_limit_error, induced_subgraph, power
from .metrics import check_hangable


class Classification(NamedTuple):
    """One record per graph; metric fields are None when undefined.

    ``self_complementary`` is only computed for n <= 8 (backtracking search)
    and ``complement_hangable`` only when the complement is connected; both
    are None otherwise.  ``smallest_hangable_power`` is the least k with
    G^k hangable, read off the graph's own distances (G^k's are ceil(d/k))
    as ``smallest_power_k`` reads it, and ``hangable`` is
    ``smallest_hangable_power == 1``.
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


def is_self_complementary(g: Graph) -> bool | None:
    """Whether g is isomorphic to its complement, as ``classify_masks``
    decides it: a backtracking search that maps vertices 0..n-1 in order,
    each to an unused complement vertex of the same degree whose adjacency
    to the vertices already mapped agrees.  Returns None above
    SELF_COMPLEMENTARY_MAX_N vertices (not computed).
    """
    if g.n > SELF_COMPLEMENTARY_MAX_N:
        return None
    if g.n < 1:  # the empty graph is its own complement
        return True
    return bool(kernels.classify_masks(g.masks)[0] & F_SELF_COMPLEMENTARY)


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
    n = g.n
    if n < 1:
        return Classification(n, g.m, True, note="empty graph")
    if n > MAX_DISTANCE_N:
        return Classification(n, error=str(distance_limit_error(n)))
    flags, m, diameter, radius, periphery_size, k, co_dist = kernels.classify_masks(g.masks)
    comp_hang = kernels.hangable_subset(co_dist, n)[0] if co_dist is not None else None
    selfco = bool(flags & F_SELF_COMPLEMENTARY) if n <= SELF_COMPLEMENTARY_MAX_N else None
    if not flags & F_CONNECTED:
        return Classification(n, m, False, None, None, None, None, None, None, None,
                              comp_hang, selfco, None,
                              "disconnected: metric fields not computed")
    return Classification(n, m, True, bool(flags & F_TREE), bool(flags & F_BLOCK_GRAPH),
                          bool(flags & F_SELF_CENTERED), k == 1, diameter, radius,
                          periphery_size, comp_hang, selfco, k)


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


class SizeCount(NamedTuple):
    size: int
    subsets: int
    connected: int
    hangable: int


class SubgraphSearchReport(NamedTuple):
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
    ``budget``, counting only until it does.  ``collect_graph6`` gathers the
    distinct graph6 strings of the hangable subgraphs (distinct as labeled
    encodings of the renumbered subgraphs, not up to isomorphism).
    """
    if mode not in ("induced", "connected-induced"):
        raise GraphInputError(f"unknown search mode {mode!r}")
    n = host.n
    if not 1 <= max_vertices <= n:
        raise GraphInputError(
            f"max_vertices must be in 1..{n}, got {max_vertices}")
    subsets, total = [1], 0  # subsets[k] = comb(n, k), each from the one before
    for k in range(1, max_vertices + 1):
        subsets.append(subsets[-1] * (n - k + 1) // k)
        total += subsets[k]
        if total > budget:  # stop before the counts grow too large to add up
            raise BudgetExceededError(
                f"search needs more than the budget of {budget} subsets")

    found: set[str] | None = set() if collect_graph6 else None
    emit = None if found is None else (
        lambda ids: found.add(g6.to_graph6(induced_subgraph(host, ids))))
    counts = []
    for k in range(1, max_vertices + 1):
        connected, hangable = kernels.subgraph_counts(host.masks, k, emit)
        reported = connected if mode == "connected-induced" else subsets[k]
        counts.append(SizeCount(k, reported, connected, hangable))
    emitted = tuple(sorted(found)) if found is not None else None
    return SubgraphSearchReport(mode, max_vertices, tuple(counts), emitted)
