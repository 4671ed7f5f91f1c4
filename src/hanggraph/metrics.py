"""Distances, eccentricities, peripheries, and the two hangability deciders.

Terminology: the periphery P(v) of a vertex is the set of vertices at
distance exactly ecc(v) from it; the periphery P(G) of the graph is the set
of vertices whose eccentricity equals the diameter.  A connected graph is
hangable when P(v) is contained in P(G) for every vertex v; equivalently,
whenever u is farthest from some v and w is farthest from u, the distance
d(u, w) equals the diameter.  Both formulations are implemented and they are
kept deliberately independent so they can be tested against each other:
``check_hangable`` scans vertex peripheries, ``check_hangable_triples`` scans
farthest-of-farthest triples.

All metric operations require a connected graph on at least one vertex.
``bfs_distances`` is a direct queue BFS over adjacency lists;
``all_pairs_distances`` goes through the kernel backend.  Row v of the matrix
always equals ``bfs_distances(g, v)``.  APSP runs once per graph: its flat
matrix is kept on the graph and read by the profile kernel, both deciders
and the product oracles.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, islice
from typing import NamedTuple, Sequence

from . import kernels
from ._record import Record
from .graph import Graph, GraphInputError, disconnected_error


class DistanceMatrix(Record):
    n: int
    rows: tuple[tuple[int, ...], ...]
    _fields = ("n", "rows")

    def __init__(self, n: int, rows: tuple[tuple[int, ...], ...]):
        fields = self.__dict__
        fields["n"] = n
        fields["rows"] = rows

    def dist(self, u: int, v: int) -> int:
        return self.rows[u][v]

    def __getitem__(self, v: int) -> tuple[int, ...]:
        return self.rows[v]


class MetricProfile(NamedTuple):
    eccentricity: tuple[int, ...]
    diameter: int
    radius: int
    vertex_periphery: tuple[frozenset[int], ...]
    graph_periphery: frozenset[int]


class HangabilityReport(NamedTuple):
    hangable: bool
    # (v, u): u lies in P(v) but not in P(G); lexicographically first such pair
    witness: tuple[int, int] | None = None
    # (v, u, w): u farthest from v, w farthest from u, d(u, w) < diameter
    triple_witness: tuple[int, int, int] | None = None


def _require_nonempty(g: Graph) -> None:
    if g.n < 1:
        raise GraphInputError("metric operations need at least one vertex")


def bfs_distances(g: Graph, source: int) -> tuple[int, ...]:
    """Hop distances from ``source`` to every vertex.  Plain queue BFS."""
    _require_nonempty(g)
    if not 0 <= source < g.n:
        raise GraphInputError(f"source {source} outside 0..{g.n - 1}")
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    for v, d in enumerate(dist):
        if d < 0:
            raise disconnected_error(v, source)
    return tuple(dist)


def connected_apsp(g: Graph) -> Sequence[int]:
    """Flat kernel distance matrix of a nonempty connected graph; raises the
    empty-graph ``GraphInputError`` or the disconnected-graph error first."""
    _require_nonempty(g)
    return g.distances


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """Full distance matrix via the kernel backend."""
    flat, n = connected_apsp(g), g.n
    return DistanceMatrix(n, tuple(tuple(flat[u * n:(u + 1) * n]) for u in range(n)))


def metric_profile(g: Graph) -> MetricProfile:
    """Eccentricities, diameter, radius and peripheries, from g's one matrix."""
    return _profile(connected_apsp(g), g.n)


def profile_of_matrix(dm: DistanceMatrix) -> MetricProfile:
    return _profile(list(chain.from_iterable(dm.rows)), dm.n)


def _profile(flat: Sequence[int], n: int) -> MetricProfile:
    """One kernel call; each P(v) is the next |P(v)| of the ``members`` ids."""
    ecc, diameter, radius, members, counts = kernels.profile(flat, n)
    ids = iter(members)
    vp = tuple([frozenset(islice(ids, c)) for c in counts])
    gp = frozenset([v for v, e in enumerate(ecc) if e == diameter])
    return MetricProfile(tuple(ecc), diameter, radius, vp, gp)


def is_self_centered(g: Graph) -> bool:
    """True iff radius equals diameter, i.e. P(G) is all of V."""
    _, diameter, radius, _, _ = kernels.profile(connected_apsp(g), g.n)
    return radius == diameter


def check_hangable(g: Graph) -> HangabilityReport:
    """Peripheral-containment decider.

    When the graph is not hangable the witness is the lexicographically first
    (v, u) with u in P(v) but outside P(G).
    """
    ok, v, u = kernels.hangable_subset(connected_apsp(g), g.n)
    if ok:
        return HangabilityReport(True)
    return HangabilityReport(False, witness=(v, u))


def check_hangable_triples(g: Graph) -> HangabilityReport:
    """Farthest-of-farthest decider; agrees with ``check_hangable`` always.

    When the graph is not hangable the triple witness is the lexicographically
    first violating triple (v, u, w), and its pair (v, u) is the same witness
    ``check_hangable`` reports: the first violating pair starts the first
    violating triple.
    """
    ok, v, u, w = kernels.hangable_triples(connected_apsp(g), g.n)
    if ok:
        return HangabilityReport(True)
    return HangabilityReport(False, witness=(v, u), triple_witness=(v, u, w))
