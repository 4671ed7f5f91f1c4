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
always equals ``bfs_distances(g, v)``.  The kernel runs once per graph: its
flat matrix is kept on the graph and shared by the profile and both deciders.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import kernels
from .graph import Graph, GraphInputError, disconnected_error


@dataclass(frozen=True)
class DistanceMatrix:
    n: int
    rows: tuple[tuple[int, ...], ...]

    def dist(self, u: int, v: int) -> int:
        return self.rows[u][v]

    def __getitem__(self, v: int) -> tuple[int, ...]:
        return self.rows[v]

    def eccentricity(self, v: int) -> int:
        return max(self.rows[v])


@dataclass(frozen=True)
class MetricProfile:
    eccentricity: tuple[int, ...]
    diameter: int
    radius: int
    vertex_periphery: tuple[frozenset[int], ...]
    graph_periphery: frozenset[int]


@dataclass(frozen=True)
class HangabilityReport:
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


def _connected_apsp(g: Graph) -> list[int]:
    """Flat kernel distance matrix of a nonempty connected graph.

    Computed on first use and kept on the graph, like its neighbor masks.
    """
    _require_nonempty(g)
    flat = g.__dict__.get("_dist")
    if flat is None:
        flat = kernels.apsp(g.neighbor_masks())
        object.__setattr__(g, "_dist", flat)
    for v in range(g.n):
        if flat[v] < 0:
            raise disconnected_error(v)
    return flat


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """Full distance matrix via the kernel backend."""
    flat = _connected_apsp(g)
    n = g.n
    rows = tuple(tuple(flat[u * n:(u + 1) * n]) for u in range(n))
    return DistanceMatrix(n, rows)


def metric_profile(g: Graph, dm: DistanceMatrix | None = None) -> MetricProfile:
    if dm is None:
        dm = all_pairs_distances(g)
    return profile_of_matrix(dm)


def profile_of_matrix(dm: DistanceMatrix) -> MetricProfile:
    ecc = tuple(max(row) for row in dm.rows)
    diameter = max(ecc)
    radius = min(ecc)
    vp = tuple(frozenset(u for u, d in enumerate(row) if d == ecc[v])
               for v, row in enumerate(dm.rows))
    gp = frozenset(v for v, e in enumerate(ecc) if e == diameter)
    return MetricProfile(ecc, diameter, radius, vp, gp)


def is_self_centered(g: Graph) -> bool:
    """True iff radius equals diameter, i.e. P(G) is all of V."""
    profile = metric_profile(g)
    return profile.radius == profile.diameter


def check_hangable(g: Graph) -> HangabilityReport:
    """Peripheral-containment decider.

    When the graph is not hangable the witness is the lexicographically first
    (v, u) with u in P(v) but outside P(G).
    """
    flat = _connected_apsp(g)
    ok, v, u = kernels.hangable_subset(flat, g.n)
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
    flat = _connected_apsp(g)
    ok, v, u, w = kernels.hangable_triples(flat, g.n)
    if ok:
        return HangabilityReport(True)
    return HangabilityReport(False, witness=(v, u), triple_witness=(v, u, w))
