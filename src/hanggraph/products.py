"""Corona, box (cartesian) product, and join, with closed-form metric oracles.

Each construction fixes a vertex numbering and returns it as a
ProductVertexMap alongside the graph:

  corona(g, h)     base vertex v keeps id v; copy x of h attached to v gets
                   id ng + v*nh + x (copies grouped by base, h-order within)
  cartesian(g, h)  pair (a, b) gets id a*nh + b (row-major)
  join(g, h)       g's vertices first, then h's shifted by ng

The oracles restate the product metrics purely in factor terms and never
build the product; they exist to be checked against BFS on the built product.
The corona and box-product forms read each factor's cached distance matrix;
``corona_distance_matrix`` and ``cartesian_distance_matrix`` build the whole
flat product matrix from its rows, and ``corona_distance_oracle`` gives one
corona distance from a ``DistanceMatrix``.
For the corona of a connected nonempty base, distances gain +1 per copy
endpoint (same-base copies: 1 if the copy factor has that edge, else 2);
with at least 2 base vertices and nonempty copies, the diameter is the base
diameter +2 and every periphery is P_base x V_copy.  For the box product of
connected factors, distances, eccentricities and the diameter add, and
peripheries multiply.
The join is hangable iff it is complete or has at most one universal vertex,
read from each factor's universal vertices.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph, GraphInputError, _build
from .metrics import DistanceMatrix, connected_apsp, metric_profile


class ProductVertexMap(NamedTuple):
    """Vertex numbering of a product; entries[i] tags product vertex i.

    Tags: ("g", v) original vertex of the first factor, ("h", x) of the
    second, ("gh", v, x) a pair.
    """
    kind: str  # "corona" | "cartesian" | "join"
    g_n: int
    h_n: int
    entries: tuple[tuple, ...]

    def describe(self, i: int, g: Graph, h: Graph) -> str:
        entry = self.entries[i]
        if entry[0] == "g":
            return g.label_of(entry[1])
        if entry[0] == "h":
            return h.label_of(entry[1])
        return f"({g.label_of(entry[1])},{h.label_of(entry[2])})"

    def to_text(self, g: Graph, h: Graph) -> str:
        lines = [f"{i} ↦ {self.describe(i, g, h)}"
                 for i in range(len(self.entries))]
        return "\n".join(lines) + "\n"


def _unique_or_none(labels: list[str]) -> tuple[str, ...] | None:
    return tuple(labels) if len(set(labels)) == len(labels) else None


def corona(g: Graph, h: Graph) -> tuple[Graph, ProductVertexMap]:
    """g plus one fresh copy of h per base vertex, each copy joined to its base.

    The construction is unconstrained; the metric oracles below add the
    connectivity and size preconditions they need.
    """
    ng, nh = g.n, h.n
    edges = list(g.edges())
    entries: list[tuple] = [("g", v) for v in range(ng)]
    for v in range(ng):
        off = ng + v * nh
        for x in range(nh):
            edges.append((v, off + x))
            entries.append(("gh", v, x))
        edges += [(off + x, off + y) for x, y in h.edges()]
    labels = [g.label_of(v) for v in range(ng)]
    labels += [f"({g.label_of(v)},{h.label_of(x)})"
               for v in range(ng) for x in range(nh)]
    vmap = ProductVertexMap("corona", ng, nh, tuple(entries))
    return _build(ng * (1 + nh), edges, _unique_or_none(labels)), vmap


def cartesian(g: Graph, h: Graph) -> tuple[Graph, ProductVertexMap]:
    """Box product: (a, b) ~ (c, d) iff a = c, bd an h-edge or b = d, ac a g-edge."""
    ng, nh = g.n, h.n
    edges = []
    for a in range(ng):
        base = a * nh
        edges += [(base + x, base + y) for x, y in h.edges()]
    for a, c in g.edges():
        edges += [(a * nh + b, c * nh + b) for b in range(nh)]
    entries = tuple(("gh", a, b) for a in range(ng) for b in range(nh))
    labels = [f"({g.label_of(a)},{h.label_of(b)})"
              for a in range(ng) for b in range(nh)]
    vmap = ProductVertexMap("cartesian", ng, nh, entries)
    return _build(ng * nh, edges, _unique_or_none(labels)), vmap


def join(g: Graph, h: Graph) -> tuple[Graph, ProductVertexMap]:
    """Disjoint union plus every edge between the two sides."""
    ng, nh = g.n, h.n
    edges = list(g.edges())
    edges += [(ng + x, ng + y) for x, y in h.edges()]
    edges += [(v, ng + x) for v in range(ng) for x in range(nh)]
    entries = tuple([("g", v) for v in range(ng)] + [("h", x) for x in range(nh)])
    labels = None
    if g.labels is not None and h.labels is not None:
        labels = _unique_or_none(list(g.labels + h.labels))
    vmap = ProductVertexMap("join", ng, nh, entries)
    return _build(ng + nh, edges, labels), vmap


# --- closed-form oracles -----------------------------------------------------


def _corona_decode(ng: int, nh: int, p: int) -> tuple[int, int]:
    """(base, copy index) with copy index -1 for base vertices."""
    if p < ng:
        return p, -1
    q, x = divmod(p - ng, nh)
    return q, x


def corona_distance_oracle(dist_g: DistanceMatrix, h: Graph, p: int, q: int) -> int:
    """Distance between corona vertices p, q from base distances alone.

    ``dist_g`` is the base matrix; ``h`` is the copy factor (its edges decide
    the distance between two copies over the same base vertex).  The forms
    hold for every connected base, a one-vertex base included.
    """
    ng, nh = dist_g.n, h.n
    total = ng * (1 + nh)
    if not (0 <= p < total and 0 <= q < total):
        raise GraphInputError(f"product vertex outside 0..{total - 1}")
    u, x = _corona_decode(ng, nh, p)
    v, y = _corona_decode(ng, nh, q)
    base = dist_g.dist(u, v)
    if x < 0 and y < 0:
        return base
    if x < 0 or y < 0:
        return base + 1
    if u != v:
        return base + 2
    if x == y:
        return 0
    return 1 if h.has_edge(x, y) else 2


def _rows(g: Graph) -> list[list[int]]:
    """The rows of g's cached distance matrix."""
    flat, n = list(connected_apsp(g)), g.n
    return [flat[u * n:(u + 1) * n] for u in range(n)]


def corona_distance_matrix(g: Graph, h: Graph) -> list[int]:
    """Every corona distance, flat row-major in product ids.

    Built row by row from the base distance rows; entry p * total + q equals
    ``corona_distance_oracle(all_pairs_distances(g), h, p, q)``; g must be
    connected and nonempty.
    """
    ng, nh = g.n, h.n
    rows = _rows(g)
    # from copy x to the copies over its own base vertex
    same_base = [[0 if y == x else 1 if h.has_edge(x, y) else 2 for y in range(nh)]
                 for x in range(nh)]
    flat: list[int] = []
    for row in rows:  # base vertices
        flat += row
        flat += [d + 1 for d in row for _ in range(nh)]
    for u, row in enumerate(rows):  # the copies over base vertex u
        to_base = [d + 1 for d in row]
        to_copies = [d + 2 for d in row for _ in range(nh)]
        for x in range(nh):
            flat += to_base
            flat += to_copies[:u * nh]
            flat += same_base[x]
            flat += to_copies[(u + 1) * nh:]
    return flat


class CoronaMetrics(NamedTuple):
    diameter: int
    vertex_periphery: tuple[frozenset[int], ...]
    graph_periphery: frozenset[int]


def corona_metric_oracle(g: Graph, h: Graph) -> CoronaMetrics:
    """Corona metrics in product ids, computed from the base profile only.

    Diameter is the base diameter +2; the periphery of any product vertex
    with base u is P_base(u) x V_copy; the graph periphery is
    P(base) x V_copy.  Requires the base connected with at least 2 vertices
    and a nonempty copy factor.
    """
    if g.n < 2:
        raise GraphInputError("corona metric forms need a base with at least 2 vertices")
    if h.n < 1:
        raise GraphInputError("corona metric forms need a nonempty copy factor")
    g_profile = metric_profile(g)  # raises when g is disconnected
    ng, nh = g.n, h.n

    def copies(base_set: frozenset[int]) -> frozenset[int]:
        return frozenset(ng + v * nh + x for v in base_set for x in range(nh))

    per_base = [copies(base_set) for base_set in g_profile.vertex_periphery]
    # base vertices first, then each base's nh copies, which share its periphery
    vp = per_base + [vp_u for vp_u in per_base for _ in range(nh)]
    return CoronaMetrics(
        diameter=g_profile.diameter + 2,
        vertex_periphery=tuple(vp),
        graph_periphery=copies(g_profile.graph_periphery))


class CartesianMetrics(NamedTuple):
    eccentricity: tuple[int, ...]
    diameter: int
    vertex_periphery: tuple[frozenset[int], ...]
    graph_periphery: frozenset[int]


def cartesian_distance_matrix(g: Graph, h: Graph) -> list[int]:
    """Every box-product distance, flat row-major in product ids: row (a, b)
    sums row a of g's matrix with row b of h's, pair by pair.  Both factors
    must be connected and nonempty."""
    rows_h = _rows(h)
    flat: list[int] = []
    for row_g in _rows(g):
        for row_h in rows_h:
            flat += [x + y for x in row_g for y in row_h]
    return flat


def cartesian_metric_oracle(g: Graph, h: Graph) -> CartesianMetrics:
    """Box-product metrics from factor metrics only: everything adds.

    Eccentricities and the diameter add; the periphery of (a, b) is
    P_g(a) x P_h(b) and the graph periphery is P(g) x P(h).  Both factors
    must be connected and nonempty.
    """
    if g.n < 1 or h.n < 1:
        raise GraphInputError("box product metric forms need nonempty factors")
    g_profile = metric_profile(g)
    h_profile = metric_profile(h)
    nh = h.n
    ecc = tuple(g_profile.eccentricity[a] + h_profile.eccentricity[b]
                for a in range(g.n) for b in range(nh))
    vp = tuple(frozenset(c * nh + d
                         for c in g_profile.vertex_periphery[a]
                         for d in h_profile.vertex_periphery[b])
               for a in range(g.n) for b in range(nh))
    gp = frozenset(c * nh + d
                   for c in g_profile.graph_periphery
                   for d in h_profile.graph_periphery)
    return CartesianMetrics(ecc, g_profile.diameter + h_profile.diameter, vp, gp)


def universal_vertices(g: Graph) -> frozenset[int]:
    """Vertices adjacent to every other vertex."""
    return frozenset(v for v in range(g.n) if g.degree(v) == g.n - 1)


def join_hangability_predicate(g: Graph, h: Graph) -> bool:
    """Hangability of join(g, h) from the factors alone, without building it.

    When both factors are nonempty the join has diameter at most 2, and it is
    hangable exactly when it is complete or has at most one universal vertex.
    Each vertex is adjacent to all of the other side, so it is universal in
    the join iff it is universal in its own factor, and the join is complete
    iff both factors are.
    """
    ug, uh = universal_vertices(g), universal_vertices(h)
    complete = len(ug) == g.n and len(uh) == h.n
    return complete or len(ug) + len(uh) <= 1
