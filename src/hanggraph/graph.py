"""Immutable finite simple graphs and the structural operations on them.

Vertices are 0..n-1.  Adjacency is a tuple of sorted neighbor tuples; an
optional tuple of unique labels rides along for presentation only and never
affects structure.  All operations return new graphs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class GraphInputError(ValueError):
    """Malformed graph input: bad edge, bad size, or unparseable text."""


class DisconnectedGraphError(ValueError):
    """Raised by operations that require a connected graph."""

    def __init__(self, message: str, unreached: int | None = None):
        super().__init__(message)
        self.unreached = unreached


def disconnected_error(unreached: int, source: int = 0) -> DisconnectedGraphError:
    """The error for a graph in which ``unreached`` cannot be reached from ``source``."""
    return DisconnectedGraphError(
        f"graph is not connected: vertex {unreached} is unreachable from {source}",
        unreached=unreached)


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None

    @property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v, in sorted order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def neighbor_masks(self) -> tuple[int, ...]:
        """Adjacency as bitmasks (bit j of entry i set iff ij is an edge).

        Computed on first use and cached; kernels consume this form.
        """
        cached = self.__dict__.get("_masks")
        if cached is None:
            masks = [0] * self.n
            for u in range(self.n):
                for v in self.adj[u]:
                    masks[u] |= 1 << v
            cached = tuple(masks)
            object.__setattr__(self, "_masks", cached)
        return cached


def _build(n: int, edges: Iterable[tuple[int, int]],
           labels: Sequence[str] | None = None) -> Graph:
    """Assemble a Graph from (possibly duplicated) endpoint pairs."""
    sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        sets[u].add(v)
        sets[v].add(u)
    adj = tuple(tuple(sorted(s)) for s in sets)
    lab = tuple(labels) if labels is not None else None
    return Graph(n, adj, lab)


def from_edge_list(n: int, edges: Iterable[tuple[int, int]],
                   labels: Sequence[str] | None = None) -> Graph:
    """Graph on vertices 0..n-1 from endpoint pairs.

    Duplicate pairs and reversed duplicates collapse to one edge.  Endpoints
    out of range and self-loops are rejected with the offending edge named.
    """
    if n < 0:
        raise GraphInputError("vertex count must be non-negative")
    checked = []
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise GraphInputError(f"edge ({u}, {v}) is a self-loop")
        checked.append((u, v))
    if labels is not None:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise GraphInputError("label count does not match vertex count")
        if len(set(labels)) != n:
            raise GraphInputError("labels must be unique")
    return _build(n, checked, labels)


def is_connected(g: Graph) -> bool:
    """Vacuously true for n <= 1."""
    return g.n <= 1 or first_unreached(g) is None


def first_unreached(g: Graph, source: int = 0) -> int | None:
    """Smallest vertex BFS from ``source`` never reaches, or None."""
    seen = bytearray(g.n)
    seen[source] = 1
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if not seen[v]:
                seen[v] = 1
                queue.append(v)
    for v in range(g.n):
        if not seen[v]:
            return v
    return None


def complement(g: Graph) -> Graph:
    """Edge set inverted, labels kept."""
    all_v = range(g.n)
    adj = []
    for u in all_v:
        nbrs = set(g.adj[u])
        adj.append(tuple(v for v in all_v if v != u and v not in nbrs))
    return Graph(g.n, tuple(adj), g.labels)


def power(g: Graph, k: int) -> Graph:
    """k-th power: edge uv iff 0 < d_g(u, v) <= k.  Requires g connected."""
    if k < 1:
        raise GraphInputError(f"power exponent must be at least 1, got {k}")
    missing = first_unreached(g) if g.n > 1 else None
    if missing is not None:
        raise disconnected_error(missing)
    edges = []
    for s in range(g.n):
        # BFS truncated at depth k
        depth = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            du = depth[u]
            if du == k:
                continue
            for v in g.adj[u]:
                if v not in depth:
                    depth[v] = du + 1
                    queue.append(v)
        for v, d in depth.items():
            if s < v:
                edges.append((s, v))
    return _build(g.n, edges, g.labels)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph on the given vertices, renumbered 0..k-1 in ascending order.

    Labels of the kept vertices are carried over.
    """
    keep = sorted(set(vertices))
    for v in keep:
        if not 0 <= v < g.n:
            raise GraphInputError(f"vertex {v} outside 0..{g.n - 1}")
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in g.edges()
             if u in index and v in index]
    labels = tuple(g.labels[v] for v in keep) if g.labels is not None else None
    return _build(len(keep), edges, labels)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g's vertices first, then h's shifted by g.n.

    Labels survive only when both factors are labeled and the union stays
    unique; otherwise the result is unlabeled.
    """
    edges = list(g.edges())
    edges += [(u + g.n, v + g.n) for u, v in h.edges()]
    labels = None
    if g.labels is not None and h.labels is not None:
        merged = g.labels + h.labels
        if len(set(merged)) == len(merged):
            labels = merged
    return _build(g.n + h.n, edges, labels)


# --- edge-list text format -------------------------------------------------
#
# First significant line "n m", then m lines "u v".  '#' starts a comment,
# blank lines are skipped.

def parse_edge_list(text: str) -> Graph:
    tokens: list[tuple[int, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for tok in body.split():
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
    edges = [(rest[2 * i], rest[2 * i + 1]) for i in range(m)]
    return from_edge_list(n, edges)


def to_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"
