"""Immutable finite simple graphs and the structural operations on them.

Vertices are 0..n-1.  A graph is stored once, as neighbor bitmasks: bit u of
``masks[v]`` is set iff uv is an edge.  Python ints are unbounded, so this
serves any n, at about n^2/8 bytes (a path: n^2/16).  The edge count,
neighbor tuples, the connectivity check and the kernel's distance matrix are
derived on first use and cached.  Optional unique labels are for
presentation only and never affect structure.  All operations return new
graphs.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Sequence

from . import kernels
from ._contract import MAX_DISTANCE_N
from ._record import Record


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


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def distance_limit_error(n: int) -> GraphInputError:
    """The error for a graph on n > ``MAX_DISTANCE_N`` vertices, whose
    distances may not fit the kernel's int16."""
    return GraphInputError(f"a distance matrix needs at most {MAX_DISTANCE_N} vertices; "
                           f"the graph has {n}")


class Graph(Record):
    n: int
    masks: tuple[int, ...]
    labels: tuple[str, ...] | None
    _fields = ("n", "masks", "labels")

    def __init__(self, n: int, masks: tuple[int, ...],
                 labels: tuple[str, ...] | None = None):
        fields = self.__dict__
        fields["n"] = n
        fields["masks"] = masks
        fields["labels"] = labels

    @cached_property
    def m(self) -> int:
        """Edge count."""
        return sum(mask.bit_count() for mask in self.masks) // 2

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuples, for the queue BFS."""
        return tuple(tuple(_bits(mask)) for mask in self.masks)

    @cached_property
    def unreached(self) -> int | None:
        """Smallest vertex a BFS from vertex 0 never reaches, or None."""
        seen = frontier = 1 if self.n else 0
        while frontier:
            frontier = _expand(self.masks, frontier) & ~seen
            seen |= frontier
        missing = ~seen & ((1 << self.n) - 1)
        return (missing & -missing).bit_length() - 1 if missing else None

    @cached_property
    def distances(self) -> Sequence[int]:
        """Flat row-major distance matrix, as the kernel returns it: the
        compiled kernel's ``array('h')``, or the pure kernel's list.  Raises
        before the kernel allocates n^2 entries: ``GraphInputError`` past
        ``MAX_DISTANCE_N`` vertices, where a distance may not fit int16, and
        the disconnected-graph error."""
        if self.n > MAX_DISTANCE_N:
            raise distance_limit_error(self.n)
        require_connected(self)
        return kernels.apsp(self.masks)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v, in sorted order."""
        for u, mask in enumerate(self.masks):
            for v in _bits(mask >> u + 1):
                yield (u, u + 1 + v)

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.masks[u] >> v & 1)

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)


def _build(n: int, edges: Iterable[tuple[int, int]],
           labels: Sequence[str] | None = None) -> Graph:
    """Assemble a Graph from (possibly duplicated) endpoint pairs."""
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph(n, tuple(masks), tuple(labels) if labels is not None else None)


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
    return g.unreached is None


def require_connected(g: Graph) -> None:
    """Raise the disconnected-graph error unless every vertex is reachable from 0."""
    if g.unreached is not None:
        raise disconnected_error(g.unreached)


def _expand(masks: Sequence[int], frontier: int) -> int:
    """Union of the neighborhoods of the vertices in ``frontier``."""
    reach = 0
    while frontier:
        low = frontier & -frontier
        reach |= masks[low.bit_length() - 1]
        frontier ^= low
    return reach


def complement(g: Graph) -> Graph:
    """Edge set inverted, labels kept."""
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full ^ 1 << v ^ mask for v, mask in enumerate(g.masks)),
                 g.labels)


def power(g: Graph, k: int) -> Graph:
    """k-th power: edge uv iff 0 < d_g(u, v) <= k.  Requires g connected."""
    if k < 1:
        raise GraphInputError(f"power exponent must be at least 1, got {k}")
    require_connected(g)
    masks = []
    for s in range(g.n):
        seen = frontier = 1 << s
        for _ in range(k):
            frontier = _expand(g.masks, frontier) & ~seen
            if not frontier:
                break
            seen |= frontier
        masks.append(seen ^ 1 << s)
    return Graph(g.n, tuple(masks), g.labels)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph on the given vertices, renumbered 0..k-1 in ascending order.

    Labels of the kept vertices are carried over.
    """
    keep = sorted(set(vertices))
    bit = {}  # kept vertex -> its bit in the subgraph
    kept = 0
    for i, v in enumerate(keep):
        if not 0 <= v < g.n:
            raise GraphInputError(f"vertex {v} outside 0..{g.n - 1}")
        bit[v] = 1 << i
        kept |= 1 << v
    masks = []
    for v in keep:
        old = g.masks[v] & kept
        new = 0
        while old:
            low = old & -old
            new |= bit[low.bit_length() - 1]
            old ^= low
        masks.append(new)
    labels = tuple([g.labels[v] for v in keep]) if g.labels is not None else None
    return Graph(len(keep), tuple(masks), labels)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g's vertices first, then h's shifted by g.n.

    Labels survive only when both factors are labeled and the union stays
    unique; otherwise the result is unlabeled.
    """
    labels = None
    if g.labels is not None and h.labels is not None:
        merged = g.labels + h.labels
        if len(set(merged)) == len(merged):
            labels = merged
    return Graph(g.n + h.n, g.masks + tuple(mask << g.n for mask in h.masks), labels)


# --- edge-list text format -------------------------------------------------
#
# First significant line "n m", then m lines "u v".  '#' starts a comment,
# blank lines are skipped.

def parse_edge_list(text: str) -> Graph:
    # every line break of str.splitlines is whitespace to str.split, so one
    # split of the whole text finds the tokens that splitting each line would
    body = text
    if "#" in text:
        body = "\n".join([line.split("#", 1)[0] for line in text.splitlines()])
    tokens = body.split()
    if len(tokens) < 2:
        raise GraphInputError("edge list needs an 'n m' header line")
    try:
        values = list(map(int, tokens))
    except ValueError:
        raise _bad_token_error(body) from None
    n, m = values[0], values[1]
    if n < 0 or m < 0:
        raise GraphInputError("header counts must be non-negative")
    rest = values[2:]
    if len(rest) != 2 * m:
        raise GraphInputError(
            f"header announces {m} edges but {len(rest) // 2} endpoint pairs follow")
    return from_edge_list(n, zip(rest[0::2], rest[1::2]))


def _bad_token_error(body: str) -> GraphInputError:
    """The error naming the first token of ``body`` that is no integer."""
    for lineno, line in enumerate(body.splitlines(), start=1):
        for tok in line.split():
            try:
                int(tok)
            except ValueError:
                return GraphInputError(f"line {lineno}: expected an integer, got {tok!r}")
    raise AssertionError("no bad token in the text")


def to_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"
