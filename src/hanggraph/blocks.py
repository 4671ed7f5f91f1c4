"""Biconnected blocks, cut vertices, and block-graph recognition.

Iterative lowpoint DFS with an explicit edge stack, so path graphs with a
hundred thousand vertices decompose without touching the recursion limit.
Blocks partition the edge set; any two blocks share at most one vertex and a
shared vertex is a cut vertex.  An isolated K_1 counts as one single-vertex
block with no cut vertices.  Block-graph recognition asks the kernel, which
runs the same DFS over the neighbor masks and tests each block for a clique.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .graph import Graph, GraphInputError, require_connected


@dataclass(frozen=True)
class BlockDecomposition:
    # each block as a sorted vertex tuple; blocks sorted lexicographically
    blocks: tuple[tuple[int, ...], ...]
    cut_vertices: frozenset[int]

    def to_text(self, g: Graph | None = None) -> str:
        def name(v: int) -> str:
            return g.label_of(v) if g is not None else str(v)

        lines = ["block: " + " ".join(name(v) for v in blk) for blk in self.blocks]
        lines.append("cut_vertices: " +
                     " ".join(name(v) for v in sorted(self.cut_vertices)))
        return "\n".join(lines) + "\n"


def _require_connected(g: Graph, task: str) -> None:
    if g.n < 1:
        raise GraphInputError(f"{task} needs at least one vertex")
    require_connected(g)


def biconnected_components(g: Graph) -> BlockDecomposition:
    """Blocks and cut vertices of a connected graph."""
    _require_connected(g, "block decomposition")
    if g.n == 1:
        return BlockDecomposition(((0,),), frozenset())

    disc = [-1] * g.n
    low = [0] * g.n
    parent = [-1] * g.n
    nexti = [0] * g.n  # per-vertex adjacency cursor
    estack: list[tuple[int, int]] = []
    blocks: list[tuple[int, ...]] = []
    cuts: set[int] = set()
    root_children = 0

    stack = [0]
    disc[0] = low[0] = 0
    timer = 1
    while stack:
        v = stack[-1]
        if nexti[v] < len(g.adj[v]):
            w = g.adj[v][nexti[v]]
            nexti[v] += 1
            if disc[w] == -1:
                parent[w] = v
                disc[w] = low[w] = timer
                timer += 1
                estack.append((v, w))
                stack.append(w)
                if v == 0:
                    root_children += 1
            elif w != parent[v] and disc[w] < disc[v]:
                estack.append((v, w))
                if disc[w] < low[v]:
                    low[v] = disc[w]
        else:
            stack.pop()
            if not stack:
                break
            u = stack[-1]
            if low[v] < low[u]:
                low[u] = low[v]
            if low[v] >= disc[u]:
                members: set[int] = set()
                while True:
                    a, b = estack.pop()
                    members.add(a)
                    members.add(b)
                    if (a, b) == (u, v):
                        break
                blocks.append(tuple(sorted(members)))
                if u != 0:
                    cuts.add(u)
    if root_children > 1:
        cuts.add(0)
    blocks.sort()
    return BlockDecomposition(tuple(blocks), frozenset(cuts))


def is_block_graph(g: Graph) -> bool:
    """True iff every block of the (connected) graph induces a complete graph."""
    _require_connected(g, "block decomposition")
    return kernels.is_block_graph_masks(g.masks)


def is_tree(g: Graph) -> bool:
    """True iff the (connected) graph is acyclic; K_1 is a tree."""
    _require_connected(g, "tree test")
    return g.m == g.n - 1
