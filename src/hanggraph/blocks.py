"""Biconnected blocks, cut vertices, and block-graph recognition.

The blocks come from the pure kernel's lowpoint DFS (``biconnected_blocks``),
which is iterative, so path graphs with a hundred thousand vertices
decompose without touching the recursion limit.  Blocks partition the edge
set; any two blocks share at most one vertex, and the cut vertices are
exactly the vertices in two or more blocks.  An isolated K_1 counts as one
single-vertex block with no cut vertices.  The decomposition also answers
whether every block is a clique, from the same pass; ``is_block_graph``,
which needs no blocks, asks the selected kernel instead, which runs a lowpoint
DFS (in C on the compiled backend) and tests each block for a clique.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import NamedTuple

from . import kernels
from .graph import Graph, GraphInputError, require_connected


class BlockDecomposition(NamedTuple):
    # each block as a sorted vertex tuple; blocks sorted lexicographically
    blocks: tuple[tuple[int, ...], ...]
    cut_vertices: frozenset[int]
    # every block is a clique: the answer of is_block_graph, from the same DFS
    block_graph: bool

    def to_text(self, g: Graph) -> str:
        lines = ["block: " + " ".join(g.label_of(v) for v in blk) for blk in self.blocks]
        lines.append("cut_vertices: " +
                     " ".join(g.label_of(v) for v in sorted(self.cut_vertices)))
        return "\n".join(lines) + "\n"


def _require_connected(g: Graph, task: str) -> None:
    if g.n < 1:
        raise GraphInputError(f"{task} needs at least one vertex")
    require_connected(g)


def biconnected_components(g: Graph) -> BlockDecomposition:
    """Blocks, cut vertices and the block-graph test of a connected graph,
    from one DFS: a block on k vertices is a clique iff it has k(k-1)/2
    edges."""
    _require_connected(g, "block decomposition")
    if g.n == 1:
        return BlockDecomposition(((0,),), frozenset(), True)
    from ._pykernel import biconnected_blocks  # the one Python DFS; loaded on first use
    blocks = []
    block_graph = True
    for members, edges in biconnected_blocks(g.masks):
        blocks.append(tuple(sorted(members)))
        block_graph = block_graph and 2 * edges == len(members) * (len(members) - 1)
    blocks.sort()
    blocks_at = Counter(chain.from_iterable(blocks))
    return BlockDecomposition(tuple(blocks),
                              frozenset(v for v, k in blocks_at.items() if k > 1),
                              block_graph)


def is_block_graph(g: Graph) -> bool:
    """True iff every block of the (connected) graph induces a complete graph."""
    _require_connected(g, "block decomposition")
    return kernels.is_block_graph_masks(g.masks)


def is_tree(g: Graph) -> bool:
    """True iff the (connected) graph is acyclic; K_1 is a tree."""
    _require_connected(g, "tree test")
    return g.m == g.n - 1
