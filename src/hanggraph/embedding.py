"""Every graph embeds in a hangable graph at most one vertex larger.

The construction is case split, not search:

  identity    h is already connected and hangable; nothing to add.
  cone        h has no universal vertex (every disconnected graph qualifies):
              join a single fresh vertex to all of h.  The fresh vertex is
              then the unique universal vertex, so the join is hangable.
  split-cone  h is connected, not hangable, and its universal set U is
              nonempty: join (K_1 disjoint-union h[U]) with h[V - U].  The
              fresh vertex keeps every vertex of U from staying universal and
              picks up no universality itself, so the join has no universal
              vertex at all and is hangable; h sits inside it induced because
              U was joined to everything already.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .graph import Graph, GraphInputError, disjoint_union, induced_subgraph, is_connected
from .metrics import check_hangable
from .products import join, universal_vertices


class EmbeddingResult(NamedTuple):
    supergraph: Graph
    injection: tuple[int, ...]  # image of input vertex i
    branch: str  # "identity" | "cone" | "split-cone"


def hangable_embedding(h: Graph) -> EmbeddingResult:
    """A hangable supergraph of h adding at most one vertex, with the embedding."""
    if h.n >= 1 and is_connected(h) and check_hangable(h).hangable:
        return EmbeddingResult(h, tuple(range(h.n)), "identity")

    universal = universal_vertices(h)
    if not universal:
        supergraph, _ = join(Graph(1, (0,)), h)
        return EmbeddingResult(supergraph, tuple(v + 1 for v in range(h.n)), "cone")

    # h is connected here: a universal vertex forces connectivity, and a
    # connected hangable h already took the identity branch.
    u_sorted = sorted(universal)
    rest = sorted(set(range(h.n)) - universal)
    left = disjoint_union(Graph(1, (0,)), induced_subgraph(h, u_sorted))
    right = induced_subgraph(h, rest)
    supergraph, _ = join(left, right)
    image = [0] * h.n
    for i, v in enumerate(u_sorted):
        image[v] = 1 + i
    offset = 1 + len(u_sorted)
    for i, v in enumerate(rest):
        image[v] = offset + i
    return EmbeddingResult(supergraph, tuple(image), "split-cone")


def verify_induced_subgraph(g: Graph, h: Graph,
                            injection: Sequence[int] | Mapping[int, int]) -> bool:
    """True iff ``injection`` embeds h into g as an induced subgraph.

    The map must be total on h's vertices and land inside g (anything else
    raises); injectivity and edge-for-edge agreement are what get checked.
    """
    if isinstance(injection, Mapping):
        try:
            image = [injection[v] for v in range(h.n)]
        except KeyError as exc:
            raise GraphInputError(f"injection not total: vertex {exc.args[0]} unmapped") from None
    else:
        image = list(injection)
        if len(image) != h.n:
            raise GraphInputError(
                f"injection has {len(image)} entries for {h.n} vertices")
    for v, iv in enumerate(image):
        if not 0 <= iv < g.n:
            raise GraphInputError(f"injection sends {v} to {iv}, outside 0..{g.n - 1}")
    if len(set(image)) != len(image):
        return False
    for u in range(h.n):
        for v in range(u + 1, h.n):
            if g.has_edge(image[u], image[v]) != h.has_edge(u, v):
                return False
    return True
