"""Independent answer checker.

Everything here is written from the definitions, without importing
hanggraph, so that a wrong answer from the program cannot be confirmed by
the code that produced it.  Graphs are (n, adj) with adj a list of sets.

Definitions used: P(v) is the set of vertices at distance ecc(v) from v,
P(G) the set of vertices whose eccentricity is the diameter, and a connected
graph is hangable when P(v) is a subset of P(G) for every v.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def edge_list(adj) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(adj)) for v in sorted(adj[u]) if u < v]


def from_bits(n: int, bits: int) -> list[set[int]]:
    """Edge-subset index: bit k is the k-th pair in (0,1), (0,2), ..., (n-2,n-1)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return adjacency(n, [p for k, p in enumerate(pairs) if bits >> k & 1])


def complement(adj) -> list[set[int]]:
    n = len(adj)
    return [set(range(n)) - adj[u] - {u} for u in range(n)]


def induced(adj, keep) -> list[set[int]]:
    index = {v: i for i, v in enumerate(keep)}
    return [{index[w] for w in adj[v] if w in index} for v in keep]


def bfs(adj, s: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[s] = 0
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def connected(adj) -> bool:
    return len(adj) <= 1 or min(bfs(adj, 0)) >= 0


def distances(adj) -> list[list[int]]:
    return [bfs(adj, s) for s in range(len(adj))]


class Metric:
    """Eccentricities, peripheries and both hangability witnesses of a
    connected distance matrix."""

    def __init__(self, dist: list[list[int]]):
        n = len(dist)
        self.dist = dist
        self.ecc = [max(row) for row in dist]
        self.diameter = max(self.ecc)
        self.radius = min(self.ecc)
        self.vertex_periphery = [[u for u in range(n) if dist[v][u] == self.ecc[v]]
                                 for v in range(n)]
        self.periphery = [v for v in range(n) if self.ecc[v] == self.diameter]
        # lexicographically first (v, u) with u in P(v) but not in P(G)
        self.witness = next(((v, u) for v in range(n)
                             for u in self.vertex_periphery[v]
                             if self.ecc[u] != self.diameter), None)

    @property
    def hangable(self) -> bool:
        return self.witness is None

    def triple_witness(self):
        """First (v, u, w): u farthest from v, w farthest from u, d(u, w) < diameter."""
        for v, pv in enumerate(self.vertex_periphery):
            for u in pv:
                if self.ecc[u] < self.diameter:
                    return (v, u, self.vertex_periphery[u][0])
        return None

    def smallest_power(self) -> int:
        """Least k whose k-th power is hangable; the power has distances ceil(d/k)."""
        k = 1
        while not Metric([[-(-d // k) for d in row] for row in self.dist]).hangable:
            k += 1
        return k


def metric(adj) -> Metric | None:
    """Metric of a connected graph on at least one vertex, else None."""
    if not adj or not connected(adj):
        return None
    return Metric(distances(adj))


def blocks(adj) -> tuple[list[list[int]], list[int]]:
    """Blocks and cut vertices of a connected graph.

    Two edges uv, uw at a shared vertex u lie in one block exactly when v and
    w stay connected once u is removed; blocks are the classes this relation
    generates.
    """
    n = len(adj)
    if n == 1:
        return [[0]], []
    parent: dict = {}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for u, v in edge_list(adj):
        parent[(u, v)] = (u, v)
    for u in range(n):
        label = [-1] * n
        label[u] = u
        for s in adj[u]:
            if label[s] >= 0:
                continue
            label[s] = s
            queue = deque([s])
            while queue:
                x = queue.popleft()
                for y in adj[x]:
                    if label[y] < 0:
                        label[y] = s
                        queue.append(y)
        first = {}
        for w in adj[u]:
            e = find((min(u, w), max(u, w)))
            rep = first.setdefault(label[w], e)
            parent[e] = find(rep)
    classes: dict = {}
    for e in parent:
        classes.setdefault(find(e), set()).update(e)
    result = sorted(sorted(c) for c in classes.values())
    seen: dict[int, int] = {}
    for b in result:
        for v in b:
            seen[v] = seen.get(v, 0) + 1
    return result, sorted(v for v, c in seen.items() if c > 1)


def is_block_graph(adj) -> bool:
    return all(b in adj[a] for blk in blocks(adj)[0] for a, b in combinations(blk, 2))


def is_self_complementary(adj) -> bool:
    """Backtracking search for an isomorphism from the graph onto its complement."""
    n = len(adj)
    co = complement(adj)
    if sorted(map(len, adj)) != sorted(map(len, co)):
        return False
    order = sorted(range(n), key=lambda v: -len(adj[v]))
    image = [-1] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if used[w] or len(co[w]) != len(adj[v]):
                continue
            if all((u in adj[v]) == (image[u] in co[w]) for u in order[:i]):
                image[v], used[w] = w, True
                if extend(i + 1):
                    return True
                used[w] = False
        return False

    return extend(0)


def classify_row(adj) -> list[str]:
    """The cells `hanggraph classify` prints for one graph, in column order."""
    n = len(adj)
    m = len(edge_list(adj))

    def cell(x):
        if x is None:
            return "-"
        if isinstance(x, bool):
            return "true" if x else "false"
        return str(x)

    co = metric(complement(adj))
    comp_hang = co.hangable if co is not None else None
    selfco = is_self_complementary(adj) if n <= 8 else None
    g = metric(adj)
    if g is None:
        cells = [n, m, False] + [None] * 7 + [comp_hang, selfco, None,
                                              "disconnected: metric fields not computed"]
    else:
        cells = [n, m, True, m == n - 1, is_block_graph(adj),
                 g.radius == g.diameter, g.hangable, g.diameter, g.radius,
                 len(g.periphery), comp_hang, selfco, g.smallest_power(), None]
    return [cell(x) for x in cells]


def analyze_answer(adj) -> dict:
    """Fields of `hanggraph analyze --format structured` for a connected graph."""
    g = metric(adj)
    triple = g.triple_witness() if not g.hangable else None
    return {
        "n": len(adj),
        "m": len(edge_list(adj)),
        "connected": True,
        "eccentricity": g.ecc,
        "diameter": g.diameter,
        "radius": g.radius,
        "self_centered": g.radius == g.diameter,
        "vertex_periphery": g.vertex_periphery,
        "periphery": g.periphery,
        "hangable": g.hangable,
        "witness": list(g.witness) if g.witness else None,
        "triple_witness": list(triple) if triple else None,
    }


def is_induced_embedding(big, small, image) -> bool:
    if len(image) != len(small) or len(set(image)) != len(image):
        return False
    return all((image[v] in big[image[u]]) == (v in small[u])
               for u, v in combinations(range(len(small)), 2))


def corona(g, h) -> list[set[int]]:
    """Base vertex v keeps id v; copy x over base v is ng + v*nh + x."""
    ng, nh = len(g), len(h)
    edges = edge_list(g)
    for v in range(ng):
        off = ng + v * nh
        edges += [(v, off + x) for x in range(nh)]
        edges += [(off + x, off + y) for x, y in edge_list(h)]
    return adjacency(ng * (1 + nh), edges)


def cartesian(g, h) -> list[set[int]]:
    """Pair (a, b) is a*nh + b."""
    ng, nh = len(g), len(h)
    edges = [(a * nh + x, a * nh + y) for a in range(ng) for x, y in edge_list(h)]
    edges += [(a * nh + b, c * nh + b) for a, c in edge_list(g) for b in range(nh)]
    return adjacency(ng * nh, edges)


def subgraph_counts(adj, max_vertices: int) -> list[dict]:
    """Per subset size: connected induced subgraphs and the hangable ones."""
    sizes = []
    for k in range(1, max_vertices + 1):
        conn = hang = 0
        for keep in combinations(range(len(adj)), k):
            g = metric(induced(adj, keep))
            if g is not None:
                conn += 1
                hang += g.hangable
        sizes.append({"size": k, "subsets": conn, "connected": conn, "hangable": hang})
    return sizes


# --- generated families, built independently of hanggraph.generators --------


def path(n: int):
    return adjacency(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int):
    return adjacency(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int):
    return adjacency(n, combinations(range(n), 2))


def complete_bipartite(a: int, b: int):
    return adjacency(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def hypercube(d: int):
    return adjacency(1 << d, [(u, u | 1 << b) for u in range(1 << d)
                              for b in range(d) if not u >> b & 1])


def grid(rows: int, cols: int):
    edges = [(i * cols + j, i * cols + j + 1) for i in range(rows) for j in range(cols - 1)]
    edges += [(i * cols + j, (i + 1) * cols + j) for i in range(rows - 1) for j in range(cols)]
    return adjacency(rows * cols, edges)


FAMILIES = {"path": path, "cycle": cycle, "complete": complete,
            "complete_bipartite": complete_bipartite, "hypercube": hypercube,
            "grid": grid}


def from_expression(expr: str):
    family, _, size = expr.partition(":")
    return FAMILIES[family](*(int(p) for p in size.split("x")))
