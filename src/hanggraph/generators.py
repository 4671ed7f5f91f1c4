"""Generators for the named graph families.

Each returns a plain Graph; the grid carries "(i,j)" labels so that it is
equal, labels included, to the box product of two paths under the shared
row-major vertex convention.
"""

from __future__ import annotations

import re

from .graph import Graph, GraphInputError


def path(n: int) -> Graph:
    if n < 1:
        raise GraphInputError(f"path needs at least 1 vertex, got {n}")
    full = (1 << n) - 1  # clips bit n off the last vertex; v = 0 shifts its bit v - 1 away
    return Graph(n, tuple((1 << v >> 1 | 1 << v + 1) & full for v in range(n)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphInputError(f"cycle needs at least 3 vertices, got {n}")
    return Graph(n, tuple(1 << (v - 1) % n | 1 << (v + 1) % n for v in range(n)))


def complete(n: int) -> Graph:
    if n < 1:
        raise GraphInputError(f"complete graph needs at least 1 vertex, got {n}")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ 1 << v for v in range(n)))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise GraphInputError(f"complete bipartite parts must be at least 1, got {a}, {b}")
    left = (1 << a) - 1
    right = ((1 << b) - 1) << a
    return Graph(a + b, (right,) * a + (left,) * b)


def hypercube(d: int) -> Graph:
    """d-cube on 2^d vertices; u ~ v iff they differ in exactly one bit."""
    if d < 1:
        raise GraphInputError(f"hypercube dimension must be at least 1, got {d}")
    return Graph(1 << d, tuple(sum(1 << (u ^ 1 << b) for b in range(d))
                               for u in range(1 << d)))


def grid(rows: int, cols: int) -> Graph:
    """rows x cols grid, vertex (i, j) at id i*cols + j, labels "(i,j)"."""
    if rows < 1 or cols < 1:
        raise GraphInputError(f"grid sides must be at least 1, got {rows}, {cols}")
    masks = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            near = ((j > 0, v - 1), (j + 1 < cols, v + 1),
                    (i > 0, v - cols), (i + 1 < rows, v + cols))
            masks.append(sum(1 << u for inside, u in near if inside))
    labels = tuple(f"({i},{j})" for i in range(rows) for j in range(cols))
    return Graph(rows * cols, tuple(masks), labels)


FAMILIES = {
    "path": (path, 1),
    "cycle": (cycle, 1),
    "complete": (complete, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "hypercube": (hypercube, 1),
    "grid": (grid, 2),
}

_EXPR = re.compile(r"^([a-z_]+):(\d+(?:x\d+)*)$")


def generate(family: str, params: list[int]) -> Graph:
    if family not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        raise GraphInputError(f"unknown family {family!r} (known: {known})")
    fn, arity = FAMILIES[family]
    if len(params) != arity:
        raise GraphInputError(
            f"family {family!r} takes {arity} parameter(s), got {len(params)}")
    return fn(*params)


def looks_like_expression(text: str) -> bool:
    m = _EXPR.match(text)
    return bool(m) and m.group(1) in FAMILIES


def from_expression(expr: str) -> Graph:
    """Parse "family:size" or "family:AxB", e.g. "cycle:7" or "grid:3x4"."""
    m = _EXPR.match(expr)
    if not m:
        raise GraphInputError(
            f"bad generator expression {expr!r} (expected like 'cycle:7' or 'grid:3x4')")
    return generate(m.group(1), [int(p) for p in m.group(2).split("x")])
