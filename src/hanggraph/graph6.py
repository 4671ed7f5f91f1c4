"""graph6 codec.

One graph per line of printable ASCII: a size header followed by the upper
triangle of the adjacency matrix, column by column, packed into 6-bit chunks
offset by 63.  An optional ">>graph6<<" prefix is accepted and stripped.
Encoding is canonical (zero padding); decoding tolerates nonzero padding bits
but rejects wrong lengths and out-of-range bytes, reporting the byte offset.
Past those checks the kernel's ``graph6_masks`` turns the bit field into the
graph's neighbor masks.
"""

from __future__ import annotations

import re

from . import kernels
from .graph import Graph, GraphInputError

PREFIX = ">>graph6<<"
# six bits as text, most significant first, and the data byte that holds them
_BYTE = {format(c, "06b"): chr(c + 63) for c in range(64)}
_INVALID = re.compile("[^?-~]")  # any character outside the data bytes


class Graph6Error(GraphInputError):
    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def _encode_size(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    raise Graph6Error(f"graph too large for graph6: {n} vertices")


def _size_group(s: str, offset: int, count: int) -> int:
    """The ``count`` six-bit size bytes of ``s`` from ``offset`` on, as one number."""
    val = 0
    for pos in range(offset, offset + count):
        if pos >= len(s):
            raise Graph6Error("truncated size header", offset=pos)
        c = ord(s[pos]) - 63
        if not 0 <= c <= 63:
            raise Graph6Error(f"invalid byte {s[pos]!r} in size header", offset=pos)
        val = (val << 6) | c
    return val


def _decode_size(s: str, start: int) -> tuple[int, int]:
    """Returns (n, offset just past the header) for the header at ``s[start]``."""
    first = ord(s[start]) - 63
    if first < 0 or first > 63:
        raise Graph6Error(f"invalid leading byte {s[start]!r}", offset=start)
    if first < 63:  # any byte but "~" is the whole header
        return first, start + 1
    if s.startswith("~", start + 1):
        return _size_group(s, start + 2, 6), start + 8
    return _size_group(s, start + 1, 3), start + 4


def to_graph6(g: Graph) -> str:
    """Canonical graph6 line for g (labels are not representable and drop)."""
    # bit t of ``bits`` is the t-th bit of the stream: column j of the upper
    # triangle is bits 0..j-1 of masks[j], row 0 first
    bits = 0
    start = 0
    for j in range(1, g.n):
        bits |= (g.masks[j] & ((1 << j) - 1)) << start
        start += j
    width = -(-start // 6) * 6
    stream = bin(bits | 1 << width)[:2:-1]  # the sentinel bit keeps the zero padding
    return _encode_size(g.n) + "".join([_BYTE[stream[p:p + 6]]
                                        for p in range(0, width, 6)])


def from_graph6(line: str) -> Graph:
    """Decode one graph6 line; error offsets count from the start of ``line``."""
    s = line.rstrip()
    start = len(s) - len(s.lstrip())
    if s.startswith(PREFIX, start):
        start += len(PREFIX)
    if start == len(s):
        raise Graph6Error("empty graph6 string", offset=start)
    n, end = _decode_size(s, start)
    body = s[end:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise Graph6Error(
            f"truncated bit field: need {need} bytes for {n} vertices, got {len(body)}",
            offset=end + len(body))
    if len(body) > need:
        raise Graph6Error("trailing data after bit field", offset=end + need)
    invalid = _INVALID.search(body)
    if invalid:
        pos = invalid.start()
        raise Graph6Error(f"invalid byte {body[pos]!r} in bit field", offset=end + pos)
    return Graph(n, kernels.graph6_masks(n, body.encode("ascii")))
