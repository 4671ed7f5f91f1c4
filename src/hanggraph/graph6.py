"""graph6 codec.

One graph per line of printable ASCII: a size header followed by the upper
triangle of the adjacency matrix, column by column, packed into 6-bit chunks
offset by 63.  An optional ">>graph6<<" prefix is accepted and stripped.
Encoding is canonical (zero padding); decoding tolerates nonzero padding bits
but rejects wrong lengths and out-of-range bytes, reporting the byte offset.
"""

from __future__ import annotations

from .graph import Graph, GraphInputError

PREFIX = ">>graph6<<"
# a data byte and its six bits as text, most significant first
_BITS = {chr(c + 63): format(c, "06b") for c in range(64)}
_BYTE = {bits: ch for ch, bits in _BITS.items()}


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


def _decode_size(s: str) -> tuple[int, int]:
    """Returns (n, bytes consumed)."""

    def group(offset: int, count: int) -> int:
        val = 0
        for i in range(count):
            pos = offset + i
            if pos >= len(s):
                raise Graph6Error("truncated size header", offset=pos)
            c = ord(s[pos]) - 63
            if not 0 <= c <= 63:
                raise Graph6Error(f"invalid byte {s[pos]!r} in size header", offset=pos)
            val = (val << 6) | c
        return val

    first = ord(s[0]) - 63
    if first < 0 or first > 63:
        raise Graph6Error(f"invalid leading byte {s[0]!r}", offset=0)
    if s[0] != "~":
        return first, 1
    if len(s) >= 2 and s[1] == "~":
        return group(2, 6), 8
    return group(1, 3), 4


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
    """Decode one graph6 line; the optional ">>graph6<<" prefix is stripped."""
    s = line.strip()
    if s.startswith(PREFIX):
        s = s[len(PREFIX):]
    if not s:
        raise Graph6Error("empty graph6 string", offset=0)
    n, consumed = _decode_size(s)
    body = s[consumed:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise Graph6Error(
            f"truncated bit field: need {need} bytes for {n} vertices, got {len(body)}",
            offset=consumed + len(body))
    if len(body) > need:
        raise Graph6Error("trailing data after bit field", offset=consumed + need)
    try:
        stream = "".join([_BITS[ch] for ch in body])
    except KeyError as exc:
        pos = body.index(exc.args[0])
        raise Graph6Error(f"invalid byte {body[pos]!r} in bit field",
                          offset=consumed + pos) from None
    bits = int(stream[::-1] or "0", 2)  # as in to_graph6; padding bits are never read
    masks = [0] * n
    for j in range(1, n):
        col = bits & ((1 << j) - 1)  # bit i set iff ij is an edge, i < j
        bits >>= j
        masks[j] = col
        while col:
            low = col & -col
            masks[low.bit_length() - 1] |= 1 << j
            col ^= low
    return Graph(n, tuple(masks))
