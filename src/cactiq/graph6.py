"""graph6 encoding and decoding (McKay's format).

Upper-triangular adjacency bits in column-major order, packed into 6-bit
chunks (big-endian within each chunk), each chunk offset by 63 into the
printable ASCII range, preceded by the encoded vertex count.
"""

from __future__ import annotations

from .graph import Graph, from_edges


def _encode_order(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63,
                      (n & 63) + 63])
    raise ValueError(f"order {n} too large for graph6")


def _decode_order(data: bytes):
    if not data:
        raise ValueError("empty graph6 string")
    if not 63 <= data[0] <= 126:
        raise ValueError("invalid byte in graph6 order prefix")
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) < 4:
        raise ValueError("truncated graph6 order prefix")
    if not all(63 <= ch <= 126 for ch in data[1:4]):
        raise ValueError("invalid byte in graph6 order prefix")
    n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
    if n <= 62:
        raise ValueError(f"graph6 long-form order prefix used for n = {n} <= 62")
    return n, 4


def _top(n: int) -> int:
    """The place of the first bit of a graph6 body of order n, the most
    significant: n(n - 1)/2 bits, padded with zeros to whole 6-bit chunks."""
    return -(-n * (n - 1) // 12) * 6 - 1


def _edge_bits(n: int) -> list:
    """bits[j][i], i < j: the bit that edge (i, j) sets in a graph6 body of
    order n, as `encode` sets it."""
    top = _top(n)
    return [[1 << (top - j * (j - 1) // 2 - i) for i in range(j)]
            for j in range(n)]


def _pack(n: int, acc: int) -> str:
    """The graph6 string of order n whose body bits are acc's: the encoded
    order, then acc cut into 6-bit chunks, the most significant first.  The
    one packer of every graph6 string: `encode` sets acc from an edge set,
    and `enumeration.Level.graph6` from a build path."""
    return (_encode_order(n) + bytes(((acc >> s) & 63) + 63
                                     for s in range(_top(n) - 5, -1, -6))
            ).decode("ascii")


def encode(g: Graph) -> str:
    """graph6 string for g (labeled; not canonicalized).

    Edge (i, j), i < j, is bit j(j - 1)/2 + i of the column-major upper
    triangle.  One int holds every bit, the first one most significant,
    and `_pack` cuts it into chunks."""
    n = g.order
    top = _top(n)
    acc = 0
    for i, j in g.edges:
        acc |= 1 << (top - j * (j - 1) // 2 - i)
    return _pack(n, acc)


def decode(text: str) -> Graph:
    """Parse a graph6 string back into a Graph."""
    try:
        data = text.strip().encode("ascii")
    except UnicodeEncodeError as exc:
        raise ValueError(
            f"invalid graph6 character {exc.object[exc.start]!r}") from None
    n, pos = _decode_order(data)
    if n < 1:
        raise ValueError("graph6 order must be >= 1")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = data[pos:]
    if len(body) != need:
        raise ValueError(f"graph6 body length {len(body)}, expected {need}")
    bits = []
    for ch in body:
        v = ch - 63
        if not 0 <= v <= 63:
            raise ValueError(f"invalid graph6 byte {ch}")
        bits.extend((v >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ValueError("nonzero graph6 padding bits")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return from_edges(n, edges)
