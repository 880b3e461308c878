"""graph6 encoding and decoding (McKay's format).

Upper-triangular adjacency bits in column-major order, packed into 6-bit
chunks (big-endian within each chunk), each chunk offset by 63 into the
printable ASCII range, preceded by the encoded vertex count.
"""

from __future__ import annotations

from binascii import b2a_base64
from functools import lru_cache

from .graph import MAX_ORDER, Graph, from_edges


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


@lru_cache(maxsize=MAX_ORDER)
def _edge_bits(n: int) -> tuple:
    """bits[j][i], i < j: the bit of edge (i, j) in a graph6 body of order
    n.  The one statement of the layout, which `encode`, `decode` and
    `enumeration.Level.graph6` read."""
    top = _top(n)
    return tuple(tuple(1 << (top - j * (j - 1) // 2 - i) for i in range(j))
                 for j in range(n))


# base64's alphabet, digit d at place d, onto graph6's, d + 63
_FROM_BASE64 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(63, 127)))


@lru_cache(maxsize=MAX_ORDER)
def _layout(n: int) -> tuple:
    """What `_pack` needs of order n: the encoded order, the shift that
    pads the body's chunks to whole 4-chunk (24-bit) groups, the number of
    bytes of those groups, and the number of body chunks."""
    chunks = (_top(n) + 1) // 6
    pad = -chunks % 4
    return _encode_order(n), 6 * pad, (chunks + pad) // 4 * 3, chunks


def _pack(n: int, acc: int) -> str:
    """The graph6 string of order n whose body bits are acc's: the encoded
    order, then acc cut into 6-bit chunks, the most significant first, each
    offset by 63.  The one packer of every graph6 string: `encode` sets acc
    from an edge set, and `enumeration.Level.graph6` from a build path.

    That chunking is base64's, in another alphabet, so the cutting is done
    in C by the base64 codec: acc is shifted up to whole 24-bit groups,
    written as bytes and encoded, base64's digits are translated onto
    63..126, and the body's chunks are kept, without the padding ones.
    Against one generator step per chunk this packs 20,000 random order-12
    bodies in 0.011 against 0.042 s, and order-30 ones in 0.015 against
    0.18 s."""
    head, shift, size, chunks = _layout(n)
    body = b2a_base64((acc << shift).to_bytes(size, "big"), newline=False)
    return (head + body.translate(_FROM_BASE64)[:chunks]).decode("ascii")


def encode(g: Graph) -> str:
    """graph6 string for g (labeled; not canonicalized): one int holds
    every edge's bit from `_edge_bits`, and `_pack` cuts it into chunks."""
    bits, acc = _edge_bits(g.order), 0
    for i, j in g.edges:
        acc |= bits[j][i]
    return _pack(g.order, acc)


def decode(text: str) -> Graph:
    """Parse a graph6 string back into a Graph: the body is read into one
    int, the inverse of `_pack`, and each edge off its `_edge_bits` bit."""
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
    acc = 0
    for ch in body:
        if not 63 <= ch <= 126:
            raise ValueError(f"invalid graph6 byte {ch}")
        acc = acc << 6 | (ch - 63)
    if acc & ((1 << (6 * need - nbits)) - 1):
        raise ValueError("nonzero graph6 padding bits")
    if n > MAX_ORDER:
        # from_edges' own refusal, before any table of n(n - 1)/2 bits
        return from_edges(n, ())
    bits = _edge_bits(n)
    return from_edges(n, [(i, j) for j in range(1, n) for i in range(j)
                          if acc & bits[j][i]])
