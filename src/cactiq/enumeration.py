"""Deterministic generation of all non-isomorphic cacti on n vertices.

Every cactus with at least two vertices has a removable endblock (a pendant
edge, or a cycle whose vertices other than one cut vertex all have degree 2),
so attaching pendant edges and fresh cycles at every vertex of every smaller
cactus, with canonical-code deduplication, generates each isomorphism class
exactly once per size.  A candidate is its parent plus one endblock at a
vertex v, so its centre-rooted code differs from the parent's only on the
path from v to the centre: each parent's vertex-block tree is peeled and
coded once, and each candidate recodes only that path.

Most candidates need no code, by three rules (the cheap half of McKay's
canonical-parent idea, J. Algorithms 26, 1998).  Two of them
`_attach_points` applies to the parent's blocks.  Call an endblock big
when it has more vertices besides its cut vertex than the new block has
new ones.  If the child keeps a big endblock of the parent, removing it
leaves a smaller parent of the same class, and smaller parents are
scanned first.  Reflecting a lone big endblock about its cut vertex, or
rotating a one-block parent, maps candidates onto earlier ones of the
same parent.  The third, in `_scan_points`, reads the parent's path.  Let
parent P of order s end its path in the pair (a, f), so that P is its
path parent Q (order f) with a block of s - f new vertices at a.  When
the new block is as big, only the points v >= a are coded: a v < a is a
vertex of Q, and the candidate (Q, v) of order s comes before P's own
(Q, a) in that order's scan, so the class P' of Q + block at v was found
before P.  The child P + block at v is Q with equal blocks at a and at v,
which is P' + block at a, and P' is scanned before P.  Each dropped
candidate's class was found before it, so every class keeps its
first-found representative.

A class is held as its build path only, one byte pair (v, size) per block.
Its blocks (`_path_blocks`), edge list (`_path_edges`), matching number,
pendant count, graph6 string and `Graph` (`_path_graph`) are all read off
the path, and no table holds a `Graph`.  Each order has one table, a
`Level`, held by the one cache `_level(n)`; `classes(n)` is the guarded way
in.  What the monotonicity draws read of a class (`Surgery`) is derived
on the `Level` too, once per order, not once per draw.  A filter selects
the union of the (matching number, pendant count) groups it admits, so a
filter that no class meets selects nothing.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain

from .graph import (MAX_ORDER, Graph, _block_code, _peel, _peel_matching,
                    as_index)
from .graph6 import _edge_bits, _pack
from .spectra import stacked_eigenpairs

MAX_N = 14

# the edge (u, v), u < v, as one tuple, _EDGES[u][v], shared by every Graph
# that `_path_graph` builds; _STEPS[u] is the edge (u, u + 1)
_EDGES = [[(u, v) for v in range(MAX_ORDER)] for u in range(MAX_ORDER)]
_STEPS = [row[u + 1] for u, row in enumerate(_EDGES[:-1])]


@dataclass(frozen=True)
class CactusFilter:
    """Optional matching-number and pendant-count constraints.  Each must be
    an integer (see `graph.as_index`); a negative one or any other value
    raises ValueError naming it."""
    matching: int | None = None
    pendants: int | None = None

    def __post_init__(self):
        for name in ("matching", "pendants"):
            value = getattr(self, name)
            if value is None:
                continue
            value = as_index(value, name)
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
            object.__setattr__(self, name, value)

    def admits(self, matching: int, pendants: int) -> bool:
        """Whether a class with this matching number and pendant count
        passes."""
        return ((self.matching is None or matching == self.matching)
                and (self.pendants is None or pendants == self.pendants))


def _block_counts(o: int, blocks) -> list:
    """The number of blocks at each vertex of a cactus of order o with
    these blocks."""
    count = [0] * o
    for b in blocks:
        for v in b:
            count[v] += 1
    return count


def _attach_points(o: int, blocks, k: int) -> list:
    """The vertices v of a parent of order o with these blocks (vertex lists,
    a cycle's in cyclic order) at which a new block with k more vertices can
    give a class that no earlier candidate of the scan gave, ascending.

    An endblock of the parent is big when it has more than k vertices
    besides its cut vertex a (a one-block parent's block counts all its
    vertices but one).  A big endblock that is still an endblock of the
    child can be removed to leave a cactus of order below o, and the scan
    attaches to every smaller order first.  So with two big endblocks, or a
    one-block parent that is big, there is no point; with one big endblock
    E, only v in E - a, and only the lesser of each pair that reflecting E
    about a swaps, since that reflection is an automorphism of the parent.
    A one-block parent that is not big is a cycle or K2, with every vertex
    alike, so only v = 0."""
    if len(blocks) < 2:
        return [] if blocks and len(blocks[0]) > k + 1 else [0]
    count = _block_counts(o, blocks)
    big = None
    for b in blocks:
        if len(b) <= k + 1:
            continue
        cuts = [i for i, v in enumerate(b) if count[v] > 1]
        if len(cuts) == 1:
            if big is not None:
                return []
            i = cuts[0]
            big = b[i + 1:] + b[:i]
    if big is None:
        return list(range(o))
    return sorted(v for v, w in zip(big, big[::-1]) if v <= w)


def _scan_points(o: int, path: bytes, blocks, n: int) -> list:
    """The points of the parent of order o built along path, with these
    blocks (`_path_blocks`), that the scan of order n codes, ascending:
    `_attach_points`' for a new block of n - o new vertices, and when the
    parent's newest block (the path's last pair (a, f)) has as many, only
    those v >= a (see the module docstring)."""
    points = _attach_points(o, blocks, n - o)
    if path and o - path[-1] == n - o:
        return points[bisect_left(points, path[-2]):]
    return points


def _child_codes(o: int, blocks, n: int, points):
    """(v, code) for each v of points in turn, code the canonical code of
    the one-endblock extension to order n of the cactus of order o with
    these blocks (in the block order of the `graph` module docstring): the
    new vertices o..n-1 closed into a cycle through v, or a pendant edge at
    v when there is one new vertex.

    The new block hangs below v with only leaves under it, so its code is
    "[" + "()" * (n - o) + "]" whichever way round it is read.  One peel of
    the parent's vertex-block tree (`_peel`) gives every node's code, and a
    child differs from the parent only on the path from v to its centre c,
    which is recoded bottom-up: each node on it has one child whose code
    changed, the node before it.  The deepest vertices are R from c.  If
    the path from v is shorter than R, the new leaves are no deeper than R
    and the centre stays at c.  If it is R long, the new leaves are at R + 2
    while another branch of c reaches R, so the diameter grows by 2 and the
    centre moves to u, the node before c on the path: c is recoded as a
    child of u, and u as the root."""
    leaf = b"[" + b"()" * (n - o) + b"]"
    if o == 1:  # the child is the one block, its centre
        yield 0, b"[" + b"()" * n + b"]"
        return
    kids, par, code, radius, c = _peel(o, blocks)
    for v in points:
        # x walks up from v, y is the node before it, new y's new code, and
        # d the distance from v to x's parent
        x, y, new, d = v, -1, leaf, 1
        while x != c:
            p = par[x]
            if p == c and d == radius:  # v is R deep: the centre moves to x
                break
            ks = kids[x]
            if len(ks) == (x != v):  # new is the one child's code
                new = (b"(" + new + b")") if x < o else (b"[" + new + b"]")
            elif x < o:
                seq = [code[k] for k in ks if k != y]
                seq.append(new)
                seq.sort()
                new = b"(" + b"".join(seq) + b")"
            else:
                new = _block_code([new if w == y else code[w] for w in ks])
            x, y, d = p, x, d + 1
        top = []  # when the centre moves to x, c's code as x's child
        if x != c:
            ks = kids[c]
            if c < o:
                up = b"(" + b"".join(sorted(
                    [code[k] for k in ks if k != x])) + b")"
            else:
                j = ks.index(x)
                up = _block_code([code[w] for w in ks[j + 1:] + ks[:j]])
            top.append(up)
        if x < o:
            new = b"(" + b"".join(sorted(
                [code[k] for k in kids[x] if k != y] + [new, *top])) + b")"
        else:
            new = _block_code(top + [new if w == y else code[w]
                                     for w in kids[x]], True)
        yield v, new


def _path_blocks(n: int, path: bytes) -> list:
    """The blocks of the class of order n built along path, newest first:
    the pair (v, size) at 2i is the block (v, size, ..., next size - 1),
    the next size being the order after that block, n for the last.  Each
    block's attachment vertex comes first and every block hung below its
    other vertices is newer, so this is the block order of the `graph`
    module docstring, which `graph._peel` and `graph._peel_matching`
    read."""
    blocks = []
    for i in range(len(path) - 2, -1, -2):
        size = path[i + 1]
        blocks.append([path[i], *range(size, n)])
        n = size
    return blocks


def _path_edges(n: int, path: bytes) -> list:
    """The edges of the class of order n built along path, each once: a
    pair (v, size) adds the vertices size, ..., end - 1 (end the next pair's
    size, or n) as a path closed into a cycle through v, or the pendant edge
    (v, size) when end = size + 1.  Each edge is normalised, as v < size,
    and taken from `_EDGES` (the path's through `_STEPS`), so the lists
    share their edge tuples."""
    edges = []
    for v, size, end in zip(path[::2], path[1::2], (*path[3::2], n)):
        edges += _STEPS[size:end - 1]
        edges.append(_EDGES[v][size])
        if end > size + 1:
            edges.append(_EDGES[v][end - 1])
    return edges


def _path_graph(n: int, path: bytes) -> Graph:
    """The Graph of the class of order n built along path (`_path_edges`)."""
    return Graph(n, frozenset(_path_edges(n, path)))


def _path_group(n: int, path: bytes) -> tuple:
    """(matching number, pendant count) of the class of order n built along
    path.  The matching number is the peel over the path blocks
    (`graph._peel_matching`).  The pendants are read off the path bytes, with
    no block list or per-vertex count: a vertex in one block only, that block
    an edge.  A vertex other than 0 is new in exactly one block and has a
    block of its own for each later pair attached at it, so it is a pendant
    when it is the new vertex of a one-edge block and no pair attaches at it.
    Vertex 0 is in the first block and one more per further pair attached
    at it, so it is a pendant when exactly one pair attaches at it and the
    first block is an edge (ends at order 2).  Against per-vertex block
    counts over the path blocks this counts the pendants of the 24,118
    classes of order 12 in 0.036 against 0.054 s."""
    attach = path[::2]
    ends = (*path[3::2], n)
    pendants = sum(end - size == 1 and size not in attach
                   for size, end in zip(path[1::2], ends))
    pendants += attach.count(0) == 1 and ends[0] == 2
    return _peel_matching(n, _path_blocks(n, path)), pendants


@dataclass(frozen=True, slots=True)
class Surgery:
    """What the monotonicity surgeries read of one class of order n, all
    derived from its build path: its edges, sorted (the order a draw
    shuffles), its neighbour sets, its Q-radius with the rigorous lower and
    upper bounds that certify a comparison with it, its Perron row, its
    one-edge blocks as (v, size) pairs, and the vertices in one block only
    (`_block_counts`)."""
    n: int
    path: bytes
    edges: tuple
    adj: tuple
    radius: float
    lower: float
    upper: float
    perron: tuple
    bridges: frozenset
    ends: tuple


class Level:
    """The cactus classes of one order, each held as its build path.

    `paths` holds them in discovery order, which the next order's scan
    extends (see `_level`).  A position is a class's place in canonical-code
    order, the order of every output; `path(pos)` is its path.  `graph6`,
    `groups`, `spectra` and `surgery` are read off the paths on first use
    and kept.
    The codes are used for that order and then dropped."""

    def __init__(self, n: int, bucket: dict):
        codes = list(bucket)
        self._n = n
        # the discovery index of the class at each position
        self._order = array("I", sorted(range(len(codes)),
                                        key=codes.__getitem__))
        self.paths = tuple(bucket.values())

    def path(self, pos: int) -> bytes:
        """The build path of the class at position pos."""
        return self.paths[self._order[pos]]

    @cached_property
    def graph6(self) -> tuple:
        """Every class's graph6 string, in canonical-code order, packed by
        `graph6`'s one packer straight from its path: a block (v, size)
        ending at end (as in `_path_graph`) sets the bits of the edges
        (j - 1, j) for size < j < end, (v, size) and (v, end - 1)."""
        n, paths = self._n, self.paths
        bits = _edge_bits(n)
        # steps[k]: the bits of the edges (j - 1, j), 0 < j <= k, so a
        # block's path edges are steps[end - 1] ^ steps[size]
        steps = [0]
        for j in range(1, n):
            steps.append(steps[-1] | bits[j][j - 1])
        out = []
        for i in self._order:
            path, acc = paths[i], 0
            for v, size, end in zip(path[::2], path[1::2], (*path[3::2], n)):
                acc |= (bits[size][v] | bits[end - 1][v]
                        | (steps[end - 1] ^ steps[size]))
            out.append(_pack(n, acc))
        return tuple(out)

    @cached_property
    def groups(self) -> dict:
        """(matching number, pendant count) -> the positions of the classes
        with that pair, ascending, for every pair that occurs, each pair read
        off the class's path by `_path_group`."""
        n, paths, groups = self._n, self.paths, {}
        for pos, i in enumerate(self._order):
            groups.setdefault(_path_group(n, paths[i]), []).append(pos)
        return groups

    @cached_property
    def spectra(self) -> tuple:
        """Q-radius, Perron vector and rigorous lower and upper radius
        bounds of every class, by position, as `stacked_eigenpairs`' four
        float arrays solved from the paths' edge lists."""
        n, paths = self._n, self.paths
        return stacked_eigenpairs(n, len(paths), (_path_edges(n, paths[i])
                                                  for i in self._order))

    @cached_property
    def surgery(self) -> tuple:
        """Every class's `Surgery`, by position; the radius, its bounds and
        the Perron row are `spectra`'s, as Python floats."""
        n, paths = self._n, self.paths
        radii, rows, lowers, uppers = (a.tolist() for a in self.spectra)
        out = []
        for pos, i in enumerate(self._order):
            edges = _path_edges(n, paths[i])
            adj = [set() for _ in range(n)]
            for u, v in edges:
                adj[u].add(v)
                adj[v].add(u)
            blocks = _path_blocks(n, paths[i])
            count = _block_counts(n, blocks)
            out.append(Surgery(
                n, paths[i], tuple(sorted(edges)), tuple(map(frozenset, adj)),
                radii[pos], lowers[pos], uppers[pos], tuple(rows[pos]),
                frozenset(tuple(b) for b in blocks if len(b) == 2),
                tuple(v for v in range(n) if count[v] == 1)))
        return tuple(out)

    def positions(self, filt: CactusFilter | None = None):
        """Positions of the classes meeting the filter, ascending: a range
        when there is no filter, otherwise a tuple, the union of the groups
        the filter admits.  No Graph is built."""
        if filt in (None, CactusFilter()):
            return range(len(self.paths))
        return tuple(sorted(chain.from_iterable(
            pos for inv, pos in self.groups.items() if filt.admits(*inv))))


@lru_cache(maxsize=None)
def _level(n: int) -> Level:
    """The table of order n.  A class's representative is the first extension
    found in it, scanning the smaller levels in order and each in its own
    discovery order, and its path is its parent's plus the pair (v, size) of
    the block that made it.  Only the points `_scan_points` keeps are coded
    (`_child_codes`), and a parent with none is not peeled: of the 7,517
    candidates of order 10, 2,926 are coded; of the 391,567 of order 13,
    118,708."""
    if n == 1:  # K1: its code and its empty path
        return Level(1, {b"()": b""})
    bucket = {}
    for size in range(1, n):
        for path in _level(size).paths:
            blocks = _path_blocks(size, path)
            points = _scan_points(size, path, blocks, n)
            if not points:
                continue
            for v, code in _child_codes(size, blocks, n, points):
                if code not in bucket:
                    bucket[code] = path + bytes((v, size))
    return Level(n, bucket)


def classes(n: int) -> Level:
    """The table of order n, within the enumeration guard.  n must be an
    integer (see `graph.as_index`)."""
    n = as_index(n, "n")
    if n < 1:
        raise ValueError("n >= 1 required")
    if n > MAX_N:
        raise ValueError(f"n = {n} exceeds the enumeration guard {MAX_N}")
    return _level(n)


def enumerate_cacti(n: int, filt: CactusFilter | None = None) -> tuple:
    """One representative per isomorphism class of cacti on n vertices meeting
    the filter, in ascending canonical-code order, built from the paths."""
    level = classes(n)
    return tuple(_path_graph(n, level.path(i)) for i in level.positions(filt))


def count_cacti(n: int, filt: CactusFilter | None = None) -> int:
    return len(classes(n).positions(filt))
