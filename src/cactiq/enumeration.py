"""Deterministic generation of all non-isomorphic cacti on n vertices.

Every cactus with at least two vertices has a removable endblock (a pendant
edge, or a cycle whose vertices other than one cut vertex all have degree 2),
so attaching pendant edges and fresh cycles at every vertex of every smaller
cactus, with canonical-code deduplication, generates each isomorphism class
exactly once per size.  A candidate is its parent plus one endblock at a
vertex v, so its centre-rooted code differs from the parent's only on the
path from v to the centre: each parent's vertex-block tree is peeled and
coded once, each candidate recodes only that path, and only the first
candidate of each class is built as a `Graph`.

Each order has one table, a `Level`, held by the one cache `_level(n)`: the
classes in discovery order, which the next order extends, and the same
classes sorted by canonical code, the order of every output.  The index from
each (matching number, pendant count) pair to its classes' positions and the
Q-radius and Perron vector of every class are computed on first use and kept
in the table.  A filter selects the union of the groups it admits, so a
filter that no class meets selects nothing.  `classes(n)` is the guarded way
in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain

from .graph import (Graph, _block_code, _cactus_blocks, _peel, _vertex_code,
                    as_index, canonical_code, from_edges, matching_number,
                    pendant_count)
from .spectra import eigenpairs

MAX_N = 13


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


def _child_codes(g: Graph, n: int):
    """Canonical code of each one-endblock extension of g to order n, for the
    attachment vertex v = 0..g.order-1 in turn: the new vertices
    g.order..n-1 closed into a cycle through v, or a pendant edge at v when
    there is one new vertex.

    The new block hangs below v with only leaves under it, so its code is
    "[" + "()" * (n - g.order) + "]" whichever way round it is read.  One
    peel of g's vertex-block tree (`_peel`) gives every node's code, and a
    child differs from g only on the path from v to g's centre c, which is
    recoded bottom-up.  Vertex depths from c share the parity of the
    deepest, R.  If v is shallower than R, the new leaves are no deeper than
    R and the centre stays at c.  If v is at depth R, the new leaves are at
    R + 2 while another branch of c reaches R, so the diameter grows by 2 and
    the centre moves to u, the node after c on the path to v: c is recoded
    as a child of u, and u as the root."""
    o = g.order
    leaf = b"[" + b"()" * (n - o) + b"]"
    if o == 1:  # the child is the one block, its centre
        yield b"[" + b"()" * n + b"]"
        return
    nbrs, par, depth, code, c = _peel(o, _cactus_blocks(g))
    deepest = max(depth[:o])
    for v in range(o):
        x, steps = v, []
        while x != c:
            steps.append((x, par[x]))
            x = par[x]
        steps.append((c, -1))
        if depth[v] == deepest:
            u = steps[-2][0]
            steps[-2:] = [(c, u), (u, -1)]
        cd = code.copy()
        for x, p in steps:
            if x >= o:
                cd[x] = _block_code(nbrs[x], p, cd)
            else:
                kids = [cd[b] for b in nbrs[x] if b != p]
                if x == v:
                    kids.append(leaf)
                cd[x] = _vertex_code(kids)
        yield cd[x]


class Level:
    """The cactus classes of one order.

    `found` holds them in discovery order, which the next order's scan
    extends; `graphs` holds the same graphs sorted by canonical code.  The
    codes are used for the sort and then dropped."""

    def __init__(self, bucket: dict):
        self.found = tuple(bucket.values())
        self.graphs = tuple(bucket[code] for code in sorted(bucket))

    @cached_property
    def groups(self) -> dict:
        """(matching number, pendant count) -> the positions in `graphs` of
        the classes with that pair, ascending, for every pair that occurs."""
        groups = {}
        for i, g in enumerate(self.graphs):
            inv = (matching_number(g), pendant_count(g))
            groups.setdefault(inv, []).append(i)
        return groups

    @cached_property
    def spectra(self) -> tuple:
        """Q-radius and Perron vector of every class of `graphs`, in the same
        order: an (N,) and an (N, n) float array from one stacked
        `spectra.eigenpairs` solve of the order."""
        return eigenpairs(self.graphs)

    def positions(self, filt: CactusFilter | None = None):
        """Positions in `graphs` of the classes meeting the filter, ascending:
        a range when there is no filter, otherwise a tuple, the union of the
        groups the filter admits."""
        if filt in (None, CactusFilter()):
            return range(len(self.graphs))
        return tuple(sorted(chain.from_iterable(
            pos for inv, pos in self.groups.items() if filt.admits(*inv))))


@lru_cache(maxsize=None)
def _level(n: int) -> Level:
    """The table of order n.  A class's representative is the first extension
    found in it, scanning the smaller levels in order and each in its own
    discovery order.

    Candidates are coded by `_child_codes`; a `Graph` is built only for the
    first of each class, as the parent's edges plus the new path and its two
    closing edges (v, size) and (v, n - 1), all already normalised, so the
    edge tuples are shared with the parent and need no validation."""
    if n == 1:
        g = from_edges(1, [])
        return Level({canonical_code(g).code: g})
    bucket = {}
    for size in range(1, n):
        for g in _level(size).found:
            edges = g.edges.union(zip(range(size, n - 1), range(size + 1, n)))
            for v, code in enumerate(_child_codes(g, n)):
                if code not in bucket:
                    bucket[code] = Graph(n, edges | {(v, size), (v, n - 1)})
    return Level(bucket)


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
    the filter, in ascending canonical-code order."""
    level = classes(n)
    positions = level.positions(filt)
    if len(positions) == len(level.graphs):
        return level.graphs
    return tuple(level.graphs[i] for i in positions)


def count_cacti(n: int, filt: CactusFilter | None = None) -> int:
    return len(classes(n).positions(filt))
