"""Deterministic generation of all non-isomorphic cacti on n vertices.

Every cactus with at least two vertices has a removable endblock (a pendant
edge, or a cycle whose vertices other than one cut vertex all have degree 2),
so attaching pendant edges and fresh cycles at every vertex of every smaller
cactus, with canonical-code deduplication, generates each isomorphism class
exactly once per size.  A candidate is its parent plus one endblock at a
vertex v, so its centre-rooted code differs from the parent's only on the
path from v to the centre: each parent's vertex-block tree is peeled and
coded once, each candidate recodes only that path, and only the first
candidate of each class is built as a `Graph`.  Output is sorted by canonical
code.  The matching number and pendant count of each class are computed once
per order, on the first filtered call, and grouped into an index from each
(matching number, pendant count) pair to its classes' positions; a filter
picks the groups it admits.  `class_positions` gives a filtered class as
indices into the full list, so per-class tables aligned with that list (such
as the spectra in `verify`) are read through the same filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .graph import (Graph, _block_code, _cactus_blocks, _peel, _vertex_code,
                    canonical_code, from_edges, matching_number,
                    pendant_count)

MAX_N = 10


@dataclass(frozen=True)
class CactusFilter:
    """Optional matching-number and pendant-count constraints."""
    matching: int | None = None
    pendants: int | None = None

    def feasible(self, n: int) -> bool:
        """Whether some graph on n vertices could meet both constraints."""
        return ((self.matching is None or 1 <= self.matching <= n // 2)
                and (self.pendants is None or 0 <= self.pendants <= n))

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


@lru_cache(maxsize=None)
def _level(n: int) -> tuple:
    """(code, graph) for every cactus class on n vertices, in discovery order:
    the first extension found in each class, scanning the smaller levels in
    order and in their own discovery order, is its representative.

    Candidates are coded by `_child_codes`; a `Graph` is built only for the
    first of each class, as the parent's edges plus the new path and its two
    closing edges (v, size) and (v, n - 1), all already normalised, so the
    edge tuples are shared with the parent and need no validation."""
    if n == 1:
        g = from_edges(1, [])
        return ((canonical_code(g).code, g),)
    bucket = {}
    for size in range(1, n):
        for _, g in _level(size):
            edges = g.edges.union(zip(range(size, n - 1), range(size + 1, n)))
            for v, code in enumerate(_child_codes(g, n)):
                if code not in bucket:
                    bucket[code] = Graph(n, edges | {(v, size), (v, n - 1)})
    return tuple(bucket.items())


@lru_cache(maxsize=None)
def _all_cacti(n: int) -> tuple:
    """All non-isomorphic cacti on exactly n vertices, sorted by code."""
    if n > MAX_N:
        raise ValueError(f"n = {n} exceeds the enumeration guard {MAX_N}")
    return tuple(g for _, g in sorted(_level(n), key=lambda item: item[0]))


@lru_cache(maxsize=None)
def _invariants(n: int) -> tuple:
    """((matching number, pendant count), positions) for every pair that
    occurs among the classes of `_all_cacti(n)`, the positions ascending."""
    groups = {}
    for i, g in enumerate(_all_cacti(n)):
        inv = (matching_number(g).size, pendant_count(g))
        groups.setdefault(inv, []).append(i)
    return tuple((inv, tuple(pos)) for inv, pos in groups.items())


def class_positions(n: int, filt: CactusFilter | None = None):
    """Indices into the full class list of order n (`enumerate_cacti(n)`) of
    the classes meeting the filter, ascending: a range when there is no
    filter, otherwise a tuple, the union of the order's groups (`_invariants`)
    that the filter admits.

    An infeasible filter yields an empty sequence.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    filt = filt or CactusFilter()
    if not filt.feasible(n):
        return ()
    if filt == CactusFilter():
        return range(len(_all_cacti(n)))
    return tuple(sorted(chain.from_iterable(
        pos for inv, pos in _invariants(n) if filt.admits(*inv))))


def enumerate_cacti(n: int, filt: CactusFilter | None = None) -> tuple:
    """One representative per isomorphism class of cacti on n vertices meeting
    the filter, in ascending canonical-code order.

    An infeasible filter yields an empty sequence.
    """
    positions = class_positions(n, filt)
    if not positions:
        return ()
    classes = _all_cacti(n)
    if len(positions) == len(classes):
        return classes
    return tuple(classes[i] for i in positions)


def count_cacti(n: int, filt: CactusFilter | None = None) -> int:
    return len(enumerate_cacti(n, filt))

