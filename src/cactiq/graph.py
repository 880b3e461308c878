"""Labeled simple graphs on dense integer indices, each held as its edge set,
with the structural predicates and invariants the rest of the toolkit relies
on.  Adjacency is read through `edges` or `Graph.adjacency` only: a
traversal derives the neighbour lists once and reads them.

One iterative biconnected DFS (`_biconnected`) gives the blocks, the cut
vertices and connectivity; block decomposition and the cactus test serve any
graph.  The rest is defined on cacti only, and every path is polynomial:
`_cactus_blocks` reads a cactus's blocks off that DFS, or raises ValueError
saying why the graph is not a cactus.  From those blocks a cactus gets a
near-linear canonical code from its vertex-block tree, encoded bottom-up
from its centre in one pass (`_peel`), and its matching number in linear
time, by peeling endblocks (`_peel_matching`).

The block order.  A cactus's blocks travel as a list of vertex lists, an
edge's two vertices or a cycle's in cyclic order, in post-order from vertex
0: each block's first vertex is its attachment vertex, the one nearest
vertex 0, and each block comes after every block hung below its other
vertices.  So every vertex but 0 is a later vertex of exactly one block,
and a pass that reaches a block has finished everything below it.
`_cactus_blocks` gives this order (the DFS's own post-order), and so does
`enumeration._path_blocks` (newest block first); `_peel` and
`_peel_matching` rely on it, and so do `families._blocks`' lists.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

MAX_ORDER = 64


@dataclass(frozen=True, slots=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..order-1: a frozenset
    of (u, v) int pairs, u < v.  `from_edges` is the checked way in."""
    order: int
    edges: frozenset

    def adjacency(self) -> list:
        """Each vertex's neighbours, as one list per vertex."""
        adj = [[] for _ in range(self.order)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    @property
    def size(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def __repr__(self):
        return f"Graph(order={self.order}, edges={sorted(self.edges)})"


@dataclass(frozen=True)
class BlockDecomposition:
    """Biconnected blocks (as edge sets) and cut vertices."""
    blocks: tuple
    cut_vertices: frozenset


@dataclass(frozen=True)
class CanonicalCode:
    """Relabeling-invariant octet code of a cactus; equal iff the cacti are
    isomorphic."""
    code: bytes


def _norm_edge(u: int, v: int) -> tuple:
    return (u, v) if u < v else (v, u)


def as_index(value, what: str) -> int:
    """value as a Python int through `operator.index`, so a bool or a NumPy
    integer converts; anything else raises ValueError naming what and value."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def from_edges(order: int, pairs) -> Graph:
    """Build a Graph from vertex pairs, collapsing duplicates.

    Every index must be an integer (a NumPy integer becomes a Python int).
    Rejects anything else, loops and out-of-range indices, naming the
    offender.
    """
    order = as_index(order, "order")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds supported maximum {MAX_ORDER}")
    edges = set()
    for pair in pairs:
        try:
            u, v = map(operator.index, pair)
        except (TypeError, ValueError):
            raise ValueError(f"edge {pair!r} is not a pair of integer vertex "
                             "indices") from None
        if u == v:
            raise ValueError(f"loop edge ({u}, {v}) is not allowed")
        for w in (u, v):
            if not 0 <= w < order:
                raise ValueError(f"vertex index {w} out of range 0..{order - 1}")
        edges.add(_norm_edge(u, v))
    return Graph(order, frozenset(edges))


def is_connected(g: Graph) -> bool:
    return _connected(g.adjacency())


def _connected(adj) -> bool:
    """Whether the graph with adjacency lists adj is nonempty and connected."""
    if not adj:
        return False
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def _biconnected(g: Graph):
    """One iterative Hopcroft-Tarjan DFS over g: (blocks, cut vertices,
    connected).

    Each block is a list of its edges as (tail, head) pairs in the order the
    search met them.  The first pair is the tree edge that entered the block,
    so its tail is the block's vertex nearest the search root; in a cycle
    block the tails run once round the cycle in order.  Isolated vertices
    belong to no block.
    """
    n = g.order
    adj = g.adjacency()
    disc = [0] * n  # discovery time from 1; 0 = not yet seen
    low = [0] * n
    blocks, cuts, edges = [], set(), []
    t = roots = 0
    for root in range(n):
        if disc[root]:
            continue
        roots += 1
        t += 1
        disc[root] = low[root] = t
        root_children = 0
        # frames: (vertex, parent, index of its tree edge in `edges`, iterator)
        stack = [(root, -1, 0, iter(adj[root]))]
        while stack:
            v, parent, at, it = stack[-1]
            for w in it:
                if not disc[w]:
                    t += 1
                    disc[w] = low[w] = t
                    stack.append((w, v, len(edges), iter(adj[w])))
                    edges.append((v, w))
                    break
                if disc[w] < disc[v] and w != parent:  # back edge
                    edges.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                stack.pop()
                if parent < 0:
                    continue
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if low[v] >= disc[parent]:
                    blocks.append(edges[at:])
                    del edges[at:]
                    if parent == root:
                        root_children += 1
                    else:
                        cuts.add(parent)
        if root_children > 1:
            cuts.add(root)
    return blocks, cuts, roots == 1


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Biconnected components of g, each as a frozenset of edges."""
    blocks, cuts, _ = _biconnected(g)
    return BlockDecomposition(
        blocks=tuple(frozenset(_norm_edge(u, v) for u, v in b) for b in blocks),
        cut_vertices=frozenset(cuts))


def _cactus_blocks(g: Graph) -> list:
    """The blocks of the cactus g as vertex lists, a cycle's in cyclic order,
    in the block order of the module docstring: a block is listed when the
    DFS from vertex 0 leaves it, and its first vertex is the tail of the tree
    edge that entered it.

    Raises ValueError when g is not a cactus, saying that it is disconnected
    or naming the vertices of a block that is neither an edge nor a cycle.
    """
    blocks, _, connected = _biconnected(g)
    if not connected:
        raise ValueError("not a cactus: the graph is disconnected")
    out = []
    for b in blocks:
        if len(b) == 1:
            out.append(b[0])
            continue
        # a biconnected block is a cycle exactly when |E| = |V|
        tails = [v for v, _ in b]
        if len(set(tails)) != len(b):
            raise ValueError(
                f"not a cactus: the block on vertices {sorted(set(tails))} "
                "is neither an edge nor a cycle")
        out.append(tails)
    return out


def is_cactus(g: Graph) -> bool:
    """True iff g is connected and every biconnected block is an edge or a
    cycle (equivalently: any two cycles share at most one vertex)."""
    try:
        _cactus_blocks(g)
    except ValueError:
        return False
    return True


def is_bundle(g: Graph) -> bool:
    """True iff all cycles of the cactus g share exactly one common vertex.

    Cacti with at most one cycle are bundles vacuously.  Raises ValueError on
    non-cactus input.
    """
    blocks = _cactus_blocks(g)
    cycle_vertex_sets = [frozenset(b) for b in blocks if len(b) >= 3]
    if len(cycle_vertex_sets) <= 1:
        return True
    common = frozenset.intersection(*cycle_vertex_sets)
    return len(common) == 1


def _peel_matching(n: int, blocks) -> int:
    """The matching number of the cactus on n vertices with these blocks, in
    the block order of the module docstring.

    In that order, when a block is reached every block below its
    non-attachment vertices is done and each of them is either free or
    matched; its attachment vertex a is its first vertex.  The free ones
    split into runs of consecutive vertices round the block (an edge block is
    one run of length 1), and each run is matched along itself, adding half
    its length, rounded down.  An odd run that touches a takes a as well
    while a is free, adding one more: matching a now gains an edge, while
    leaving it free gains at most one later.

    The runs are counted in place, with no list: run is the open run's
    length and first the first run's once a matched vertex closes it (-1
    while it is open, when the one run is both first and last); each run adds
    its half as it closes.  An edge block, one run of at most one vertex, is
    decided by its two flags alone.  Against a list of runs and a generator
    sum per block this peel takes about a quarter of the time (0.029 against
    0.127 s for the 24,118 classes of order 12, one process).
    """
    free = [True] * n
    size = 0
    for b in blocks:
        a = b[0]
        if len(b) == 2:
            if free[a] and free[b[1]]:
                free[a] = False
                size += 1
            continue
        first, run = -1, 0
        for v in b[1:]:
            if free[v]:
                run += 1
            else:
                if first < 0:
                    first = run
                size += run >> 1
                run = 0
        size += run >> 1
        if free[a] and (run & 1 or first > 0 and first & 1):
            free[a] = False
            size += 1
    return size


def matching_number(g: Graph) -> int:
    """The matching number of the cactus g, the size of a maximum matching.

    Counted in linear time by endblock peeling over the blocks of one
    biconnected DFS (`_peel_matching`).  Raises ValueError on non-cactus
    input.
    """
    return _peel_matching(g.order, _cactus_blocks(g))


def pendant_count(g: Graph) -> int:
    """Number of degree-1 vertices."""
    return sum(len(nbrs) == 1 for nbrs in g.adjacency())


# ---------------------------------------------------------------------------
# Canonical codes
# ---------------------------------------------------------------------------

def _peel(n: int, blocks):
    """Code the vertex-block tree of a cactus, rooted at its centre, in one
    pass over its blocks (ordered as the module docstring says).

    The tree's nodes are the n vertices and then the blocks, ids n, n + 1,
    ... in order; its leaves are all vertices, so its diameter is even and
    its centre unique.  Rooted at vertex 0, a block's parent is its first
    vertex and its children are the rest, in cyclic order from the parent,
    and when the pass reaches a block every block below those children is
    done, so their codes and heights are final.  The pass keeps each node's
    height and tallest child, and the longest path, which runs down a
    node's two tallest children; its length is 2R.  The centre is its
    midpoint: from the path's top node, height - R steps down the tallest
    children.  Re-rooting there changes only the path from vertex 0 to the
    centre: each node on it takes the next one as its parent, and the path
    alone is recoded, from vertex 0 up.

    Returns (kids, par, code, radius, centre): per node its children in the
    centre-rooted tree (a vertex's blocks; a block's vertices in cyclic
    order from its parent, or all of them at the centre), its parent (-1 at
    the centre) and its code (see `_cactus_code`), then R and the centre.
    """
    kids = [[] for _ in range(n)]
    total = n + len(blocks)
    par = [-1] * total
    code = [b"()"] * total
    high = [0] * total  # a node's height: its tallest child's, plus one
    low = [0] * n  # a vertex's second-tallest child's height, plus one
    tall = [0] * total  # a node's tallest child
    best = top = 0  # the longest path found, and the node at its top
    for b, verts in enumerate(blocks, n):
        a = verts[0]
        par[b] = a
        kids[a].append(b)
        below = verts[1:]
        kids.append(below)
        first = second = 0
        seq = []
        for v in below:
            par[v] = b
            ks = kids[v]
            if ks:
                code[v] = b"(" + b"".join(sorted([code[k] for k in ks])) + b")"
                h = high[v]
                if h + low[v] > best:
                    best, top = h + low[v], v
                h += 1
            else:
                h = 1
            if h > first:
                first, second, tall[b] = h, first, v
            elif h > second:
                second = h
            seq.append(code[v])
        code[b] = _block_code(seq)
        high[b] = first
        if first + second > best:
            best, top = first + second, b
        first += 1
        if first > high[a]:
            low[a], high[a], tall[a] = high[a], first, b
        elif first > low[a]:
            low[a] = first
    if high[0] + low[0] > best:
        best, top = high[0] + low[0], 0

    radius = best >> 1
    centre = top
    for _ in range(high[top] - radius):
        centre = tall[centre]
    path = [centre]
    while path[-1]:
        path.append(par[path[-1]])
    prev = -1
    for i in range(len(path) - 1, -1, -1):
        x = path[i]
        p = par[x] = path[i - 1] if i else -1
        if x < n:
            if p >= 0:
                kids[x].remove(p)
            if prev >= 0:
                kids[x].append(prev)
            code[x] = b"(" + b"".join(sorted([code[k] for k in kids[x]])) \
                + b")"
        else:
            verts = blocks[x - n]
            if p >= 0:
                j = verts.index(p)
                verts = verts[j + 1:] + verts[:j]
            kids[x] = verts
            code[x] = _block_code([code[w] for w in verts], p < 0)
        prev = x
    return kids, par, code, radius, centre


def _cactus_code(n: int, blocks) -> bytes:
    """AHU code of the vertex-block incidence tree of a cactus, rooted at its
    centre (`_peel`).

    A vertex is "(" + its sorted child codes + ")", a block "[" + its child
    codes + "]" in cyclic order from its parent, the lesser of the two
    directions, and a root block the least of every rotation and reflection.
    Each code is balanced, so the concatenations are prefix-free and the code
    fixes the cactus up to isomorphism.
    """
    *_, code, _, centre = _peel(n, blocks)
    return code[centre]


def _block_code(seq, root: bool = False) -> bytes:
    """Code of a block from the codes of its vertices other than its parent,
    seq, in cyclic order from the parent, or of every vertex in cyclic
    order when it is the root.

    Each direction of seq is joined into one byte string.  Under a parent
    the lesser direction wins.  As the root each rotation of each
    direction that starts at a least code is a candidate, a slice of the
    doubled joined string at a code boundary, and the least wins.  Every
    code is one balanced bracket pair, so no code is a proper prefix of
    another: two sequences of the same codes first differ inside a pair of
    codes that differ at some byte, and their joined order is their
    element-wise order.  So a rotation that starts at a greater code is
    greater."""
    if not root:
        if len(seq) == 1:  # an edge: the one child, either way
            return b"[" + seq[0] + b"]"
        return b"[" + min(b"".join(seq), b"".join(reversed(seq))) + b"]"
    if len(seq) <= 3:
        # every order of an edge's or a triangle's codes is a rotation or a
        # reflection, so the least is the sorted one
        return b"[" + b"".join(sorted(seq)) + b"]"
    least, best = min(seq), None
    for s in (seq, seq[::-1]):
        joined = b"".join(s)
        doubled, total, at = joined + joined, len(joined), 0
        for c in s:
            if c == least:
                rot = doubled[at:at + total]
                if best is None or rot < best:
                    best = rot
            at += len(c)
    return b"[" + best + b"]"


def canonical_code(g: Graph) -> CanonicalCode:
    """Relabeling-invariant code of the cactus g; equal codes mean isomorphic
    cacti.

    It is the centre-rooted code of the vertex-block tree (`_cactus_code`)
    over the blocks of one biconnected DFS, in time near linear in the
    order.  Raises ValueError on non-cactus input.
    """
    return CanonicalCode(_cactus_code(g.order, _cactus_blocks(g)))


def are_isomorphic(a: Graph, b: Graph) -> bool:
    """Whether the cacti a and b are isomorphic.  Raises ValueError when
    either is not a cactus."""
    return canonical_code(a) == canonical_code(b)
