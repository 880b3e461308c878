"""Labeled simple graphs on dense integer indices, each held as its edge set
(a traversal derives adjacency from it once, `Graph.adjacency`), with the
structural predicates and invariants the rest of the toolkit relies on.

One iterative biconnected DFS (`_biconnected`) gives the blocks, the cut
vertices and connectivity; block decomposition and the cactus test serve any
graph.  The rest is defined on cacti only, and every path is polynomial:
`_cactus_blocks` reads a cactus's blocks off that DFS, or raises ValueError
saying why the graph is not a cactus.  From those blocks a cactus gets a
near-linear canonical code from its vertex-block tree, encoded bottom-up
from its centre, and its maximum matching in linear time, by peeling
endblocks in DFS post-order (`_peel_matching`).
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

    def neighbors(self, v: int) -> frozenset:
        return frozenset(b if a == v else a for a, b in self.edges
                         if v in (a, b))

    def degree(self, v: int) -> int:
        return sum(v in e for e in self.edges)

    @property
    def size(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def __repr__(self):
        return f"Graph(order={self.order}, edges={sorted(self.edges)})"


@dataclass(frozen=True)
class MatchingResult:
    """A maximum matching: its size and a witnessing edge set."""
    size: int
    witness: frozenset


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
    if g.order == 0:
        return False
    adj = g.adjacency()
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.order


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
    """The blocks of the cactus g as vertex lists, a cycle's in cyclic order.

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


def _peel_matching(n: int, blocks) -> list:
    """A maximum matching of the cactus on n vertices with these blocks (as
    from `_cactus_blocks`), as vertex pairs.

    The blocks come in DFS post-order, so when a block is reached every block
    below its non-attachment vertices is done and each of them is either free
    or matched; its attachment vertex a is its first vertex.  The free ones
    split into runs of consecutive vertices round the block (an edge block is
    one run of length 1), and each run is matched along itself.  An odd run
    that touches a takes a as well while a is free: matching a now gains an
    edge, while leaving it free gains at most one later.
    """
    free = [True] * n
    pairs = []
    for b in blocks:
        a, first, last = b[0], b[1], b[-1]
        runs, run = [], []
        for v in b[1:]:
            if free[v]:
                run.append(v)
            elif run:
                runs.append(run)
                run = []
        if run:
            runs.append(run)
        for run in runs:
            if len(run) % 2 and free[a] and (run[0] == first or run[-1] == last):
                free[a] = False
                run = [a] + run if run[0] == first else run + [a]
            pairs += zip(run[::2], run[1::2])
    return pairs


def matching_number(g: Graph) -> MatchingResult:
    """Maximum matching of the cactus g, with a witnessing edge set.

    Matched in linear time by endblock peeling over the blocks of one
    biconnected DFS (`_peel_matching`).  Raises ValueError on non-cactus
    input.
    """
    pairs = _peel_matching(g.order, _cactus_blocks(g))
    witness = frozenset(_norm_edge(u, v) for u, v in pairs)
    return MatchingResult(size=len(witness), witness=witness)


def pendant_count(g: Graph) -> int:
    """Number of degree-1 vertices."""
    return sum(len(nbrs) == 1 for nbrs in g.adjacency())


# ---------------------------------------------------------------------------
# Canonical codes
# ---------------------------------------------------------------------------

def _peel(n: int, blocks):
    """Peel the vertex-block incidence tree of a cactus down to its centre.

    The tree's nodes are the n vertices and then the blocks (as from
    `_cactus_blocks`), ids n, n + 1, ... in order; its leaves are all
    vertices, so its diameter is even and its centre unique.  Returns
    (nbrs, par, depth, code, centre): per node its neighbours (a vertex's
    blocks, a block's vertices in cyclic order), its parent towards the
    centre (-1 at the centre), its distance from the centre and its code
    in the tree rooted there (see `_cactus_code`).
    """
    total = n + len(blocks)
    nbrs = [[] for _ in range(n)]
    link = [0] * total  # xor of the ids of a node's unpeeled neighbours
    for b, verts in enumerate(blocks, n):
        for v in verts:
            nbrs[v].append(b)
            link[v] ^= b
            link[b] ^= v
    nbrs.extend(blocks)
    deg = [len(x) for x in nbrs]

    # Peel leaves layer by layer down to the centre.  A peeled node's one
    # unpeeled neighbour, its parent, is what is left in its link.
    par = [-1] * total
    peeled = []
    layer = [x for x in range(total) if deg[x] == 1]
    left = total
    while left > 1:
        nxt = []
        for x in layer:
            p = par[x] = link[x]
            link[p] ^= x
            deg[p] -= 1
            if deg[p] == 1:
                nxt.append(p)
        left -= len(layer)
        peeled += layer
        layer = nxt
    centre = layer[0] if layer else 0
    peeled.append(centre)

    # Code children before parents.  The tree is bipartite: a vertex's
    # children are blocks, a block's are vertices.
    code = [b""] * total
    for x in peeled:
        p = par[x]
        if x < n:
            code[x] = _vertex_code([code[b] for b in nbrs[x] if b != p])
        else:
            code[x] = _block_code(nbrs[x], p, code)
    depth = [0] * total
    for x in reversed(peeled[:-1]):
        depth[x] = depth[par[x]] + 1
    return nbrs, par, depth, code, centre


def _cactus_code(n: int, blocks) -> bytes:
    """AHU code of the vertex-block incidence tree of a cactus, rooted at its
    centre (`_peel`).

    A vertex is "(" + its sorted child codes + ")", a block "[" + its child
    codes + "]" in cyclic order from its parent, the lesser of the two
    directions, and a root block the least of every rotation and reflection.
    Each code is balanced, so the concatenations are prefix-free and the code
    fixes the cactus up to isomorphism.
    """
    *_, code, centre = _peel(n, blocks)
    return code[centre]


def _vertex_code(kids) -> bytes:
    return b"(" + b"".join(sorted(kids)) + b")" if kids else b"()"


def _block_code(verts, p: int, code) -> bytes:
    """Code of a block whose vertices, in cyclic order, are verts, under the
    parent vertex p, or as the root when p is -1."""
    if p >= 0 and len(verts) == 2:  # an edge: the one child, either way
        return b"[" + code[verts[0] if verts[1] == p else verts[1]] + b"]"
    seq = [code[v] for v in verts]
    if p < 0:
        back = seq[::-1]
        best = min(min(s[i:] + s[:i] for i in range(len(s)))
                   for s in (seq, back))
    else:
        i = verts.index(p)
        seq = seq[i + 1:] + seq[:i]
        best = min(seq, seq[::-1])
    return b"[" + b"".join(best) + b"]"


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
