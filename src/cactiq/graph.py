"""Labeled simple graphs on dense integer indices, with the structural
predicates and invariants the rest of the toolkit relies on: cactus and bundle
tests via block decomposition, maximum matchings, and relabeling-invariant
canonical codes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import networkx as nx

MAX_ORDER = 64


class Graph:
    """Immutable simple undirected graph on vertices 0..order-1."""

    __slots__ = ("order", "edges", "_adj")

    def __init__(self, order: int, edges: frozenset):
        self.order = order
        self.edges = edges
        adj = [set() for _ in range(order)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        self._adj = tuple(frozenset(s) for s in adj)

    def neighbors(self, v: int) -> frozenset:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degree_sequence(self) -> tuple:
        return tuple(sorted(len(s) for s in self._adj))

    @property
    def size(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def __eq__(self, other):
        return (isinstance(other, Graph)
                and self.order == other.order and self.edges == other.edges)

    def __hash__(self):
        return hash((self.order, self.edges))

    def __repr__(self):
        return f"Graph(order={self.order}, edges={sorted(self.edges)})"

    def to_networkx(self) -> "nx.Graph":
        g = nx.Graph()
        g.add_nodes_from(range(self.order))
        g.add_edges_from(self.edges)
        return g


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
    """Relabeling-invariant octet code; equal iff the graphs are isomorphic."""
    code: bytes

    def __lt__(self, other):
        return self.code < other.code


def _norm_edge(u: int, v: int) -> tuple:
    return (u, v) if u < v else (v, u)


def from_edges(order: int, pairs) -> Graph:
    """Build a Graph from vertex pairs, collapsing duplicates.

    Rejects loops and out-of-range indices, naming the offender.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds supported maximum {MAX_ORDER}")
    edges = set()
    for u, v in pairs:
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
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.order


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Biconnected components of g, each as a frozenset of edges."""
    G = g.to_networkx()
    blocks = tuple(frozenset(_norm_edge(u, v) for u, v in comp)
                   for comp in nx.biconnected_component_edges(G))
    cuts = frozenset(nx.articulation_points(G))
    return BlockDecomposition(blocks=blocks, cut_vertices=cuts)


def _block_vertices(block) -> frozenset:
    return frozenset(itertools.chain.from_iterable(block))


def is_cactus(g: Graph) -> bool:
    """True iff g is connected and every biconnected block is an edge or a
    cycle (equivalently: any two cycles share at most one vertex)."""
    if not is_connected(g):
        return False
    for block in block_decomposition(g).blocks:
        if len(block) == 1:
            continue
        # a biconnected block is a cycle exactly when |E| = |V|
        if len(block) != len(_block_vertices(block)):
            return False
    return True


def is_bundle(g: Graph) -> bool:
    """True iff all cycles of the cactus g share exactly one common vertex.

    Cacti with at most one cycle are bundles vacuously.  Raises ValueError on
    non-cactus input.
    """
    if not is_cactus(g):
        raise ValueError("is_bundle requires a cactus")
    cycle_vertex_sets = [_block_vertices(b)
                         for b in block_decomposition(g).blocks if len(b) >= 3]
    if len(cycle_vertex_sets) <= 1:
        return True
    common = frozenset.intersection(*cycle_vertex_sets)
    return len(common) == 1


def matching_number(g: Graph) -> MatchingResult:
    """Maximum matching of g (general graphs, odd cycles included)."""
    mate = nx.max_weight_matching(g.to_networkx(), maxcardinality=True)
    witness = frozenset(_norm_edge(u, v) for u, v in mate)
    return MatchingResult(size=len(witness), witness=witness)


def pendant_count(g: Graph) -> int:
    """Number of degree-1 vertices."""
    return sum(1 for v in range(g.order) if g.degree(v) == 1)


# ---------------------------------------------------------------------------
# Canonical codes
# ---------------------------------------------------------------------------

def _refined_colors(g: Graph) -> list:
    """Iterated neighborhood refinement; color ids are isomorphism-invariant."""
    n = g.order
    ranks = {d: i for i, d in enumerate(sorted({g.degree(v) for v in range(n)}))}
    colors = [ranks[g.degree(v)] for v in range(n)]
    while True:
        keys = [(colors[v], tuple(sorted(colors[w] for w in g.neighbors(v))))
                for v in range(n)]
        ranks = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [ranks[k] for k in keys]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def canonical_code(g: Graph) -> CanonicalCode:
    """Lexicographically minimal adjacency bitstring over all relabelings that
    respect the refinement coloring.

    The search keeps a frontier of partial labelings whose emitted bits are
    identical so far and extends greedily, so the result is the true minimum.
    """
    n = g.order
    colors = _refined_colors(g)
    target = sorted(colors)  # color required at each position
    by_color = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)

    frontier = [()]
    bits = []
    for i in range(n):
        want = target[i]
        best_row = None
        nxt = []
        for perm in frontier:
            used = set(perm)
            for v in by_color[want]:
                if v in used:
                    continue
                row = tuple(1 if p in g.neighbors(v) else 0 for p in perm)
                if best_row is None or row < best_row:
                    best_row = row
                    nxt = [perm + (v,)]
                elif row == best_row:
                    nxt.append(perm + (v,))
        # dedup prefixes whose remaining search space emits identical bits:
        # only adjacency of placed vertices to unused ones matters from here on
        seen = set()
        frontier = []
        for perm in nxt:
            used = set(perm)
            key = (frozenset(used),
                   tuple(frozenset(g.neighbors(p) - used) for p in perm))
            if key not in seen:
                seen.add(key)
                frontier.append(perm)
        bits.extend(best_row or ())

    packed = bytearray([n])
    acc, k = 0, 0
    for b in bits:
        acc = (acc << 1) | b
        k += 1
        if k == 8:
            packed.append(acc)
            acc, k = 0, 0
    if k:
        packed.append(acc << (8 - k))
    return CanonicalCode(bytes(packed))


def are_isomorphic(a: Graph, b: Graph) -> bool:
    return canonical_code(a) == canonical_code(b)
