"""The two radius-increasing graph surgeries: shifting neighbors of v to u,
and contracting a non-pendant edge uv while adding a fresh pendant edge.
Both strictly increase the signless Laplacian spectral radius under their
respective hypotheses; the property tests check exactly that.

Each takes its vertices directly, integers in 0..order-1 (see
`graph.as_index`) checked before anything is indexed, builds one neighbour
set per vertex, checks on it that the graph is connected, and hands it to
its internal, which checks the local hypotheses once (ValueError names a
violation) and returns the new edge set.  The monotonicity runs call the
internals directly, on classes that are connected by construction.
"""

from __future__ import annotations

from .graph import Graph, _connected, _norm_edge, as_index


def _vertex(g: Graph, value, what: str) -> int:
    """value as a vertex of g, or ValueError naming what."""
    v = as_index(value, what)
    if not 0 <= v < g.order:
        raise ValueError(f"{what} must be in 0..{g.order - 1}, got {v}")
    return v


def shift_neighbors(g: Graph, v: int, u: int, moved) -> Graph:
    """Delete edges v-w and add edges u-w for every w in moved.

    Vertex and edge counts are preserved.  Rejects shifts that would create
    multi-edges or move nothing; g must be connected.
    """
    v = _vertex(g, v, "source vertex")
    u = _vertex(g, u, "target vertex")
    moved = {_vertex(g, w, "moved vertex") for w in moved}
    adj = [set(a) for a in g.adjacency()]
    if not _connected(adj):
        raise ValueError("shift_neighbors requires a connected graph")
    return Graph(g.order, frozenset(_shifted(adj, g.edges, v, u, moved)))


def _shifted(adj, edges, v: int, u: int, moved) -> set:
    """`shift_neighbors` on the edges and neighbour sets adj of a connected
    graph: the new edges."""
    if u == v:
        raise ValueError(f"source and target coincide at vertex {u}")
    if not moved:
        raise ValueError("at least one neighbor must be moved")
    for w in sorted(moved):
        if w == u:
            raise ValueError(f"moved vertex {w} is the target vertex")
        if w not in adj[v]:
            raise ValueError(f"vertex {w} is not a neighbor of {v}")
        if w in adj[u]:
            raise ValueError(f"vertex {w} is already adjacent to {u}")
    out = set(edges)
    for w in moved:
        out.discard(_norm_edge(v, w))
        out.add(_norm_edge(u, w))
    return out


def contract_pend(g: Graph, u: int, v: int) -> Graph:
    """Contract the non-pendant edge uv (disjoint neighborhoods required) and
    attach a new pendant edge to the merged vertex.

    The merged vertex keeps index min(u, v); the freed index max(u, v) becomes
    the new pendant, so the vertex count is unchanged.
    """
    u = _vertex(g, u, "vertex u")
    v = _vertex(g, v, "vertex v")
    adj = [set(a) for a in g.adjacency()]
    if not _connected(adj):
        raise ValueError("contract_pend requires a connected graph")
    return Graph(g.order, frozenset(_contracted(adj, g.edges, u, v)))


def _contracted(adj, edges, u: int, v: int) -> set:
    """`contract_pend` on the edges and neighbour sets adj of a connected
    graph: the new edges."""
    if v not in adj[u]:
        raise ValueError(f"({u}, {v}) is not an edge")
    if len(adj[u]) == 1 or len(adj[v]) == 1:
        raise ValueError(f"({u}, {v}) is a pendant edge")
    common = adj[u] & adj[v]
    if common:
        raise ValueError(f"endpoints share neighbors {sorted(common)}")
    keep, free = _norm_edge(u, v)
    out = {_norm_edge(keep if a == free else a, keep if b == free else b)
           for a, b in edges if (a, b) != (keep, free)}
    out.add((keep, free))
    return out
