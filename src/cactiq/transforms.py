"""The two radius-increasing graph surgeries: shifting neighbors of v to u,
and contracting a non-pendant edge uv while adding a fresh pendant edge.
Both strictly increase the signless Laplacian spectral radius under their
respective hypotheses; the property tests check exactly that.

Each takes its vertices directly, integers in 0..order-1 (see
`graph.as_index`) checked before anything is indexed, and checks that the
graph is connected and its other hypotheses on one `Graph.adjacency()`; a
violation raises ValueError naming it.
"""

from __future__ import annotations

from .graph import Graph, _connected, _norm_edge, as_index, from_edges


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
    adj = g.adjacency()
    if not _connected(adj):
        raise ValueError("shift_neighbors requires a connected graph")
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
    edges = set(g.edges)
    for w in moved:
        edges.discard(_norm_edge(v, w))
        edges.add(_norm_edge(u, w))
    return from_edges(g.order, edges)


def contract_pend(g: Graph, u: int, v: int) -> Graph:
    """Contract the non-pendant edge uv (disjoint neighborhoods required) and
    attach a new pendant edge to the merged vertex.

    The merged vertex keeps index min(u, v); the freed index max(u, v) becomes
    the new pendant, so the vertex count is unchanged.
    """
    u = _vertex(g, u, "vertex u")
    v = _vertex(g, v, "vertex v")
    adj = g.adjacency()
    if not _connected(adj):
        raise ValueError("contract_pend requires a connected graph")
    if v not in adj[u]:
        raise ValueError(f"({u}, {v}) is not an edge")
    if len(adj[u]) == 1 or len(adj[v]) == 1:
        raise ValueError(f"({u}, {v}) is a pendant edge")
    common = set(adj[u]).intersection(adj[v])
    if common:
        raise ValueError(f"endpoints share neighbors {sorted(common)}")
    keep, free = _norm_edge(u, v)
    edges = [_norm_edge(keep if a == free else a, keep if b == free else b)
             for a, b in g.edges if (a, b) != (keep, free)]
    edges.append((keep, free))
    return from_edges(g.order, edges)
