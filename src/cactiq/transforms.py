"""The two radius-increasing graph surgeries: shifting a set of neighbors from
one vertex to another, and contracting a non-pendant edge while adding a fresh
pendant edge.  Both strictly increase the signless Laplacian spectral radius
under their respective hypotheses; the property tests check exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, from_edges, is_connected


@dataclass(frozen=True)
class ShiftPlan:
    """Move the neighbors in `moved` from vertex v to vertex u."""
    v: int
    u: int
    moved: frozenset

    def __init__(self, v: int, u: int, moved):
        object.__setattr__(self, "v", int(v))
        object.__setattr__(self, "u", int(u))
        object.__setattr__(self, "moved", frozenset(int(w) for w in moved))


def validate_plan(g: Graph, plan: ShiftPlan) -> None:
    if plan.u == plan.v:
        raise ValueError(f"source and target coincide at vertex {plan.u}")
    if not plan.moved:
        raise ValueError("at least one neighbor must be moved")
    at_v, at_u = g.neighbors(plan.v), g.neighbors(plan.u)
    for w in sorted(plan.moved):
        if w == plan.u:
            raise ValueError(f"moved vertex {w} is the target vertex")
        if w not in at_v:
            raise ValueError(f"vertex {w} is not a neighbor of {plan.v}")
        if w in at_u:
            raise ValueError(f"vertex {w} is already adjacent to {plan.u}")


def shift_neighbors(g: Graph, plan: ShiftPlan) -> Graph:
    """Delete edges v-w and add edges u-w for every w in the plan.

    Vertex and edge counts are preserved.  Rejects plans that would create
    multi-edges or move nothing; g must be connected.
    """
    if not is_connected(g):
        raise ValueError("shift_neighbors requires a connected graph")
    validate_plan(g, plan)
    edges = set(g.edges)
    for w in plan.moved:
        edges.discard((min(plan.v, w), max(plan.v, w)))
        edges.add((min(plan.u, w), max(plan.u, w)))
    return from_edges(g.order, edges)


def contract_pend(g: Graph, u: int, v: int) -> Graph:
    """Contract the non-pendant edge uv (disjoint neighborhoods required) and
    attach a new pendant edge to the merged vertex.

    The merged vertex keeps index min(u, v); the freed index max(u, v) becomes
    the new pendant, so the vertex count is unchanged.
    """
    if not is_connected(g):
        raise ValueError("contract_pend requires a connected graph")
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    if g.degree(u) == 1 or g.degree(v) == 1:
        raise ValueError(f"({u}, {v}) is a pendant edge")
    common = (g.neighbors(u) & g.neighbors(v))
    if common:
        raise ValueError(f"endpoints share neighbors {sorted(common)}")
    keep, free = min(u, v), max(u, v)
    edges = []
    for a, b in g.edges:
        if {a, b} == {u, v}:
            continue
        a2 = keep if a == free else a
        b2 = keep if b == free else b
        edges.append((a2, b2))
    edges.append((keep, free))
    return from_edges(g.order, edges)
