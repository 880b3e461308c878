import random

import networkx as nx
import numpy as np
import pytest

from cactiq.enumeration import enumerate_cacti
from cactiq.graph import are_isomorphic, from_edges, is_connected
from cactiq.spectra import graph_radius
from cactiq.transforms import contract_pend, shift_neighbors

from oracles import to_networkx

P4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])
S4 = from_edges(4, [(0, 1), (0, 2), (0, 3)])
C3 = from_edges(3, [(0, 1), (1, 2), (0, 2)])
C4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def random_connected(rng, n, p=0.45):
    pairs = [(i, j) for j in range(n) for i in range(j)]
    while True:
        g = from_edges(n, [e for e in pairs if rng.random() < p])
        if is_connected(g):
            return g


def edge_set(h: nx.Graph) -> set:
    return {(min(a, b), max(a, b)) for a, b in h.edges}


class TestShift:
    def test_path_to_star(self):
        # move vertex 3 from 2 to 1: the path becomes a star at 1
        h = shift_neighbors(P4, 2, 1, [3])
        assert are_isomorphic(h, S4)

    def test_counts_preserved(self):
        h = shift_neighbors(P4, 2, 1, [3])
        assert h.order == P4.order and h.size == P4.size

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            shift_neighbors(P4, 2, 1, [])

    def test_same_endpoint_rejected(self):
        with pytest.raises(ValueError, match="coincide"):
            shift_neighbors(P4, 2, 2, [3])

    def test_non_neighbor_rejected(self):
        with pytest.raises(ValueError, match="not a neighbor"):
            shift_neighbors(P4, 0, 2, [3])

    def test_would_create_multiedge_rejected(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
        with pytest.raises(ValueError, match="already adjacent"):
            shift_neighbors(g, 2, 1, [3])

    def test_moving_target_rejected(self):
        with pytest.raises(ValueError, match="target"):
            shift_neighbors(P4, 2, 3, [3])

    def test_disconnected_rejected(self):
        g = from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            shift_neighbors(g, 0, 2, [1])

    def test_vertices_become_ints(self):
        h = shift_neighbors(P4, np.int64(2), True, np.array([3]))
        assert h == shift_neighbors(P4, 2, 1, [3])
        assert all(type(x) is int for e in h.edges for x in e)

    @pytest.mark.parametrize("v, u, moved, bad", [
        (2.7, 1, [3], "source vertex must be an integer, got 2.7"),
        (2, 0.2, [3], "target vertex must be an integer, got 0.2"),
        (2, 1, [3.9], "moved vertex must be an integer, got 3.9"),
        (2, 1, ["3"], "moved vertex must be an integer, got '3'"),
        (-1, 1, [3], r"source vertex must be in 0\.\.3, got -1"),
        (2, 4, [3], r"target vertex must be in 0\.\.3, got 4"),
        (2, 1, [-1], r"moved vertex must be in 0\.\.3, got -1"),
    ])
    def test_non_integer_vertex_rejected(self, v, u, moved, bad):
        with pytest.raises(ValueError, match=f"^{bad}$"):
            shift_neighbors(P4, v, u, moved)

    def test_radius_increases_when_target_dominates(self):
        # when the Perron weight of u is at least that of v, shifting
        # neighbors toward u strictly increases the radius
        rng = random.Random(41)
        done = 0
        while done < 80:
            g = random_connected(rng, rng.randint(4, 8))
            adj = [set(a) for a in g.adjacency()]
            res = graph_radius(g)
            verts = list(range(g.order))
            rng.shuffle(verts)
            v, u = verts[0], verts[1]
            if res.perron[v] > res.perron[u] + 1e-12:
                continue
            movable = sorted(adj[v] - adj[u] - {u})
            if not movable:
                continue
            moved = [w for w in movable if rng.random() < 0.7] or [movable[0]]
            h = shift_neighbors(g, v, u, moved)
            assert graph_radius(h).radius - res.radius > 1e-10
            done += 1


class TestContractPend:
    def test_path_middle_edge(self):
        h = contract_pend(P4, 1, 2)
        assert are_isomorphic(h, S4)

    def test_c4_becomes_triangle_with_pendant(self):
        h = contract_pend(C4, 0, 1)
        want = from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
        assert are_isomorphic(h, want)

    def test_triangle_edge_rejected(self):
        # endpoints of any triangle edge share the third vertex
        with pytest.raises(ValueError, match="share"):
            contract_pend(C3, 0, 1)

    def test_pendant_edge_rejected(self):
        with pytest.raises(ValueError, match="pendant"):
            contract_pend(P4, 0, 1)

    def test_missing_edge_rejected(self):
        with pytest.raises(ValueError, match="not an edge"):
            contract_pend(P4, 0, 2)

    def test_disconnected_rejected(self):
        g = from_edges(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
        with pytest.raises(ValueError, match="connected"):
            contract_pend(g, 1, 2)

    def test_counts_preserved(self):
        h = contract_pend(C4, 0, 1)
        assert h.order == C4.order and h.size == C4.size

    def test_vertices_become_ints(self):
        h = contract_pend(P4, np.int64(1), 2)
        assert h == contract_pend(P4, 1, 2) == contract_pend(P4, True, 2)
        assert all(type(x) is int for e in h.edges for x in e)

    @pytest.mark.parametrize("u, v, bad", [
        # a float once surfaced as an edge the caller never passed, a string
        # as a TypeError
        (1.0, 2, "vertex u must be an integer, got 1.0"),
        ("1", 2, "vertex u must be an integer, got '1'"),
        (1, 2.0, "vertex v must be an integer, got 2.0"),
        (-1, 2, r"vertex u must be in 0\.\.3, got -1"),
        (1, 4, r"vertex v must be in 0\.\.3, got 4"),
    ])
    def test_bad_vertex_rejected(self, u, v, bad):
        with pytest.raises(ValueError, match=f"^{bad}$"):
            contract_pend(P4, u, v)

    def test_radius_increases(self):
        rng = random.Random(43)
        done = 0
        while done < 80:
            g = random_connected(rng, rng.randint(4, 8), p=0.35)
            adj = [set(a) for a in g.adjacency()]
            candidates = [(u, v) for u, v in g.edges
                          if len(adj[u]) > 1 and len(adj[v]) > 1
                          and not adj[u] & adj[v]]
            if not candidates:
                continue
            u, v = candidates[rng.randrange(len(candidates))]
            h = contract_pend(g, u, v)
            assert graph_radius(h).radius - graph_radius(g).radius > 1e-10
            done += 1


@pytest.mark.parametrize("n", range(1, 7))
def test_surgeries_match_networkx(n):
    """On every cactus class of order n and every vertex pair, each surgery
    succeeds exactly when its hypotheses hold, read from networkx, and then
    gives networkx's edit: a contraction plus a pendant edge, or the edge
    swap of one moved neighbour."""
    for g in enumerate_cacti(n):
        G = to_networkx(g)
        for u in range(n):
            for v in range(n):
                ok = (G.has_edge(u, v) and G.degree(u) > 1 and G.degree(v) > 1
                      and not set(G[u]) & set(G[v]))
                if ok:
                    keep, free = min(u, v), max(u, v)
                    want = nx.contracted_nodes(G, keep, free, self_loops=False)
                    want.add_edge(keep, free)
                    assert contract_pend(g, u, v).edges == edge_set(want)
                else:
                    with pytest.raises(ValueError):
                        contract_pend(g, u, v)
                for w in range(n):
                    if w in set(G[v]) - set(G[u]) - {u}:
                        want = G.copy()
                        want.remove_edge(v, w)
                        want.add_edge(u, w)
                        assert shift_neighbors(g, v, u, [w]).edges == \
                            edge_set(want)
                    else:
                        with pytest.raises(ValueError):
                            shift_neighbors(g, v, u, [w])


@pytest.mark.parametrize("surgery, args", [
    (shift_neighbors, (P4, 2, 1, [3])), (contract_pend, (C4, 0, 1)),
    # a disconnected graph is refused on the same one adjacency
    (shift_neighbors, (from_edges(4, [(0, 1), (2, 3)]), 0, 2, [1])),
    (contract_pend, (from_edges(6, [(0, 1), (1, 2), (2, 3), (4, 5)]), 1, 2))])
def test_surgeries_derive_adjacency_once(monkeypatch, surgery, args):
    calls = []
    adjacency = type(P4).adjacency
    monkeypatch.setattr(type(P4), "adjacency",
                        lambda g: calls.append(g) or adjacency(g))
    try:
        surgery(*args)
    except ValueError as exc:
        assert "connected" in str(exc)
    assert calls == [args[0]]
