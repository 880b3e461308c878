import random

import numpy as np
import pytest

from cactiq.graph import are_isomorphic, from_edges, is_connected
from cactiq.spectra import graph_radius
from cactiq.transforms import ShiftPlan, contract_pend, shift_neighbors

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


class TestShift:
    def test_path_to_star(self):
        # move vertex 3 from 2 to 1: the path becomes a star at 1
        h = shift_neighbors(P4, ShiftPlan(v=2, u=1, moved=[3]))
        assert are_isomorphic(h, S4)

    def test_counts_preserved(self):
        h = shift_neighbors(P4, ShiftPlan(v=2, u=1, moved=[3]))
        assert h.order == P4.order and h.size == P4.size

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            shift_neighbors(P4, ShiftPlan(v=2, u=1, moved=[]))

    def test_same_endpoint_rejected(self):
        with pytest.raises(ValueError):
            shift_neighbors(P4, ShiftPlan(v=2, u=2, moved=[3]))

    def test_non_neighbor_rejected(self):
        with pytest.raises(ValueError, match="not a neighbor"):
            shift_neighbors(P4, ShiftPlan(v=0, u=2, moved=[3]))

    def test_would_create_multiedge_rejected(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
        with pytest.raises(ValueError, match="already adjacent"):
            shift_neighbors(g, ShiftPlan(v=2, u=1, moved=[3]))

    def test_moving_target_rejected(self):
        with pytest.raises(ValueError, match="target"):
            shift_neighbors(P4, ShiftPlan(v=2, u=3, moved=[3]))

    def test_disconnected_rejected(self):
        g = from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            shift_neighbors(g, ShiftPlan(v=0, u=2, moved=[1]))

    def test_plan_vertices_become_ints(self):
        plan = ShiftPlan(v=np.int64(2), u=True, moved=np.array([3]))
        assert (plan.v, plan.u, plan.moved) == (2, 1, frozenset({3}))
        assert all(type(w) is int for w in (plan.v, plan.u, *plan.moved))
        assert shift_neighbors(P4, plan) == shift_neighbors(
            P4, ShiftPlan(v=2, u=1, moved=[3]))

    @pytest.mark.parametrize("v, u, moved, bad", [
        (2.7, 1, [3], "source vertex must be an integer, got 2.7"),
        (2, 0.2, [3], "target vertex must be an integer, got 0.2"),
        (2, 1, [3.9], "moved vertex must be an integer, got 3.9"),
        (2, 1, ["3"], "moved vertex must be an integer, got '3'"),
    ])
    def test_non_integer_vertex_rejected(self, v, u, moved, bad):
        with pytest.raises(ValueError, match=bad):
            ShiftPlan(v=v, u=u, moved=moved)

    def test_radius_increases_when_target_dominates(self):
        # when the Perron weight of u is at least that of v, shifting
        # neighbors toward u strictly increases the radius
        rng = random.Random(41)
        done = 0
        while done < 80:
            g = random_connected(rng, rng.randint(4, 8))
            res = graph_radius(g)
            verts = list(range(g.order))
            rng.shuffle(verts)
            v, u = verts[0], verts[1]
            if res.perron[v] > res.perron[u] + 1e-12:
                continue
            movable = sorted(g.neighbors(v) - g.neighbors(u) - {u})
            if not movable:
                continue
            moved = [w for w in movable if rng.random() < 0.7] or [movable[0]]
            h = shift_neighbors(g, ShiftPlan(v=v, u=u, moved=moved))
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

    def test_counts_preserved(self):
        h = contract_pend(C4, 0, 1)
        assert h.order == C4.order and h.size == C4.size

    def test_radius_increases(self):
        rng = random.Random(43)
        done = 0
        while done < 80:
            g = random_connected(rng, rng.randint(4, 8), p=0.35)
            candidates = [(u, v) for u, v in g.edges
                          if g.degree(u) > 1 and g.degree(v) > 1
                          and not (g.neighbors(u) & g.neighbors(v))]
            if not candidates:
                continue
            u, v = candidates[rng.randrange(len(candidates))]
            h = contract_pend(g, u, v)
            assert graph_radius(h).radius - graph_radius(g).radius > 1e-10
            done += 1
