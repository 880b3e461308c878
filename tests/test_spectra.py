import math
import random
import re
import warnings

import numpy as np
import pytest

from cactiq import spectra
from cactiq.enumeration import classes, enumerate_cacti
from cactiq.families import build_H, build_L, extremal_answer
from cactiq.graph import from_edges, is_connected
from cactiq.polynomials import IntPolynomial, count_roots
from cactiq.spectra import (_exact_traces, _top_eigenpairs, char_poly,
                            char_polys, graph_radius, signless_laplacian,
                            spectral_radius, stacked_eigenpairs)
from cactiq.transforms import _contracted, _shifted, shift_neighbors
from oracles import (faddeev_leverrier, fraction_radius_bounds,
                     fraction_rayleigh, guarded_exact_powers,
                     packed_char_poly, q_stack_by_values)

C3 = from_edges(3, [(0, 1), (1, 2), (0, 2)])
P3 = from_edges(3, [(0, 1), (1, 2)])
K1 = from_edges(1, [])
K2 = from_edges(2, [(0, 1)])
S4 = from_edges(4, [(0, 1), (0, 2), (0, 3)])


def random_connected(rng, n):
    pairs = [(i, j) for j in range(n) for i in range(j)]
    while True:
        g = from_edges(n, [e for e in pairs if rng.random() < 0.5])
        if is_connected(g):
            return g


class TestSignlessLaplacian:
    def test_c3(self):
        m = signless_laplacian(C3)
        assert m.tolist() == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]

    def test_p3(self):
        assert signless_laplacian(P3).tolist() == [[1, 1, 0], [1, 2, 1], [0, 1, 1]]

    def test_k1(self):
        assert signless_laplacian(K1).tolist() == [[0]]

    def test_int_array(self):
        m = signless_laplacian(S4)
        assert isinstance(m, np.ndarray) and m.dtype.kind == "i"


class TestSpectralRadius:
    def test_c3_is_4(self):
        assert graph_radius(C3).radius == pytest.approx(4, abs=1e-12)

    def test_star_is_4(self):
        # exact spectrum of Q(S4) is {0, 1, 1, 4}
        assert graph_radius(S4).radius == pytest.approx(4, abs=1e-12)

    def test_bowtie_closed_form(self):
        want = (7 + math.sqrt(17)) / 2
        assert graph_radius(build_H(2, 0)).radius == pytest.approx(want, abs=1e-12)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_symmetric_int_view(self):
        with pytest.raises(ValueError):
            spectral_radius(np.array([[0, 1], [0, 0]]))

    def test_rejects_inexact_float_symmetry(self):
        # within numpy's default allclose rtol, but not exactly symmetric
        with pytest.raises(ValueError, match="symmetric"):
            spectral_radius([[1.0, 1.0 + 1e-9], [1.0, 1.0]])

    @pytest.mark.parametrize("m", [np.zeros((2, 3)), [[1, 2, 3]], [1.0, 2.0],
                                   np.zeros((1, 2, 2))])
    def test_rejects_non_square(self, m):
        with pytest.raises(ValueError, match="square"):
            spectral_radius(m)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            spectral_radius(np.zeros((0, 0)))

    @pytest.mark.parametrize("m", [[[math.inf]], [[1, math.inf], [math.inf, 1]],
                                   [[math.nan]], [[1, math.nan], [math.nan, 1]]])
    def test_rejects_non_finite(self, m):
        # a NaN residual once compared false with the gate, so [[inf]] gave
        # radius inf and the second matrix radius nan without an error
        with pytest.raises(ValueError, match="finite"):
            spectral_radius(m)

    def test_overflowing_radius_fails_the_gate(self):
        # finite entries, but the top eigenvalue overflows to inf
        with pytest.raises(RuntimeError, match="residual"):
            spectral_radius([[1e308, 1e308], [1e308, 1e308]])

    @pytest.mark.parametrize("fill", [math.inf, math.nan])
    def test_non_finite_stack_fails_the_gate(self, fill):
        good = np.array([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(RuntimeError, match="at index 1$"):
            _top_eigenpairs(np.stack([good, np.full((2, 2), fill)]))

    def test_accepts_symmetric_list(self):
        assert spectral_radius([[2, 1], [1, 2]]).radius == pytest.approx(3, abs=1e-12)

    def test_graph_radius_equals_matrix_solve(self):
        # every class to n = 10 and every extremal maximizer to order 64:
        # the solve from the graph equals the solve from its checked matrix
        graphs = [g for n in range(1, 11) for g in enumerate_cacti(n)]
        graphs += [extremal_answer(n).maximizer for n in range(3, 65)]
        assert len(graphs) == 2928
        for g in graphs:
            assert graph_radius(g) == spectral_radius(signless_laplacian(g))

    def test_perron_positive_and_unit(self):
        rng = random.Random(13)
        for _ in range(50):
            g = random_connected(rng, rng.randint(2, 8))
            res = graph_radius(g)
            assert all(x > 0 for x in res.perron)
            assert np.linalg.norm(res.perron) == pytest.approx(1, abs=1e-10)


def stacked(graphs):
    """`stacked_eigenpairs` of a list of same-order graphs' edge sets."""
    n = graphs[0].order if graphs else 0
    return stacked_eigenpairs(n, len(graphs), (g.edges for g in graphs))


def q_from_edges(n, edges):
    """Q of the graph on n vertices with these (u, v) pairs, built without
    cactiq.spectra."""
    q = np.zeros((n, n))
    for u, v in edges:
        q[u, v] = q[v, u] = 1.0
        q[u, u] += 1.0
        q[v, v] += 1.0
    return q


def q_by_hand(g):
    """Q(g) from its edge list, built without cactiq.spectra."""
    return q_from_edges(g.order, g.edges)


class TestRadii:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_equal_to_one_eigh_per_graph(self, n):
        graphs = enumerate_cacti(n)
        want = [float(np.linalg.eigh(q_by_hand(g))[0][-1]) for g in graphs]
        assert stacked(graphs)[0].tolist() == want

    @pytest.mark.parametrize("n", [9, 10])
    @pytest.mark.parametrize("size", [1, 64, 256, 500])
    def test_slices_equal_whole_stack(self, monkeypatch, n, size):
        graphs = enumerate_cacti(n)
        whole = _top_eigenpairs(spectra._q_stack(
            n, [g.edges for g in graphs]))[0].tolist()
        monkeypatch.setattr(spectra, "RADII_SLICE", size)
        assert stacked(graphs)[0].tolist() == whole

    def test_empty(self):
        # no edge lists at a positive order: no rows, each n wide
        radius, perron, lower, upper = stacked_eigenpairs(5, 0, iter(()))
        assert radius.shape == lower.shape == upper.shape == (0,)
        assert perron.shape == (0, 5)

    def test_eigenpairs_equal_graph_radius(self):
        # the one-graph solve is the oracle for the stacked radii and rows
        for n in range(1, 9):
            graphs = enumerate_cacti(n)
            radius, perron, _, _ = stacked(graphs)
            assert perron.shape == (len(graphs), n)
            for g, r, x in zip(graphs, radius.tolist(), perron.tolist()):
                want = graph_radius(g)
                assert r == want.radius
                assert tuple(x) == want.perron

    def test_eigenpairs_slices_equal_whole_stack(self, monkeypatch):
        graphs = enumerate_cacti(9)
        whole = _top_eigenpairs(spectra._q_stack(9, [g.edges for g in graphs]))
        monkeypatch.setattr(spectra, "RADII_SLICE", 100)
        radius, perron, lower, upper = stacked(graphs)
        assert radius.tolist() == whole[0].tolist()
        assert perron.tolist() == whole[1].tolist()
        want = spectra._bounds(spectra._q_stack(9, [g.edges for g in graphs]),
                               *whole[1:])
        assert [lower.tolist(), upper.tolist()] == [a.tolist() for a in want]

    def test_q_stack_equals_the_graph_stack_builder(self):
        # from edge lists, one graph or a stack of mixed edge counts (every
        # cactus of order 8, 7 to 10 edges, and graphs with more), the
        # float arrays of the builder that read Graphs value by value
        rng = random.Random(3)
        stacks = [[g] for g in (K1, K2, C3, build_H(31, 1))]
        stacks += [list(enumerate_cacti(8)),
                   [random_connected(rng, 9) for _ in range(40)]]
        for graphs in stacks:
            n = graphs[0].order
            got = spectra._q_stack(n, [g.edges for g in graphs])
            want = q_stack_by_values(graphs)
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got, want)
        assert len({g.size for g in stacks[-2]}) == 4

    def test_q_stack_equals_a_dense_build(self):
        # one random edge list per order 1..64, each pair in either
        # orientation; K1's empty list; and stacks of lists of mixed sizes,
        # empty ones among them
        rng = random.Random(8)

        def random_edges(n):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = rng.sample(pairs, rng.randint(0, min(len(pairs), 3 * n)))
            return [(v, u) if rng.random() < 0.5 else (u, v)
                    for u, v in edges]

        stacks = [(n, [random_edges(n)]) for n in range(1, 65)]
        stacks.append((1, [[]]))
        stacks += [(n, [random_edges(n) for _ in range(20)] + [[]])
                   for n in (2, 9, 24)]
        for n, lists in stacks:
            got = spectra._q_stack(n, lists)
            assert got.shape == (len(lists), n, n)
            assert np.array_equal(got, [q_from_edges(n, e) for e in lists])
        assert len({len(e) for e in stacks[-1][1]}) > 10

    def test_eigenpairs_empty(self):
        radius, perron, lower, upper = stacked([])
        assert radius.shape == lower.shape == upper.shape == (0,)
        assert perron.shape == (0, 0)

    def test_residual_check_names_the_matrix(self):
        # eigh reads one triangle only, so a non-symmetric member leaves a
        # large residual against the full matrix
        good = q_by_hand(C3)
        bad = good.copy()
        bad[0, 2] = 0.0
        with pytest.raises(RuntimeError, match="at index 1$"):
            _top_eigenpairs(np.stack([good, bad]))


class TestRadiusBounds:
    """`stacked_eigenpairs`' rounding-safe bounds against the exact
    Rayleigh quotient of y+ and the exact Collatz-Wielandt maximum of the
    float Perron vectors y, taken as Fractions."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_class_against_fraction_bounds(self, n):
        graphs = enumerate_cacti(n)
        radius, perron, lower, upper = stacked(graphs)
        assert (lower <= radius).all() and (radius <= upper).all()
        for g, y, lo, up in zip(graphs, perron.tolist(), lower.tolist(),
                                upper.tolist()):
            rayleigh, collatz = fraction_radius_bounds(n, g.edges, y)
            assert lo <= rayleigh, g
            # a cactus is connected, so its Perron vector is positive
            assert collatz is not None and up >= collatz, g

    def test_isolated_vertex_has_no_upper_bound(self):
        # a neighbour shift of P4 that isolates vertex 0: its vector holds 0
        # or a rounding-sized entry there, so no Collatz-Wielandt bound, and
        # the division it would need raises no warning
        h = shift_neighbors(from_edges(4, [(0, 1), (1, 2), (2, 3)]), 0, 3, [1])
        assert h.edges == {(1, 2), (2, 3), (1, 3)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            radius, perron, lower, upper = stacked([h])
        y = perron[0].tolist()
        assert min(y) <= 0 and upper.tolist() == [math.inf]
        rayleigh, collatz = fraction_radius_bounds(4, h.edges, y)
        assert collatz is None and lower[0] <= rayleigh <= 4
        assert lower[0] == pytest.approx(4, abs=1e-13) == radius[0]

    def test_bounds_widen_with_the_order(self):
        # the lower bound's factor is 1 - (3n + 1) 2^-52, the upper's
        # 1 + (2n + 2) 2^-52: one Q of each order solved with a vector that
        # makes both exact
        for n in (1, 2, 9, 64):
            q = np.zeros((1, n, n))
            q[0, range(n), range(n)] = 2.0
            vec = np.full((1, n), 1.0)
            lower, upper = spectra._bounds(q, vec, 2 * vec)
            assert lower.tolist() == [2 * (1 - (3 * n + 1) * 2.0 ** -52)]
            assert upper.tolist() == [2 * (1 + (2 * n + 2) * 2.0 ** -52)]


def surgery_steps(n):
    """Every single-neighbour shift meeting the monotonicity draw's Perron
    condition x_v <= x_u + 1e-12 and every admissible `contract_pend` of
    every class of order n, as (property, the class's `Surgery` entry,
    sorted result edges)."""
    for c in classes(n).surgery:
        adj, x = c.adj, c.perron
        for v in range(n):
            for u in range(n):
                if u != v and x[v] <= x[u] + 1e-12:
                    for w in sorted(adj[v] - adj[u] - {u}):
                        yield "neighbor_shift", c, sorted(
                            _shifted(adj, c.edges, v, u, [w]))
        for u, v in c.edges:
            if len(adj[u]) > 1 < len(adj[v]) and not adj[u] & adj[v]:
                yield "contract_pend", c, sorted(
                    _contracted(adj, c.edges, u, v))


def check_power_step(n):
    """Bound every `surgery_steps` result of order n from its class's Perron
    row, assert each bound at most the result's eigensolved upper bound and
    the exact Rayleigh quotient of the same float y, and return the
    (instances, certified rises) of each property."""
    steps = list(surgery_steps(n))
    edges = [h for _, _, h in steps]
    rows = np.array([c.perron for _, c, _ in steps]).reshape(-1, n)
    bounds = spectra.power_step_lower(n, edges, rows)
    upper = stacked_eigenpairs(n, len(edges), edges)[3]
    ys = spectra._power_step(n, spectra._edge_index(edges), rows)
    counts = {"neighbor_shift": [0, 0], "contract_pend": [0, 0]}
    for (prop, c, h), b, up, y in zip(steps, bounds.tolist(), upper.tolist(),
                                      ys.tolist()):
        assert b <= up and b <= fraction_rayleigh(h, y), (prop, h)
        counts[prop][0] += 1
        counts[prop][1] += b > c.upper
    return {prop: tuple(pair) for prop, pair in counts.items()}


def power_step(n, graphs, rows):
    """`power_step_lower` of graphs' edges and rows, as a list, with the
    float vectors y = Q x it took the quotient of."""
    edges = [sorted(g) for g in graphs]
    x = np.array(rows, dtype=float).reshape(-1, n)
    y = spectra._power_step(n, spectra._edge_index(edges), x)
    return spectra.power_step_lower(n, edges, x).tolist(), y.tolist()


class TestPowerStepLower:
    """The one-power-step Rayleigh bound from a class's Perron row against
    the eigensolved upper bound and the exact quotient of its float y."""

    # (shifts, contractions) at each order, every one certified
    SURGERIES = {3: (0, 0), 4: (12, 5), 5: (53, 13), 6: (250, 47),
                 7: (1024, 161)}

    @pytest.mark.parametrize("n", sorted(SURGERIES))
    def test_every_surgery_certified_and_sound(self, n):
        shifts, contracts = self.SURGERIES[n]
        assert check_power_step(n) == {"neighbor_shift": (shifts, shifts),
                                       "contract_pend": (contracts, contracts)}

    def test_step_equals_q_times_x(self):
        rng = random.Random(4)
        graphs = [random_connected(rng, 9) for _ in range(20)]
        x = np.array([[rng.random() for _ in range(9)] for _ in graphs])
        y = spectra._power_step(9, spectra._edge_index(
            [g.edges for g in graphs]), x)
        want = [q_by_hand(g) @ row for g, row in zip(graphs, x)]
        assert np.allclose(y, want, rtol=1e-14, atol=0)

    def test_entries_spread_to_2_pow_minus_499(self):
        # rows whose entries span 2^-499..1, on random connected graphs and
        # cacti: each bound at most the exact quotient and within 2^-40 of it
        rng = random.Random(11)
        for n in (2, 3, 5, 9, 16):
            graphs = [random_connected(rng, n) for _ in range(10)]
            if n <= 9:
                cacti = enumerate_cacti(n)
                graphs += rng.sample(cacti, min(10, len(cacti)))
            rows = [[2.0 ** -rng.uniform(0, 499) for _ in range(n)]
                    for _ in graphs]
            rows[0] = [2.0 ** -499] * (n - 1) + [1.0]
            bounds, ys = power_step(n, [g.edges for g in graphs], rows)
            for g, b, y in zip(graphs, bounds, ys):
                exact = fraction_rayleigh(g.edges, y)
                assert exact * (1 - 2.0 ** -40) <= b <= exact, (g, b)

    def test_stars_and_paths_to_order_64(self):
        # from each graph's own Perron row and from a constant row: at most
        # the exact quotient and the eigensolved upper bound, and from the
        # Perron row within 1e-12 of the radius
        for n in range(2, 65):
            graphs = [from_edges(n, [(0, v) for v in range(1, n)]),
                      from_edges(n, [(v, v + 1) for v in range(n - 1)])]
            radius, perron, _, upper = stacked(graphs)
            for rows in (perron, np.full((2, n), n ** -0.5)):
                bounds, ys = power_step(n, [g.edges for g in graphs], rows)
                for g, b, y, q, up in zip(graphs, bounds, ys, radius, upper):
                    assert b <= up and b <= fraction_rayleigh(g.edges, y), g
                    if rows is perron:
                        assert b == pytest.approx(q, rel=1e-12)

    def test_shift_isolating_a_vertex(self):
        # P4's shift of vertex 1 from 0 to 3 leaves 0 isolated, so y_0 = 0;
        # the bound still certifies the rise to q(K3 + K1) = 4
        p4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        h = shift_neighbors(p4, 0, 3, [1])
        _, perron, _, upper = stacked([p4])
        (b,), (y,) = power_step(4, [h.edges], perron)
        assert y[0] == 0
        assert upper[0] < b <= fraction_rayleigh(h.edges, y) <= 4

    @pytest.mark.parametrize("entry", [2.0 ** -501, 0.0, -1e-17, 1.5])
    def test_entry_outside_the_range_gives_no_certificate(self, entry):
        # an entry below 2^-500 (or above 1) gives -inf, 2^-500 itself a
        # bound; so does an empty edge list
        c4 = [(0, 1), (1, 2), (2, 3), (0, 3)]
        row = [0.5, 0.5, 0.5, 0.5]
        bounds, _ = power_step(4, [c4, c4, c4, []], [
            row[:3] + [entry], row[:3] + [2.0 ** -500], row, row])
        assert bounds[0] == bounds[3] == -math.inf
        assert 0 < bounds[1] < bounds[2] <= 4

    @pytest.mark.parametrize("n", range(3, 8))
    def test_class_and_its_subgraphs_never_certified(self, n):
        # a "result" equal to its class, and a class less one cycle edge
        # passed as a shift, from the class's row: never above its upper
        for c in classes(n).surgery:
            graphs = [c.edges] + [[e for e in c.edges if e != cut]
                                  for cut in c.cycle_edges]
            bounds, _ = power_step(n, graphs, [c.perron] * len(graphs))
            assert max(bounds) <= c.upper, c.path


class TestCharPoly:
    def test_k1(self):
        assert char_poly(signless_laplacian(K1)).coeffs == (0, 1)

    def test_k2(self):
        assert char_poly(signless_laplacian(K2)).coeffs == (0, -2, 1)

    def test_c3_hand_cofactor(self):
        assert char_poly(signless_laplacian(C3)).coeffs == (-4, 9, -6, 1)

    def test_star_factored(self):
        # x(x-1)^2(x-4)
        assert char_poly(signless_laplacian(S4)) == \
            IntPolynomial((0, 1)) * IntPolynomial((-1, 1)) ** 2 * IntPolynomial((-4, 1))

    def test_rejects_float_matrix(self):
        with pytest.raises(ValueError):
            char_poly(np.array([[0.5, 0], [0, 0.5]]))

    @pytest.mark.parametrize("m", [[[1], [2]], [[1, 2, 3]], [1, 2],
                                   np.zeros((2, 2, 2), dtype=int)])
    def test_rejects_non_square(self, m):
        with pytest.raises(ValueError, match="square"):
            char_poly(m)

    @pytest.mark.parametrize("m", [np.array([[0.5]]), np.array([[2.0]]),
                                   [[1, 0.5], [0.5, 1]]])
    def test_rejects_non_integer(self, m):
        with pytest.raises(ValueError, match="integer"):
            char_poly(m)

    def test_list_rows_equal_array(self):
        rows = [[2, -1, 0], [3, 0, 7], [0, 5, -4]]
        assert char_poly(rows) == char_poly(np.array(rows))

    def test_monic(self):
        rng = random.Random(17)
        for _ in range(20):
            g = random_connected(rng, rng.randint(1, 7))
            assert char_poly(signless_laplacian(g)).leading == 1


def assert_equals_oracle(rows):
    assert char_poly(rows).coeffs == tuple(faddeev_leverrier(rows))


class TestCharPolyOracle:
    """Residue power sums against the Faddeev-LeVerrier recurrence and
    against power sums over rows packed into big integers."""

    def test_empty_matrix(self):
        assert char_poly([]) == IntPolynomial([1])

    def test_every_cactus_to_n9(self):
        for n in range(1, 10):
            for g in enumerate_cacti(n):
                assert_equals_oracle(signless_laplacian(g).tolist())

    def test_family_members(self):
        # every H(s, k) and L(s, k) to order 24, the check-formulas range,
        # and members of order 63 and 64 with many triangles or pendants
        members = [("H", s, k) for s in range(12) for k in range(24 - 2 * s)
                   if s or k]
        members += [("L", s, k) for s in range(12) for k in range(1, 23 - 2 * s)]
        members += [("H", 31, 1), ("H", 0, 63), ("L", 30, 2), ("L", 20, 21)]
        for family, s, k in members:
            g = build_H(s, k) if family == "H" else build_L(s, k)
            assert_equals_oracle(signless_laplacian(g).tolist())

    @pytest.mark.parametrize("bound", [1, 5, 10 ** 6])
    def test_random_signed_non_symmetric(self, bound):
        rng = random.Random(31 + bound)
        for _ in range(150):
            n = rng.randint(0, 10)
            rows = [[rng.randint(-bound, bound) if rng.random() < 0.7 else 0
                     for _ in range(n)] for _ in range(n)]
            assert_equals_oracle(rows)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 20])
    @pytest.mark.parametrize("r", [1, 2, 7, 10 ** 6])
    def test_slot_bound_all_r(self, n, r):
        # r J: every absolute row sum is n r, so the slots are sized for
        # (n r)^n, and every entry of A^n is (n r)^n / n; x^(n-1) (x - n r)
        want = IntPolynomial((-n * r, 1)) * IntPolynomial((0, 1)) ** (n - 1)
        assert char_poly([[r] * n for _ in range(n)]) == want
        # D (r J) D with D = diag(+-1) has the same spectrum and signed entries
        signs = [(-1) ** (i * (i + 1) // 2) for i in range(n)]
        assert char_poly([[r * a * b for b in signs]
                          for a in signs]) == want
        # -r J: x^(n-1) (x + n r)
        assert char_poly([[-r] * n for _ in range(n)]) == \
            IntPolynomial((n * r, 1)) * IntPolynomial((0, 1)) ** (n - 1)

    def test_packed_every_class_to_n10(self):
        for n in range(1, 11):
            for g in enumerate_cacti(n):
                q = signless_laplacian(g)
                assert char_poly(q) == packed_char_poly(q)

    def test_packed_family_members(self):
        # every H(s, k) and L(s, k) to order 32; CI sweeps them to order 64
        members = [build_H(s, k) for s in range(16) for k in range(32 - 2 * s)
                   if s or k]
        members += [build_L(s, k) for s in range(15) for k in range(1, 31 - 2 * s)]
        assert max(g.order for g in members) == 32
        for g in members:
            q = signless_laplacian(g)
            assert char_poly(q) == packed_char_poly(q)


WORD_LIMIT_MESSAGE = re.escape("char_poly requires n * max|a| <= 2^26")


class TestCharPolyWordLimit:
    """char_poly takes n * max|a| <= 2^26, so every float it holds is an
    integer below 2^53."""

    @pytest.mark.parametrize("n", [1, 10, 64])
    def test_largest_accepted_entry(self, n):
        top = spectra.WORD_LIMIT // n
        rng = random.Random(n)
        rows = [[rng.randint(-top, top) if rng.random() < 0.125 else 0
                 for _ in range(n)] for _ in range(n)]
        rows[0][-1], rows[-1][0] = -top, top
        assert char_poly(rows) == packed_char_poly(rows)
        # top J meets the Schur bound: tr (top J)^k = (n top)^k = ||top J||_F^k
        assert char_poly([[top] * n] * n) == \
            IntPolynomial((-n * top, 1)) * IntPolynomial((0, 1)) ** (n - 1)
        for i, j, a in [(0, -1, -top - 1), (-1, 0, top + 1)]:
            past = [row[:] for row in rows]
            past[i][j] = a
            with pytest.raises(ValueError, match=WORD_LIMIT_MESSAGE):
                char_poly(past)

    @pytest.mark.parametrize("m", [
        np.array([[-2 ** 63]]),
        np.array([[1, 0], [-2 ** 63, 1]], dtype=np.int64),
        np.array([[2 ** 63]], dtype=np.uint64),
        np.array([[0, 2 ** 64 - 1], [0, 0]], dtype=np.uint64)])
    def test_extreme_words_refused(self, m):
        # np.abs(-2^63) overflows back to -2^63, which no check may read as
        # a small entry
        with pytest.raises(ValueError, match=WORD_LIMIT_MESSAGE):
            char_poly(m)

    @pytest.mark.parametrize("top, bound", [
        (2 ** 26, 1), (2 ** 26, 2 ** 25), (2 ** 26, 2 ** 25 + 1),
        (2 ** 26, 10 ** 400), (2 ** 42, 3 ** 200)])
    def test_moduli_cover_twice_the_bound(self, top, bound):
        moduli, weights, prod = spectra._moduli(top, bound)
        assert prod == math.prod(moduli) > 2 * bound >= prod // moduli[-1]
        assert all(m <= top for m in moduli)
        assert all(math.gcd(a, b) == 1
                   for i, a in enumerate(moduli) for b in moduli[:i])
        for i, w in enumerate(weights):
            assert [w % m for m in moduli] == [int(i == j)
                                               for j in range(len(moduli))]

    @pytest.mark.parametrize("rows", [
        [[0] * 5 for _ in range(5)],
        [[0, 3, -1, 7], [0, 0, 2, -5], [0, 0, 0, 4], [0, 0, 0, 0]],
        [[-7]]])
    def test_zero_nilpotent_and_negative(self, rows):
        assert char_poly(rows) == packed_char_poly(rows)


def assert_charpoly_roots_match_eigensolver(g):
    """Certified check: cluster the numeric spectrum, then Sturm-count the
    exact characteristic polynomial in a window around each cluster.  This
    avoids the ill-conditioning of numeric root-finding at repeated roots."""
    from fractions import Fraction
    m = signless_laplacian(g)
    p = char_poly(m)
    numeric = sorted(np.linalg.eigvalsh(m))
    clusters = []
    for v in numeric:
        if clusters and v - clusters[-1][-1] <= 1e-4:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    # Sturm counting sees distinct roots only, so build the chain
    # p, gcd(p, p'), gcd(gcd, gcd'), ... whose window counts sum to the
    # multiplicity-aware root count
    from cactiq.polynomials import _poly_gcd
    chain = [p]
    while chain[-1].degree > 0:
        nxt = _poly_gcd(chain[-1], chain[-1].derivative())
        if nxt.degree < 1:
            break
        chain.append(nxt)

    def window_count(lo, hi):
        return sum(count_roots(q, lo, hi) for q in chain)

    total = 0
    for c in clusters:
        lo = Fraction(c[0]) - Fraction(4, 10 ** 5)
        hi = Fraction(c[-1]) + Fraction(4, 10 ** 5)
        assert window_count(lo, hi) == len(c), (g, c)
        total += len(c)
    assert total == g.order


class TestSpectrumConsistency:
    def test_eigenvalues_match_charpoly_roots_all_cacti(self):
        for n in range(1, 9):
            for g in enumerate_cacti(n):
                assert_charpoly_roots_match_eigensolver(g)

    def test_eigenvalues_match_charpoly_roots_random(self):
        rng = random.Random(19)
        for _ in range(60):
            g = random_connected(rng, rng.randint(2, 8))
            assert_charpoly_roots_match_eigensolver(g)

    def test_trace_identity(self):
        rng = random.Random(23)
        for _ in range(60):
            g = random_connected(rng, rng.randint(2, 8))
            m = signless_laplacian(g)
            trace = sum(map(len, g.adjacency()))
            assert sum(np.linalg.eigvalsh(m)) == pytest.approx(trace, abs=1e-8)
            p = char_poly(m)
            assert p.coeffs[g.order - 1] == -trace

    def test_positive_semidefinite(self):
        rng = random.Random(29)
        for _ in range(40):
            g = random_connected(rng, rng.randint(2, 8))
            p = char_poly(signless_laplacian(g))
            from fractions import Fraction
            assert count_roots(p, -10 * g.order, Fraction(-1, 10 ** 9)) == 0
            assert min(np.linalg.eigvalsh(signless_laplacian(g))) >= -1e-9


class TestSubgraphMonotonicity:
    def test_proper_subgraph_strictly_smaller(self):
        rng = random.Random(31)
        done = 0
        while done < 200:
            g = random_connected(rng, rng.randint(3, 8))
            edges = sorted(g.edges)
            e = edges[rng.randrange(len(edges))]
            h = from_edges(g.order, [x for x in edges if x != e])
            if not is_connected(h):
                continue
            assert graph_radius(g).radius - graph_radius(h).radius > 1e-10
            done += 1


def stack_bounds(a):
    """The bounds (max|a|, largest column sum of |A|, largest sum of |a|)
    that `char_polys` reads off the float stack a."""
    mag = np.abs(a)
    return (int(mag.max()), int(mag.sum(axis=1).max()),
            int(mag.sum(axis=(1, 2)).max()))


def exact_powers(stack) -> int:
    """How many powers A, A^2, ... char_polys keeps exact for this stack."""
    a = np.asarray(stack, dtype=float)
    top, col, weight = stack_bounds(a)
    count = spectra._exact_count(a.shape[-1], top, col, weight)
    return _exact_traces(a, count, weight)[1].shape[1]


def limit_matrix(n, seed):
    """A sparse signed n x n matrix with n * max|a| at WORD_LIMIT."""
    top = spectra.WORD_LIMIT // n
    rng = random.Random(seed)
    rows = [[rng.randint(-top, top) if rng.random() < 0.25 else 0
             for _ in range(n)] for _ in range(n)]
    rows[0][-1], rows[-1][0] = -top, top
    return rows


class TestCharPolys:
    """The stacked exact path against the one-matrix call and both oracles."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_class_in_one_call(self, n):
        qs = [signless_laplacian(g) for g in enumerate_cacti(n)]
        got = char_polys(qs)
        assert got == char_polys(np.array(qs))
        assert got == [char_poly(q) for q in qs] == \
            [packed_char_poly(q) for q in qs]

    def test_mixed_stack_shares_moduli(self, monkeypatch):
        # a stack whose counted exact powers reach A^n makes no moduli; a
        # stack whose residue phase runs makes one set, shared by all of it
        taken, moduli = [], spectra._moduli

        def spy(top, bound):
            taken.append(moduli(top, bound))
            return taken[-1]

        monkeypatch.setattr(spectra, "_moduli", spy)
        classes = char_polys([signless_laplacian(g)
                              for g in enumerate_cacti(10)])
        stack = [[[0] * 8 for _ in range(8)], limit_matrix(8, 5)]
        zero = char_poly(stack[0])
        assert len(classes) == 1979 and taken == []
        other = char_poly(stack[1])
        assert len(taken) == 1 and len(taken[0][0]) > 1
        assert char_polys(stack) == [zero, other] == \
            [IntPolynomial(faddeev_leverrier(rows)) for rows in stack]
        assert len(taken) == 2 and taken[1] == taken[0]

    @pytest.mark.parametrize("stack, want", [
        ([], []), (np.zeros((0, 4, 4), dtype=int), []),
        (np.zeros((3, 0, 0), dtype=int), [IntPolynomial([1])] * 3),
        ([np.zeros((0, 0), dtype=int)], [IntPolynomial([1])])])
    def test_empty_stacks(self, stack, want):
        assert char_polys(stack) == want

    @pytest.mark.parametrize("n, bound, tail, residue", [
        (12, 5, True, False), (16, 3, True, True), (5, 1000, False, True),
        (1, 10 ** 6, False, False)])
    def test_random_stacks_equal_packed_oracle(self, n, bound, tail,
                                               residue):
        # non-symmetric signed stacks in which the bounds certify fewer
        # powers than the guarded step then takes (tail), the residue phase
        # runs (residue), or n = 1
        rng = random.Random(n * bound)
        stack = np.array([[[rng.randint(-bound, bound) for _ in range(n)]
                           for _ in range(n)] for _ in range(12)])
        certain = spectra._exact_count(n, *stack_bounds(stack.astype(float)))
        exact = exact_powers(stack)
        assert (certain < exact, exact < n) == (tail, residue)
        assert char_polys(stack) == [packed_char_poly(m) for m in stack]
        assert char_polys(stack[:0]) == []

    def test_power_array_held_within_the_slice(self, monkeypatch):
        # zero and permutation matrices keep every power exact by the
        # bounds alone (K = n), so the stack is solved RADII_SLICE // n at
        # a time, and the K powers held at once are at most RADII_SLICE
        held, power_sums = [], spectra._power_sums

        def spy(a, count, weight, crt):
            held.append(len(a) * count)
            return power_sums(a, count, weight, crt)

        monkeypatch.setattr(spectra, "_power_sums", spy)
        n = 32
        shift = np.roll(np.eye(n, dtype=int), 1, axis=1)
        stack = [np.zeros((n, n), dtype=int)] * 20 + [shift] * 20
        top = (0,) * n + (1,)
        assert char_polys(stack) == [IntPolynomial(top)] * 20 + \
            [IntPolynomial((-1,) + top[1:])] * 20
        assert len(held) == 5 and max(held) <= spectra.RADII_SLICE

    def test_exact_phase_as_long_as_the_guarded_loop(self):
        # every H(s, k) and L(s, k) to order 64 and every class to order 9,
        # alone and each order's together
        graphs = [build_H(s, k) for s in range(32) for k in range(64 - 2 * s)
                  if s or k]
        graphs += [build_L(s, k) for s in range(31)
                   for k in range(1, 63 - 2 * s)]
        graphs += [g for n in range(1, 10) for g in enumerate_cacti(n)]
        by_order = {}
        for g in graphs:
            q = signless_laplacian(g)
            by_order.setdefault(g.order, []).append(q)
            assert exact_powers([q]) == guarded_exact_powers([q]), g.edges
        for n, qs in by_order.items():
            assert exact_powers(qs) == guarded_exact_powers(qs), n
        assert sorted(by_order) == list(range(1, 65))

    def test_cactus_powers_stay_exact(self):
        # Q of every cactus to order 10, and the family members to order 12,
        # keep every power exact; so does 2^25 J at n = 2, where
        # max|A| * sum |a| is 2^52 exactly
        for n in range(2, 11):
            qs = [signless_laplacian(g) for g in enumerate_cacti(n)]
            assert exact_powers(qs) == n
        members = [build_H(s, 12 - 1 - 2 * s) for s in range(6)]
        members += [build_L(s, 12 - 2 - 2 * s) for s in range(5)]
        qs = [signless_laplacian(g) for g in members]
        assert exact_powers(qs) == 12
        assert char_polys(qs) == [IntPolynomial(faddeev_leverrier(q.tolist()))
                                  for q in qs]
        top = [[1 << 25] * 2] * 2
        assert exact_powers([top]) == 2
        assert char_polys([top]) == [IntPolynomial((-1 << 26, 1)) *
                                     IntPolynomial((0, 1))]

    @pytest.mark.parametrize("d, exact", [(1 << 13, 4), ((1 << 13) + 1, 3)])
    def test_exact_phase_ends_at_2_to_52(self, d, exact):
        # diag(d, 0, 0, 0): the product to A^4 is exact while d^4 <= 2^52
        rows = [[d if i == j == 0 else 0 for j in range(4)] for i in range(4)]
        assert exact_powers([rows]) == exact
        assert char_polys([rows]) == [char_poly(rows)] == \
            [IntPolynomial(faddeev_leverrier(rows))]

    @pytest.mark.parametrize("n", [3, 10, 24])
    def test_reduced_from_the_first_product_that_can_pass(self, n):
        # A A never passes 2^52 under the word limit, since
        # (n max|a|)^2 <= 2^52; at the limit every later product is reduced
        stack = [limit_matrix(n, seed) for seed in range(3)]
        stack.append([[spectra.WORD_LIMIT // n] * n] * n)
        assert exact_powers(stack) == 2
        assert char_polys(stack) == \
            [IntPolynomial(faddeev_leverrier(rows)) for rows in stack]

    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_slices_give_the_same_polys(self, monkeypatch, size):
        stack = [limit_matrix(6, seed) for seed in range(7)]
        want = char_polys(stack)
        monkeypatch.setattr(spectra, "RADII_SLICE", size)
        assert char_polys(stack) == want

    @pytest.mark.parametrize("stack", [
        np.eye(3, dtype=int), [[1, 2], [3, 4]], np.zeros((2, 3, 4), dtype=int),
        np.zeros((2, 2, 2, 2), dtype=int), [1, 2]])
    def test_rejects_non_stack(self, stack):
        with pytest.raises(ValueError, match="stack of square matrices"):
            char_polys(stack)

    def test_rejects_ragged_stack(self):
        with pytest.raises(ValueError):
            char_polys([np.eye(2, dtype=int), np.eye(3, dtype=int)])

    @pytest.mark.parametrize("stack", [
        np.zeros((2, 2, 2)), [[[1, 0], [0, 0.5]]], np.zeros((0, 3, 3))])
    def test_rejects_non_integer(self, stack):
        with pytest.raises(ValueError, match="integer"):
            char_polys(stack)

    def test_rejects_past_the_limit(self):
        past = limit_matrix(8, 1)
        past[0][-1] -= 1
        with pytest.raises(ValueError, match=WORD_LIMIT_MESSAGE):
            char_polys([[[0] * 8] * 8, past])
