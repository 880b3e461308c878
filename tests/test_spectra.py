import math
import random

import numpy as np
import pytest

from cactiq.enumeration import enumerate_cacti
from cactiq.families import build_H
from cactiq.graph import from_edges, is_connected
from cactiq.polynomials import IntPolynomial, count_roots
from cactiq.spectra import (DenseSymMatrix, _top_eigenpairs, char_poly,
                            graph_radius, radii, signless_laplacian,
                            spectral_radius)

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
        assert m.int_rows == ((2, 1, 1), (1, 2, 1), (1, 1, 2))

    def test_p3(self):
        assert signless_laplacian(P3).int_rows == ((1, 1, 0), (1, 2, 1), (0, 1, 1))

    def test_k1(self):
        assert signless_laplacian(K1).int_rows == ((0,),)


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
            spectral_radius(DenseSymMatrix([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_symmetric_int_view(self):
        with pytest.raises(ValueError):
            spectral_radius(DenseSymMatrix.from_int_rows([[0, 1], [0, 0]]))

    def test_perron_positive_and_unit(self):
        rng = random.Random(13)
        for _ in range(50):
            g = random_connected(rng, rng.randint(2, 8))
            res = graph_radius(g)
            assert all(x > 0 for x in res.perron)
            assert np.linalg.norm(res.perron) == pytest.approx(1, abs=1e-10)
            assert res.residual <= 1e-10 * max(1.0, res.radius)


def q_by_hand(g):
    """Q(g) from its edge list, built without cactiq.spectra."""
    q = np.zeros((g.order, g.order))
    for u, v in g.edges:
        q[u, v] = q[v, u] = 1.0
        q[u, u] += 1.0
        q[v, v] += 1.0
    return q


class TestRadii:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_equal_to_one_eigh_per_graph(self, n):
        graphs = enumerate_cacti(n)
        want = [float(np.linalg.eigh(q_by_hand(g))[0][-1]) for g in graphs]
        assert radii(graphs) == want

    def test_rejects_mixed_orders(self):
        with pytest.raises(ValueError):
            radii([C3, S4])

    def test_empty(self):
        assert radii([]) == []

    def test_residual_check_names_the_matrix(self):
        # eigh reads one triangle only, so a non-symmetric member leaves a
        # large residual against the full matrix
        good = q_by_hand(C3)
        bad = good.copy()
        bad[0, 2] = 0.0
        with pytest.raises(RuntimeError, match="at index 1$"):
            _top_eigenpairs(np.stack([good, bad]), 1e-12)


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
            char_poly(DenseSymMatrix([[0.5, 0], [0, 0.5]]))

    def test_monic(self):
        rng = random.Random(17)
        for _ in range(20):
            g = random_connected(rng, rng.randint(1, 7))
            assert char_poly(signless_laplacian(g)).is_monic()


def assert_charpoly_roots_match_eigensolver(g):
    """Certified check: cluster the numeric spectrum, then Sturm-count the
    exact characteristic polynomial in a window around each cluster.  This
    avoids the ill-conditioning of numeric root-finding at repeated roots."""
    from fractions import Fraction
    m = signless_laplacian(g)
    p = char_poly(m)
    numeric = sorted(np.linalg.eigvalsh(m.data))
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
            trace = sum(g.degree(v) for v in range(g.order))
            assert sum(np.linalg.eigvalsh(m.data)) == pytest.approx(trace, abs=1e-8)
            p = char_poly(m)
            assert p.coeffs[g.order - 1] == -trace

    def test_positive_semidefinite(self):
        rng = random.Random(29)
        for _ in range(40):
            g = random_connected(rng, rng.randint(2, 8))
            p = char_poly(signless_laplacian(g))
            from fractions import Fraction
            assert count_roots(p, -10 * g.order, Fraction(-1, 10 ** 9)) == 0
            assert min(np.linalg.eigvalsh(signless_laplacian(g).data)) >= -1e-9


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
