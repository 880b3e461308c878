import math
import random
from fractions import Fraction

import pytest

from cactiq import polynomials
from cactiq.polynomials import (IntPolynomial, compare_largest_roots,
                                count_roots, isolate_largest_root,
                                largest_real_root, monomial_shift, refine_root)


def test_construction_strips_trailing_zeros():
    p = IntPolynomial([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntPolynomial([]).is_zero()
    assert IntPolynomial([0, 0]).degree == -1


def test_rejects_non_integers():
    with pytest.raises(TypeError):
        IntPolynomial([1.5])


def test_arithmetic():
    x = IntPolynomial((0, 1))
    p = (x - 1) * (x - 3)
    assert p.coeffs == (3, -4, 1)
    assert (p + 1).coeffs == (4, -4, 1)
    assert (monomial_shift(1) ** 3).coeffs == (-1, 3, -3, 1)
    assert p(3) == 0 and p(Fraction(1, 2)) == Fraction(5, 4)


def test_json_round_trip():
    p = IntPolynomial((-(10 ** 30), 0, 7, 1))
    assert IntPolynomial.from_json(p.to_json()) == p


def test_count_roots():
    # (x-1)(x-2)(x-3)
    p = monomial_shift(1) * monomial_shift(2) * monomial_shift(3)
    assert count_roots(p, 0, 4) == 3
    assert count_roots(p, Fraction(3, 2), Fraction(5, 2)) == 1
    assert count_roots(p, 3, 4) == 0  # half-open: root at left endpoint excluded
    assert count_roots(p, 2, 3) == 1


def test_largest_real_root_linear():
    assert largest_real_root(monomial_shift(4), (0, 10)) == pytest.approx(4, abs=1e-12)


def test_largest_real_root_quadratic():
    p = IntPolynomial((8, -7, 1))  # x^2 - 7x + 8
    want = (7 + math.sqrt(17)) / 2
    assert largest_real_root(p, (3, 10)) == pytest.approx(want, abs=1e-11)


def test_largest_real_root_cubic_vs_eigensolver():
    from cactiq.families import build_H
    from cactiq.spectra import graph_radius
    p = IntPolynomial((-4, 18, -9, 1))  # x^3 - 9x^2 + 18x - 4
    root = largest_real_root(p, (3, 9))
    assert abs(root - graph_radius(build_H(1, 3)).radius) < 1e-9


def test_no_root_in_bracket():
    with pytest.raises(ValueError):
        largest_real_root(monomial_shift(4), (10, 20))


def test_root_at_bracket_endpoint():
    assert largest_real_root(monomial_shift(4), (4, 10)) == pytest.approx(4, abs=1e-12)


def test_isolate_largest_root():
    p = monomial_shift(1) * monomial_shift(2) * monomial_shift(2)
    lo, hi = isolate_largest_root(p)
    assert lo < 2 <= hi
    assert count_roots(p, lo, hi) == 1


def test_isolate_multiple_root_at_window_end():
    # 2x(x + 4)(x + 2)^2(x^2 + x + 5): every member of the undivided Sturm
    # chain vanishes at the double root -2
    p = IntPolynomial([0, 160, 232, 152, 66, 18, 2])
    assert p(-2) == 0 and p.derivative()(-2) == 0
    lo, hi = isolate_largest_root(p, -16, -2)
    assert lo < -2 <= hi
    assert count_roots(p, lo, hi) == 1


def test_count_roots_counts_distinct_roots_at_multiple_roots():
    rng = random.Random(17)
    for _ in range(200):
        roots = [rng.randint(-4, 4) for _ in range(rng.randint(1, 6))]
        p = IntPolynomial((1,))
        for r in roots:
            p = p * monomial_shift(r)
        lo, hi = sorted(rng.sample(range(-6, 7), 2))
        want = len({r for r in roots if lo < r <= hi})
        assert count_roots(p, lo, hi) == want, (roots, lo, hi)


def test_isolate_largest_root_degenerate_windows():
    p = monomial_shift(4)
    # a root on the left end of an empty window is still bracketed
    assert isolate_largest_root(p, lo=4, hi=4) == (Fraction(7, 2), 4)
    assert isolate_largest_root(p, lo=5, hi=3) is None


class TestRefineRoot:
    def test_isolating_interval_within_tol(self):
        p = IntPolynomial((-2, 0, 1))  # roots -sqrt(2), sqrt(2)
        for tol in (1e-3, 1e-9, 1e-12):
            assert abs(refine_root(p, 1, 2, tol) - math.sqrt(2)) <= tol

    def test_exact_dyadic_root(self):
        assert refine_root(monomial_shift(4), 0, 8) == 4.0

    @pytest.mark.parametrize("lo, hi", [(6, 8), (0, 4), (5, 5), (8, 0)])
    def test_no_root_rejected(self, lo, hi):
        with pytest.raises(ValueError):
            refine_root(monomial_shift(5) * monomial_shift(6), lo, hi)

    def test_two_roots_rejected(self):
        with pytest.raises(ValueError):
            refine_root(monomial_shift(1) * monomial_shift(3), 0, 4)


class TestCompareLargestRoots:
    def test_clearly_separated(self):
        assert compare_largest_roots(monomial_shift(2), monomial_shift(3)) == -1
        assert compare_largest_roots(monomial_shift(3), monomial_shift(2)) == 1

    def test_exact_tie_shared_factor(self):
        shared = IntPolynomial((8, -7, 1))
        p = shared * monomial_shift(1)
        q = shared * monomial_shift(-5)
        assert compare_largest_roots(p, q) == 0

    def test_near_tie_below_float_resolution(self):
        # roots 2 and 2 + 2^-60: far below any numeric gap threshold
        p = monomial_shift(2)
        q = IntPolynomial((-(2 ** 61 + 1), 2 ** 60))
        assert compare_largest_roots(p, q) == -1
        assert compare_largest_roots(q, p) == 1

    def test_shared_factor_below_the_largest_roots(self):
        # gcd x - 1 is no largest root; the isolating intervals of 3 and
        # 3 + 2^-60 overlap, so only bisection separates them
        p = monomial_shift(1) * monomial_shift(3)
        q = monomial_shift(1) * IntPolynomial((-3 * 2 ** 60 - 1, 2 ** 60))
        ip, iq = isolate_largest_root(p), isolate_largest_root(q)
        assert max(ip[0], iq[0]) < min(ip[1], iq[1])
        assert compare_largest_roots(p, q) == -1
        assert compare_largest_roots(q, p) == 1

    def test_gives_up_after_max_steps(self, monkeypatch):
        monkeypatch.setattr(polynomials, "MAX_SEPARATION_STEPS", 0)
        with pytest.raises(RuntimeError):
            compare_largest_roots(monomial_shift(2), monomial_shift(3))
        shared = IntPolynomial((8, -7, 1))  # ties need no bisection
        assert compare_largest_roots(shared * monomial_shift(1), shared) == 0
