import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from cactiq import graph6, polynomials
from cactiq.enumeration import enumerate_cacti
from cactiq.families import h_cubic, l_quintic
from cactiq.polynomials import (IntPolynomial, _poly_gcd, compare_largest_roots,
                                count_roots, isolate_largest_root,
                                largest_real_root, monomial_shift, refine_root,
                                root_bound, sturm_sequence)
from cactiq.spectra import char_poly, radii, signless_laplacian
from cactiq.verify import EXACT_ESCALATION_GAP
from oracles import (cauchy_bound, fraction_compare_largest_roots,
                     fraction_count_roots, fraction_gcd,
                     fraction_largest_root, fraction_sturm_sequence)


def _value(p, x):
    """p(x) as a Fraction, summed term by term."""
    return sum(c * Fraction(x) ** i for i, c in enumerate(p.coeffs))


def test_construction_strips_trailing_zeros():
    p = IntPolynomial([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntPolynomial([]).is_zero()
    assert IntPolynomial([0, 0]).degree == -1


def test_rejects_non_integers():
    for bad in (1.5, Fraction(1), "1", None, np.float64(2)):
        with pytest.raises(TypeError,
                           match=re.escape(f"non-integer coefficient {bad!r}")):
            IntPolynomial([1, bad])


def test_bool_and_numpy_coefficients_become_ints():
    for coeffs in ([True, 1], [np.int64(1), np.uint8(1)], np.array([1, 1])):
        p = IntPolynomial(coeffs)
        assert p.coeffs == (1, 1)
        assert all(type(c) is int for c in p.coeffs)
        assert p.to_json() == '["1", "1"]'
    assert IntPolynomial([np.int64(2) ** 40, 1]) * IntPolynomial([2 ** 40, 1]) \
        == IntPolynomial([2 ** 80, 2 ** 41, 1])


def test_arithmetic():
    p = monomial_shift(1) * monomial_shift(3)
    assert p.coeffs == (3, -4, 1)
    assert (monomial_shift(1) ** 3).coeffs == (-1, 3, -3, 1)
    assert _value(p, 3) == 0 and _value(p, Fraction(1, 2)) == Fraction(5, 4)


def test_only_products_and_powers():
    # a polynomial multiplies polynomials and takes powers; it neither adds
    # nor negates, and meets no bare integer
    p, q = monomial_shift(1), monomial_shift(3)
    for op in (lambda: p + q, lambda: p + 1, lambda: 1 + p, lambda: p - q,
               lambda: p - 1, lambda: -p, lambda: 2 * p, lambda: p * 2):
        with pytest.raises(TypeError):
            op()


def test_isolation_window_takes_both_ends_or_neither():
    p = monomial_shift(1) * monomial_shift(3)
    with pytest.raises(TypeError):
        isolate_largest_root(p, lo=0)
    with pytest.raises(TypeError):
        isolate_largest_root(p, hi=5)
    bound = root_bound(p)
    assert isolate_largest_root(p) == isolate_largest_root(p, -bound, bound)


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
    assert _value(p, -2) == 0 and _value(p.derivative(), -2) == 0
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


def _assert_bounds_every_real_root(p):
    """Every real root r of p has |r| < root_bound(p), a power of two: the
    Fraction chain counts no root in [B, C] or [-C, -B], where C exceeds
    both B and the Cauchy bound."""
    bound = root_bound(p)
    assert bound >= 2 and bound & (bound - 1) == 0
    top = max(cauchy_bound(p.coeffs), bound) + 1
    seq = fraction_sturm_sequence(p.coeffs)
    assert _value(p, bound) != 0, p
    assert fraction_count_roots(p.coeffs, bound, top, seq) == 0, p
    assert fraction_count_roots(p.coeffs, -top, -bound, seq) == 0, p


class TestRootBound:
    def test_random_integer_polynomials(self):
        rng = random.Random(5)
        non_monic = wide = 0
        for t in range(500):
            bits = rng.choice((3, 20, 80))
            if t % 2:
                # real roots near the bound: a scaled product of linear factors
                p = IntPolynomial((rng.choice((-1, 1)) * rng.randint(1, 2 ** bits),))
                for _ in range(rng.randint(1, 6)):
                    p = p * IntPolynomial((rng.randint(-2 ** bits, 2 ** bits),
                                           rng.choice((-3, -1, 1, 2, 7))))
            else:
                coeffs = [rng.choice((0, 1)) * rng.randint(-2 ** bits, 2 ** bits)
                          for _ in range(rng.randint(1, 8))]
                coeffs.append(rng.choice((-1, 1)) * rng.randint(1, 2 ** rng.choice((1, bits))))
                p = IntPolynomial(coeffs)
            non_monic += abs(p.leading) != 1
            wide += max(map(abs, p.coeffs)) >= 2 ** 79
            _assert_bounds_every_real_root(p)
        assert non_monic > 300 and wide > 50

    def test_class_characteristic_polynomials(self):
        count = 0
        for n in range(1, 9):
            for g in enumerate_cacti(n):
                _assert_bounds_every_real_root(char_poly(signless_laplacian(g)))
                count += 1
        assert count == 291

    def test_constant_polynomial_rejected(self):
        with pytest.raises(ValueError):
            root_bound(IntPolynomial((5,)))


def test_isolate_largest_root_degenerate_windows():
    p = monomial_shift(4)
    # a root on the left end of a one-point window is still bracketed
    assert isolate_largest_root(p, lo=4, hi=4) == (Fraction(7, 2), 4)
    assert isolate_largest_root(p, lo=5, hi=3) is None
    # a root on the left end of an empty window is not
    assert isolate_largest_root(p, lo=4, hi=2) is None
    with pytest.raises(ValueError, match=r"no real root of x - 4 in \[4, 2\]"):
        largest_real_root(p, (4, 2))
    assert largest_real_root(p, (4, 4)) == pytest.approx(4, abs=1e-12)


class TestRefineRoot:
    def test_isolating_interval_within_tol(self):
        p = IntPolynomial((-2, 0, 1))  # roots -sqrt(2), sqrt(2)
        assert polynomials.REFINE_WIDTH == Fraction(1e-12).limit_denominator(10 ** 18)
        got = refine_root(p, 1, 2)
        assert abs(got - math.sqrt(2)) <= 1e-12
        assert got == fraction_largest_root(p.coeffs, 1, 2)

    def test_exact_dyadic_root(self):
        assert refine_root(monomial_shift(4), 0, 8) == 4.0

    @pytest.mark.parametrize("p, lo, hi", [
        (monomial_shift(4), 0, 4),  # the root is the right end
        (IntPolynomial((4, -1)), 0, 4),  # ... with p falling through it
        (monomial_shift(4) ** 2 * monomial_shift(5), 0, 4),  # a double root
        (monomial_shift(3) ** 3 * IntPolynomial((-2, 0, 1)), 2, 3),
        (monomial_shift(3) * monomial_shift(10), 2, 4),  # the first midpoint
        (IntPolynomial((-3, 2)) * monomial_shift(1), 1, 2),  # a root at lo
        (IntPolynomial((-2, 0, 1)) * monomial_shift(5), 1, 2),
    ])
    def test_roots_on_ends_and_midpoints_match_fraction_bisection(
            self, p, lo, hi):
        want = fraction_largest_root(p.coeffs, lo, hi)
        assert refine_root(p, lo, hi) == want

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

    def test_disjoint_brackets_decide_without_a_gcd(self, monkeypatch):
        def no_gcd(p, q):
            raise AssertionError("gcd taken although the brackets separate")

        monkeypatch.setattr(polynomials, "_poly_gcd", no_gcd)
        # the first isolating brackets are (1, 2] and (10, 12]
        p = monomial_shift(1) * monomial_shift(2)
        q = monomial_shift(10) * monomial_shift(11)
        ip, iq = isolate_largest_root(p), isolate_largest_root(q)
        assert ip[1] <= iq[0]
        assert compare_largest_roots(p, q) == -1
        assert compare_largest_roots(q, p) == 1

    def test_overlapping_brackets_still_take_the_gcd(self, monkeypatch):
        calls = []

        def counting(p, q):
            calls.append((p, q))
            return gcd(p, q)

        gcd = polynomials._poly_gcd
        monkeypatch.setattr(polynomials, "_poly_gcd", counting)
        # the first brackets of x - 2 and x - 3 are both (-8, 8]
        assert compare_largest_roots(monomial_shift(2), monomial_shift(3)) == -1
        assert len(calls) == 1
        shared = IntPolynomial((8, -7, 1))
        assert compare_largest_roots(shared * monomial_shift(1), shared) == 0
        a, b = graph6.decode("FsOIG"), graph6.decode("FqDGO")
        pa, pb = (char_poly(signless_laplacian(g)) for g in (a, b))
        assert compare_largest_roots(pa, pb) == compare_largest_roots(pb, pa) == 0

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

    def test_equal_polynomials_tie_after_one_isolation(self, monkeypatch):
        calls = []

        def counting(p, lo=None, hi=None):
            calls.append(p)
            return isolate(p, lo, hi)

        isolate = polynomials.isolate_largest_root
        monkeypatch.setattr(polynomials, "isolate_largest_root", counting)
        p = monomial_shift(1) * monomial_shift(3)
        assert compare_largest_roots(p, IntPolynomial(p.coeffs)) == 0
        assert calls == [p]
        with pytest.raises(ValueError, match="real root"):
            compare_largest_roots(IntPolynomial((1, 0, 1)), IntPolynomial((1, 0, 1)))
        with pytest.raises(ValueError, match="real root"):
            compare_largest_roots(p, IntPolynomial((1, 0, 1)))

    def test_class_polynomial_pairs_match_fraction_oracle(self):
        # every pair of class polynomials for n <= 7, each in both orders,
        # a polynomial paired with itself included
        polys = [char_poly(signless_laplacian(g))
                 for n in range(1, 8) for g in enumerate_cacti(n)]
        assert len(polys) == 103
        ties = 0
        for i, p in enumerate(polys):
            for q in polys[i:]:
                want = fraction_compare_largest_roots(p.coeffs, q.coeffs)
                assert compare_largest_roots(p, q) == want, (p, q)
                assert compare_largest_roots(q, p) == -want, (p, q)
                ties += want == 0
        assert ties > len(polys)

    def test_gives_up_after_max_steps(self, monkeypatch):
        monkeypatch.setattr(polynomials, "MAX_SEPARATION_STEPS", 0)
        with pytest.raises(RuntimeError):
            compare_largest_roots(monomial_shift(2), monomial_shift(3))
        shared = IntPolynomial((8, -7, 1))  # ties need no bisection
        assert compare_largest_roots(shared * monomial_shift(1), shared) == 0


# ---------------------------------------------------------------------------
# The integer root layer against the Fraction oracles
# ---------------------------------------------------------------------------

def _near_tie_pairs(n):
    """Char polys of neighbours in the radius order of the class at n whose
    float radii lie within the exact escalation gap."""
    graphs = enumerate_cacti(n)
    rs = radii(graphs)
    order = sorted(range(len(graphs)), key=lambda i: (rs[i], i))
    return [tuple(char_poly(signless_laplacian(graphs[i])) for i in (lo, hi))
            for lo, hi in zip(order, order[1:])
            if rs[hi] - rs[lo] < EXACT_ESCALATION_GAP]


def _random_product(rng):
    """A nonzero integer polynomial: a unit or non-unit constant of either
    sign times integer linear factors, some repeated, times a random integer
    polynomial."""
    p = IntPolynomial((rng.choice((-6, -3, -2, -1, 1, 2, 5)),))
    for _ in range(rng.randint(0, 3)):
        factor = IntPolynomial((rng.randint(-6, 6), rng.choice((-3, -2, -1, 1, 2, 4))))
        p = p * factor ** rng.randint(1, 2)
    extra = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))])
    return p * extra if not extra.is_zero() else p


class TestIntegerChains:
    def test_cactus_char_polys_match_fraction_chains(self):
        count = 0
        for n in range(1, 10):
            for g in enumerate_cacti(n):
                p = char_poly(signless_laplacian(g))
                assert sturm_sequence(p) == fraction_sturm_sequence(p.coeffs), g
                count += 1
        assert count == 887

    def test_near_tie_gcds_match_fraction_gcd(self):
        pairs = _near_tie_pairs(10)
        assert len(pairs) == 134
        for pa, pb in pairs:
            assert list(_poly_gcd(pa, pb).coeffs) == fraction_gcd(pa.coeffs, pb.coeffs)
            assert list(_poly_gcd(pb, pa).coeffs) == fraction_gcd(pb.coeffs, pa.coeffs)

    def test_random_products_match_fraction_oracles(self):
        rng = random.Random(8)
        negative_leads = 0
        for _ in range(1200):
            shared = _random_product(rng)
            p, q = shared * _random_product(rng), shared * _random_product(rng)
            negative_leads += p.leading < 0
            assert sturm_sequence(p) == fraction_sturm_sequence(p.coeffs), p
            assert list(_poly_gcd(p, q).coeffs) == fraction_gcd(p.coeffs, q.coeffs), (p, q)
        assert negative_leads > 300

    def test_gcd_with_zero(self):
        p = IntPolynomial((-6, 4, 2))
        assert _poly_gcd(p, IntPolynomial(())).coeffs == (-3, 2, 1)
        assert _poly_gcd(IntPolynomial(()), IntPolynomial((6, -4, -2))).coeffs \
            == (3, -2, -1)
        assert _poly_gcd(IntPolynomial(()), IntPolynomial(())).is_zero()


def _extremal_polys():
    """The distinct (cubic or quintic, bracket) pairs whose largest roots are
    the extremal answers' radii to n = 64: h_cubic(n, n - 2m + 1) for a
    matching number m with n >= 2m + 2, h_cubic(n, k) for a pendant count k
    with n - k odd, and l_quintic(n, k) for k >= 1 with n - k even."""
    seen = set()
    for n in range(3, 65):
        polys = [h_cubic(n, n - 2 * m + 1) for m in range(1, (n - 2) // 2 + 1)]
        polys += [h_cubic(n, k) if (n - k) % 2 else l_quintic(n, k)
                  for k in range(1 - n % 2, n)]
        for p in polys:
            if (p, n) not in seen:
                seen.add((p, n))
                yield p, (0.0, float(2 * n))


def test_refined_floats_match_fraction_bisection():
    # every cubic and quintic radius of the extremal answers to n = 64,
    # refined bit for bit as Fraction bisection does it
    count = 0
    for p, bracket in _extremal_polys():
        want = fraction_largest_root(p.coeffs, *bracket)
        assert largest_real_root(p, bracket) == want, p
        count += 1
    assert count == 2046
