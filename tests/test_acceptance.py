"""Acceptance suite: twelve end-to-end criteria, one test and one printed
pass/fail line each.

Tolerances: radii within 1e-9, spectral multisets within 1e-8, each
monotonicity comparison certified, polynomial identities exact.
"""

import math
import random
import sys

import numpy as np
import pytest

from cactiq.enumeration import CactusFilter, enumerate_cacti
from cactiq.families import (build_H, build_L, legacy_h_cubic, psi_H, psi_L,
                             psi_legacy, superseded_conjecture_bound)
from cactiq.graph import canonical_code, from_edges, is_cactus, matching_number
from cactiq.polynomials import IntPolynomial, monomial_shift
from cactiq.quotient import BlockSpec, SpectrumMultiset, build_from_spec, \
    structured_spectrum
from cactiq.spectra import char_poly, signless_laplacian
from cactiq.verify import (verify_conjecture11_negative, verify_extremal,
                           verify_monotonicity)

from conftest import record_acceptance
from oracles import brute_matching, oracle_cacti

RADIUS_TOL = 1e-9


def _report(num: int, name: str, ok: bool) -> None:
    line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    record_acceptance(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _h_params(max_n):
    for s in range(1, (max_n - 1) // 2 + 1):
        for k in range(0, max_n - 2 * s):
            yield s, k, 2 * s + k + 1


def _l_params(max_n):
    for s in range(1, (max_n - 3) // 2 + 1):
        for k in range(1, max_n - 2 * s - 1):
            yield s, k, 2 * s + k + 2


def test_01_h_family_charpoly_identity():
    ok = all(psi_H(n, k) == char_poly(signless_laplacian(build_H(s, k)))
             for s, k, n in _h_params(24))
    _report(1, "H-family factored charpoly identity, n <= 24", ok)


def test_02_l_family_charpoly_identity():
    ok = all(psi_L(n, k) == char_poly(signless_laplacian(build_L(s, k)))
             for s, k, n in _l_params(24))
    _report(2, "L-family factored charpoly identity, n <= 24", ok)


def test_03_erratum_regression():
    good_cubic = IntPolynomial((-8, 15, -8, 1))
    bad_cubic = IntPolynomial((-2, 7, -6, 1))
    ok = (legacy_h_cubic(5, 0) == bad_cubic
          and psi_H(5, 0) == monomial_shift(1) * monomial_shift(3) * good_cubic
          and psi_legacy("H", 5, 0) != psi_H(5, 0)
          and psi_legacy("H", 3, 0) == psi_H(3, 0)
          # eigenvalue sum of the superseded expansion vs the true trace
          and -psi_legacy("H", 5, 0).coeffs[4] == 10
          and -psi_H(5, 0).coeffs[4] == 12)
    _report(3, "superseded published formula disagrees at (5, 0)", ok)


def test_04_odd_matching_maximizer():
    ok = True
    for n in (5, 7, 9):
        m = (n - 1) // 2
        r = verify_extremal("theorem31i", n, m=m)
        want = ((n + 2) + math.sqrt(n * n - 4 * n + 12)) / 2
        ok &= r.passed and abs(r.observed_radius - want) <= RADIUS_TOL
    _report(4, "odd-n matching classes: unique hub-of-triangles maximizer", ok)


def test_05_general_matching_maximizer():
    ok = True
    for m in range(1, 4):
        for n in range(2 * m + 2, 10):
            r = verify_extremal("theorem31ii", n, m=m)
            cubic = IntPolynomial((-4 * m + 4, 3 * n, -(n + 3), 1))
            from cactiq.polynomials import largest_real_root
            want = largest_real_root(cubic, (0.0, float(2 * n)))
            ok &= r.passed and abs(r.observed_radius - want) <= RADIUS_TOL
    _report(5, "n >= 2m+2 matching classes: cubic-root maximizer", ok)


def test_06_perfect_matching_maximizer():
    ok = True
    for n in (4, 6, 8):
        r = verify_extremal("prop215", n, m=n // 2)
        want = ((n + 1) + math.sqrt(n * n - 2 * n + 9)) / 2
        ok &= r.passed and abs(r.observed_radius - want) <= RADIUS_TOL
    _report(6, "perfect-matching classes: closed-form maximizer", ok)


def test_07_unconstrained_maximizer():
    ok = True
    for n in range(3, 10):
        r = verify_extremal("theorem32", n)
        if n % 2:
            want = ((n + 2) + math.sqrt(n * n - 4 * n + 12)) / 2
        else:
            want = ((n + 1) + math.sqrt(n * n - 2 * n + 9)) / 2
        ok &= r.passed and abs(r.observed_radius - want) <= RADIUS_TOL
    _report(7, "unconstrained cactus maximizer, 3 <= n <= 9", ok)


def test_08_pendant_constrained_maximizer():
    # skip (n, k) classes with no members (k = n - 2) and the even n - k,
    # k = 0 case where no prediction is defined
    ok = True
    checked = 0
    for n in range(3, 10):
        for k in range(0, n):
            if k == 0 and (n - k) % 2 == 0:
                continue
            if not enumerate_cacti(n, CactusFilter(pendants=k)):
                continue
            r = verify_extremal("prop213", n, k=k)
            ok &= r.passed
            checked += 1
    # 42 (n, k) pairs minus the one empty class and the three undefined
    # even-parity zero-pendant cases
    ok &= checked == 38
    _report(8, "pendant-count classes: family maximizer with exact-root radius", ok)


def test_09_structured_spectrum_decomposition():
    rng = random.Random(2024)
    ok = True
    for _ in range(100):
        t = rng.randint(1, 4)
        sizes = [rng.randint(1, 5) for _ in range(t)]
        l = [rng.randint(-3, 3) for _ in range(t)]
        p = [rng.randint(-3, 3) for _ in range(t)]
        s = [[0] * t for _ in range(t)]
        for i in range(t):
            for j in range(i + 1, t):
                s[i][j] = s[j][i] = rng.randint(-3, 3)
        spec = BlockSpec(sizes, l, p, s)
        dense = build_from_spec(spec)
        got = structured_spectrum(spec).values()
        want = SpectrumMultiset.from_values(np.linalg.eigvalsh(dense)).values()
        ok &= (len(got) == len(want)
               and np.allclose(got, want, rtol=0, atol=1e-8))
    _report(9, "block-structure spectral decomposition vs dense eigensolver", ok)


def test_10_monotonicity_suites():
    r = verify_monotonicity(trials=200, seed=42)
    ok = r.passed and r.details["comparisons"] == 600 and not r.counterexamples
    _report(10, "600 seeded strict-monotonicity comparisons, each certified", ok)


def _matching_agrees(g) -> bool:
    """A cactus's matching number equals the subset oracle's; any other
    graph is rejected."""
    if is_cactus(g):
        return matching_number(g) == brute_matching(g)
    try:
        matching_number(g)
    except ValueError:
        return True
    return False


def test_11_oracle_equivalences():
    ok = True
    for n in range(1, 7):
        got = [canonical_code(g).code for g in enumerate_cacti(n)]
        want = sorted(canonical_code(g).code for g in oracle_cacti(n))
        ok &= got == want
    rng = random.Random(99)
    pairs6 = [(i, j) for j in range(6) for i in range(j)]
    for n in range(2, 6):
        pairs = [(i, j) for j in range(n) for i in range(j)]
        for mask in range(1 << len(pairs)):
            g = from_edges(n, [pairs[i] for i in range(len(pairs))
                               if mask >> i & 1])
            ok &= _matching_agrees(g)
    for _ in range(150):
        ok &= _matching_agrees(from_edges(6, [e for e in pairs6
                                              if rng.random() < 0.4]))
    c3 = from_edges(3, [(0, 1), (1, 2), (0, 2)])
    ok &= char_poly(signless_laplacian(c3)) == \
        monomial_shift(4) * monomial_shift(1) ** 2
    _report(11, "independent oracles: enumeration, matching, triangle charpoly", ok)


def test_12_superseded_bound_exceeded():
    r = verify_conjecture11_negative(5)
    bound = superseded_conjecture_bound(5)
    ok = (r.passed
          and r.observed_radius > bound + RADIUS_TOL
          and r.details["exceeded_as_documented"]
          and abs(r.observed_radius - (7 + math.sqrt(17)) / 2) <= RADIUS_TOL)
    _report(12, "superseded odd-n bound exceeded at n = 5, as documented", ok)
