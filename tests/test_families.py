import hashlib
import math
from itertools import combinations
import re
import tracemalloc

import numpy as np
import pytest

from cactiq import graph6
from cactiq.families import (FamilyParams, _blocks, _edges, build, build_H,
                             build_L, extremal_answer, h_cubic, l_quintic,
                             legacy_h_cubic, legacy_l_quintic, members, psi_H,
                             psi_L, psi_legacy, superseded_conjecture_bound)
from cactiq.graph import (_cactus_code, canonical_code, from_edges, is_bundle,
                          is_cactus, matching_number, pendant_count)
from cactiq.polynomials import IntPolynomial, largest_real_root, monomial_shift
from cactiq.spectra import char_poly, graph_radius, signless_laplacian

from oracles import check_block_order, product_closed_form


def exact_poly(g):
    return char_poly(signless_laplacian(g))


class TestConstruction:
    def test_h_params_rejected(self):
        with pytest.raises(ValueError):
            FamilyParams("H", 0, 0)
        with pytest.raises(ValueError):
            FamilyParams("L", 1, 0)
        with pytest.raises(ValueError):
            FamilyParams("X", 1, 1)

    def test_params_are_integers(self):
        p = FamilyParams("L", np.int64(1), True)
        assert p == FamilyParams("L", 1, 1) and type(p.s) is type(p.k) is int
        assert p.n == 5 and build(p) == build_L(1, 1)
        for s, k, field, bad in ((1.5, 0, "s", 1.5), (1, "2", "k", "2"),
                                 (1, 2.0, "k", 2.0)):
            with pytest.raises(ValueError,
                               match=f"^{field} must be an integer, got {bad!r}$"):
                FamilyParams("H", s, k)

    def test_h_shapes(self):
        g = build_H(2, 0)  # bowtie
        assert g.order == 5 and g.size == 6
        assert len(g.adjacency()[0]) == 4
        g = build_H(3, 2)
        assert g.order == 9
        assert sorted(map(len, g.adjacency())) == \
            [1, 1, 2, 2, 2, 2, 2, 2, 8]

    def test_h_star(self):
        g = build_H(0, 3)
        assert g.order == 4 and g.size == 3
        assert pendant_count(g) == 3

    def test_l_shapes(self):
        g = build_L(2, 1)  # bowtie plus a pendant path of length 2
        assert g.order == 7 and g.size == 8
        assert len(g.adjacency()[0]) == 5
        assert pendant_count(g) == 1
        g = build_L(1, 3)
        assert g.order == 7
        assert pendant_count(g) == 3

    def test_all_are_bundles(self):
        for s in range(0, 4):
            for k in range(0, 4):
                if s + k >= 1:
                    g = build_H(s, k)
                    assert is_cactus(g) and is_bundle(g)
                if k >= 1:
                    g = build_L(s, k)
                    assert is_cactus(g) and is_bundle(g)

    def test_matching_numbers(self):
        # H(s, k): one edge per triangle plus one pendant edge if any.
        # L(s, k): same plus the outer path edge, plus a hub pendant if k >= 2.
        # Every member up to order 64.
        for s in range(0, 32):
            for k in range(0, 64):
                if s + k >= 1 and 2 * s + k + 1 <= 64:
                    want = s + min(k, 1)
                    assert matching_number(build_H(s, k)) == want
                if k >= 1 and 2 * s + k + 2 <= 64:
                    want = s + 1 + (1 if k >= 2 else 0)
                    assert matching_number(build_L(s, k)) == want

    def test_build_dispatch(self):
        assert build(FamilyParams("H", 2, 1)) == build_H(2, 1)
        assert build(FamilyParams("L", 2, 1)) == build_L(2, 1)

    def test_build_equals_checked_build(self):
        # the edges go straight into the Graph; `from_edges`, which checks
        # and normalises each one, gives the same Graph for every member up
        # to order 64
        params = [FamilyParams("H", s, k) for s in range(32) for k in range(64)
                  if s + k >= 1 and 2 * s + k + 1 <= 64]
        params += [FamilyParams("L", s, k) for s in range(32)
                   for k in range(1, 64) if 2 * s + k + 2 <= 64]
        assert len(params) == 2047
        for p in params:
            assert build(p) == from_edges(p.n, _edges(p)), p

    @pytest.mark.parametrize("family, k", [("H", 0), ("L", 1)])
    def test_order_guard_before_edges(self, family, k):
        # an order past the maximum is refused before any edge is made
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds supported maximum"):
                build(FamilyParams(family, 10 ** 6, k))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_graph6_pinned(self):
        # sha256 of "family s k graph6" lines for every H and L member up to
        # order 64, recorded when build_H and build_L had separate loops
        lines = [f"H {s} {k} {graph6.encode(build_H(s, k))}"
                 for s in range(32) for k in range(64)
                 if s + k >= 1 and 2 * s + k + 1 <= 64]
        lines += [f"L {s} {k} {graph6.encode(build_L(s, k))}"
                  for s in range(32) for k in range(1, 64)
                  if 2 * s + k + 2 <= 64]
        assert len(lines) == 2047
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
            "20592b985b1257fd54471976d04eed5f136fe20af66827931028d9378dc1ba91"


@pytest.mark.parametrize("max_n", range(3, 31))
def test_members_are_every_valid_params(max_n):
    for family in ("H", "L"):
        want = []
        for s in range(1, max_n):
            for k in range(max_n):
                try:
                    p = FamilyParams(family, s, k)
                except ValueError:
                    continue
                if p.n <= max_n:
                    want.append(p)
        assert list(members(family, max_n)) == want, family


@pytest.mark.parametrize("call, args, field, bad", [
    (lambda *a: list(members(*a)), ("H", 5.5), "max_n", 5.5),
    (lambda *a: list(members(*a)), ("L", "9"), "max_n", "9"),
    (psi_H, (5.0, 0), "n", 5.0),
    # k once surfaced as "s must be an integer, got 2.0"
    (psi_H, (5, 0.0), "k", 0.0),
    (psi_L, (7, 1.5), "k", 1.5),
    (lambda *a: psi_legacy("L", *a), ("7", 1), "n", "7"),
    (lambda *a: psi_legacy("H", *a), (5, 0.0), "k", 0.0),
])
def test_orders_and_pendants_are_integers(call, args, field, bad):
    with pytest.raises(ValueError,
                       match=f"^{field} must be an integer, got {bad!r}$"):
        call(*args)


@pytest.mark.parametrize("args, message", [
    (("H", 5.5), "max_n must be an integer, got 5.5"),
    (("X", 5), "unknown family 'X'"),
    (("L", None), "max_n must be an integer, got None")])
def test_members_checks_at_the_call(args, message):
    # no next() is taken: the call itself refuses
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        members(*args)


def test_integer_like_orders_and_pendants_accepted():
    assert psi_H(np.int64(5), False) == psi_H(5, 0)
    assert psi_legacy("L", np.int32(7), True) == psi_legacy("L", 7, 1)
    assert list(members("L", np.int64(9))) == list(members("L", 9))


class TestPsiH:
    def test_matches_exact_charpoly(self):
        for s in range(1, 5):
            for k in range(0, 5):
                n = 2 * s + k + 1
                assert psi_H(n, k) == exact_poly(build_H(s, k)), (s, k)

    def test_bowtie_expanded(self):
        # (x-1)(x-3)(x^3 - 8x^2 + 15x - 8)
        want = monomial_shift(1) * monomial_shift(3) * \
            IntPolynomial((-8, 15, -8, 1))
        assert psi_H(5, 0) == want

    def test_section3_specialization(self):
        # with k = 0 the cubic is x^3 - (n+3)x^2 + 3nx - 2n + 2
        for n in (5, 7, 9, 11):
            assert h_cubic(n, 0) == IntPolynomial((-2 * n + 2, 3 * n, -(n + 3), 1))
            want = monomial_shift(1) ** ((n - 3) // 2) \
                * monomial_shift(3) ** ((n - 3) // 2) * h_cubic(n, 0)
            assert psi_H(n, 0) == want

    def test_rejects_bad_parity(self):
        with pytest.raises(ValueError):
            psi_H(6, 0)

    def test_rejects_negative_k(self):
        # H(s, -1) and H(s, -2) are no members, whatever the parity
        for n in range(3, 20):
            for k in (-1, -2):
                if (n - k - 1) % 2 == 0:
                    with pytest.raises(ValueError):
                        psi_H(n, k)
                    with pytest.raises(ValueError):
                        psi_legacy("H", n, k)

    def test_rejects_star_exponent(self):
        # s = 0 makes the (x-3) exponent negative; the factored form does
        # not apply even though the bare cubic still has the right top root
        with pytest.raises(ValueError):
            psi_H(4, 3)


class TestPsiL:
    def test_matches_exact_charpoly(self):
        for s in range(1, 5):
            for k in range(1, 5):
                n = 2 * s + k + 2
                assert psi_L(n, k) == exact_poly(build_L(s, k)), (s, k)

    def test_smallest_case_expanded(self):
        assert psi_L(5, 1) == IntPolynomial((-4, 27, -48, 34, -10, 1))

    def test_rejects_k0(self):
        with pytest.raises(ValueError):
            psi_L(6, 0)

    def test_rejects_negative_exponent(self):
        # s = 0, k = 1 gives n = 3 and exponent (n+k-6)/2 = -1
        with pytest.raises(ValueError):
            psi_L(3, 1)

    def test_rejects_bad_parity(self):
        with pytest.raises(ValueError):
            psi_L(6, 1)


class TestBinomialExpansion:
    def test_equals_product_form_to_order_64(self):
        # each closed form, current and legacy, of every member of order
        # <= 64 against the same shape expanded by repeated products
        cores = {"H": (psi_H, h_cubic, legacy_h_cubic),
                 "L": (psi_L, l_quintic, legacy_l_quintic)}
        checked = 0
        for family, (psi, core, legacy) in cores.items():
            for p in members(family, 64):
                assert psi(p.n, p.k) == \
                    product_closed_form(family, core, p.n, p.k), p
                assert psi_legacy(family, p.n, p.k) == \
                    product_closed_form(family, legacy, p.n, p.k), p
                checked += 1
        assert checked == 1922


class TestLegacyErratum:
    def test_legacy_h_cubic_at_5_0(self):
        assert legacy_h_cubic(5, 0) == IntPolynomial((-2, 7, -6, 1))

    def test_legacy_h_disagrees_at_bowtie(self):
        good = psi_H(5, 0)
        bad = psi_legacy("H", 5, 0)
        assert good != bad
        # the legacy expansion even breaks the trace identity: the
        # bowtie's degree sum is 12, the legacy polynomial encodes 10
        n = 5
        assert -good.coeffs[n - 1] == 12
        assert -bad.coeffs[n - 1] == 10

    def test_legacy_h_agrees_only_at_n3(self):
        assert psi_legacy("H", 3, 0) == psi_H(3, 0)
        for s in range(2, 6):
            n = 2 * s + 1
            assert psi_legacy("H", n, 0) != psi_H(n, 0)

    def test_legacy_l_coincides_for_single_triangle(self):
        # an algebraic coincidence: at s = 1 the superseded quintic matches
        for k in (1, 2, 3):
            n = 2 + k + 2
            assert legacy_l_quintic(n, k) == l_quintic(n, k)

    def test_legacy_l_disagrees_for_two_triangles(self):
        for s in (2, 3):
            for k in (1, 2):
                n = 2 * s + k + 2
                assert psi_legacy("L", n, k) != psi_L(n, k), (s, k)


class TestExtremalAnswer:
    def test_odd_matching_closed_form(self):
        ans = extremal_answer(5, matching=2)
        assert ans.params == FamilyParams("H", 2, 0)
        assert ans.radius == pytest.approx((7 + math.sqrt(17)) / 2, abs=1e-12)
        assert ans.radius == (7 + math.sqrt(17)) / 2

    def test_large_n_cubic(self):
        ans = extremal_answer(8, matching=3)
        assert ans.params == FamilyParams("H", 2, 3)
        assert h_cubic(8, 3) == IntPolynomial((-8, 24, -11, 1))
        assert ans.radius == largest_real_root(h_cubic(8, 3), (0.0, 16.0))
        assert ans.radius == pytest.approx(
            graph_radius(build_H(2, 3)).radius, abs=1e-9)

    def test_perfect_matching_closed_form(self):
        ans = extremal_answer(6, matching=3)
        assert ans.params == FamilyParams("H", 2, 1)
        assert ans.radius == pytest.approx((7 + math.sqrt(33)) / 2, abs=1e-12)

    def test_unconstrained_parity(self):
        odd = extremal_answer(7)
        assert odd.params == FamilyParams("H", 3, 0)
        assert odd.radius == pytest.approx((9 + math.sqrt(33)) / 2, abs=1e-12)
        even = extremal_answer(8)
        assert even.params == FamilyParams("H", 3, 1)
        assert even.radius == pytest.approx((9 + math.sqrt(57)) / 2, abs=1e-12)

    def test_pendant_constraint(self):
        h = extremal_answer(9, pendants=2)
        assert h.params == FamilyParams("H", 3, 2)
        l = extremal_answer(8, pendants=2)
        assert l.params == FamilyParams("L", 2, 2)
        with pytest.raises(ValueError):
            extremal_answer(8, pendants=0)

    def test_arguments_are_integers(self):
        want = extremal_answer(8, matching=3)
        assert extremal_answer(np.int64(8), matching=np.int8(3)) == want
        assert extremal_answer(9, pendants=True) == extremal_answer(9, pendants=1)
        for kwargs, field, bad in (({"n": 5.5}, "n", 5.5),
                                   ({"n": 8, "matching": 3.0}, "matching", 3.0),
                                   ({"n": 9, "pendants": "2"}, "pendants", "2")):
            with pytest.raises(ValueError,
                               match=f"^{field} must be an integer, got {bad!r}$"):
                extremal_answer(**kwargs)

    def test_unconstrained_is_floor_half_matching(self):
        for n in range(3, 65):
            free, half = extremal_answer(n), extremal_answer(n, matching=n // 2)
            assert free.params == half.params
            assert free.radius == half.radius

    def test_radius_matches_eigensolver(self):
        for n in range(3, 10):
            ans = extremal_answer(n)
            got = graph_radius(ans.maximizer).radius
            assert abs(ans.radius - got) < 1e-9, n

    def test_constraint_exclusive(self):
        with pytest.raises(ValueError):
            extremal_answer(7, matching=2, pendants=1)

    def test_infeasible_matching(self):
        with pytest.raises(ValueError):
            extremal_answer(5, matching=3)


def test_radii_pinned():
    # sha256 of "n constraint repr(radius)" lines for n = 3..64 under no
    # constraint, every matching number and every pendant count with a
    # prediction, recorded while each radius came from a descriptor object
    lines = []
    for n in range(3, 65):
        cases = [("none", {})]
        cases += [(f"matching={m}", {"matching": m})
                  for m in range(1, n // 2 + 1)]
        cases += [(f"pendants={k}", {"pendants": k})
                  for k in range(n) if (n - k) % 2 or k]
        lines += [f"{n} {name} {extremal_answer(n, **c).radius!r}"
                  for name, c in cases]
    assert len(lines) == 3131
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "a7d4074d0993abc4959fbe2fbae6290748c0d1c8b21d459f88f9a55729e59c9c"


def test_superseded_bound_below_true_radius_at_5():
    # the corrected odd-n radius strictly exceeds the old conjectured bound
    assert superseded_conjecture_bound(5) < (7 + math.sqrt(17)) / 2


def test_member_blocks_code_as_the_built_graph():
    # every H and L member to order 64, s = 0 included: the blocks hold
    # the member's edges in the block order that `_peel` reads, and the
    # code read off them is the built graph's
    params = [FamilyParams("H", s, k) for s in range(32)
              for k in range(64 - 2 * s) if s + k]
    params += [FamilyParams("L", s, k) for s in range(31)
               for k in range(1, 63 - 2 * s)]
    assert len(params) == 2047
    for p in params:
        blocks = _blocks(p)
        assert {e for b in blocks for e in combinations(b, 2)} == \
            set(_edges(p)), p
        check_block_order(build(p), blocks)
        assert _cactus_code(p.n, blocks) == canonical_code(build(p)).code, p
