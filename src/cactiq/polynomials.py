"""Exact integer polynomials, Sturm sequences and certified real-root isolation.

All coefficients are arbitrary-precision Python integers, stored in ascending
degree order, and every verdict of the root layer is decided in integer
arithmetic, so every bracket produced here is a rigorous statement, not a
floating-point one.
A polynomial multiplies and raises to powers; it neither adds, subtracts nor
negates, and it meets only other polynomials, never a bare integer.
Sturm chains come from a primitive remainder sequence in Z[x]
(pseudo-division, then the primitive part) and are divided through by
gcd(p, p') exactly, so they count distinct roots, multiple ones included.
A polynomial keeps only its float estimate of its largest root, once made;
chains and brackets are computed on each call.
Isolation takes a whole window (lo, hi], half-open like every bracket, or
none, which is then the root bound's (-B, B].
Isolation halves a bracket carried as integer numerators over a common
denominator; each step evaluates the Sturm chain once, at the midpoint, and
carries the end sign variations.  Refinement bisects on the same grid to
REFINE_WIDTH by the sign of the chain's first, square-free member alone.
Brackets are handed out as `fractions.Fraction`.

A float only chooses where to look.  Newton's method, run downward from the
window's top (or a root bound), estimates a largest root; integer signs
and Descartes' rule of signs after an integer Taylor shift (`_roots_above`)
then certify a verdict near it.  `largest_real_root` certifies the final
refinement cell that holds the estimate (or its neighbour) as holding the
only root above its left end, with a sign change across it; isolation and
refinement would end in that cell, so its midpoint is their float bit for
bit.  A top root on a grid point is certified through the exact quotient
p / (x - c), whose roots above a point show where isolation and refinement
stop: at the grid point itself or in the final cell below it.
`compare_largest_roots` certifies a tie or an order from the two
estimates.  When a certificate fails (no estimate, a multiple or crowded
top root, an estimate on a lower root), Sturm isolation decides: the float
is refined from an isolating bracket, and the verdict comes from one
isolation of p q and a root count of p and of q in its bracket, so no
verdict and no float ever rests on floating point.

Newton starts no higher than the Laguerre-Samuelson bound (Samuelson,
J. Amer. Statist. Assoc. 63, 1968): d reals with mean mu all lie at or
below mu + sqrt((d - 1)(sum r^2 / d - mu^2)).  Mean and sum of squares of
the roots come from the top three coefficients by Vieta, so for a
real-rooted polynomial this bounds every root from above.  The char
polys of Q, and the H cubic and L quintic that divide them, are real-rooted
because Q is real symmetric, so its eigenvalues are real; Newton then
starts above the largest root, where the polynomial is monotone and convex
or concave, and walks down to it.  For any other polynomial the bound is
only a start, and the certificates decide as before.  With no window
Newton starts at this bound, or at the root bound when it is not real.
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction
from math import gcd, isfinite, isqrt, lcm, nan


class IntPolynomial:
    """Polynomial with exact integer coefficients, ascending degree order.

    The zero polynomial is represented by an empty coefficient tuple and has
    degree -1.  Trailing zero coefficients are stripped on construction.
    Each coefficient goes through `operator.index`, so a bool or a NumPy
    integer becomes a Python int and anything else raises TypeError.
    Equality and hashing read the coefficients only, not the root layer's
    lazily filled slot.
    """

    __slots__ = ("coeffs", "_guess")

    def __init__(self, coeffs):
        cs = [_coefficient(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self._guess = None

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return IntPolynomial(_convolve(self.coeffs, other.coeffs))

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative exponent")
        out = IntPolynomial((1,))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"

    # -- serialization: JSON array of decimal coefficient strings -----------

    def to_json(self) -> str:
        return json.dumps([str(c) for c in self.coeffs])


def _convolve(a, b) -> list:
    """The ascending coefficients of the product of the polynomials with
    ascending coefficients a and b; empty when either is."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _coefficient(c) -> int:
    try:
        return operator.index(c)
    except TypeError:
        raise TypeError(f"non-integer coefficient {c!r}") from None


def monomial_shift(c: int) -> IntPolynomial:
    """The linear factor x - c."""
    return IntPolynomial((-c, 1))


# ---------------------------------------------------------------------------
# Sturm sequences in Z[x]
# ---------------------------------------------------------------------------

def _primitive_part(coeffs):
    """A nonzero integer polynomial divided by its (positive) content."""
    g = gcd(*coeffs)
    return [c // g for c in coeffs] if g != 1 else coeffs


def _remainder(a, b):
    """The primitive positive multiple of the remainder of a / b in Q[x], as
    an integer list ([] when b divides a).

    Pseudo-division: each step scales the running remainder by the positive
    integer |lc(b)| / gcd(lead, lc(b)), so the leading term cancels in
    integers and the result stays a positive multiple of the rational
    remainder; since rem(sA, tB) = s rem(A, B), a chain of these is a chain
    of positive multiples of the rational one.
    """
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(r) - 1 >= db:
        c = r[-1]
        g = gcd(c, lb)
        s, f = abs(lb) // g, (c if lb > 0 else -c) // g
        if s != 1:
            r = [s * x for x in r]
        shift = len(r) - 1 - db
        for i in range(db):  # the leading term cancels by construction
            r[shift + i] -= f * b[i]
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return _primitive_part(r) if r else r


def _exact_quotient(a, b):
    """a / b for integer lists when b divides a in Z[x]."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * (len(r) - db)
    for shift in range(len(q) - 1, -1, -1):
        f, m = divmod(r[shift + db], lb)
        if m:
            raise ArithmeticError("polynomial division is not exact")
        q[shift] = f
        if f:
            for i in range(db):
                r[shift + i] -= f * b[i]
    return q


def sturm_sequence(p: IntPolynomial):
    """Sturm chain of p, every member divided by the last, gcd(p, p'), as
    primitive integer lists, each the positive multiple of the member.

    The chain is a primitive remainder sequence in Z[x] (`_remainder`), so
    no rational arithmetic runs.  The last member is primitive and divides
    every other over Q, so by Gauss's lemma each quotient is a primitive
    integer polynomial and every division is exact.  Dividing through leaves
    the sign variations unchanged wherever the gcd does not vanish and keeps
    them meaningful at a multiple root of p, where every member of the
    undivided chain is zero; either way the chain counts distinct roots.
    """
    if p.is_zero():
        raise ValueError("Sturm sequence of the zero polynomial")
    seq = [_primitive_part(list(p.coeffs))]
    d = p.derivative().coeffs
    if d:
        seq.append(_primitive_part(list(d)))
    while len(seq[-1]) > 1:
        r = _remainder(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in r])
    g = seq[-1]
    if len(g) > 1:
        seq = [_exact_quotient(f, g) for f in seq]
    return seq


def _powers(den: int, k: int) -> list:
    """[1, den, ..., den^(k-1)]."""
    powers = [1]
    for _ in range(k - 1):
        powers.append(powers[-1] * den)
    return powers


def _scaled_value(coeffs, num: int, powers) -> int:
    """den^d * f(num / den) in integers for f of degree d, given powers from
    `_powers(den, k)` with k > d; it has the sign of f(num / den)."""
    acc = 0
    for c, w in zip(reversed(coeffs), powers):
        acc = acc * num + c * w
    return acc


def _evaluate(seq, num: int, den: int) -> int:
    """Sign variations along the chain at num / den (den > 0), zeros
    skipped.  A member f of degree d is evaluated as den^d * f(num / den)
    in integers, which has the sign of f(num / den)."""
    powers = _powers(den, len(seq[0]))
    variations, last = 0, 0
    for coeffs in seq:
        acc = _scaled_value(coeffs, num, powers)
        if acc:
            if last and (acc < 0) != (last < 0):
                variations += 1
            last = acc
    return variations


def count_roots(p: IntPolynomial, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    if hi <= lo:
        return 0
    seq = sturm_sequence(p)
    return (_evaluate(seq, lo.numerator, lo.denominator)
            - _evaluate(seq, hi.numerator, hi.denominator))


def root_bound(p: IntPolynomial) -> int:
    """A power of two B with every root z of p, real or complex, in |z| < B.

    Fujiwara's bound 2 max_k |c_(d-k) / c_d|^(1/k), rounded up through bit
    lengths: |c_(d-k) / c_d| < 2^(bitlen|c_(d-k)| - bitlen|c_d| + 1), so
    B = 2^(e + 1) with e = max(0, max_k ceil((bitlen|c_(d-k)| - bitlen|c_d|
    + 1) / k)).  Integer window ends start isolation on denominator 1.
    """
    if p.degree < 1:
        raise ValueError("constant polynomial has no root bound")
    d, lead = p.degree, abs(p.leading).bit_length()
    e = max(-((lead - 1 - abs(p.coeffs[d - k]).bit_length()) // k)
            for k in range(1, d + 1))
    return 2 ** (max(e, 0) + 1)


# ---------------------------------------------------------------------------
# Float estimates and the integer certificates that check them
# ---------------------------------------------------------------------------

_NEWTON_STEPS = 100
# Relative distance from an estimate to the points that certify a sign
# change near it, and below which two estimates are a candidate tie: wide
# enough for Newton's float error at clustered roots of class polynomials
# (1e-11 at n = 11), narrow enough to keep their distinct near-tie roots
# apart.  Either way a miss costs a fallback, never a verdict.
_NEAR = 2.0 ** -34


def _newton(coeffs, top):
    """A float estimate of the largest real root at or below top of the
    polynomial with ascending integer coefficients: Newton's method run
    downward from top until a step no longer moves it down.  None on
    overflow, at a flat point, or when it does not settle within
    _NEWTON_STEPS steps.  Only certificates read it, so a poor estimate
    costs time, never a verdict."""
    try:
        cs = [float(c) for c in reversed(coeffs)]
        x = float(top)
    except OverflowError:
        return None
    for _ in range(_NEWTON_STEPS):
        v = dv = 0.0
        for c in cs:
            dv = dv * x + v
            v = v * x + c
        if not v:
            return x
        step = v / dv if dv else nan
        if not isfinite(step):
            return None
        if not x - step < x:  # the step is upward or below resolution
            return x
        x -= step
    return None


def _samuelson(coeffs):
    """An integer at or above the Laguerre-Samuelson bound of the polynomial
    with ascending integer coefficients of degree d >= 1, or None when the
    bound is not real, which proves some root complex.

    With lead c_d and the next two coefficients c_(d-1), c_(d-2) (0 when
    d = 1) made c_d > 0 by a sign change, the roots sum to -c_(d-1) / c_d
    and their squares to (c_(d-1)^2 - 2 c_(d-2) c_d) / c_d^2, so the bound
    is (sqrt((d - 1) D) - c_(d-1)) / (d c_d) with
    D = (d - 1) c_(d-1)^2 - 2 d c_(d-2) c_d, rounded up in integers."""
    d, lead, c1 = len(coeffs) - 1, coeffs[-1], coeffs[-2]
    c2 = coeffs[-3] if d > 1 else 0
    if lead < 0:
        lead, c1, c2 = -lead, -c1, -c2
    spread = (d - 1) * ((d - 1) * c1 * c1 - 2 * d * c2 * lead)
    if spread < 0:
        return None
    root = isqrt(spread)
    root += root * root < spread
    return -((c1 - root) // (d * lead))


def _start(coeffs, top):
    """Where Newton starts below top: the Laguerre-Samuelson bound when it
    is real and lower."""
    bound = _samuelson(coeffs)
    return top if bound is None or bound >= top else bound


def _estimate(p: IntPolynomial):
    """The float estimate of p's largest real root from the Laguerre-Samuelson
    bound, or from the root bound when that is not real, made on first use
    and kept on p; None when Newton gives none."""
    if p._guess is None:
        start = _samuelson(p.coeffs)
        p._guess = (_newton(p.coeffs, root_bound(p) if start is None
                            else start),)
    return p._guess[0]


def _near(x: float, side: int) -> float:
    """A float just below (side -1) or above (side 1) the estimate x."""
    return x + side * _NEAR * max(1.0, abs(x))


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _sign_at(coeffs, x: float) -> int:
    """The exact sign of the polynomial at the float x."""
    num, den = x.as_integer_ratio()
    return _sign(_scaled_value(coeffs, num, _powers(den, len(coeffs))))


def _roots_above(coeffs, num: int, den: int) -> int:
    """Sign variations of den^d p((num + y) / den) in y (den > 0), by an
    integer Taylor shift.  By Descartes' rule of signs this is an upper
    bound, of the same parity, on the roots of p above num / den counted
    with multiplicity: 0 proves there is none, 1 that there is exactly one,
    and it is simple."""
    d = len(coeffs) - 1
    shifted = [c * w for c, w in zip(coeffs, reversed(_powers(den, d + 1)))]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            shifted[j] += num * shifted[j + 1]
    signs = [c > 0 for c in shifted if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


# Bisection runs on an integer grid: a bracket (a/den, b/den] is carried as
# integer numerators over one positive common denominator, so a midpoint is
# (a + b) / 2den and no step normalises a fraction.

def _grid(lo: Fraction, hi: Fraction):
    """Numerators of lo and hi over their least common denominator."""
    den = lcm(lo.denominator, hi.denominator)
    return (lo.numerator * (den // lo.denominator),
            hi.numerator * (den // hi.denominator), den)


def isolate_largest_root(p: IntPolynomial, lo=None, hi=None):
    """Return Fractions (a, b) with exactly one root of p in (a, b], that root
    being the largest real root of p in the window (lo, hi].

    Returns None when p has no real root in (lo, hi], as when hi <= lo.  The
    window takes both ends or neither; with none it is the root bound's
    (-B, B], which holds every real root.
    """
    if p.degree < 1:
        raise ValueError("cannot isolate roots of a constant polynomial")
    if lo is None and hi is None:
        bound = root_bound(p)
        lo, hi = -bound, bound
    return _isolate(p, lo, hi)


def _isolate(p: IntPolynomial, lo, hi):
    a, b, den = _grid(Fraction(lo), Fraction(hi))
    seq = sturm_sequence(p)
    va, vb = _evaluate(seq, a, den), _evaluate(seq, b, den)
    if b <= a or va == vb:
        return None
    while va - vb > 1:
        # halve (a/den, b/den], keeping the half that holds the top root
        a, b, den, mid = 2 * a, 2 * b, 2 * den, a + b
        vm = _evaluate(seq, mid, den)
        a, b, va, vb = (mid, b, vm, vb) if vm > vb else (a, mid, va, vm)
    return Fraction(a, den), Fraction(b, den)


REFINE_WIDTH = Fraction(1e-12).limit_denominator(10 ** 18)


def refine_root(p: IntPolynomial, lo: Fraction, hi: Fraction) -> float:
    """Shrink an isolating interval (lo, hi] down to width <= REFINE_WIDTH by
    bisection, then return the midpoint as a float.  Sturm counts check that
    (lo, hi] isolates one root; each halving then reads one sign.
    """
    seq = sturm_sequence(p)
    a, b, den = _grid(Fraction(lo), Fraction(hi))
    va, vb = _evaluate(seq, a, den), _evaluate(seq, b, den)
    if b <= a or va - vb != 1:
        raise ValueError("interval does not isolate exactly one root")
    # The first member f = p / gcd(p, p') is square-free, so its one root r
    # in (a, b] is simple and f changes sign there and nowhere else in the
    # bracket: the midpoint's sign against b's picks the half, as the Sturm
    # counts would.  At r = b (sign 0 there) the right half is always kept.
    f = seq[0]
    sb = _scaled_value(f, b, _powers(den, len(f)))
    while (b - a) * REFINE_WIDTH.denominator > REFINE_WIDTH.numerator * den:
        mid, den = a + b, 2 * den
        sm = _scaled_value(f, mid, _powers(den, len(f)))
        if not sm:
            return mid / den  # the midpoint is the root
        if sb and (sm < 0) == (sb < 0):
            a, b = 2 * a, mid
        else:
            a, b = mid, 2 * b
    return (a + b) / (2 * den)  # ints divide to the correctly rounded float


def largest_real_root(p: IntPolynomial, bracket) -> float:
    """Largest real root of p in the bracket (lo, hi], certified by Sturm
    counting before bisection refinement (see `refine_root`), or at once
    from a float estimate when integer signs and Descartes' rule certify
    the final refinement cell that holds it (see `_certified_root`); the
    float is the same either way.

    Raises ValueError when p is constant or has no root in (lo, hi].
    """
    lo, hi = bracket
    root = _certified_root(p.coeffs, lo, hi) if p.degree >= 1 else None
    if root is not None:
        return root
    iso = isolate_largest_root(p, lo, hi)
    if iso is None:
        raise ValueError(f"no real root of {p.to_json()} in ({lo}, {hi}]")
    return refine_root(p, *iso)


def _certified_root(coeffs, lo, hi):
    """`refine_root(p, *isolate_largest_root(p, lo, hi))` when the cell
    (c, e] of the final refinement level (the window halved K times, K the
    least with width <= REFINE_WIDTH) that holds Newton's estimate from hi,
    or failing that its neighbour towards the root, is certified; else None.

    The certificate is p(c) p(e) < 0 and `_roots_above(p, c) == 1`: the cell
    holds the only root of p above c, a simple one strictly inside it.  So
    isolation stops at some level <= K in the cell above it, refinement
    meets no root on a grid point and ends in (c, e], and the float is that
    cell's midpoint.  A root on c or e goes to `_grid_root`.
    """
    x = _newton(coeffs, _start(coeffs, hi))
    a, b, den = _grid(Fraction(lo), Fraction(hi))
    if x is None or b <= a:
        return None
    # cell j of level K is (c, c + step] over den_k, c = a 2^K + j step
    step, w = b - a, REFINE_WIDTH
    k = (-(-step * w.denominator // (w.numerator * den)) - 1).bit_length()
    den_k, cells = den << k, 1 << k
    num, xden = x.as_integer_ratio()
    j = -((a * cells * xden - num * den_k) // (step * xden)) - 1
    j = min(max(j, 0), cells - 1)
    powers, lead = _powers(den_k, len(coeffs)), _sign(coeffs[-1])
    for _ in range(2):
        c = a * cells + j * step
        sc = _sign(_scaled_value(coeffs, c, powers))
        se = _sign(_scaled_value(coeffs, c + step, powers))
        if sc * se < 0:
            if _roots_above(coeffs, c, den_k) == 1:
                return (2 * c + step) / (2 * den_k)
            return None
        if not sc or not se:  # a root on grid point i of level K
            i = j + (not se)
            if not i:  # lo, outside the window
                return None
            return _grid_root(coeffs, a * cells + i * step, den_k, step,
                              (i & -i) * step if i < cells else None)
        # one sign on both ends: a root above e if it is not +inf's sign,
        # else the top root lies below c
        j += 1 if se != lead else -1
        if not 0 <= j < cells:
            return None
    return None


def _grid_root(coeffs, g: int, den: int, step: int, half):
    """`refine_root(p, *isolate_largest_root(p, lo, hi))` when p's largest
    root is the grid point g / den of the final level K, where cells are
    step / den wide, else None.  half is the cell width over den of the
    first level on whose grid g lies, or None when g is the window's top.

    q is p with every factor x - g/den divided out exactly.  When q has no
    root above g - half, the cell (g - half, g + half] of the level above
    holds no root but g, so isolation stops at or above that level with g
    inside its bracket and refinement returns g itself as a midpoint.  When
    instead q has a root in (g - half, g), shown by a sign change once every
    factor at g - half is divided out too, or g is the top, isolation meets
    another root beside g down to that level and keeps (., g]; if q also has
    no root above g - step, it stops at level <= K and refinement ends in
    (g - step, g], whose midpoint is the float."""
    q = _without_root(coeffs, g, den)
    if half is not None and not _roots_above(q, g - half, den):
        return g / den
    if _roots_above(q, g - step, den):
        return None
    if half is not None:
        r = _without_root(q, g - half, den)
        powers = _powers(den, len(r))
        if (_sign(_scaled_value(r, g - half, powers))
                * _sign(_scaled_value(r, g, powers)) >= 0):
            return None
    return (2 * g - step) / (2 * den)


def _without_root(coeffs, num: int, den: int):
    """The nonzero polynomial with ascending integer coefficients divided
    exactly by x - num/den as often as num/den is its root."""
    f = gcd(num, den)
    linear = [-num // f, den // f]
    while not _scaled_value(coeffs, num, _powers(den, len(coeffs))):
        coeffs = _exact_quotient(coeffs, linear)
    return coeffs


# ---------------------------------------------------------------------------
# Exact comparison of largest roots (the near-tie discriminator)
# ---------------------------------------------------------------------------

def _poly_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """The primitive gcd of p and q with the sign of the rational Euclidean
    gcd, by the remainder step of the Sturm chains."""
    a, b = list(p.coeffs), list(q.coeffs)
    while b:
        a, b = b, _remainder(a, b)
    return IntPolynomial(_primitive_part(a) if a else ())


def compare_largest_roots(p: IntPolynomial, q: IntPolynomial) -> int:
    """Exact three-way comparison of the largest real roots of p and q.

    Returns -1, 0 or 1.  Both polynomials must have at least one real root.
    The float estimates of both largest roots, each made once and kept on
    its polynomial, first let integer signs and Descartes' rule certify the
    verdict (see `_certified_order`), so ranking one polynomial against many
    estimates it once; when that fails, `_compare_by_bisection` isolates the
    largest root of p q and counts the roots of p and of q in its bracket.
    """
    verdict = _certified_order(p, q)
    return _compare_by_bisection(p, q) if verdict is None else verdict


def _certified_order(p: IntPolynomial, q: IntPolynomial):
    """The comparison's verdict when one of three certificates holds, else
    None.  Each reads a float just below an estimate, where the sign
    opposite to the sign at +inf proves a real root above it.  Equal
    polynomials tie on that proof for p.  Estimates that are apart decide
    at the float t just below the upper one: the lower polynomial is
    nonzero at t with no root above it (`_roots_above` is 0) and a root
    just below its own estimate, and the upper one has a root above t.
    Close estimates tie when g = gcd(p, q) changes sign across the cell
    (c, e) that spans both and p and q each have exactly one root above c,
    which is then g's root."""
    if p.degree < 1 or q.degree < 1:
        return None
    xp = _estimate(p)
    if xp is None:
        return None
    if p == q:
        return 0 if _root_above(p, _near(xp, -1)) else None
    xq = _estimate(q)
    if xq is None:
        return None
    lo, hi = min(xp, xq), max(xp, xq)
    t = _near(hi, -1)
    if _near(lo, 1) < t:
        low, high = (p, q) if xp < xq else (q, p)
        if (_sign_at(low.coeffs, t)
                and _roots_above(low.coeffs, *t.as_integer_ratio()) == 0
                and _root_above(low, _near(lo, -1)) and _root_above(high, t)):
            return -1 if low is p else 1
        return None
    g = _poly_gcd(p, q)
    c, e = _near(lo, -1), _near(hi, 1)
    if g.degree < 1 or _sign_at(g.coeffs, c) * _sign_at(g.coeffs, e) >= 0:
        return None
    num, den = c.as_integer_ratio()
    above = _roots_above(p.coeffs, num, den), _roots_above(q.coeffs, num, den)
    return 0 if above == (1, 1) else None


def _root_above(p: IntPolynomial, x: float) -> bool:
    """Whether p has at x the sign opposite to its sign at +inf, which
    proves a real root of p above x."""
    return _sign_at(p.coeffs, x) == -_sign(p.leading)


def _compare_by_bisection(p: IntPolynomial, q: IntPolynomial) -> int:
    """`compare_largest_roots` by Sturm isolation alone.  The largest real
    root r of p q is the larger of the two largest roots, and its isolating
    bracket (lo, hi] holds no other root of p q, so p has a root there
    exactly when p(r) = 0, and so does q: each count is 0 or 1, and their
    difference is the verdict."""
    if isolate_largest_root(p) is None or isolate_largest_root(q) is None:
        raise ValueError("both polynomials must have a real root")
    lo, hi = isolate_largest_root(p * q)
    return count_roots(p, lo, hi) - count_roots(q, lo, hi)
