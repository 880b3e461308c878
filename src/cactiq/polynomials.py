"""Exact integer polynomials, Sturm sequences and certified real-root isolation.

All coefficients are arbitrary-precision Python integers, stored in ascending
degree order, and the root layer runs in integer arithmetic only, so every
bracket produced here is a rigorous statement, not a floating-point one.
A polynomial multiplies and raises to powers; it neither adds, subtracts nor
negates, and it meets only other polynomials, never a bare integer.
Sturm chains come from a primitive remainder sequence in Z[x]
(pseudo-division, then the primitive part) and are divided through by
gcd(p, p') exactly, so they count distinct roots, multiple ones included.
A polynomial keeps its chain and unwindowed largest-root bracket once made.
Isolation takes a whole window or none, which is then the root bound's.
Isolation and comparison share one halving step, which carries a bracket as
integer numerators over a common denominator, evaluates the Sturm chain once,
at the midpoint, and carries the end sign variations.  Refinement bisects on
the same grid to REFINE_WIDTH by the sign of the chain's first, square-free
member alone.  Brackets are handed out as `fractions.Fraction`.
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction
from math import gcd, lcm


class IntPolynomial:
    """Polynomial with exact integer coefficients, ascending degree order.

    The zero polynomial is represented by an empty coefficient tuple and has
    degree -1.  Trailing zero coefficients are stripped on construction.
    Each coefficient goes through `operator.index`, so a bool or a NumPy
    integer becomes a Python int and anything else raises TypeError.
    Equality and hashing read the coefficients only, not the root layer's
    lazily filled slots.
    """

    __slots__ = ("coeffs", "_sturm", "_top")

    def __init__(self, coeffs):
        cs = [_coefficient(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self._sturm = self._top = None

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
        if self.is_zero() or other.is_zero():
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

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

    def pretty(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                t = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                t = f"{mag}x" if i == 1 else f"{mag}x^{i}"
            terms.append(("-" if c < 0 else "+", t))
        sign, head = terms[0]
        s = ("-" if sign == "-" else "") + head
        for sign, t in terms[1:]:
            s += f" {sign} {t}"
        return s

    # -- serialization: JSON array of decimal coefficient strings -----------

    def to_json(self) -> str:
        return json.dumps([str(c) for c in self.coeffs])


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


def _chain(p: IntPolynomial):
    """The Sturm chain of p, computed on first use and kept on p."""
    if p._sturm is None:
        p._sturm = sturm_sequence(p)
    return p._sturm


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


def _evaluate(seq, num: int, den: int):
    """Sign variations along the chain at num / den (den > 0), zeros
    skipped, and whether num / den is a root of the first member, which has
    the roots of p.  A member f of degree d is evaluated as
    den^d * f(num / den) in integers, which has the sign of f(num / den)."""
    powers = _powers(den, len(seq[0]))
    variations, last, root = 0, 0, False
    for coeffs in seq:
        acc = _scaled_value(coeffs, num, powers)
        if acc:
            if last and (acc < 0) != (last < 0):
                variations += 1
            last = acc
        elif coeffs is seq[0]:
            root = True
    return variations, root


def count_roots(p: IntPolynomial, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    if hi <= lo:
        return 0
    seq = _chain(p)
    return (_evaluate(seq, lo.numerator, lo.denominator)[0]
            - _evaluate(seq, hi.numerator, hi.denominator)[0])


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


# Bisection runs on an integer grid: a bracket (a/den, b/den] is carried as
# integer numerators over one positive common denominator, so a midpoint is
# (a + b) / 2den and no step normalises a fraction.

def _grid(lo: Fraction, hi: Fraction):
    """Numerators of lo and hi over their least common denominator."""
    den = lcm(lo.denominator, hi.denominator)
    return (lo.numerator * (den // lo.denominator),
            hi.numerator * (den // hi.denominator), den)


def _halve(seq, a: int, b: int, den: int, va: int, vb: int):
    """One bisection step on (a/den, b/den], whose ends have Sturm sign
    variations va and vb: evaluate the chain once at the midpoint
    (a + b) / 2den and return the half that holds the largest root in the
    interval, as numerators over 2den with its end variations."""
    mid = a + b
    vm = _evaluate(seq, mid, 2 * den)[0]
    if vm > vb:
        return mid, 2 * b, 2 * den, vm, vb
    return 2 * a, mid, 2 * den, va, vm


def isolate_largest_root(p: IntPolynomial, lo=None, hi=None):
    """Return Fractions (a, b) with exactly one root of p in (a, b], that root
    being the largest real root of p inside [lo, hi].

    Returns None when p has no real root in the window, or when hi < lo.  The
    window takes both ends or neither; with none it is the root bound's
    (-B, B), and the result is kept on p.
    """
    if p.degree < 1:
        raise ValueError("cannot isolate roots of a constant polynomial")
    if lo is None and hi is None:
        if p._top is None:
            bound = root_bound(p)
            p._top = _isolate(p, -bound, bound) or ()  # () records no real root
        return p._top or None
    return _isolate(p, lo, hi)


def _isolate(p: IntPolynomial, lo, hi):
    a, b, den = _grid(Fraction(lo), Fraction(hi))
    seq = _chain(p)
    va, a_is_root = _evaluate(seq, a, den)
    vb = _evaluate(seq, b, den)[0]
    if b <= a or va == vb:
        if not a_is_root or b < a:  # b < a: an empty window
            return None
        # a root on the window's left end (never -B): bracket it in (a - 1/2, a]
        a, b, den, vb = 2 * a - den, 2 * a, 2 * den, va
        va = _evaluate(seq, a, den)[0]
    while va - vb > 1:
        a, b, den, va, vb = _halve(seq, a, b, den, va, vb)
    return Fraction(a, den), Fraction(b, den)


REFINE_WIDTH = Fraction(1e-12).limit_denominator(10 ** 18)


def refine_root(p: IntPolynomial, lo: Fraction, hi: Fraction) -> float:
    """Shrink an isolating interval (lo, hi] down to width <= REFINE_WIDTH by
    bisection, then return the midpoint as a float.  Sturm counts check that
    (lo, hi] isolates one root; each halving then reads one sign.
    """
    seq = _chain(p)
    a, b, den = _grid(Fraction(lo), Fraction(hi))
    va, vb = _evaluate(seq, a, den)[0], _evaluate(seq, b, den)[0]
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
    """Largest real root of p inside the bracket, certified by Sturm counting
    before bisection refinement (see `refine_root`).

    Raises ValueError when p is constant or has no root in the bracket.
    """
    lo, hi = bracket
    iso = isolate_largest_root(p, lo, hi)
    if iso is None:
        raise ValueError(f"no real root of {p.pretty()} in [{lo}, {hi}]")
    return refine_root(p, *iso)


# ---------------------------------------------------------------------------
# Exact comparison of largest roots (the near-tie discriminator)
# ---------------------------------------------------------------------------

MAX_SEPARATION_STEPS = 512


def _poly_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """The primitive gcd of p and q with the sign of the rational Euclidean
    gcd, by the remainder step of the Sturm chains."""
    a, b = list(p.coeffs), list(q.coeffs)
    while b:
        a, b = b, _remainder(a, b)
    return IntPolynomial(_primitive_part(a) if a else ())


def compare_largest_roots(p: IntPolynomial, q: IntPolynomial) -> int:
    """Exact three-way comparison of the largest real roots of p and q.

    Returns -1, 0 or 1.  Both polynomials must have at least one real root;
    equal polynomials are a tie once p's root is isolated.  Each isolation is
    kept on its polynomial, so ranking one polynomial against many isolates
    it once.
    """
    ip = isolate_largest_root(p)
    if ip is not None and p == q:
        return 0
    iq = isolate_largest_root(q)
    if ip is None or iq is None:
        raise ValueError("both polynomials must have a real root")
    (alo, ahi), (blo, bhi) = ip, iq
    # the brackets are half-open, so ahi <= blo puts p's root below q's;
    # disjoint brackets decide before any gcd is taken
    if ahi <= blo:
        return -1
    if bhi <= alo:
        return 1
    # A gcd root in (alo, ahi] is p's largest root, one in (blo, bhi] is q's;
    # each is also a root of the other polynomial, so they are equal.  Every
    # exact tie shows here, so the bisection below only has to separate.
    g = _poly_gcd(p, q)
    if g.degree >= 1 and count_roots(g, alo, ahi) and count_roots(g, blo, bhi):
        return 0
    sp, sq = _chain(p), _chain(q)
    a, b, da = _grid(alo, ahi)
    c, d, dc = _grid(blo, bhi)
    va, vb = _evaluate(sp, a, da)[0], _evaluate(sp, b, da)[0]
    wc, wd = _evaluate(sq, c, dc)[0], _evaluate(sq, d, dc)[0]
    for _ in range(MAX_SEPARATION_STEPS):
        a, b, da, va, vb = _halve(sp, a, b, da, va, vb)
        c, d, dc, wc, wd = _halve(sq, c, d, dc, wc, wd)
        if b * dc <= c * da:
            return -1
        if d * da <= a * dc:
            return 1
    raise RuntimeError("failed to separate largest roots")
