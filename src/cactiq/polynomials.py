"""Exact integer polynomials, Sturm sequences and certified real-root isolation.

All coefficients are arbitrary-precision Python integers, stored in ascending
degree order.  Root counting and isolation run over `fractions.Fraction`, so
every bracket produced here is a rigorous statement, not a floating-point one.
Sturm chains are divided through by gcd(p, p') and kept as primitive integer
polynomials, so they count distinct roots, multiple ones included, and are
evaluated in exact integer arithmetic.
Isolation, refinement and comparison share one halving step, which evaluates
the Sturm chain once, at the midpoint, and carries the end sign variations.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm


class IntPolynomial:
    """Polynomial with exact integer coefficients, ascending degree order.

    The zero polynomial is represented by an empty coefficient tuple and has
    degree -1.  Trailing zero coefficients are stripped on construction.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"non-integer coefficient {c!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

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

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, x):
        """Evaluate by Horner's rule; works for int, Fraction and float."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return IntPolynomial(x + y for x, y in zip(a, b))

    def __neg__(self):
        return IntPolynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__
    __radd__ = __add__

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

    @classmethod
    def from_json(cls, text: str) -> "IntPolynomial":
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError("expected a JSON array of coefficient strings")
        return cls(int(c) for c in data)


def _coerce(p) -> IntPolynomial:
    if isinstance(p, IntPolynomial):
        return p
    if isinstance(p, int):
        return IntPolynomial((p,))
    raise TypeError(f"cannot coerce {p!r} to IntPolynomial")


X = IntPolynomial((0, 1))


def monomial_shift(c: int) -> IntPolynomial:
    """The linear factor x - c."""
    return IntPolynomial((-c, 1))


# ---------------------------------------------------------------------------
# Sturm sequences over the rationals
# ---------------------------------------------------------------------------

def _frac_coeffs(p: IntPolynomial):
    return [Fraction(c) for c in p.coeffs]


def _poly_divmod(a, b):
    """Quotient and remainder of a / b for lists of Fractions, ascending order."""
    a = a[:]
    db, lb = len(b) - 1, b[-1]
    q = [Fraction(0)] * max(len(a) - db, 0)
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        f = a[-1] / lb
        shift = len(a) - 1 - db
        q[shift] = f
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return q, a


def _primitive(coeffs):
    """The primitive integer polynomial that is a positive multiple of a
    nonzero Fraction polynomial: same roots, same sign everywhere."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = gcd(*ints)
    return [c // g for c in ints]


def sturm_sequence(p: IntPolynomial):
    """Sturm chain of p, every member divided by the last, gcd(p, p'), as
    lists of integer coefficients (each a positive multiple of the member).

    Dividing through leaves the sign variations unchanged wherever the gcd
    does not vanish and keeps them meaningful at a multiple root of p, where
    every member of the undivided chain is zero; either way the chain counts
    distinct roots.
    """
    if p.is_zero():
        raise ValueError("Sturm sequence of the zero polynomial")
    seq = [_frac_coeffs(p)]
    d = _frac_coeffs(p.derivative())
    if d:
        seq.append(d)
    while len(seq[-1]) > 1:
        _, r = _poly_divmod(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in r])
    g = seq[-1]
    if len(g) > 1:
        seq = [_poly_divmod(f, g)[0] for f in seq]
    return [_primitive(f) for f in seq]


def _sign_variations(seq, x: Fraction) -> int:
    """Sign changes along the chain at x, zeros skipped.  A member f of
    degree d is evaluated as den^d * f(num / den) in integers, which has the
    sign of f(x)."""
    num, den = x.numerator, x.denominator
    powers = [1]
    for _ in seq[0][1:]:
        powers.append(powers[-1] * den)
    signs = []
    for coeffs in seq:
        d = len(coeffs) - 1
        acc = 0
        for i in range(d, -1, -1):
            acc = acc * num + coeffs[i] * powers[d - i]
        if acc:
            signs.append(acc > 0)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(p: IntPolynomial, lo: Fraction, hi: Fraction, seq=None) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    if hi <= lo:
        return 0
    if seq is None:
        seq = sturm_sequence(p)
    return _sign_variations(seq, lo) - _sign_variations(seq, hi)


def root_bound(p: IntPolynomial) -> Fraction:
    """Cauchy bound: all real roots lie in [-B, B]."""
    if p.degree < 1:
        raise ValueError("constant polynomial has no root bound")
    lead = abs(p.leading)
    m = max(abs(c) for c in p.coeffs[:-1]) if p.degree else 0
    return 1 + Fraction(m, lead)


def _halve(seq, a: Fraction, b: Fraction, va: int, vb: int):
    """One bisection step on (a, b], whose ends have Sturm sign variations va
    and vb: evaluate the chain once at the midpoint and return the half that
    holds the largest root in (a, b], with its own end variations."""
    mid = (a + b) / 2
    vm = _sign_variations(seq, mid)
    if vm > vb:
        return mid, b, vm, vb
    return a, mid, va, vm


def isolate_largest_root(p: IntPolynomial, lo=None, hi=None, seq=None):
    """Return Fractions (a, b) with exactly one root of p in (a, b], that root
    being the largest real root of p inside [lo, hi].

    Returns None when p has no real root in the window.  `seq`, when given,
    is the Sturm chain of p.
    """
    if p.degree < 1:
        raise ValueError("cannot isolate roots of a constant polynomial")
    bound = root_bound(p)
    a = Fraction(lo) if lo is not None else -bound - 1
    b = Fraction(hi) if hi is not None else bound
    if seq is None:
        seq = sturm_sequence(p)
    va, vb = _sign_variations(seq, a), _sign_variations(seq, b)
    if b <= a or va == vb:
        if lo is None or p(a) != 0:
            return None
        # root on the left end of a user window: bracket it in (a - 1/2, a]
        a, b, vb = a - Fraction(1, 2), a, va
        va = _sign_variations(seq, a)
    while va - vb > 1:
        a, b, va, vb = _halve(seq, a, b, va, vb)
    return a, b


def refine_root(p: IntPolynomial, lo: Fraction, hi: Fraction, tol: float = 1e-12,
                seq=None):
    """Shrink an isolating interval (lo, hi] down to width <= tol by bisection
    driven by Sturm counts, then return the midpoint as a float.  `seq`, when
    given, is the Sturm chain of p."""
    if seq is None:
        seq = sturm_sequence(p)
    lo, hi = Fraction(lo), Fraction(hi)
    vlo, vhi = _sign_variations(seq, lo), _sign_variations(seq, hi)
    if hi <= lo or vlo - vhi != 1:
        raise ValueError("interval does not isolate exactly one root")
    t = Fraction(tol).limit_denominator(10 ** 18)
    while hi - lo > t:
        mid = (lo + hi) / 2
        if p(mid) == 0:
            return float(mid)
        lo, hi, vlo, vhi = _halve(seq, lo, hi, vlo, vhi)
    return float((lo + hi) / 2)


def largest_real_root(p: IntPolynomial, bracket, tol: float = 1e-12) -> float:
    """Largest real root of p inside the bracket, certified by Sturm counting
    before bisection refinement.

    Raises ValueError when p has no root in the bracket.
    """
    if p.degree < 1:
        raise ValueError("nonconstant polynomial required")
    lo, hi = bracket
    seq = sturm_sequence(p)
    iso = isolate_largest_root(p, lo, hi, seq)
    if iso is None:
        raise ValueError(f"no real root of {p.pretty()} in [{lo}, {hi}]")
    return refine_root(p, iso[0], iso[1], tol, seq)


# ---------------------------------------------------------------------------
# Exact comparison of largest roots (the near-tie discriminator)
# ---------------------------------------------------------------------------

MAX_SEPARATION_STEPS = 512


def _poly_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    a, b = _frac_coeffs(p), _frac_coeffs(q)
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return IntPolynomial(_primitive(a) if a else ())


def compare_largest_roots(p: IntPolynomial, q: IntPolynomial) -> int:
    """Exact three-way comparison of the largest real roots of p and q.

    Returns -1, 0 or 1.  Both polynomials must have at least one real root.
    """
    sp, sq = sturm_sequence(p), sturm_sequence(q)
    ip = isolate_largest_root(p, seq=sp)
    iq = isolate_largest_root(q, seq=sq)
    if ip is None or iq is None:
        raise ValueError("both polynomials must have a real root")
    (alo, ahi), (blo, bhi) = ip, iq
    # A gcd root in (alo, ahi] is p's largest root, one in (blo, bhi] is q's;
    # each is also a root of the other polynomial, so they are equal.  Every
    # exact tie shows here, so the bisection below only has to separate.
    g = _poly_gcd(p, q)
    if g.degree >= 1:
        sg = sturm_sequence(g)
        if count_roots(g, alo, ahi, sg) and count_roots(g, blo, bhi, sg):
            return 0
    va, vb = _sign_variations(sp, alo), _sign_variations(sp, ahi)
    wa, wb = _sign_variations(sq, blo), _sign_variations(sq, bhi)
    for _ in range(MAX_SEPARATION_STEPS):
        # the brackets are half-open, so ahi <= blo puts p's root below q's
        if ahi <= blo:
            return -1
        if bhi <= alo:
            return 1
        alo, ahi, va, vb = _halve(sp, alo, ahi, va, vb)
        blo, bhi, wa, wb = _halve(sq, blo, bhi, wa, wb)
    raise RuntimeError("failed to separate largest roots")
