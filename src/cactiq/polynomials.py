"""Exact integer polynomials, Sturm sequences and certified real-root isolation.

All coefficients are arbitrary-precision Python integers, stored in ascending
degree order.  Root counting and isolation run over `fractions.Fraction`, so
every bracket produced here is a rigorous statement, not a floating-point one.
"""

from __future__ import annotations

import json
from fractions import Fraction


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


def _poly_rem(a, b):
    """Remainder of a / b for lists of Fractions, ascending order."""
    a = a[:]
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        f = a[-1] / lb
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def sturm_sequence(p: IntPolynomial):
    """Standard Sturm chain of p as lists of Fraction coefficients."""
    if p.is_zero():
        raise ValueError("Sturm sequence of the zero polynomial")
    seq = [_frac_coeffs(p)]
    d = _frac_coeffs(p.derivative())
    if d:
        seq.append(d)
    while len(seq[-1]) > 1:
        r = _poly_rem(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in r])
    return seq


def _eval_frac(coeffs, x: Fraction):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sign_variations(seq, x: Fraction) -> int:
    signs = []
    for coeffs in seq:
        v = _eval_frac(coeffs, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
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
    total = count_roots(p, a, b, seq)
    if total == 0:
        if lo is not None and p(a) == 0:
            # root sitting exactly on the left endpoint of a user bracket
            eps = Fraction(1, 2)
            while count_roots(p, a - eps, a, seq) != 1:
                eps /= 2
            return a - eps, a
        return None
    while count_roots(p, a, b, seq) > 1:
        mid = (a + b) / 2
        if count_roots(p, mid, b, seq) >= 1:
            a = mid
        else:
            b = mid
    return a, b


def refine_root(p: IntPolynomial, lo: Fraction, hi: Fraction, tol: float = 1e-12,
                seq=None):
    """Shrink an isolating interval (lo, hi] down to width <= tol by bisection
    driven by Sturm counts, then return the midpoint as a float.  `seq`, when
    given, is the Sturm chain of p."""
    if seq is None:
        seq = sturm_sequence(p)
    lo, hi = Fraction(lo), Fraction(hi)
    if count_roots(p, lo, hi, seq) != 1:
        raise ValueError("interval does not isolate exactly one root")
    t = Fraction(tol).limit_denominator(10 ** 18)
    while hi - lo > t:
        mid = (lo + hi) / 2
        if p(mid) == 0:
            return float(mid)
        if count_roots(p, mid, hi, seq) == 1:
            lo = mid
        else:
            hi = mid
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

def _poly_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    a, b = _frac_coeffs(p), _frac_coeffs(q)
    while b:
        a, b = b, _poly_rem(a, b)
    if not a:
        return IntPolynomial(())
    # clear denominators and content
    from math import gcd, lcm
    denom = lcm(*[c.denominator for c in a]) if len(a) > 1 else a[0].denominator
    ints = [int(c * denom) for c in a]
    g = 0
    for c in ints:
        g = gcd(g, c)
    return IntPolynomial(c // g for c in ints)


def compare_largest_roots(p: IntPolynomial, q: IntPolynomial,
                          max_iter: int = 512) -> int:
    """Exact three-way comparison of the largest real roots of p and q.

    Returns -1, 0 or 1.  Both polynomials must have at least one real root.
    """
    sp, sq = sturm_sequence(p), sturm_sequence(q)
    ip = isolate_largest_root(p, seq=sp)
    iq = isolate_largest_root(q, seq=sq)
    if ip is None or iq is None:
        raise ValueError("both polynomials must have a real root")
    (alo, ahi), (blo, bhi) = ip, iq
    g = _poly_gcd(p, q)
    sg = sturm_sequence(g) if g.degree >= 1 else None
    for _ in range(max_iter):
        if ahi < blo or (ahi == blo and q(blo) != 0):
            return -1
        if bhi < alo or (bhi == alo and p(alo) != 0):
            return 1
        if sg is not None:
            lo, hi = min(alo, blo), max(ahi, bhi)
            if (count_roots(g, lo, hi, sg) >= 1
                    and count_roots(g, alo, ahi, sg) >= 1
                    and count_roots(g, blo, bhi, sg) >= 1):
                # the shared factor owns both isolated roots: exact tie
                return 0
        mid = (alo + ahi) / 2
        if count_roots(p, mid, ahi, sp) == 1:
            alo = mid
        else:
            ahi = mid
        mid = (blo + bhi) / 2
        if count_roots(q, mid, bhi, sq) == 1:
            blo = mid
        else:
            bhi = mid
    raise RuntimeError("failed to separate largest roots")
