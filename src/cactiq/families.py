"""The extremal cactus families and their closed-form spectra.

H(s, k): a hub carrying s triangles and k pendant edges (n = 2s + k + 1).
L(s, k): a hub carrying s triangles, k - 1 pendant edges and one pendant path
of length two (n = 2s + k + 2).

`FamilyParams` is the one description of a member: it decides which (s, k)
are members and what their order is.  `build` is the one constructor,
`members` lists the members with s >= 1 up to an order, and the factored
characteristic polynomials take their exponents from the member at (n, k).
The module also holds the superseded legacy formulas kept for an erratum
regression, and `extremal_answer`, which maps a vertex count plus constraint
to the predicted maximizer, its member and its radius: a closed form when
n = 2m or n = 2m + 1, else the largest root of the H cubic or L quintic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

from .graph import MAX_ORDER, Graph, as_index
from .polynomials import IntPolynomial, _convolve, largest_real_root


# vertices besides the triangles' and the k pendants': the hub, plus the
# inner vertex of L's pendant path
_ORDER_OFFSET = {"H": 1, "L": 2}


@dataclass(frozen=True)
class FamilyParams:
    """Validated (family, s, k) with the derived vertex count; s and k must
    be integers (see `graph.as_index`)."""
    family: str  # "H" or "L"
    s: int
    k: int

    def __post_init__(self):
        if self.family not in _ORDER_OFFSET:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "s", as_index(self.s, "s"))
        object.__setattr__(self, "k", as_index(self.k, "k"))
        if self.s < 0 or self.k < 0:
            raise ValueError("s and k must be nonnegative")
        if self.family == "H" and self.s + self.k < 1:
            raise ValueError("H(0, 0) is degenerate and not constructible")
        if self.family == "L" and self.k < 1:
            raise ValueError("L requires k >= 1")

    @property
    def n(self) -> int:
        return 2 * self.s + self.k + _ORDER_OFFSET[self.family]


def build(params: FamilyParams) -> Graph:
    """Hub 0, triangles {0, 2i+1, 2i+2} for i < s, for L the pendant path
    0-(2s+1)-(2s+2), then a hub pendant on every vertex left.  The order is
    checked before any edge is made; the edges, which `FamilyParams` has
    already checked, go straight into the Graph, each as (u, v), u < v."""
    if params.n > MAX_ORDER:
        raise ValueError(f"order {params.n} exceeds supported maximum "
                         f"{MAX_ORDER}")
    return Graph(params.n, frozenset(_edges(params)))


def _edges(params: FamilyParams):
    s, n = params.s, params.n
    for i in range(s):
        a, b = 2 * i + 1, 2 * i + 2
        yield from ((0, a), (0, b), (a, b))
    rest = 2 * s + 1
    if params.family == "L":
        yield from ((rest, rest + 1), (0, rest))
        rest += 2
    yield from ((0, j) for j in range(rest, n))


def _blocks(params: FamilyParams) -> list:
    """The blocks of `_edges`' member, each as its vertices in cyclic
    order: the triangles (0, 2i+1, 2i+2), then every other edge, in the
    block order of the `graph` module docstring (so L's far path edge
    comes before the edge that joins it to the hub)."""
    s = params.s
    triangles = [(0, 2 * i + 1, 2 * i + 2) for i in range(s)]
    return triangles + list(islice(_edges(params), 3 * s, None))


def build_H(s: int, k: int) -> Graph:
    """H(s, k): hub 0, triangles {0, 2i+1, 2i+2}, pendants 2s+1..2s+k."""
    return build(FamilyParams("H", s, k))


def build_L(s: int, k: int) -> Graph:
    """L(s, k): hub 0, triangles {0, 2i+1, 2i+2}, pendant path
    0-(2s+1)-(2s+2), then k-1 pendants."""
    return build(FamilyParams("L", s, k))


def members(family: str, max_n: int):
    """Every member of family "H" or "L" with s >= 1 and order <= max_n, in
    (s, k) order, made lazily; max_n and the family are checked at the
    call.  max_n must be an integer (see `graph.as_index`)."""
    max_n = as_index(max_n, "max_n")
    if family not in _ORDER_OFFSET:
        raise ValueError(f"unknown family {family!r}")
    # the order 2s + k + offset is at most max_n
    top = max_n - _ORDER_OFFSET[family]
    least_k = 0 if family == "H" else 1
    return (FamilyParams(family, s, k)
            for s in range(1, (top - least_k) // 2 + 1)
            for k in range(least_k, top - 2 * s + 1))


# ---------------------------------------------------------------------------
# Closed-form characteristic polynomials
# ---------------------------------------------------------------------------

def h_cubic(n: int, k: int) -> IntPolynomial:
    """The cubic factor for H: x^3 - (n+3)x^2 + 3n x - 2n + 2k + 2."""
    return IntPolynomial((-2 * n + 2 * k + 2, 3 * n, -(n + 3), 1))


def l_quintic(n: int, k: int) -> IntPolynomial:
    """The quintic factor for L."""
    return IntPolynomial((-2 * n + 2 * k + 4, 9 * n - 6 * k - 12,
                          -(12 * n - 2 * k - 10), 6 * n + 4, -(n + 5), 1))


def _binomial_power(c: int, e: int) -> list:
    """The ascending coefficients of (x - c)^e, by the binomial theorem."""
    return [math.comb(e, i) * (-c) ** (e - i) for i in range(e + 1)]


def _closed_form(family: str, core, n: int, k: int) -> IntPolynomial:
    """(x-1)^e1 (x-3)^e3 times core(n, k), the factored formula shape of the
    member of family H or L with order n, k pendants and s >= 1:
    e1 = s + k - 1 and e3 = s - 1 for H, e1 = s + k - 2 and e3 = s - 1 for L.
    Both powers are expanded by binomials and convolved once with the core.
    n and k must be integers (see `graph.as_index`); any other (n, k) raises
    ValueError."""
    n, k = as_index(n, "n"), as_index(k, "k")
    if family not in _ORDER_OFFSET:
        raise ValueError(f"unknown family {family!r}")
    twice_s = n - k - _ORDER_OFFSET[family]
    if twice_s < 2 or twice_s % 2:
        raise ValueError(f"{family} has no member with s >= 1 "
                         f"at n = {n}, k = {k}")
    p = FamilyParams(family, twice_s // 2, k)
    e1 = p.s + p.k - (1 if family == "H" else 2)
    factor = _convolve(_binomial_power(1, e1), _binomial_power(3, p.s - 1))
    return IntPolynomial(_convolve(factor, core(n, k).coeffs))


def psi_H(n: int, k: int) -> IntPolynomial:
    """Characteristic polynomial of Q(H(s, k)) with n = 2s + k + 1, expanded:
    (x-1)^((n+k-3)/2) (x-3)^((n-k-3)/2) times the cubic factor."""
    return _closed_form("H", h_cubic, n, k)


def psi_L(n: int, k: int) -> IntPolynomial:
    """Characteristic polynomial of Q(L(s, k)) with n = 2s + k + 2, expanded."""
    return _closed_form("L", l_quintic, n, k)


def legacy_h_cubic(n: int, k: int) -> IntPolynomial:
    return IntPolynomial((n - k - 7, -(n - 4 * k - 12), -(k + 6), 1))


def legacy_l_quintic(n: int, k: int) -> IntPolynomial:
    return IntPolynomial((n - k - 8, -(4 * n - 7 * k - 40),
                          4 * n - 14 * k - 54, -(n - 7 * k - 32), -(k + 9), 1))


def psi_legacy(family: str, n: int, k: int) -> IntPolynomial:
    """Superseded published formulas, kept only so tests can pin down the
    documented erratum (they disagree with psi_H/psi_L for n >= 5)."""
    core = legacy_h_cubic if family == "H" else legacy_l_quintic
    return _closed_form(family, core, n, k)


# ---------------------------------------------------------------------------
# Extremal answers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalAnswer:
    """Predicted maximizer, its member of H or L, and its radius."""
    maximizer: Graph
    params: FamilyParams
    radius: float


def _answer(params: FamilyParams, radius: float) -> ExtremalAnswer:
    return ExtremalAnswer(maximizer=build(params), params=params,
                          radius=radius)


def extremal_answer(n: int, matching: int | None = None,
                    pendants: int | None = None) -> ExtremalAnswer:
    """Predicted maximizer of the signless Laplacian spectral radius over
    cacti on n vertices, under at most one of the two constraints.

    matching constraint: perfect-matching case for n = 2m, the closed form
    for n = 2m + 1, and the cubic's largest root for n >= 2m + 2.
    pendant constraint: H(s, k) when n - k is odd, L(s, k) when even.
    no constraint: the answer for matching number floor(n/2).
    n and a given constraint must be integers (see `graph.as_index`).
    """
    n = as_index(n, "n")
    if matching is not None:
        matching = as_index(matching, "matching")
    if pendants is not None:
        pendants = as_index(pendants, "pendants")
    if n < 3:
        raise ValueError("n >= 3 required")
    if matching is not None and pendants is not None:
        raise ValueError("at most one constraint")
    # all signless Laplacian eigenvalues lie in [0, 2(n-1)]
    bracket = (0.0, float(2 * n))

    if pendants is not None:
        k = pendants
        if not 0 <= k < n:
            raise ValueError(f"pendant count {k} infeasible for n = {n}")
        if (n - k) % 2 == 1:
            params = FamilyParams("H", (n - k - 1) // 2, k)
            return _answer(params, largest_real_root(h_cubic(n, k), bracket))
        if k == 0:
            raise ValueError("no prediction for even n - k with zero pendants")
        params = FamilyParams("L", (n - k - 2) // 2, k)
        return _answer(params, largest_real_root(l_quintic(n, k), bracket))

    m = n // 2 if matching is None else matching
    if not 1 <= m <= n // 2:
        raise ValueError(f"matching number {m} infeasible for n = {n}")
    if n == 2 * m:
        return _answer(FamilyParams("H", m - 1, 1),
                       (n + 1 + math.sqrt(n * n - 2 * n + 9)) / 2)
    if n == 2 * m + 1:
        return _answer(FamilyParams("H", m, 0),
                       (n + 2 + math.sqrt(n * n - 4 * n + 12)) / 2)
    k = n - 2 * m + 1
    return _answer(FamilyParams("H", m - 1, k),
                   largest_real_root(h_cubic(n, k), bracket))


def superseded_conjecture_bound(n: int) -> float:
    """The superseded odd-case bound (5 + sqrt(4n - 3)) / 2, kept only for the
    negative regression check; the proved bound is strictly larger at n = 5."""
    return (5 + math.sqrt(4 * n - 3)) / 2
