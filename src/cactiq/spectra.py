"""Signless Laplacian matrices, numeric spectral radii with Perron vectors,
and exact integer characteristic polynomials.

Every matrix is a plain numpy array: Q(G) is an (n, n) int array,
`spectral_radius` takes any nonempty square symmetric array-like, and the
exact path, `char_polys`, takes a stack of same-order int matrices;
`char_poly` is its one-matrix call.  Q is built from edge lists in one
place, `_q_stack`, and every solve of many graphs hands it same-order edge
lists: `stacked_eigenpairs` for radii, Perron vectors and rigorous bounds
on the radii, or the caller's own stack cast to int for `char_polys`.  The
numeric path is one stacked call of LAPACK's symmetric eigensolver
(tridiagonalization + implicit-shift QR) per RADII_SLICE same-order
matrices; the residual gate's product Q y then gives each radius a lower
bound (Rayleigh) and an upper bound (Collatz-Wielandt), rounding-safe
whatever order BLAS sums in (`_bounds`).  With no solve at all,
`power_step_lower` bounds the radius of each of a list of same-order edge
lists from given rows x, by the Rayleigh quotient at one power step Q x;
it and `_q_stack` read the edges through one index builder, `_edge_index`.
The exact path advances the powers of every matrix of the stack by batched
float64 matrix products whose every value is an integer of magnitude at
most 2^52: the powers themselves while that bound allows, then their
residues modulo a few pairwise-coprime moduli shared by the stack.  The
powers that the stack's bounds prove exact are counted up front,
A^(k+1) = A^k A while b c^(k-1) w <= 2^52 (b = max|a|, c the largest
column sum of |A|, w the largest sum of |a_ij| over one matrix), written
into one power array and traced in one call, so they cost one product each
and a fixed number of other array calls; a step guarded by max|A^k| itself
continues past them.
It rebuilds each power sum tr(A^k) by the Chinese remainder theorem under
a Schur bound on |tr A^k| and turns the sums into coefficients by Newton's
identities over Z, so the characteristic polynomial carries no
floating-point error at all.  It takes matrices with
n * max|a| <= WORD_LIMIT = 2^26; Q of a graph on n <= 64 vertices has
n * max|a| <= 64 * 63.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from math import gcd, isqrt
from operator import mul

import numpy as np

from .graph import Graph
from .polynomials import IntPolynomial

# Largest eigenpair residual accepted, relative to max(1, |radius|).
RESIDUAL_GATE = 1e-10


@dataclass(frozen=True)
class SpectralResult:
    """Largest eigenvalue with its (sign-fixed) unit eigenvector."""
    radius: float
    perron: tuple


def _edge_index(edge_lists):
    """The list index k and the ends u, v of every edge of a sequence of
    lists of (u, v) int pairs, as three int arrays, from one pass over the
    chained edges."""
    sizes = [len(edges) for edges in edge_lists]
    u, v = np.fromiter(chain.from_iterable(chain.from_iterable(edge_lists)),
                       dtype=np.intp, count=2 * sum(sizes)).reshape(-1, 2).T
    return np.repeat(np.arange(len(sizes)), sizes), u, v


def _q_stack(n: int, edge_lists) -> np.ndarray:
    """Q of every list of (u, v) int pairs on vertices 0..n-1, as one
    (N, n, n) float array: the 1s indexed by `_edge_index`, the degrees
    written through the diagonal stride n + 1 of the same array seen as
    (N, n^2)."""
    k, u, v = _edge_index(edge_lists)
    flat = np.zeros((len(edge_lists), n * n))
    stack = flat.reshape(-1, n, n)
    stack[k, u, v] = stack[k, v, u] = 1.0
    flat[:, ::n + 1] = stack.sum(axis=2)
    return stack


def _top_eigenpairs(stack: np.ndarray):
    """Largest eigenvalue and its sign-fixed unit eigenvector for every
    matrix of a symmetric (N, n, n) stack, as two arrays, and the product
    of each matrix with its vector, as a third, (N, n) array.

    A residual above RESIDUAL_GATE relative to max(1, |radius|), or a
    radius or residual that is not finite, raises RuntimeError."""
    try:
        # eigh: the values-only solver's top eigenvalue differs in the last bits
        w, vecs = np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc
    radius, vec = w[:, -1], vecs[:, :, -1]
    vec = np.where(vec.sum(axis=1, keepdims=True) < 0, -vec, vec)
    product = (stack @ vec[:, :, None])[:, :, 0]
    residual = np.linalg.norm(product - radius[:, None] * vec, axis=1)
    # written so that a NaN residual or an infinite radius fails the gate
    bad = np.flatnonzero(~(np.isfinite(radius) & (
        residual <= RESIDUAL_GATE * np.maximum(1.0, np.abs(radius)))))
    if bad.size:
        raise RuntimeError(f"eigensolver residual {residual[bad[0]]} above "
                           f"tolerance at index {bad[0]}")
    return radius, vec, product


def _one_result(stack: np.ndarray) -> SpectralResult:
    """The SpectralResult of a one-matrix (1, n, n) stack."""
    radius, vec, _ = _top_eigenpairs(stack)
    return SpectralResult(radius=float(radius[0]), perron=tuple(vec[0].tolist()))


def signless_laplacian(g: Graph) -> np.ndarray:
    """Q(G), degree diagonal plus adjacency matrix, as an (n, n) int array."""
    return _q_stack(g.order, [g.edges])[0].astype(int)


def spectral_radius(m) -> SpectralResult:
    """Largest eigenvalue of a symmetric matrix and its eigenvector.

    Takes any square array-like.  For matrices built from connected graphs the
    returned vector is the Perron vector: strictly positive and unit-norm.
    Raises ValueError unless m is nonempty, square, exactly symmetric and
    finite; numeric failure surfaces as RuntimeError carrying the residual
    seen.
    """
    a = np.asarray(m, dtype=float)
    if (a.ndim != 2 or not a.size or not np.isfinite(a).all()
            or not np.array_equal(a, a.T)):
        raise ValueError("spectral_radius requires a nonempty square "
                         "symmetric matrix of finite entries")
    return _one_result(a[None])


def graph_radius(g: Graph) -> SpectralResult:
    """Spectral radius and Perron vector of Q(g), solved from its one-graph
    stack; Q of a Graph is symmetric by construction."""
    return _one_result(_q_stack(g.order, [g.edges]))


# Matrices per stacked eigensolve, so that Q and the eigenvectors held at
# once (2 * RADII_SLICE * n^2 floats) do not grow with the list.
RADII_SLICE = 256

# Vector entries below this are read as 0 by `_bounds`, so that none of its
# products underflows.
_TINY = 2.0 ** -500


def _bounds(stack: np.ndarray, vec: np.ndarray, product: np.ndarray):
    """A lower and an upper bound on the largest eigenvalue q of each matrix
    Q of an (N, n, n) stack of nonnegative symmetric integer matrices, as
    two (N,) arrays, from any float vectors y (the rows of vec) and the
    products Q y that the residual gate formed.

    Let x be y with every entry below _TINY = 2^-500 set to 0, so x >= 0
    and, as y has norm 1 and a nonnegative sum, x != 0.  The exact bounds
    are x^T Q x / x^T x <= q (Rayleigh, Q symmetric) and, when x = y > 0,
    q <= max_v (Q x)_v / x_v (Collatz-Wielandt, Q >= 0; Horn & Johnson,
    Matrix Analysis, section 8.1); with an entry of y below 2^-500 the upper
    bound is +inf.  Q x is the gate's product where x = y; the few rows
    where it may not be (a disconnected graph's vector holds 0 or -1e-17
    at an isolated vertex) are multiplied again by x, in place.

    Rounding.  Let u = 2^-53, gamma_k = k u / (1 - k u) <= 2 k u, and
    theta_k any product of k factors (1 + d)^(+-1) with |d| <= u, so
    |theta_k| <= gamma_k (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Lemma 3.1).  A float sum of m terms, in any order
    and with or without FMA, passes each term through at most m - 1
    roundings, and a term that is a rounded product through one more.
    Every term here is nonnegative, so a computed sum of m such products
    lies within a factor 1 +- gamma_m of the exact sum.  Nothing
    underflows: a nonzero entry of x is at least 2^-500, so a nonzero
    product is at least 2^-1000, and a sum of nonnegative normal floats is
    normal.  Nothing overflows: y is a unit vector, and each row of Q sums
    to at most 2 (n - 1).
      Lower.  s_v = fl((Q x)_v) = (Q x)_v (1 + theta_n).  N = fl(sum x_v
    s_v) lies within 1 +- gamma_2n of x^T Q x, D = fl(sum x_v^2) within
    1 +- gamma_n of x^T x, and L = fl(N / D) <= (N / D)(1 + u).  So
    x^T Q x / x^T x >= L (1 - gamma_n) / ((1 + gamma_2n)(1 + u)), while
    fl(L f) <= L f (1 + u).  The bound fl(L f) holds when
    f <= (1 - gamma_n) / ((1 + gamma_2n)(1 + u)^2), whose right side is
    at least (1 - gamma_n)(1 - gamma_2n)(1 - u)^2 >= 1 - (6n + 2) u; so
    f = 1 - (3n + 1) 2^-52.
      Upper.  fl(s_v / x_v) = (Q x)_v / x_v (1 + theta_(n+1)), so the exact
    maximum is at most M / ((1 - gamma_n)(1 - u)), M the float maximum,
    while fl(M c) >= M c (1 - u).  The bound fl(M c) holds when
    c >= 1 / ((1 - gamma_n)(1 - u)^2) and (1 - gamma_n)(1 - u)^2 >= 1 - a,
    a = (2n + 2) u <= 1/2, with 1 / (1 - a) <= 1 + 2a; so
    c = 1 + (2n + 2) 2^-52.  Both f and c are exact floats."""
    n = stack.shape[-1]
    short = vec.min(axis=1) < _TINY
    x = vec
    if short.any():
        x = np.where(vec < _TINY, 0.0, vec)
        product[short] = (stack[short] @ x[short, :, None])[:, :, 0]
    lower = (np.einsum("ij,ij->i", x, product) / np.einsum("ij,ij->i", x, x)
             * (1 - (3 * n + 1) * 2.0 ** -52))
    # the divisor is x itself in every row that keeps its upper bound
    upper = ((product / np.maximum(x, _TINY)).max(axis=1)
             * (1 + (2 * n + 2) * 2.0 ** -52))
    upper[short] = np.inf
    return lower, upper


def power_step_lower(n: int, edge_lists, rows) -> np.ndarray:
    """A rigorous lower bound on the largest eigenvalue q_h of Q_h for each
    list h of (u, v) int pairs on vertices 0..n-1, from one power step of
    the matching row x of rows (an (N, n) array-like), as an (N,) array;
    -inf, no certificate, for a row with an entry outside [2^-500, 1] and
    for an empty list.

    One power step is y = Q_h x, read off the edges: each edge uv adds
    x_u + x_v to y_u and to y_v.  The bound is the Rayleigh quotient
    y^T Q_h y / y^T y = sum_uv (y_u + y_v)^2 / sum_v y_v^2 <= q_h (Q_h
    symmetric), whatever rounding made the float vector y, times
    f = 1 - (n + m + 3) 2^-52, m the most edges of a list.  In exact
    arithmetic the quotient at Q_h x is at least the quotient at x, as Q_h
    is positive semidefinite, and the surgery lemmas raise the quotient at
    x, the Perron vector of the graph before the surgery, above its
    radius.

    Rounding, in the terms of `_bounds` (u = 2^-53, gamma_k, theta_k).
    Each term (y_u + y_v)^2 is one rounded sum squared by one rounded
    product, theta_3, and the numerator N sums at most m such terms in any
    order, so N lies within 1 +- gamma_(m+2) of its exact value; the
    denominator D sums n rounded squares, within 1 +- gamma_n; and
    L = fl(N / D) <= (N / D)(1 + u).  Every term is nonnegative, so the
    exact quotient is at least L (1 - gamma_n) / ((1 + gamma_(m+2))(1 + u)),
    while fl(L f) <= L f (1 + u).  The bound fl(L f) holds when
    f <= (1 - gamma_n) / ((1 + gamma_(m+2))(1 + u)^2), whose right side is
    at least (1 - gamma_n)(1 - gamma_(m+2))(1 - u)^2
    >= 1 - (2n + 2m + 6) u = 1 - (n + m + 3) 2^-52, an exact float.
    Nothing underflows: with every entry of x at least 2^-500, each y_v is
    0 (an isolated vertex) or at least 2^-499, so each nonzero square is
    at least 2^-998, and sums of nonnegative normal floats are normal.
    Nothing overflows: with every entry of x at most 1, each y_v is at
    most 2n."""
    k, u, v = index = _edge_index(edge_lists)
    x = np.asarray(rows, dtype=float).reshape(len(edge_lists), n)
    y = _power_step(n, index, x)
    t = y[k, u] + y[k, v]
    num = np.bincount(k, t * t, len(x))
    den = np.einsum("ij,ij->i", y, y)
    out = np.full(len(x), -np.inf)
    np.divide(num, den, out=out, where=(den > 0) & (
        (x >= _TINY) & (x <= 1)).all(axis=1))
    return out * (1 - (n + max(map(len, edge_lists), default=0) + 3)
                  * 2.0 ** -52)


def _power_step(n: int, index, x: np.ndarray) -> np.ndarray:
    """Q_h x for each row x of an (N, n) array and the matching list h of
    the edge index (k, u, v) of `_edge_index`, as an (N, n) array: each
    edge uv adds x_u + x_v to y_u and to y_v."""
    k, u, v = index
    a, b = k * n + u, k * n + v
    flat = x.reshape(-1)
    s = flat[a] + flat[b]
    size = len(x) * n
    return (np.bincount(a, s, size) + np.bincount(b, s, size)).reshape(-1, n)


def stacked_eigenpairs(n: int, count: int, edge_lists):
    """Spectral radius and Perron vector of Q for each of count edge lists
    on n vertices, drawn from an iterable RADII_SLICE at a time, and a
    rigorous lower and upper bound on each radius (`_bounds`), as an (N,)
    array, an (N, n) array of rows and two (N,) arrays; each radius and
    row is bitwise its own solve's."""
    lists = iter(edge_lists)
    radius, perron = np.empty(count), np.empty((count, n))
    lower, upper = np.empty(count), np.empty(count)
    for i in range(0, count, RADII_SLICE):
        j = min(i + RADII_SLICE, count)
        stack = _q_stack(n, list(islice(lists, j - i)))
        radius[i:j], perron[i:j], product = _top_eigenpairs(stack)
        lower[i:j], upper[i:j] = _bounds(stack, perron[i:j], product)
    return radius, perron, lower, upper


# Largest n * max|a| that `char_polys` accepts.  It keeps every modulus at
# least 2^52 / WORD_LIMIT = 2^26, so even at the limit the moduli needed
# number about n.
WORD_LIMIT = 1 << 26


def _moduli(top: int, bound: int):
    """Pairwise-coprime moduli counting down from `top`, just enough that
    their product exceeds 2 * bound, and their CRT weights: the weight of m
    is 1 mod m and 0 mod every other modulus."""
    moduli, prod = [], 1
    while prod <= 2 * bound:
        if gcd(top, prod) == 1:
            moduli.append(top)
            prod *= top
        top -= 1
    weights = [prod // m * pow(prod // m, -1, m) for m in moduli]
    return moduli, weights, prod


def _traces(x: np.ndarray, n: int) -> np.ndarray:
    """The trace of every n x n block of an (N, P n, n) stack, as (N, P)."""
    return x.reshape(len(x), -1, n * n)[:, :, ::n + 1].sum(axis=2)


def _exact_count(n: int, top: int, col: int, weight: int) -> int:
    """How many of the powers A, A^2, ..., A^n of a stack are exact by its
    bounds alone: with top = max|a| and col the largest column sum of |A|,
    max|A^k| <= top col^(k-1), so A^(k+1) = A^k A is taken while
    top col^(k-1) weight <= 2^52."""
    count, bound = 1, top * weight
    while count < n and bound <= 1 << 52:
        count += 1
        bound *= col
    return count


def _exact_traces(a: np.ndarray, count: int, weight: int):
    """tr A^k of every matrix of the (N, n, n) stack a for k = 1, 2, ...
    while the powers stay exact, as one (N, K) array, and the last power
    taken: the next product is taken only while max|A^k| * weight
    <= 2^52.  The first count powers, which `_exact_count` certifies, are
    written into one array and traced in one call; each later power is
    guarded by max|A^k| itself."""
    n = a.shape[-1]
    powers = np.empty((count, *a.shape))
    powers[0] = a
    for k in range(1, count):
        np.matmul(powers[k - 1], a, out=powers[k])
    traces, x = [np.einsum("kjii->jk", powers)], powers[-1]
    while count < n and int(np.abs(x).max()) * weight <= 1 << 52:
        x = x @ a
        traces.append(_traces(x, n))
        count += 1
    return x, np.concatenate(traces, axis=1)


def _reduce(x: np.ndarray, q: np.ndarray, col: np.ndarray) -> None:
    """x - floor(x / m) m in place, m the modulus of each row in col; q is
    scratch of x's shape."""
    np.divide(x, col, out=q)
    np.floor(q, out=q)
    q *= col
    x -= q


def _power_sums(a: np.ndarray, count: int, weight: int, crt) -> list:
    """s_k = tr A^k for k = 1 .. n of every matrix of the (N, n, n) stack
    a, one list of ints per matrix: exact while `_exact_traces` allows,
    then rebuilt from residue traces by CRT on the moduli, weights and
    product crt of `_moduli`, None when count = n.  Two (N, P n, n)
    buffers take turns as the product and the scratch."""
    n = a.shape[-1]
    x, traces = _exact_traces(a, count, weight)
    # every trace is an integer of magnitude at most 2^52: int64 holds it
    sums = traces.astype(np.int64).tolist()
    if traces.shape[1] == n:
        return sums
    moduli, weights, prod = crt
    col = np.repeat(np.array(moduli, dtype=float), n)[:, None]
    x = np.repeat(x[:, None], len(moduli), axis=1).reshape(len(a), -1, n)
    q = np.empty_like(x)
    _reduce(x, q, col)
    residues = []
    for _ in range(n - traces.shape[1]):
        np.matmul(x, a, out=q)
        x, q = q, x
        _reduce(x, q, col)
        residues.append(_traces(x, n))
    for head, rows in zip(sums, np.stack(residues, axis=1).astype(
            np.int64).tolist()):
        for row in rows:
            r = sum(map(mul, row, weights)) % prod
            head.append(r - prod if 2 * r > prod else r)
    return sums


def _newton(sums) -> IntPolynomial:
    """det(xI - A) from the power sums s_1 .. s_n of A by Newton's
    identities k c_k = -(c_(k-1) s_1 + ... + c_0 s_k), where c_k is the
    coefficient of x^(n-k); every division is exact."""
    coeffs = [1]  # c_0 .. c_(k-1)
    for k in range(1, len(sums) + 1):
        t = sum(map(mul, reversed(coeffs), sums))
        if t % k:
            raise ArithmeticError("Newton identity sum not divisible")
        coeffs.append(-(t // k))
    return IntPolynomial(coeffs[::-1])


def char_polys(mats) -> list:
    """Exact characteristic polynomial det(xI - A) of every matrix of a
    stack of same-order square integer matrices, given as an (N, n, n) int
    array or a sequence of (n, n) int arrays or lists of int rows; `[]` is
    the empty stack.  Returns one IntPolynomial per matrix, in stack order.
    Works for any integer matrices, symmetric or not, with
    n * max|a| <= WORD_LIMIT = 2^26.  Raises ValueError on input that is
    not a stack of square matrices, on non-integer entries and on a matrix
    past that limit.

    Each polynomial comes from the power sums s_k = tr(A^k) by Newton's
    identities.  The whole stack is advanced together, one batched product
    X @ A per power, in two phases.  |A| is read once, for b = max|a|,
    c = ||A||_1 the largest column sum of |A|, w the largest sum of |a_ij|
    over one matrix, and, only when the counted powers below stop short of
    A^n, the Frobenius bound of the residue phase, each over the stack.

    Exact phase.  X holds A^k itself.  Every entry and partial sum of X @ A
    is at most max|X| c <= max|X| w in magnitude, and every partial sum of
    its trace at most sum_(i,l) |x_il| |a_li| <= max|X| w.  So while
    max|X| w <= 2^52 the next power and its trace are integers of magnitude
    at most 2^52, which float64 holds exactly whatever order BLAS sums in,
    with or without FMA.  Since max|A^k| <= b c^(k-1), the powers are
    counted up front: A^(k+1) is certainly taken while b c^(k-1) w <= 2^52.
    Those K powers are written into one preallocated (K, N, n, n) array by
    K - 1 products and traced by one call; from A^K a step guarded by
    max|X| w <= 2^52 itself takes each further power, so the phase stops
    at the same power as if every step were guarded.  For Q of every
    cactus on n <= 11 vertices the count alone reaches A^n; for the family
    members of order 12 to 24 it reaches A^9 to A^11, and the guarded step
    takes one to four powers more.

    Residue phase, from the first product that could pass 2^52.  A^k is
    held modulo P pairwise-coprime moduli m <= 2^52 / (n max|a|) as one
    (N, P n, n) float64 array X, starting from A^k reduced, so one step is
    one product X @ A and one reduction y - floor(y / m) m.  Division is
    correctly rounded, so floor(y / m) is the true floor or one more, and
    every residue r has |r| <= m.  Then every entry and partial sum of
    X @ A is an integer of magnitude at most n m max|a| <= 2^52, and so is
    every trace.  Each s_k is rebuilt from its P traces by the Chinese
    remainder theorem, as the residue of least magnitude modulo the product
    M of the moduli.  That is s_k itself once M > 2 |s_k|, and P is chosen
    with M > 2 F^n, F = isqrt(||A||_F^2) + 1 for the largest Frobenius
    norm of the stack.  For k >= 2 Schur's inequality
    sum |lambda|^2 <= ||A||_F^2 gives
    |tr A^k| <= sum |lambda|^k <= ||A||_F^k <= F^n.  For k = 1,
    |tr A| <= sqrt(n) ||A||_F <= F^n, since F >= 2 unless A = 0.  Coprime
    moduli are all the theorem needs; none has to be prime.  They are made
    only when the count K of certainly exact powers is below n, since
    otherwise no residue phase can run; every cactus on n <= 11 vertices
    makes none.  The stack is solved RADII_SLICE // max(K, P) matrices at
    a time (RADII_SLICE // K without moduli), so neither the K exact
    powers nor the P residues held at once grow with it: a stack of zero
    matrices, where K = n, holds RADII_SLICE matrices, not n times as many.
    """
    a = np.asarray(mats)
    if a.shape == (0,):  # [] is the empty stack
        return []
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"char_polys requires a stack of square matrices, "
                         f"got shape {a.shape}")
    if a.dtype.kind not in "iu":
        raise ValueError("char_poly requires exact integer entries")
    count, n = a.shape[:2]
    if not count * n:
        return [IntPolynomial([1]) for _ in range(count)]
    # |A| in floats, where np.abs cannot overflow as on the int64 entry
    # -2^63: rounding keeps every entry up to the limit and the order of
    # every other, so the check is exact; the message reads the ints
    ints, a = a, a.astype(float)
    mag = np.abs(a)
    top = int(mag.max())
    if n * top > WORD_LIMIT:
        raise ValueError(f"char_poly requires n * max|a| <= 2^26, got {n} * "
                         f"{max(int(ints.max()), -int(ints.min()))}")
    # at most n^2 max|a| and (n max|a|)^2 <= 2^52: exact
    cols = mag.sum(axis=1)
    col, weight = int(cols.max()), int(cols.sum(axis=1).max())
    exact = _exact_count(n, top, col, weight)
    crt, held = None, exact
    if exact < n:  # a residue phase may run
        frobenius = int((mag * mag).sum(axis=(1, 2)).max())
        crt = _moduli((1 << 52) // (n * max(top, 1)),
                      (isqrt(frobenius) + 1) ** n)
        held = max(exact, len(crt[0]))
    polys, step = [], max(1, RADII_SLICE // held)
    for i in range(0, count, step):
        polys += map(_newton, _power_sums(a[i:i + step], exact, weight, crt))
    return polys


def char_poly(m) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - A) of one square integer
    matrix A, given as an int array or a list of int rows; `[]` is the
    0 x 0 matrix.  It is `char_polys` of the one-matrix stack, so the same
    limit n * max|a| <= WORD_LIMIT = 2^26 holds.  Raises ValueError on a
    non-square or non-integer matrix and on one past that limit.
    """
    arr = np.asarray(m)
    if arr.shape == (0,):  # [] is the 0 x 0 matrix
        arr = arr.astype(int).reshape(0, 0)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"char_poly requires a square matrix, got shape {arr.shape}")
    return char_polys(arr[None])[0]
