"""Signless Laplacian matrices, numeric spectral radii with Perron vectors,
and exact integer characteristic polynomials.

The numeric path is one stacked call of LAPACK's symmetric eigensolver
(tridiagonalization + implicit-shift QR) per list of same-order matrices; the
exact path is Faddeev-LeVerrier over arbitrary-precision integers, so the
characteristic polynomial carries no floating-point error at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .polynomials import IntPolynomial

DEFAULT_TOL = 1e-12


class DenseSymMatrix:
    """Dense symmetric matrix, optionally carrying an exact integer view."""

    __slots__ = ("order", "data", "int_rows")

    def __init__(self, data, int_rows=None):
        arr = np.asarray(data, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"matrix must be square, got shape {arr.shape}")
        self.order = arr.shape[0]
        self.data = arr
        self.data.setflags(write=False)
        self.int_rows = int_rows  # tuple of int tuples; see from_int_rows

    @classmethod
    def from_int_rows(cls, rows) -> "DenseSymMatrix":
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        return cls(rows, int_rows=rows)

    def is_symmetric(self) -> bool:
        if self.int_rows is not None:
            return self.int_rows == tuple(zip(*self.int_rows))
        return bool(np.allclose(self.data, self.data.T, atol=1e-12))


@dataclass(frozen=True)
class SpectralResult:
    """Largest eigenvalue with its (sign-fixed) unit eigenvector."""
    radius: float
    perron: tuple
    residual: float


def _q_stack(graphs) -> np.ndarray:
    """Q of every graph as one (N, n, n) float array; all graphs share n."""
    n = graphs[0].order if graphs else 0
    if any(g.order != n for g in graphs):
        raise ValueError("a stack of Q matrices needs graphs of one order")
    k, u, v = np.fromiter((x for i, g in enumerate(graphs) for e in g.edges
                           for x in (i, *e)), dtype=np.intp).reshape(-1, 3).T
    stack = np.zeros((len(graphs), n, n))
    stack[k, u, v] = stack[k, v, u] = 1.0
    stack[:, range(n), range(n)] = stack.sum(axis=2)
    return stack


def _top_eigenpairs(stack: np.ndarray, tol: float):
    """Largest eigenvalue, its sign-fixed unit eigenvector and its residual
    for every matrix of a symmetric (N, n, n) stack, as three arrays."""
    try:
        # eigh: the values-only solver's top eigenvalue differs in the last bits
        w, vecs = np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc
    radius, vec = w[:, -1], vecs[:, :, -1]
    vec = np.where(vec.sum(axis=1, keepdims=True) < 0, -vec, vec)
    residual = np.linalg.norm((stack @ vec[:, :, None])[:, :, 0]
                              - radius[:, None] * vec, axis=1)
    bad = np.flatnonzero(residual > max(tol, 1e-10)
                         * np.maximum(1.0, np.abs(radius)))
    if bad.size:
        raise RuntimeError(f"eigensolver residual {residual[bad[0]]} above "
                           f"tolerance at index {bad[0]}")
    return radius, vec, residual


def signless_laplacian(g: Graph) -> DenseSymMatrix:
    """Q(G): degree diagonal plus adjacency matrix."""
    q = _q_stack([g])[0]
    return DenseSymMatrix(q, int_rows=tuple(map(tuple, q.astype(int).tolist())))


def spectral_radius(m: DenseSymMatrix, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Largest eigenvalue of a symmetric matrix and its eigenvector.

    For matrices built from connected graphs the returned vector is the Perron
    vector: strictly positive and unit-norm.  Raises ValueError on
    non-symmetric input; numeric failure surfaces as RuntimeError carrying the
    residual seen.
    """
    if not m.is_symmetric():
        raise ValueError("spectral_radius requires a symmetric matrix")
    radius, vec, residual = _top_eigenpairs(m.data[None], tol)
    return SpectralResult(radius=float(radius[0]), perron=tuple(vec[0].tolist()),
                          residual=float(residual[0]))


def graph_radius(g: Graph, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Convenience: spectral radius of Q(g)."""
    return spectral_radius(signless_laplacian(g), tol=tol)


def radii(graphs) -> list:
    """Spectral radius of Q(g) for each graph in a list of same-order graphs,
    from one stacked eigensolve; each equals graph_radius(g).radius exactly."""
    if not graphs:
        return []
    return _top_eigenpairs(_q_stack(graphs), DEFAULT_TOL)[0].tolist()


def char_poly_int_rows(rows) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - A) of an integer matrix by the
    Faddeev-LeVerrier recurrence.  Works for any square integer matrix; all
    divisions are exact."""
    n = len(rows)
    sparse = [[(j, a) for j, a in enumerate(row) if a != 0] for row in rows]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        # AM = A @ M using the sparse rows of A
        AM = [[sum(a * M[j][col] for j, a in sparse[i]) for col in range(n)]
              for i in range(n)]
        tr = sum(AM[i][i] for i in range(n))
        if tr % k:
            raise ArithmeticError("Faddeev-LeVerrier trace not divisible")
        c = -(tr // k)
        coeffs[n - k] = c
        for i in range(n):
            AM[i][i] += c
        M = AM
    return IntPolynomial(coeffs)


def char_poly(m: DenseSymMatrix) -> IntPolynomial:
    """Exact monic characteristic polynomial of a matrix with integer entries.

    Rejects matrices without an exact-integer view.
    """
    if m.int_rows is None:
        raise ValueError("char_poly requires exact integer entries")
    return char_poly_int_rows(m.int_rows)
