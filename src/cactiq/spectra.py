"""Signless Laplacian matrices, numeric spectral radii with Perron vectors,
and exact integer characteristic polynomials.

The numeric path goes through LAPACK's symmetric eigensolver
(tridiagonalization + implicit-shift QR); the exact path is Faddeev-LeVerrier
over arbitrary-precision integers, so the characteristic polynomial carries no
floating-point error at all.
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
        if int_rows is not None:
            int_rows = tuple(tuple(int(x) for x in row) for row in int_rows)
            if len(int_rows) != self.order:
                raise ValueError("integer view has wrong shape")
        self.int_rows = int_rows

    @classmethod
    def from_int_rows(cls, rows) -> "DenseSymMatrix":
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        return cls(rows, int_rows=rows)

    def is_symmetric(self, tol: float = 0.0) -> bool:
        if self.int_rows is not None:
            n = self.order
            return all(self.int_rows[i][j] == self.int_rows[j][i]
                       for i in range(n) for j in range(i))
        return bool(np.allclose(self.data, self.data.T, atol=tol or 1e-12))


@dataclass(frozen=True)
class SpectralResult:
    """Largest eigenvalue with its (sign-fixed) unit eigenvector."""
    radius: float
    perron: tuple
    residual: float


def signless_laplacian(g: Graph) -> DenseSymMatrix:
    """Q(G): degree diagonal plus adjacency matrix."""
    n = g.order
    rows = [[0] * n for _ in range(n)]
    for v in range(n):
        rows[v][v] = g.degree(v)
        for w in g.neighbors(v):
            rows[v][w] = 1
    return DenseSymMatrix.from_int_rows(rows)


def spectral_radius(m: DenseSymMatrix, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Largest eigenvalue of a symmetric matrix and its eigenvector.

    For matrices built from connected graphs the returned vector is the Perron
    vector: strictly positive and unit-norm.  Raises ValueError on
    non-symmetric input; numeric failure surfaces as RuntimeError carrying the
    best residual seen.
    """
    if not m.is_symmetric():
        raise ValueError("spectral_radius requires a symmetric matrix")
    try:
        w, vecs = np.linalg.eigh(m.data)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc
    radius = float(w[-1])
    vec = vecs[:, -1]
    if vec.sum() < 0:
        vec = -vec
    residual = float(np.linalg.norm(m.data @ vec - radius * vec))
    if residual > max(tol, 1e-10) * max(1.0, abs(radius)):
        raise RuntimeError(f"eigensolver residual {residual} above tolerance")
    return SpectralResult(radius=radius, perron=tuple(float(x) for x in vec),
                          residual=residual)


def graph_radius(g: Graph, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Convenience: spectral radius of Q(g)."""
    return spectral_radius(signless_laplacian(g), tol=tol)


def eigenvalues(m: DenseSymMatrix):
    """All eigenvalues, ascending (numeric)."""
    if not m.is_symmetric():
        raise ValueError("symmetric matrix required")
    return [float(x) for x in np.linalg.eigvalsh(m.data)]


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
