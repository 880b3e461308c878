"""Quotient matrices of partitioned matrices and the structured spectral
decomposition for block matrices of the form M_ii = l_i*J + p_i*I,
M_ij = s_ij*J: the spectrum is the quotient spectrum plus each p_i with
multiplicity n_i - 1.

Matrices and their quotients are plain numpy arrays: `quotient_matrix` and
`is_equitable` take any square array-like, `quotient_matrix` returns a float
array, and `build_from_spec` returns an int array for integer parameters.
Numeric eigenvalues that lie within CLUSTER_TOL are merged into one
eigenvalue with multiplicity.

A `BlockSpec` is the block form's sizes and parameters, checked on one
float array, which it keeps; `structured_spectrum` gives its spectrum as a
`SpectrumMultiset` of (value, multiplicity) pairs, from the float quotient
broadcast over that array, and `quotient_char_poly` gives its quotient's
exact characteristic polynomial from the exact rows.  `IndexPartition` is
any ordered partition of 0..n-1, the argument of `quotient_matrix` and
`is_equitable`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .graph import as_index
from .polynomials import IntPolynomial
from .spectra import char_poly

CLUSTER_TOL = 1e-6


@dataclass(frozen=True)
class IndexPartition:
    """Ordered partition of 0..n-1 into nonempty disjoint blocks of integer
    indices (see `graph.as_index`)."""
    blocks: tuple

    def __init__(self, blocks):
        blocks = tuple(tuple(as_index(i, "partition index") for i in b)
                       for b in blocks)
        if any(not b for b in blocks):
            raise ValueError("empty partition block")
        flat = [i for b in blocks for i in b]
        n = len(flat)
        if sorted(flat) != list(range(n)):
            raise ValueError("blocks must partition 0..n-1 exactly")
        object.__setattr__(self, "blocks", blocks)

    @property
    def order(self) -> int:
        return sum(len(b) for b in self.blocks)


class BlockSpec:
    """Structured symmetric block matrix: integer sizes n_i, diagonal
    parameters (l_i, p_i), off-diagonal parameters s_ij = s_ji, all finite.

    Parameters that numpy reads as one array of real numbers are checked on
    that array, which the spec keeps as floats, l then p then s row by row,
    for `quotient_eigenvalues`; any other parameters are checked entry by
    entry, so a str, None or complex raises TypeError as `math.isfinite`
    does.  Symmetry is one comparison of s with its transpose; only a
    refused table is scanned, for the first asymmetric (i, j)."""

    __slots__ = ("sizes", "l", "p", "s", "_floats")

    def __init__(self, sizes, l, p, s):
        self.sizes = tuple(as_index(x, "block size") for x in sizes)
        t = len(self.sizes)
        self.l = tuple(l)
        self.p = tuple(p)
        self.s = tuple(tuple(row) for row in s)
        if any(n < 1 for n in self.sizes):
            raise ValueError("block sizes must be >= 1")
        if len(self.l) != t or len(self.p) != t:
            raise ValueError("parameter lists must match block count")
        if len(self.s) != t or any(len(row) != t for row in self.s):
            raise ValueError("s must be a t x t table")
        values = [*self.l, *self.p, *chain.from_iterable(self.s)]
        self._floats = _real_array(values)
        if self._floats is not None:
            finite = np.isfinite(self._floats).all()
        else:
            try:
                finite = all(map(math.isfinite, values))
            except OverflowError:  # an integer beyond the float range
                raise ValueError("block parameters must fit a float") from None
        if not finite:
            raise ValueError("block parameters must be finite")
        if self.s != tuple(zip(*self.s)):
            i, j = next((i, j) for i in range(t) for j in range(t)
                        if self.s[i][j] != self.s[j][i])
            raise ValueError(f"s[{i}][{j}] != s[{j}][{i}]: matrix not symmetric")

    @property
    def t(self) -> int:
        return len(self.sizes)

    def is_integer(self) -> bool:
        vals = list(self.l) + list(self.p) + [x for row in self.s for x in row]
        return all(float(v).is_integer() for v in vals)


def _real_array(values):
    """values as a 1-D float array when numpy reads them as bools, ints or
    floats, else None."""
    try:
        arr = np.array(values)
    except (TypeError, ValueError):  # ragged or unreadable entries
        return None
    if arr.shape != (len(values),) or arr.dtype.kind not in "biuf":
        return None
    return arr.astype(float)


@dataclass(frozen=True)
class SpectrumMultiset:
    """Eigenvalues with multiplicities, strictly increasing."""
    pairs: tuple

    @classmethod
    def from_values(cls, values) -> "SpectrumMultiset":
        """Cluster numeric eigenvalues within CLUSTER_TOL of their cluster's
        running mean into (value, multiplicity) pairs."""
        vals = sorted(float(v) for v in values)
        pairs = []
        for v in vals:
            if pairs and v - pairs[-1][0] <= CLUSTER_TOL:
                lam, mult = pairs[-1]
                pairs[-1] = ((lam * mult + v) / (mult + 1), mult + 1)
            else:
                pairs.append((v, 1))
        return cls(tuple(pairs))

    def values(self):
        out = []
        for lam, mult in self.pairs:
            out.extend([lam] * mult)
        return out


def quotient_matrix(m, part: IndexPartition) -> np.ndarray:
    """B(M) as a t x t float array: entry (i, j) is the sum of block M_ij
    divided by its row count.

    Defined unconditionally; equitability is a separate predicate.
    """
    m = _covered(m, part)
    return np.array([[m[np.ix_(bi, bj)].sum() / len(bi) for bj in part.blocks]
                     for bi in part.blocks])


def is_equitable(m, part: IndexPartition) -> bool:
    """True iff every block M_ij of the array M has constant row sums."""
    m = _covered(m, part)
    for bi in part.blocks:
        for bj in part.blocks:
            sums = m[np.ix_(bi, bj)].sum(axis=1)
            if not np.allclose(sums, sums[0], atol=1e-9):
                return False
    return True


def _covered(m, part: IndexPartition) -> np.ndarray:
    """m as a float array, checked to be square with one row per index of
    part."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"quotient requires a square matrix, got shape {m.shape}")
    if part.order != len(m):
        raise ValueError(f"partition covers {part.order} indices, matrix has {len(m)}")
    return m


def build_from_spec(spec: BlockSpec) -> np.ndarray:
    """Expand a BlockSpec into the explicit dense matrix: an int array when
    every parameter is an integer, else a float array."""
    dtype = int if spec.is_integer() else float
    table = np.array(spec.s, dtype=dtype)
    np.fill_diagonal(table, np.array(spec.l, dtype=dtype))
    block = np.repeat(np.arange(spec.t), spec.sizes)
    return (table[np.ix_(block, block)]
            + np.diag(np.array(spec.p, dtype=dtype)[block]))


def spec_quotient_rows(spec: BlockSpec):
    """Rows of the t x t quotient: diagonal l_i*n_i + p_i, off-diagonal s_ij*n_j."""
    t = spec.t
    return [[spec.l[i] * spec.sizes[i] + spec.p[i] if i == j
             else spec.s[i][j] * spec.sizes[j]
             for j in range(t)] for i in range(t)]


def quotient_eigenvalues(spec: BlockSpec):
    """Numeric eigenvalues of the quotient of a symmetric BlockSpec.

    The quotient is diagonally similar to a symmetric matrix under
    D^(1/2) with D = diag(n_i), so the computation stays in eigh.
    """
    d = np.sqrt(np.array(spec.sizes, dtype=float))
    sym = _float_quotient(spec) * (d[:, None] / d[None, :])
    sym = (sym + sym.T) / 2
    return np.linalg.eigvalsh(sym).tolist()


def _float_quotient(spec: BlockSpec) -> np.ndarray:
    """The quotient as a float array, s_ij n_j off the diagonal and
    l_i n_i + p_i on it, broadcast over the spec's floats.  While every
    parameter and size is at most 2^52 / (max n_i + 1) in magnitude, each
    entry is bitwise the float of `spec_quotient_rows`' entry: products and
    sums of integers stay exact in float64, and those of floats round as
    Python's do.  Past that bound, or for parameters that are no array of
    real numbers, the rows are converted instead."""
    floats, t = spec._floats, spec.t
    sizes = np.array(spec.sizes, dtype=float)
    if (floats is None or np.abs(floats).max(initial=0.0)
            * (sizes.max(initial=0.0) + 1) > 2.0 ** 52):
        return np.array(spec_quotient_rows(spec), dtype=float)
    quotient = floats[2 * t:].reshape(t, t) * sizes
    quotient[np.diag_indices(t)] = floats[:t] * sizes + floats[t:2 * t]
    return quotient


def quotient_char_poly(spec: BlockSpec) -> IntPolynomial:
    """Exact characteristic polynomial of the quotient matrix, for integer
    parameters.  No command calls it; the tests check it against the dense
    matrix's."""
    if not spec.is_integer():
        raise ValueError("exact quotient requires integer parameters")
    rows = [[int(x) for x in row] for row in spec_quotient_rows(spec)]
    return char_poly(rows)


def structured_spectrum(spec: BlockSpec) -> SpectrumMultiset:
    """Full spectrum of the structured matrix: quotient eigenvalues united
    with each p_i at multiplicity n_i - 1."""
    values = list(quotient_eigenvalues(spec))
    for p_i, n_i in zip(spec.p, spec.sizes):
        values.extend([float(p_i)] * (n_i - 1))
    return SpectrumMultiset.from_values(values)
