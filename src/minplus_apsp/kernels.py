"""Interchangeable kernels for the numeric matrix product.

All kernels accumulate in float64 regardless of the stored width, and return
a matrix of the input dtype. The naive triple loop is the reference oracle;
the BLAS product is the production dense path; CSR is the sparse path;
Strassen exists for benchmark comparison only and is never auto-selected.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .codec import EncodedMatrix
from .graph import DensityReport

try:
    import numba

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is optional
    _HAVE_NUMBA = False

SPARSE = "sparse"
DENSE_BLOCKED = "dense_blocked"


@dataclass(frozen=True)
class KernelChoice:
    """Kernel-selection policy: density threshold below which the sparse
    kernel runs."""

    kind: str = "auto"
    threshold: float = 0.10

    def __post_init__(self):
        if self.kind not in ("auto", SPARSE, DENSE_BLOCKED):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not 0 < self.threshold < 1:
            raise ValueError(f"threshold {self.threshold} out of (0, 1)")


@dataclass(frozen=True)
class CsrMatrix:
    """Compressed sparse row form of an EncodedMatrix (zeros dropped)."""

    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    # elementwise structural checks are skipped above this nnz; the shape
    # checks still run
    _FULL_VALIDATION_NNZ = 4_000_000

    def __post_init__(self):
        rp, ci, v = self.row_ptr, self.col_idx, self.values
        if len(rp) != self.n + 1 or rp[0] != 0 or rp[-1] != len(v) or len(ci) != len(v):
            raise ValueError("inconsistent CSR structure")
        if (np.diff(rp) < 0).any():
            raise ValueError("row_ptr must be nondecreasing")
        if len(ci) > self._FULL_VALIDATION_NNZ:
            return
        if len(ci) > 1:
            d = np.diff(ci)
            row_start = np.zeros(len(ci) - 1, dtype=bool)
            inner = rp[1:-1][(rp[1:-1] > 0) & (rp[1:-1] < len(ci))]
            row_start[inner - 1] = True
            if (d[~row_start] <= 0).any():
                raise ValueError("col_idx must be strictly increasing within rows")
        if (v == 0).any():
            raise ValueError("explicit zeros are not allowed in CSR values")


def choose_kernel(d: DensityReport, c: KernelChoice) -> str:
    """Sparse strictly below the density threshold, dense otherwise."""
    if c.kind != "auto":
        return c.kind
    return SPARSE if d.density < c.threshold else DENSE_BLOCKED


def _check_dims(a: EncodedMatrix, b: EncodedMatrix):
    if a.data.shape != b.data.shape:
        raise ValueError(f"dimension mismatch: {a.data.shape} vs {b.data.shape}")


if _HAVE_NUMBA:

    @numba.njit(cache=True)
    def _naive_f64(a, b):
        n = a.shape[0]
        c = np.zeros((n, n), dtype=np.float64)
        for i in range(n):
            for j in range(n):
                s = 0.0
                for k in range(n):
                    s += a[i, k] * b[k, j]
                c[i, j] = s
        return c

else:

    def _naive_f64(a, b):
        n = a.shape[0]
        c = np.zeros((n, n), dtype=np.float64)
        for i in range(n):
            for j in range(n):
                s = 0.0
                for k in range(n):
                    s += a[i, k] * b[k, j]
                c[i, j] = s
        return c


def multiply_naive(a: EncodedMatrix, b: EncodedMatrix) -> EncodedMatrix:
    """Triple-loop reference product with a fixed row-major addition order."""
    _check_dims(a, b)
    c = _naive_f64(a.data.astype(np.float64), b.data.astype(np.float64))
    with np.errstate(over="ignore"):
        return EncodedMatrix(c.astype(a.data.dtype, copy=False))


def multiply_dense_blocked(a: EncodedMatrix, b: EncodedMatrix) -> EncodedMatrix:
    """Dense product as one BLAS call, which blocks for the cache itself."""
    _check_dims(a, b)
    c = np.matmul(a.data.astype(np.float64, copy=False), b.data.astype(np.float64, copy=False))
    with np.errstate(over="ignore"):
        return EncodedMatrix(c.astype(a.data.dtype, copy=False))


def _strassen_f64(a, b, cutoff):
    n = a.shape[0]
    if n <= cutoff:
        c = np.empty((n, n), dtype=np.float64)
        np.dot(a, b, out=c)
        return c
    if n % 2:
        ap = np.zeros((n + 1, n + 1))
        bp = np.zeros((n + 1, n + 1))
        ap[:n, :n] = a
        bp[:n, :n] = b
        return _strassen_f64(ap, bp, cutoff)[:n, :n]
    h = n // 2
    a11, a12, a21, a22 = a[:h, :h], a[:h, h:], a[h:, :h], a[h:, h:]
    b11, b12, b21, b22 = b[:h, :h], b[:h, h:], b[h:, :h], b[h:, h:]
    m1 = _strassen_f64(a11 + a22, b11 + b22, cutoff)
    m2 = _strassen_f64(a21 + a22, b11, cutoff)
    m3 = _strassen_f64(a11, b12 - b22, cutoff)
    m4 = _strassen_f64(a22, b21 - b11, cutoff)
    m5 = _strassen_f64(a11 + a12, b22, cutoff)
    m6 = _strassen_f64(a21 - a11, b11 + b12, cutoff)
    m7 = _strassen_f64(a12 - a22, b21 + b22, cutoff)
    c = np.empty((n, n), dtype=np.float64)
    c[:h, :h] = m1 + m4 - m5 + m7
    c[:h, h:] = m3 + m5
    c[h:, :h] = m2 + m4
    c[h:, h:] = m1 - m2 + m3 + m6
    return c


def multiply_strassen(a: EncodedMatrix, b: EncodedMatrix, cutoff: int = 64) -> EncodedMatrix:
    """Strassen recursion with odd-size padding; below cutoff falls back to
    a direct dense product. Benchmark-only; never auto-selected."""
    _check_dims(a, b)
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    c = _strassen_f64(
        a.data.astype(np.float64, copy=False),
        b.data.astype(np.float64, copy=False),
        cutoff,
    )
    with np.errstate(over="ignore"):
        return EncodedMatrix(c.astype(a.data.dtype, copy=False))


def to_csr(a: EncodedMatrix) -> CsrMatrix:
    s = sp.csr_matrix(a.data)
    s.sort_indices()
    return CsrMatrix(n=a.n, row_ptr=s.indptr, col_idx=s.indices, values=s.data)


def from_csr(c: CsrMatrix) -> EncodedMatrix:
    s = sp.csr_matrix((c.values, c.col_idx, c.row_ptr), shape=(c.n, c.n))
    return EncodedMatrix(s.toarray())


def multiply_sparse(a: CsrMatrix, b: CsrMatrix) -> CsrMatrix:
    """Row-by-row sparse product (Gustavson accumulation via scipy's SpGEMM),
    accumulated in float64."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    dtype = a.values.dtype
    sa = sp.csr_matrix(
        (a.values.astype(np.float64, copy=False), a.col_idx, a.row_ptr), shape=(a.n, a.n)
    )
    if b is a:
        sb = sa
    else:
        sb = sp.csr_matrix(
            (b.values.astype(np.float64, copy=False), b.col_idx, b.row_ptr), shape=(b.n, b.n)
        )
    prod = sa @ sb
    prod.sort_indices()
    with np.errstate(over="ignore"):
        values = prod.data.astype(dtype, copy=False)
    return CsrMatrix(n=a.n, row_ptr=prod.indptr, col_idx=prod.indices, values=values)
