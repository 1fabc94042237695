"""The two kernels for the numeric matrix product, and the rule between them.

The dense kernel is one BLAS product; the sparse kernel is scipy's CSR
product. Both accumulate in float64 regardless of the stored width and
return the input dtype.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .codec import EncodedMatrix
from .graph import DensityReport

SPARSE = "sparse"
DENSE = "dense"


@dataclass(frozen=True)
class KernelChoice:
    """Density threshold below which the sparse kernel runs."""

    threshold: float = 0.10

    def __post_init__(self):
        if not 0 < self.threshold < 1:
            raise ValueError(f"threshold {self.threshold} out of (0, 1)")


def choose_kernel(d: DensityReport, c: KernelChoice) -> str:
    """Sparse strictly below the density threshold, dense otherwise."""
    return SPARSE if d.density < c.threshold else DENSE


def multiply_dense(a: EncodedMatrix, b: EncodedMatrix) -> EncodedMatrix:
    """Dense product as one BLAS call, which blocks for the cache itself."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"dimension mismatch: {a.data.shape} vs {b.data.shape}")
    c = np.matmul(a.data.astype(np.float64, copy=False), b.data.astype(np.float64, copy=False))
    with np.errstate(over="ignore"):
        return EncodedMatrix(c.astype(a.data.dtype, copy=False))


def multiply_sparse(a: sp.csr_array, b: sp.csr_array) -> sp.csr_array:
    """Sparse product by scipy's SpGEMM (Gustavson row accumulation)."""
    prod = a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False)
    with np.errstate(over="ignore"):
        return prod.astype(a.dtype, copy=False)
