"""The two kernels for the numeric matrix product, and the rule between them.

The dense kernel is one BLAS product; the sparse kernel is scipy's CSR
product. Both accumulate in float64 regardless of the stored width and
return the input dtype.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .codec import EncodedMatrix
from .graph import DensityReport

SPARSE = "sparse"
DENSE = "dense"
# the values of SolveOptions.kernel: the density rule, or one kernel forced
KERNEL_NAMES = ("auto", DENSE, SPARSE)
# the paper's sparseness judgment: fewer than 10 % of entries finite
SPARSE_THRESHOLD = 0.10


def choose_kernel(d: DensityReport) -> str:
    """Sparse strictly below SPARSE_THRESHOLD, dense otherwise."""
    return SPARSE if d.density < SPARSE_THRESHOLD else DENSE


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
