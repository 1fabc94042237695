"""The two kernels for the numeric matrix product, and the rule between them.

Each kernel multiplies in the dtype of its operands, which the solver
chooses by EncodeParams.is_feasible alone. The dense kernel is one BLAS
product, the sparse kernel scipy's CSR product. For a symmetric state the
solver passes the transposed view of E's own buffer as the second operand;
numpy's matmul runs that as ssyrk/dsyrk, half the multiplies of
sgemm/dgemm, and fills both triangles. scipy.sparse is not imported here: it
costs a quarter of a second, and only a solve whose epochs run sparse needs
it (the solver imports it for those).
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .codec import EncodedMatrix
from .graph import DensityReport

if TYPE_CHECKING:
    import scipy.sparse as sp

SPARSE = "sparse"
DENSE = "dense"
# the paper's sparseness judgment: fewer than 10 % of entries finite
SPARSE_THRESHOLD = 0.10


def choose_kernel(d: DensityReport) -> str:
    """Sparse strictly below SPARSE_THRESHOLD, dense otherwise."""
    return SPARSE if d.density < SPARSE_THRESHOLD else DENSE


def multiply_dense(a: EncodedMatrix, b: EncodedMatrix) -> EncodedMatrix:
    """Dense product as one BLAS call, which blocks for the cache itself:
    gemm, or syrk when b is the transposed view of a's buffer."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"dimension mismatch: {a.data.shape} vs {b.data.shape}")
    return EncodedMatrix(np.matmul(a.data, b.data))


def multiply_sparse(a: sp.csr_array, b: sp.csr_array) -> sp.csr_array:
    """Sparse product by scipy's SpGEMM (Gustavson row accumulation)."""
    return a @ b
