"""Sparse (CSR) PSD operator."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import InvalidProblemError
from repro.linalg.factorization import gram_factor
from repro.linalg.psd import check_psd
from repro.operators.psd_operator import PSDOperator


class SparsePSDOperator(PSDOperator):
    """PSD operator backed by a ``scipy.sparse`` matrix (stored as CSR).

    Symmetric sparse matrices that arise from combinatorial instances
    (graph Laplacians for MaxCut, edge matrices, diagonal blocks) keep their
    sparsity; trace products and matvecs cost ``O(nnz)``.
    """

    def __init__(self, matrix: sp.spmatrix, validate: bool = True) -> None:
        if not sp.issparse(matrix):
            raise InvalidProblemError("SparsePSDOperator requires a scipy sparse matrix")
        csr = sp.csr_matrix(matrix, dtype=np.float64)
        if csr.shape[0] != csr.shape[1]:
            raise InvalidProblemError(f"matrix must be square, got {csr.shape}")
        if validate:
            check_psd(csr.toarray(), "matrix")
        self._matrix = csr
        self.dim = csr.shape[0]
        self._gram: np.ndarray | None = None

    def to_dense(self) -> np.ndarray:
        return self._matrix.toarray()

    def trace(self) -> float:
        return float(self._matrix.diagonal().sum())

    def dot(self, weight: np.ndarray) -> float:
        rows, cols = self._matrix.nonzero()
        vals = np.asarray(self._matrix[rows, cols]).ravel()
        return float(np.sum(vals * weight[rows, cols]))

    def matvec(self, vector: np.ndarray) -> np.ndarray:
        return self._matrix @ vector

    def add_to(self, accumulator: np.ndarray, coeff: float = 1.0) -> None:
        rows, cols = self._matrix.nonzero()
        vals = np.asarray(self._matrix[rows, cols]).ravel()
        accumulator[rows, cols] += coeff * vals

    def gram_factor(self) -> np.ndarray:
        if self._gram is None:
            self._gram = gram_factor(self.to_dense())
        return self._gram

    def scaled(self, coeff: float) -> "SparsePSDOperator":
        return SparsePSDOperator(self._scale_coefficient(coeff) * self._matrix, validate=False)

    @property
    def nnz(self) -> int:
        """Stored nonzeros of the sparse matrix."""
        return int(self._matrix.nnz)

    @property
    def sparse(self) -> sp.csr_matrix:
        """The underlying CSR matrix (read-only view)."""
        return self._matrix
