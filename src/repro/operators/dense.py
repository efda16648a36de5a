"""Dense PSD operator."""

from __future__ import annotations

import numpy as np

from repro.linalg.factorization import gram_factor
from repro.linalg.psd import check_psd
from repro.operators.psd_operator import PSDOperator
from repro.utils.validation import symmetrize


class DensePSDOperator(PSDOperator):
    """PSD operator backed by a dense ``numpy`` array.

    Parameters
    ----------
    matrix:
        Symmetric PSD ``m x m`` array.
    validate:
        When ``True`` (default) the matrix is checked for symmetry and
        positive semidefiniteness at construction time.  Internal callers
        that construct matrices known to be PSD pass ``False`` to skip the
        ``O(m^3)`` eigenvalue check.
    """

    def __init__(self, matrix: np.ndarray, validate: bool = True) -> None:
        matrix = np.asarray(matrix, dtype=np.float64)
        if validate:
            matrix = check_psd(matrix, "matrix")
        else:
            matrix = symmetrize(matrix)
        self._matrix = matrix
        self.dim = matrix.shape[0]
        self._gram: np.ndarray | None = None

    def to_dense(self) -> np.ndarray:
        return self._matrix.copy()

    def trace(self) -> float:
        return float(np.trace(self._matrix))

    def dot(self, weight: np.ndarray) -> float:
        return float(np.sum(self._matrix * weight))

    def matvec(self, vector: np.ndarray) -> np.ndarray:
        return self._matrix @ vector

    def add_to(self, accumulator: np.ndarray, coeff: float = 1.0) -> None:
        accumulator += coeff * self._matrix

    def gram_factor(self) -> np.ndarray:
        if self._gram is None:
            self._gram = gram_factor(self._matrix)
        return self._gram

    @property
    def nnz(self) -> int:
        """Nonzero entries of the dense matrix."""
        return int(np.count_nonzero(self._matrix))

    def scaled(self, coeff: float) -> "DensePSDOperator":
        return DensePSDOperator(self._scale_coefficient(coeff) * self._matrix, validate=False)

    def spectral_norm(self) -> float:
        if self.dim == 0:
            return 0.0
        return float(np.linalg.eigvalsh(self._matrix)[-1])
