"""Diagonal PSD operator — the positive-LP special case.

When every constraint matrix is diagonal, the packing SDP
``sum_i x_i A_i <= I`` reduces coordinate-wise to a positive packing LP
(Section 1.2 of the paper: axis-aligned ellipses).  Representing diagonal
constraints explicitly keeps their cost at ``O(m)`` per operation and lets
experiment E7 compare the SDP solver against the dedicated positive-LP
algorithms in :mod:`repro.lp` on identical instances.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import InvalidProblemError
from repro.operators.psd_operator import PSDOperator


class DiagonalPSDOperator(PSDOperator):
    """PSD operator ``A = diag(d)`` with ``d >= 0`` stored as a vector."""

    def __init__(self, diagonal: np.ndarray, validate: bool = True) -> None:
        diagonal = np.asarray(diagonal, dtype=np.float64).ravel()
        if validate:
            if not np.all(np.isfinite(diagonal)):
                raise InvalidProblemError("diagonal contains NaN or infinite entries")
            if np.any(diagonal < 0):
                raise InvalidProblemError(
                    "diagonal PSD operator requires non-negative entries; "
                    f"min entry is {diagonal.min():.3e}"
                )
        self._diag = diagonal
        self.dim = diagonal.shape[0]

    @property
    def diagonal(self) -> np.ndarray:
        """The diagonal entries (read-only copy)."""
        return self._diag.copy()

    def to_dense(self) -> np.ndarray:
        return np.diag(self._diag)

    def trace(self) -> float:
        return float(self._diag.sum())

    def dot(self, weight: np.ndarray) -> float:
        return float(np.sum(self._diag * np.diag(weight)))

    def matvec(self, vector: np.ndarray) -> np.ndarray:
        if vector.ndim == 1:
            return self._diag * vector
        return self._diag[:, None] * vector

    def add_to(self, accumulator: np.ndarray, coeff: float = 1.0) -> None:
        idx = np.arange(self.dim)
        accumulator[idx, idx] += coeff * self._diag

    def gram_factor(self) -> np.ndarray:
        return np.diag(np.sqrt(self._diag))

    def gram_factor_raw(self) -> sp.csr_matrix:
        """Sparse factor ``diag(sqrt(d))`` — ``m`` stored entries instead of
        the dense ``m x m`` of :meth:`gram_factor`, so packing ``n`` diagonal
        constraints stays at ``O(n m)`` memory rather than ``O(n m^2)``."""
        return sp.diags(np.sqrt(self._diag), format="csr")

    @property
    def nnz(self) -> int:
        """Nonzero diagonal entries."""
        return int(np.count_nonzero(self._diag))

    @property
    def gram_factor_is_exact(self) -> bool:
        """``diag(sqrt(d)) diag(sqrt(d))^T = diag(d)`` by construction."""
        return True

    def scaled(self, coeff: float) -> "DiagonalPSDOperator":
        return DiagonalPSDOperator(self._scale_coefficient(coeff) * self._diag, validate=False)

    def spectral_norm(self) -> float:
        return float(self._diag.max(initial=0.0))
