"""Prefactored PSD operator ``A = Q Q^T`` — the input format of Corollary 1.2.

The nearly-linear-work bound of the paper is stated for inputs "given in a
factorized form": each constraint matrix arrives as an explicit (typically
sparse or tall-skinny) factor ``Q_i``, and the total nonzero count ``q``
across the factors is the work parameter.  This operator stores the factor
and performs every primitive through it, never materialising ``Q Q^T``
unless explicitly asked to.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import InvalidProblemError
from repro.operators.psd_operator import PSDOperator


class FactorizedPSDOperator(PSDOperator):
    """PSD operator represented by a factor ``Q`` with ``A = Q Q^T``.

    Parameters
    ----------
    factor:
        Dense array or scipy sparse matrix of shape ``(m, r)``.  No PSD
        check is needed — every Gram matrix is PSD by construction.
    """

    def __init__(self, factor: np.ndarray | sp.spmatrix) -> None:
        if sp.issparse(factor):
            factor = sp.csr_matrix(factor, dtype=np.float64)
            if factor.ndim != 2:
                raise InvalidProblemError("factor must be 2-dimensional")
            if not np.all(np.isfinite(factor.data)):
                raise InvalidProblemError("factor contains NaN or infinite entries")
            self._sparse = True
        else:
            factor = np.asarray(factor, dtype=np.float64)
            if factor.ndim == 1:
                factor = factor[:, None]
            if factor.ndim != 2:
                raise InvalidProblemError("factor must be 2-dimensional")
            if not np.all(np.isfinite(factor)):
                raise InvalidProblemError("factor contains NaN or infinite entries")
            self._sparse = False
        self._factor = factor
        self.dim = factor.shape[0]
        self.rank = factor.shape[1]

    @property
    def factor(self) -> np.ndarray | sp.spmatrix:
        """The stored factor ``Q`` (shape ``m x r``)."""
        return self._factor

    def _dense_factor(self) -> np.ndarray:
        return self._factor.toarray() if self._sparse else self._factor

    def to_dense(self) -> np.ndarray:
        q = self._dense_factor()
        return q @ q.T

    def trace(self) -> float:
        # Tr[Q Q^T] = ||Q||_F^2, computable in O(nnz(Q)).
        if self._sparse:
            # The sum of Q.multiply(Q) without building it: duplicate
            # entries add before they square, and a zero square (a stored
            # zero, an underflow) is dropped, so the same terms reach the
            # same np.sum in the same order.
            factor = self._factor
            if not factor.has_canonical_format:
                factor = factor.copy()
                factor.sum_duplicates()
            squares = factor.data * factor.data
            return float(np.sum(squares[squares != 0]))
        return float(np.sum(self._factor * self._factor))

    def dot(self, weight: np.ndarray) -> float:
        # A . W = Tr[Q Q^T W] = Tr[Q^T W Q] = sum((W Q) * Q)
        wq = weight @ (self._factor.toarray() if self._sparse else self._factor)
        q = self._dense_factor()
        return float(np.sum(wq * q))

    def matvec(self, vector: np.ndarray) -> np.ndarray:
        inner = self._factor.T @ vector
        return self._factor @ inner

    def add_to(self, accumulator: np.ndarray, coeff: float = 1.0) -> None:
        q = self._dense_factor()
        accumulator += coeff * (q @ q.T)

    def gram_factor(self) -> np.ndarray:
        return self._dense_factor()

    def gram_factor_raw(self) -> np.ndarray | sp.spmatrix:
        """The factor in its native (possibly sparse) representation."""
        return self._factor

    def scaled(self, coeff: float) -> "FactorizedPSDOperator":
        # sqrt(c) Q (sqrt(c) Q)^T = c A; a CSR factor stays CSR.
        return FactorizedPSDOperator(self._scale_coefficient(coeff) ** 0.5 * self._factor)

    @property
    def nnz(self) -> int:
        """Stored nonzeros of the factor (the Corollary 1.2 work unit)."""
        if self._sparse:
            return int(self._factor.nnz)
        return int(np.count_nonzero(self._factor))

    @property
    def gram_factor_is_exact(self) -> bool:
        """The stored factor *is* the operator: ``Q Q^T = A`` exactly."""
        return True

    def spectral_norm(self) -> float:
        # ||Q Q^T||_2 = sigma_max(Q)^2
        if self._sparse:
            q = self._factor.toarray()
        else:
            q = self._factor
        if min(q.shape) == 0:
            return 0.0
        return float(np.linalg.norm(q, ord=2) ** 2)
