"""Explicit low-rank PSD operator ``A = sum_j lambda_j v_j v_j^T``.

Several of the paper's motivating applications produce constraint matrices
that are rank one (MaxCut edge matrices ``(e_u - e_v)(e_u - e_v)^T``,
beamforming steering matrices ``a a^H``) or very low rank.  Storing the
eigenpairs directly makes trace products and matvecs ``O(m * rank)`` and the
Gram factor trivially available.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidProblemError
from repro.operators.psd_operator import PSDOperator


class LowRankPSDOperator(PSDOperator):
    """PSD operator stored as scaled outer products of explicit vectors.

    Parameters
    ----------
    vectors:
        Array of shape ``(m, r)`` whose columns are the directions ``v_j``.
    weights:
        Optional non-negative weights ``lambda_j`` (default all ones), so
        that ``A = sum_j weights[j] * v_j v_j^T``.
    """

    def __init__(self, vectors: np.ndarray, weights: np.ndarray | None = None) -> None:
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim == 1:
            vectors = vectors[:, None]
        if vectors.ndim != 2:
            raise InvalidProblemError("vectors must have shape (m, r)")
        if not np.all(np.isfinite(vectors)):
            raise InvalidProblemError("vectors contain NaN or infinite entries")
        if weights is None:
            weights = np.ones(vectors.shape[1])
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if weights.shape[0] != vectors.shape[1]:
            raise InvalidProblemError(
                f"got {vectors.shape[1]} vectors but {weights.shape[0]} weights"
            )
        if np.any(weights < 0):
            raise InvalidProblemError("weights must be non-negative")
        self._vectors = vectors
        self._weights = weights
        self.dim = vectors.shape[0]
        self.rank = vectors.shape[1]

    @classmethod
    def outer(cls, vector: np.ndarray, weight: float = 1.0) -> "LowRankPSDOperator":
        """Convenience constructor for a single rank-one term ``weight * v v^T``."""
        return cls(np.asarray(vector, dtype=np.float64)[:, None], np.array([weight]))

    def to_dense(self) -> np.ndarray:
        scaled = self._vectors * self._weights
        return scaled @ self._vectors.T

    def trace(self) -> float:
        return float(np.sum(self._weights * np.sum(self._vectors**2, axis=0)))

    def dot(self, weight: np.ndarray) -> float:
        wv = weight @ self._vectors
        return float(np.sum(self._weights * np.sum(self._vectors * wv, axis=0)))

    def matvec(self, vector: np.ndarray) -> np.ndarray:
        inner = self._vectors.T @ vector
        if inner.ndim == 1:
            return self._vectors @ (self._weights * inner)
        return self._vectors @ (self._weights[:, None] * inner)

    def add_to(self, accumulator: np.ndarray, coeff: float = 1.0) -> None:
        scaled = self._vectors * (coeff * self._weights)
        accumulator += scaled @ self._vectors.T

    def gram_factor(self) -> np.ndarray:
        return self._vectors * np.sqrt(self._weights)

    def scaled(self, coeff: float) -> "LowRankPSDOperator":
        return LowRankPSDOperator(self._vectors, self._scale_coefficient(coeff) * self._weights)

    @property
    def nnz(self) -> int:
        """Stored nonzeros across the rank-one vectors and their weights."""
        return int(np.count_nonzero(self._vectors)) + int(np.count_nonzero(self._weights))

    @property
    def gram_factor_is_exact(self) -> bool:
        """``sum_j w_j v_j v_j^T`` factors exactly as ``(V sqrt(w)) (V sqrt(w))^T``."""
        return True

    def spectral_norm(self) -> float:
        factor = self.gram_factor()
        if min(factor.shape) == 0:
            return 0.0
        return float(np.linalg.norm(factor, ord=2) ** 2)
