"""Abstract PSD operator interface and the :func:`as_operator` coercion helper."""

from __future__ import annotations

import abc
from typing import Any

import numpy as np
import scipy.sparse as sp


class PSDOperator(abc.ABC):
    """A symmetric positive semidefinite matrix exposed through an operator API.

    Concrete subclasses store the matrix in whatever representation is
    natural (dense array, sparse matrix, diagonal vector, Gram factor) and
    implement the handful of primitives the solvers use.  All operators are
    immutable after construction.

    The interface deliberately mirrors the quantities that appear in the
    paper:

    * :meth:`trace` — ``Tr[A]``, used by the initialisation
      ``x_i(0) = 1 / (n Tr[A_i])`` and the trace bound of Lemma 2.2;
    * :meth:`dot` — ``A . W = Tr[A W]``, the per-iteration oracle output;
    * :meth:`add_to` — accumulate ``coeff * A`` into a dense running sum
      (used to build ``Psi = sum_i x_i A_i``);
    * :meth:`matvec` — ``A @ v``, used by iterative norm estimation;
    * :meth:`gram_factor` — a matrix ``Q`` with ``A = Q Q^T`` (computed
      lazily for representations that do not already store one), the input
      format of Theorem 4.1;
    * :attr:`nnz` — the representation's nonzero count, the work-measure
      unit of Corollary 1.2.
    """

    #: matrix dimension m (set by subclasses)
    dim: int

    # ------------------------------------------------------------------ core
    @abc.abstractmethod
    def to_dense(self) -> np.ndarray:
        """Return the operator as a dense symmetric ``m x m`` array."""

    @abc.abstractmethod
    def trace(self) -> float:
        """Return ``Tr[A]``."""

    @abc.abstractmethod
    def dot(self, weight: np.ndarray) -> float:
        """Return the trace inner product ``A . W`` against a dense matrix ``W``."""

    @abc.abstractmethod
    def matvec(self, vector: np.ndarray) -> np.ndarray:
        """Return ``A @ vector`` (also accepts a block of column vectors)."""

    @abc.abstractmethod
    def add_to(self, accumulator: np.ndarray, coeff: float = 1.0) -> None:
        """Accumulate ``coeff * A`` into the dense array ``accumulator`` in place."""

    @abc.abstractmethod
    def gram_factor(self) -> np.ndarray:
        """Return a factor ``Q`` (dense, ``m x r``) with ``A = Q Q^T``."""

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of explicitly stored nonzero entries of this representation."""

    @property
    def gram_factor_is_exact(self) -> bool:
        """Whether ``gram_factor()`` reproduces the operator exactly.

        This is the gating contract of every packed fast path.  A subclass
        may return ``True`` only when ``Q Q^T = A`` holds *by construction*
        — i.e. the factor is the representation (factorized, low-rank,
        diagonal), not a derived approximation — so that computing any
        batched quantity through ``Q`` instead of ``A`` changes
        floating-point rounding order only, never operator semantics.
        ``False`` (the default) is mandatory for dense/sparse matrices whose
        factor comes from a truncated eigendecomposition: that factor is a
        controlled approximation, acceptable inside the randomized fast
        oracle (whose output is approximate anyway) but not in exact
        reference paths.

        Consumers of the contract, all through
        :attr:`ConstraintCollection.has_exact_factors
        <repro.operators.collection.ConstraintCollection.has_exact_factors>`
        (``True`` only when *every* operator reports ``True``):

        * the collection's ``weighted_sum``/``dots`` run through the packed
          view, and so do the exact oracle's trace products;
        * the matrix-free implicit psi state, and the dense state's
          active-column update charge;
        * the fusion gate of :func:`~repro.core.batch.solve_many`;
        * the solve service's fingerprint, which hashes the packed stack;
        * the fast oracle's sketched estimates use packed factors
          regardless, exactly as the seed per-factor loop did.
        """
        return False

    # ------------------------------------------------------------- conveniences
    @property
    def shape(self) -> tuple[int, int]:
        """The (square) matrix shape ``(m, m)``."""
        return (self.dim, self.dim)

    def spectral_norm(self) -> float:
        """Spectral norm (largest eigenvalue); subclasses may override with
        cheaper representation-specific computations."""
        from repro.linalg.norms import spectral_norm

        return spectral_norm(self.to_dense())

    @abc.abstractmethod
    def scaled(self, coeff: float) -> "PSDOperator":
        """``coeff * A`` in this operator's own representation (exact factors stay exact)."""

    @staticmethod
    def _scale_coefficient(coeff: float) -> float:
        """``float(coeff)``, or ``ValueError`` unless it is finite and ``>= 0``."""
        if not (np.isfinite(coeff) and coeff >= 0):
            raise ValueError(f"coeff must be finite and >= 0 to stay PSD, got {coeff}")
        return float(coeff)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(dim={self.dim}, nnz={self.nnz})"


def as_operator(matrix: Any, validate: bool = True) -> PSDOperator:
    """Coerce ``matrix`` into a :class:`PSDOperator`.

    Accepts an existing operator (returned unchanged), a scipy sparse
    matrix, a 1-D array (interpreted as a diagonal PSD matrix), or anything
    convertible to a dense 2-D array.
    """
    from repro.operators.dense import DensePSDOperator
    from repro.operators.diagonal import DiagonalPSDOperator
    from repro.operators.sparse import SparsePSDOperator

    if isinstance(matrix, PSDOperator):
        return matrix
    if sp.issparse(matrix):
        return SparsePSDOperator(matrix, validate=validate)
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim == 1:
        return DiagonalPSDOperator(arr, validate=validate)
    return DensePSDOperator(arr, validate=validate)
