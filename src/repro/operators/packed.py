"""Packed Gram-factor representation — the single-GEMM fast path.

The per-iteration primitives of the decision solver are all sums over the
``n`` constraints of small factor products: ``Psi v = sum_i x_i Q_i (Q_i^T
v)``, ``Psi = sum_i x_i Q_i Q_i^T``, ``A_i . W = || W^{1/2} Q_i ||_F^2`` and
the Theorem 4.1 sketch estimates ``|| (Pi exp(Phi/2)) Q_i ||_F^2``.  Looping
over the constraints in Python makes every one of these cost ``n``
interpreter round-trips and ``n`` small BLAS dispatches.

:class:`PackedGramFactors` removes the loop: the factors are stacked once
into a single ``(m, R)`` matrix ``Q`` (``R = sum_i r_i``) together with a
column-offset table, so that each primitive becomes one or two large GEMMs
followed by a segment reduction over the column blocks:

* ``Psi v      = Q (w_cols ∘ (Q^T v))``                — two GEMMs;
* ``Psi        = (Q ∘ w_cols) Q^T``                    — one GEMM;
* ``dots(W)    = segsum(colsum((W Q) ∘ Q))``           — one GEMM + reduce;
* ``traces()   = segsum(colnorms^2(Q))``               — no GEMM at all;
* ``estimates  = segsum(colnorms^2(T Q))`` for a sketch/transform ``T`` —
  one GEMM for *all* ``n`` Theorem 4.1 estimates.

``w_cols`` denotes the per-column expansion of the constraint weights
(``w_cols = repeat(w, ranks)``) and ``segsum`` the per-constraint segment
sum over the column blocks (``np.add.reduceat`` on the offsets, with a
cumulative-sum fallback for rank-zero blocks).

In the work–depth model the packed primitives charge the same ``O(q)`` work
as the reference loop (``q`` = total factor nonzeros, the Corollary 1.2 work
parameter) with polylogarithmic depth — the packing changes the constants,
not the asymptotics.  In wall-clock terms it replaces ``O(n)`` interpreted
iterations with one BLAS-3 call.

Sparse factors are supported: when the stacked matrix would be sparse the
packing keeps a CSR/CSC pair and the same primitives run through
``scipy.sparse`` matrix products.

The segment reductions (:func:`segment_sums`, :func:`batched_segment_sums`)
live here too; the fused batch path reuses them row-wise.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import InvalidProblemError

__all__ = [
    "DENSIFY_THRESHOLD",
    "PackedGramFactors",
    "batched_segment_sums",
    "segment_sums",
]

#: stacked density above which sparse inputs are densified when packing
DENSIFY_THRESHOLD = 0.25


def segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment sums of ``values`` over ``[offsets[i], offsets[i+1])``.

    Uses ``np.add.reduceat`` when every segment is non-empty; falls back to
    a cumulative-sum difference otherwise (``reduceat`` silently returns
    ``values[offsets[i]]`` for empty segments instead of 0).  ``offsets``
    may be any integer array-like (lists included); zero-width segments —
    rank-zero factor blocks — always sum to 0.
    """
    values = np.asarray(values, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim != 1:
        raise InvalidProblemError(
            f"offsets must be 1-dimensional, got ndim={offsets.ndim}"
        )
    if offsets.shape[0] < 2:
        return np.zeros(max(offsets.shape[0] - 1, 0), dtype=np.float64)
    widths = np.diff(offsets)
    if values.shape[0] == 0:
        return np.zeros(widths.shape[0], dtype=np.float64)
    if np.all(widths > 0):
        return np.add.reduceat(values, offsets[:-1])
    csum = np.concatenate([[0.0], np.cumsum(values)])
    return csum[offsets[1:]] - csum[offsets[:-1]]


def batched_segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Row-wise :func:`segment_sums` over a ``(B, R)`` batch of value rows.

    All ``B`` instances share one segment layout (``offsets``), so the
    reduction is a single ``np.add.reduceat`` along ``axis=1`` (or one
    cumulative-sum difference when some segment is empty).  Each output row
    matches ``segment_sums(values[b], offsets)`` bitwise.
    """
    values = np.asarray(values, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    if values.ndim != 2:
        raise InvalidProblemError(
            f"batched values must be 2-dimensional, got ndim={values.ndim}"
        )
    if offsets.ndim != 1:
        raise InvalidProblemError(
            f"offsets must be 1-dimensional, got ndim={offsets.ndim}"
        )
    batch = values.shape[0]
    if offsets.shape[0] < 2:
        return np.zeros((batch, max(offsets.shape[0] - 1, 0)), dtype=np.float64)
    widths = np.diff(offsets)
    if values.shape[1] == 0:
        return np.zeros((batch, widths.shape[0]), dtype=np.float64)
    if np.all(widths > 0):
        return np.add.reduceat(values, offsets[:-1], axis=1)
    csum = np.concatenate(
        [np.zeros((batch, 1), dtype=np.float64), np.cumsum(values, axis=1)], axis=1
    )
    return csum[:, offsets[1:]] - csum[:, offsets[:-1]]


class PackedGramFactors:
    """All constraint Gram factors stacked into one column-blocked matrix.

    Parameters
    ----------
    factors:
        Sequence of Gram factors ``Q_i`` with ``A_i = Q_i Q_i^T``, each of
        shape ``(m, r_i)`` (dense arrays or scipy sparse matrices; 1-D
        arrays are treated as single columns).
    densify_threshold:
        When the stacked matrix's density is at least this value, sparse
        inputs are densified so the primitives run through dense BLAS.
    """

    def __init__(
        self,
        factors: Sequence[np.ndarray | sp.spmatrix],
        densify_threshold: float = DENSIFY_THRESHOLD,
    ) -> None:
        if len(factors) == 0:
            raise InvalidProblemError("packed factors require at least one constraint")
        blocks: list[np.ndarray | sp.spmatrix] = []
        ranks = np.empty(len(factors), dtype=np.int64)
        any_sparse = False
        dims = set()
        for i, factor in enumerate(factors):
            if sp.issparse(factor):
                block = sp.csr_matrix(factor, dtype=np.float64)
                any_sparse = True
            else:
                block = np.asarray(factor, dtype=np.float64)
                if block.ndim == 1:
                    block = block[:, None]
                if block.ndim != 2:
                    raise InvalidProblemError(
                        f"factor {i} must be 2-dimensional, got ndim={block.ndim}"
                    )
            dims.add(block.shape[0])
            ranks[i] = block.shape[1]
            blocks.append(block)
        if len(dims) != 1:
            raise InvalidProblemError(
                f"all factors must share the ambient dimension, got {sorted(dims)}"
            )
        self.dim = int(next(iter(dims)))
        self.size = len(factors)
        self.ranks = ranks
        self.offsets = np.concatenate([[0], np.cumsum(ranks)]).astype(np.int64)
        self.total_rank = int(self.offsets[-1])
        # ``reduceat`` starts for :meth:`constraint_sums`, when no block is empty.
        self._starts = self.offsets[:-1] if np.all(ranks > 0) else None

        if any_sparse:
            stacked = sp.hstack(
                [sp.csr_matrix(b) if not sp.issparse(b) else b for b in blocks],
                format="csr",
            )
            cells = max(stacked.shape[0] * stacked.shape[1], 1)
            if stacked.nnz / cells >= densify_threshold:
                self._q: np.ndarray | sp.csr_matrix = stacked.toarray()
                self._qc = None
                self._sparse = False
            else:
                self._q = stacked
                self._qc = stacked.tocsc()
                self._sparse = True
        else:
            dense_blocks = [np.ascontiguousarray(b) for b in blocks]
            self._q = (
                np.hstack(dense_blocks)
                if self.total_rank
                else np.zeros((self.dim, 0), dtype=np.float64)
            )
            self._qc = None
            self._sparse = False
        self._dense_cache: np.ndarray | None = None
        # Weight-independent Taylor-engine artifacts, built lazily and
        # shared by every kernel/engine over this stack (the stack is
        # immutable): the dense Gram matrix Q^T Q and the auto-selected
        # representation.
        self._gram_cache: np.ndarray | None = None
        self._auto_mode: str | None = None
        self._column_sq_norms: np.ndarray | None = None

    # ------------------------------------------------------------------ basics
    @classmethod
    def from_collection(cls, collection) -> "PackedGramFactors":
        """Pack the Gram factors of a :class:`ConstraintCollection`, keeping
        native sparse factors sparse when an operator exposes them."""
        factors = []
        for op in collection:
            raw = getattr(op, "gram_factor_raw", None)
            factors.append(raw() if raw is not None else op.gram_factor())
        return cls(factors)

    @property
    def is_sparse(self) -> bool:
        """Whether the stacked factor matrix is stored sparse (CSR/CSC)."""
        return self._sparse

    @property
    def matrix(self) -> np.ndarray | sp.csr_matrix:
        """The stacked ``(m, R)`` factor matrix ``Q`` (read-only view)."""
        return self._q

    @property
    def nnz(self) -> int:
        """Stored nonzeros of the stacked matrix (the ``q`` of Cor. 1.2)."""
        if self._sparse:
            return int(self._q.nnz)
        return int(np.count_nonzero(self._q))

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "sparse" if self._sparse else "dense"
        return (
            f"PackedGramFactors(n={self.size}, dim={self.dim}, "
            f"R={self.total_rank}, {kind})"
        )

    def dense_columns(self) -> np.ndarray:
        """Dense copy of the stacked matrix (cached; used by the no-sketch
        Taylor path which must push every column through the polynomial)."""
        if self._dense_cache is None:
            self._dense_cache = self._q.toarray() if self._sparse else self._q
        return self._dense_cache

    def factor(self, index: int) -> np.ndarray | sp.csr_matrix:
        """The ``index``-th constraint's factor block ``Q_i``."""
        lo, hi = self.offsets[index], self.offsets[index + 1]
        if self._sparse:
            return self._qc[:, lo:hi]
        return self._q[:, lo:hi]

    # ------------------------------------------------------------------ weights
    def expand_weights(self, weights: np.ndarray) -> np.ndarray:
        """Per-column expansion ``repeat(weights, ranks)`` of per-constraint
        weights, validating length and non-negativity."""
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if weights.shape[0] != self.size:
            raise InvalidProblemError(
                f"expected {self.size} weights, got {weights.shape[0]}"
            )
        if (weights < 0).any():
            raise InvalidProblemError("weights must be non-negative")
        return np.repeat(weights, self.ranks)

    # ------------------------------------------------------------------ primitives
    def matvec(self, weights: np.ndarray, block: np.ndarray) -> np.ndarray:
        """``Psi @ block`` for ``Psi = sum_i weights[i] Q_i Q_i^T`` — two GEMMs."""
        return self.matvec_fn(weights)(block)

    def matvec_fn(self, weights: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Closure form of :meth:`matvec` with the weight expansion hoisted
        out (the oracle applies the same ``Psi`` to many blocks)."""
        col_w = self.expand_weights(weights)
        q = self._q

        def apply(block: np.ndarray) -> np.ndarray:
            inner = q.T @ block
            if inner.ndim == 1:
                return q @ (col_w * inner)
            return q @ (col_w[:, None] * inner)

        return apply

    def gram_matrix(self) -> np.ndarray:
        """Dense ``(R, R)`` Gram matrix ``Q^T Q`` of the stack (cached).

        Weight-independent: every call's Gram twin
        ``S = W^{1/2} (Q^T Q) W^{1/2}`` (the Gram-space kernel's
        eigendecomposition, the Gram trace estimator and the fused batch)
        is an elementwise rescale of this matrix.
        """
        if self._gram_cache is None:
            if self.total_rank == 0:
                self._gram_cache = np.zeros((0, 0), dtype=np.float64)
            elif self._sparse:
                self._gram_cache = np.asarray(
                    (self._q.T @ self._q).todense(), dtype=np.float64
                )
            else:
                self._gram_cache = self._q.T @ self._q
        return self._gram_cache

    def auto_taylor_mode(self) -> str:
        """The representation :func:`~repro.linalg.taylor_gram.select_taylor_mode`
        picks for this stack (cached).  It reads only the immutable ``m``,
        ``R``, ``nnz`` and storage kind, so picking builds nothing."""
        if self._auto_mode is None:
            from repro.linalg.taylor_gram import select_taylor_mode

            self._auto_mode = select_taylor_mode(
                self.dim, self.total_rank, self.nnz, self._sparse
            )
        return self._auto_mode

    def weighted_sum(self, weights: np.ndarray) -> np.ndarray:
        """Dense ``sum_i weights[i] Q_i Q_i^T`` via one rank-``R`` GEMM.

        Columns with zero weight are dropped first, so incremental solver
        updates (sparse ``delta`` vectors) only pay for the active columns.
        """
        col_w = self.expand_weights(weights)
        active = np.flatnonzero(col_w)
        if active.shape[0] == 0:
            return np.zeros((self.dim, self.dim), dtype=np.float64)
        q = self._qc if self._sparse else self._q
        if active.shape[0] == self.total_rank:
            sub, w = q, col_w
        else:
            sub, w = q[:, active], col_w[active]
        if self._sparse:
            acc = (sub @ sp.diags(w) @ sub.T).toarray()
        else:
            acc = (sub * w) @ sub.T
        return 0.5 * (acc + acc.T)

    def dots(self, weight_matrix: np.ndarray) -> np.ndarray:
        """All ``A_i . W = colsum-per-block((W Q) ∘ Q)`` — one GEMM + reduce."""
        weight_matrix = np.asarray(weight_matrix, dtype=np.float64)
        if weight_matrix.shape != (self.dim, self.dim):
            raise InvalidProblemError(
                f"weight matrix must have shape {(self.dim, self.dim)}, "
                f"got {weight_matrix.shape}"
            )
        if self._sparse:
            wq = (self._q.T @ weight_matrix.T).T
            col_vals = np.asarray(self._q.multiply(wq).sum(axis=0)).ravel()
        else:
            col_vals = np.einsum("ij,ij->j", weight_matrix @ self._q, self._q)
        return self.constraint_sums(col_vals)

    def column_sq_norms(self) -> np.ndarray:
        """Squared column norms ``||q_c||^2`` of the stack (cached).

        Weight-independent: ``Tr[Psi] = sum_c w_c ||q_c||^2`` for
        ``Psi = Q diag(w) Q^T``, and :meth:`traces` segment-sums them.
        """
        if self._column_sq_norms is None:
            if self._sparse:
                self._column_sq_norms = np.asarray(
                    self._q.multiply(self._q).sum(axis=0)
                ).ravel()
            else:
                self._column_sq_norms = np.einsum("ij,ij->j", self._q, self._q)
        return self._column_sq_norms

    def constraint_sums(self, col_vals: np.ndarray) -> np.ndarray:
        """Per-constraint sums of per-column values (length ``R`` to ``n``).

        One ``np.add.reduceat`` on the starts computed at packing, the
        same call :func:`segment_sums` makes; stacks with a rank-zero block
        take :func:`segment_sums` itself.
        """
        if self._starts is None:
            return segment_sums(col_vals, self.offsets)
        return np.add.reduceat(col_vals, self._starts)

    def traces(self) -> np.ndarray:
        """All ``Tr[A_i] = ||Q_i||_F^2`` from the stacked column norms."""
        return self.constraint_sums(self.column_sq_norms())

    def estimates_from_transform(self, transformed: np.ndarray) -> np.ndarray:
        """All Theorem 4.1 estimates ``||T Q_i||_F^2`` for a transform block
        ``T`` of shape ``(d, m)`` — one ``(d, m) x (m, R)`` GEMM + reduce.

        For the fast oracle ``T = Pi exp(Phi/2)`` (sketch rows pushed through
        the Taylor polynomial); ``d`` is the sketch dimension.
        """
        transformed = np.asarray(transformed, dtype=np.float64)
        if transformed.ndim != 2 or transformed.shape[1] != self.dim:
            raise InvalidProblemError(
                f"transform block must have shape (d, {self.dim}), "
                f"got {transformed.shape}"
            )
        if self._sparse:
            sketched = (self._q.T @ transformed.T).T
        else:
            sketched = transformed @ self._q
        col_vals = np.einsum("ij,ij->j", sketched, sketched)
        return self.constraint_sums(col_vals)
