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

The dense primitives route their GEMMs, column dots, and segment sums
through an :class:`~repro.backend.base.ArrayBackend` namespace object
(NumPy by default — a bit-identical pass-through; torch optional).
The host-side layout (offsets, ranks, the canonical NumPy stack) is always
NumPy; a non-NumPy backend holds a lazily transferred device copy of the
stack, densifies sparse inputs (scipy representations are NumPy-only), and
converts results back to host arrays at each primitive's boundary.  The
reference segment-sum implementations live in
:mod:`repro.backend.numpy_backend` and are re-exported here unchanged.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.backend import get_array_backend
from repro.backend.numpy_backend import batched_segment_sums, segment_sums
from repro.exceptions import InvalidProblemError

__all__ = [
    "DENSIFY_THRESHOLD",
    "PackedGramFactors",
    "batched_segment_sums",
    "segment_sums",
]

#: stacked density above which sparse inputs are densified when packing
DENSIFY_THRESHOLD = 0.25


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
    backend:
        Array backend (name or :class:`~repro.backend.base.ArrayBackend`)
        executing the dense primitives; default NumPy.  Non-NumPy backends
        force densification — the scipy sparse representations (CSR/CSC
        products, the sparse-``Psi`` accumulator) are NumPy-only, so the
        sparse stack falls back to its dense form and the Taylor-mode
        policy is automatically restricted to the dense representations.
    """

    def __init__(
        self,
        factors: Sequence[np.ndarray | sp.spmatrix],
        densify_threshold: float = DENSIFY_THRESHOLD,
        backend: "str | None" = None,
    ) -> None:
        if len(factors) == 0:
            raise InvalidProblemError("packed factors require at least one constraint")
        self.backend = get_array_backend(backend)
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

        if any_sparse:
            stacked = sp.hstack(
                [sp.csr_matrix(b) if not sp.issparse(b) else b for b in blocks],
                format="csr",
            )
            cells = max(stacked.shape[0] * stacked.shape[1], 1)
            if (
                stacked.nnz / cells >= densify_threshold
                or not self.backend.is_numpy
            ):
                # Dense fallback: non-NumPy backends cannot run the scipy
                # sparse representations, so the stack densifies regardless
                # of its density and every primitive takes the dense path.
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
        # Lazily transferred device copy of the dense stack (the identity
        # on the NumPy backend — see device_matrix()).
        self._q_dev = None
        # Weight-independent Taylor-engine artifacts, built lazily and
        # shared by every kernel/engine over this stack (the stack is
        # immutable): the dense Gram matrix Q^T Q, the sparse-Psi
        # accumulator and the auto-selected representation.
        self._gram_cache: np.ndarray | None = None
        self._psi_accumulator = None
        self._auto_mode: str | None = None
        self._column_nnz: np.ndarray | None = None
        self._column_sq_norms: np.ndarray | None = None

    # ------------------------------------------------------------------ basics
    @classmethod
    def from_collection(cls, collection, backend: "str | None" = None) -> "PackedGramFactors":
        """Pack the Gram factors of a :class:`ConstraintCollection`, keeping
        native sparse factors sparse when an operator exposes them."""
        factors = []
        for op in collection:
            raw = getattr(op, "gram_factor_raw", None)
            factors.append(raw() if raw is not None else op.gram_factor())
        return cls(factors, backend=backend)

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

    def device_matrix(self):
        """The dense stack as the backend's native array (cached transfer).

        On the NumPy backend this is literally ``self.matrix`` — the same
        object, the same bits — so routing the dense primitives through it
        cannot perturb the default path.  Sparse stacks (NumPy-only) have
        no device form; callers take the scipy branch instead.
        """
        if self._sparse:
            raise InvalidProblemError(
                "sparse stacks are NumPy-resident and have no device form"
            )
        if self.backend.is_numpy:
            return self._q
        if self._q_dev is None:
            self._q_dev = self.backend.asarray(self._q)
        return self._q_dev

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
        if np.any(weights < 0):
            raise InvalidProblemError("weights must be non-negative")
        return np.repeat(weights, self.ranks)

    # ------------------------------------------------------------------ primitives
    def matvec(self, weights: np.ndarray, block: np.ndarray) -> np.ndarray:
        """``Psi @ block`` for ``Psi = sum_i weights[i] Q_i Q_i^T`` — two GEMMs."""
        return self.matvec_fn(weights)(block)

    def matvec_fn(self, weights: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Closure form of :meth:`matvec` with the weight expansion hoisted
        out (the oracle applies the same ``Psi`` to many blocks).  Accepts
        and returns host arrays; the two GEMMs run on the backend."""
        col_w = self.expand_weights(weights)
        if self._sparse:
            q = self._q

            def apply_sparse(block: np.ndarray) -> np.ndarray:
                inner = q.T @ block
                if inner.ndim == 1:
                    return q @ (col_w * inner)
                return q @ (col_w[:, None] * inner)

            return apply_sparse

        xp = self.backend
        q = self.device_matrix()
        w = xp.asarray(col_w)

        def apply(block: np.ndarray) -> np.ndarray:
            b = xp.asarray(block)
            inner = xp.matmul(q.T, b)
            if inner.ndim == 1:
                out = xp.matmul(q, w * inner)
            else:
                out = xp.matmul(q, w[:, None] * inner)
            return xp.to_numpy(out)

        return apply

    def column_nnz(self) -> np.ndarray:
        """Stored nonzeros per stacked column (cached; drives the selection
        policy's ``nnz(Psi)`` bound)."""
        if self._column_nnz is None:
            if self.total_rank == 0:
                self._column_nnz = np.zeros(0, dtype=np.int64)
            elif self._sparse:
                qc = self._qc
                self._column_nnz = np.diff(qc.indptr).astype(np.int64)
            else:
                self._column_nnz = np.count_nonzero(self._q, axis=0).astype(np.int64)
        return self._column_nnz

    def psi_nnz_bound(self) -> int:
        """Upper bound on ``nnz(Psi)`` for ``Psi = (Q w) Q^T``: the sum of
        squared column nonzeros (every column contributes its support's
        outer product; overlaps only merge), capped at ``m^2``."""
        col_nnz = self.column_nnz()
        return int(min(np.sum(col_nnz.astype(np.float64) ** 2), self.dim * self.dim))

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

    def psi_accumulator(self):
        """The cached :class:`~repro.linalg.taylor_gram.SparsePsiAccumulator`
        over the stack (sparse stacks only; the symbolic pattern and the
        weight-to-values map are weight-independent, so one accumulator
        serves every kernel and engine built from this view)."""
        if not self._sparse:
            raise InvalidProblemError(
                "the sparse-Psi accumulator requires a sparse factor stack"
            )
        if self._psi_accumulator is None:
            from repro.linalg.taylor_gram import SparsePsiAccumulator

            self._psi_accumulator = SparsePsiAccumulator(self._q)
        return self._psi_accumulator

    def auto_taylor_mode(self) -> str:
        """The representation :func:`~repro.linalg.taylor_gram.select_taylor_mode`
        picks for this stack (cached — it depends only on the immutable
        shape quantities ``m``, ``R``, ``nnz`` and ``nnz(Psi)``).

        Sparse stacks use a two-stage decision: the cheap
        :meth:`psi_nnz_bound` first (it never under-counts, so a
        sparse-``Psi`` verdict from it is final), and when the bound rejects
        sparse-``Psi`` but a lower bound on ``nnz(Psi)`` — the largest
        single-column outer product — says the exact pattern could still
        *meaningfully* win (heavily overlapping supports make the upper
        bound arbitrarily loose), the weight-independent accumulator is
        built once and the decision repeated with the exact count.  The
        second stage only runs when the optimistic sparse-``Psi`` cost
        undercuts the current winner by the
        :data:`~repro.linalg.taylor_gram.REFINEMENT_MARGIN` hysteresis
        (~10%): paying the pattern build to at best *match* the selected
        kernel — the near-threshold adversary shape — is a pure loss, and
        skipping it also pins the selection so it cannot flip-flop between
        equal-cost modes.
        """
        if self._auto_mode is None:
            from repro.linalg.taylor_gram import (
                REFINEMENT_MARGIN,
                SPARSE_GEMM_DISCOUNT,
                select_taylor_mode,
                taylor_mode_cost,
            )

            if not self._sparse:
                self._auto_mode = select_taylor_mode(
                    self.dim, self.total_rank, self.nnz, False
                )
                return self._auto_mode
            mode = select_taylor_mode(
                self.dim,
                self.total_rank,
                self.nnz,
                True,
                psi_nnz=self.psi_nnz_bound(),
            )
            if mode != "sparse-psi":
                winner_cost = taylor_mode_cost(
                    mode, self.dim, self.total_rank, self.nnz
                )
                col_nnz = self.column_nnz()
                psi_lower = float(col_nnz.max()) ** 2 if col_nnz.size else 0.0
                build_cost = float(np.sum(col_nnz.astype(np.float64) ** 2))
                if (
                    SPARSE_GEMM_DISCOUNT * psi_lower < REFINEMENT_MARGIN * winner_cost
                    and build_cost <= 16.0 * self.dim * self.dim
                ):
                    mode = select_taylor_mode(
                        self.dim,
                        self.total_rank,
                        self.nnz,
                        True,
                        psi_nnz=self.psi_accumulator().psi_nnz,
                    )
            self._auto_mode = mode
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
        if self._sparse:
            if active.shape[0] == self.total_rank:
                sub, w = self._qc, col_w
            else:
                sub, w = self._qc[:, active], col_w[active]
            scaled = sub @ sp.diags(w)
            acc = (scaled @ sub.T).toarray()
        else:
            xp = self.backend
            q = self.device_matrix()
            if active.shape[0] == self.total_rank:
                sub, w = q, xp.asarray(col_w)
            else:
                sub, w = xp.take_columns(q, active), xp.asarray(col_w[active])
            acc = xp.to_numpy(xp.matmul(sub * w, sub.T))
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
            return segment_sums(col_vals, self.offsets)
        xp = self.backend
        q = self.device_matrix()
        wq = xp.matmul(xp.asarray(weight_matrix), q)
        col_vals = xp.einsum("ij,ij->j", wq, q)
        return xp.to_numpy(xp.segment_sums(col_vals, self.offsets))

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
                xp = self.backend
                q = self.device_matrix()
                self._column_sq_norms = xp.to_numpy(xp.einsum("ij,ij->j", q, q))
        return self._column_sq_norms

    def traces(self) -> np.ndarray:
        """All ``Tr[A_i] = ||Q_i||_F^2`` from the stacked column norms."""
        return segment_sums(self.column_sq_norms(), self.offsets)

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
        xp = self.backend
        if self._sparse:
            # Sparse stacks are NumPy-resident (xp is the NumPy backend).
            sketched = (self._q.T @ transformed.T).T
            col_vals = xp.einsum("ij,ij->j", sketched, sketched)
            return segment_sums(col_vals, self.offsets)
        sketched = xp.matmul(xp.asarray(transformed), self.device_matrix())
        col_vals = xp.einsum("ij,ij->j", sketched, sketched)
        return xp.to_numpy(xp.segment_sums(col_vals, self.offsets))
