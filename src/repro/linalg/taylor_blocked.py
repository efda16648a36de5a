"""Blocked/fused truncated-Taylor kernel for the Lemma 4.2 apply.

:func:`repro.linalg.taylor.taylor_expm_apply` evaluates the degree-``k``
polynomial one *term* at a time through a matvec callable.  That is the
right reference implementation, but when the operator being exponentiated
is the solver's weight matrix ``Psi = Q diag(w) Q^T`` (``Q`` the packed
Gram-factor stack of :class:`~repro.operators.packed.PackedGramFactors`)
the callable hides structure the kernel can exploit:

* each Taylor step ``t <- (scale * Psi) t / i`` is *two* GEMMs against the
  factor stack — ``Q ((w * scale / i) ∘ (Q^T t))`` — and the generic path
  additionally pays a weight-broadcast pass, a ``scale`` copy, a division
  copy, and a full finiteness scan *per term*.  The kernel folds the
  weights and the step scale into a pre-scaled copy of ``Q`` once, runs the
  Horner-style forward recurrence in two preallocated ping-pong buffers
  (``np.matmul(..., out=...)``), and checks finiteness once at the end;
* when the stacked rank ``R`` exceeds ``m/2`` (dense factors) the two
  factor GEMMs cost *more* than one dense ``m x m`` product: the kernel
  then materialises ``Psi`` once (a single ``(m, R) x (R, m)`` GEMM — the
  cost of one Taylor term) and runs the recurrence with a fused dense GEMM
  per term, ``m^2 s`` instead of ``2 m R s`` madds.  For the degenerate-
  sketch regime of Theorem 4.1 (``m ≲ 1000`` at tight eps, where the JL
  dimension reaches ``m`` and the "sketch" block is the full identity) this
  is the dominant-cost path and the densified recurrence is ``~2R/m``
  times cheaper than the factor recurrence.

The *default* densification rule never leaves the Theorem 4.1 work
regime: it only triggers when the stored factor nonzeros ``q`` already
satisfy ``2 q > m^2``, so ``m^2 < 2 q`` and the dense recurrence still
performs ``O(q)`` work per column per term.  The rank-adaptive selection
policy (:mod:`repro.linalg.taylor_gram`) may force densification earlier
— when the dense GEMM's throughput beats the sparse products despite more
madds — in which case the oracle's charges (which always bill the model's
factored costs, keeping them representation-invariant) undercount the
hardware madds by at most the policy's discount factor; see the
work–depth notes in :mod:`repro.core.dotexp`.

Both modes evaluate *exactly the same polynomial* as
:func:`~repro.linalg.taylor.taylor_expm_apply`; results agree to floating-
point rounding (~1e-13), which the equivalence tests in
``tests/test_linalg_taylor_blocked.py`` pin down per column.

The optional ``chunk_columns`` argument bounds peak memory: the block is
processed in column slices, so the working set is ``O((m + R) * chunk)``
instead of ``O((m + R) * s)``.  Columns are independent, so chunking
computes exactly the same per-column quantities; results can differ from
the unchunked apply only by the last-ulp reordering inside the BLAS GEMM
kernels (different widths select different internal blockings), which the
tests bound at ``1e-12``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.backend import NUMPY, get_array_backend
from repro.exceptions import InvalidProblemError, NumericalError
from repro.robustness.faultinject import fault_hook_array

__all__ = ["BlockedTaylorKernel", "blocked_taylor_apply", "densified_psi"]


def _stack_dtype(q: np.ndarray | sp.spmatrix) -> np.dtype:
    """The working dtype a kernel adopts for stack ``q``: ``float32`` stays
    ``float32`` (no silent upcast in the ping-pong buffers), everything
    else runs in the reference ``float64``."""
    dtype = np.dtype(getattr(q, "dtype", np.float64))
    return np.dtype(np.float32) if dtype == np.float32 else np.dtype(np.float64)


def _validated_stack(q, col_weights, backend):
    """``(q, col_weights, m, R, dtype)`` of a factor stack, validated for a kernel.

    Sparse stacks become CSR and run in float64 (NumPy backend only); dense
    float32 stacks keep their dtype (:func:`_stack_dtype`), and the weights
    follow the stack's dtype.
    """
    if sp.issparse(q):
        if not backend.is_numpy:
            raise InvalidProblemError(
                "sparse factor stacks are NumPy-only; densify the stack "
                "before handing it to a non-NumPy backend"
            )
        q = q.tocsr()
        dtype = np.dtype(np.float64)
    else:
        q = np.asarray(q)
        if q.ndim != 2:
            raise InvalidProblemError(f"q must be 2-dimensional, got ndim={q.ndim}")
        dtype = _stack_dtype(q)
        q = np.asarray(q, dtype=dtype)
    m, r = q.shape
    col_weights = np.asarray(col_weights, dtype=dtype).ravel()
    if col_weights.shape[0] != r:
        raise InvalidProblemError(
            f"expected {r} column weights for a (m, {r}) stack, "
            f"got {col_weights.shape[0]}"
        )
    if np.any(col_weights < 0):
        raise InvalidProblemError("column weights must be non-negative")
    return q, col_weights, int(m), int(r), dtype


def densified_psi(
    q: np.ndarray | sp.spmatrix, col_weights: np.ndarray
) -> np.ndarray:
    """Materialise ``Psi = Q diag(w) Q^T`` dense, symmetrised.

    The one densification implementation shared by the blocked kernel's
    construction and the rank-adaptive engine's ``dense-psi`` state build
    (:class:`~repro.linalg.taylor_gram.TaylorEngine`), so the weight fold
    and the ``0.5 (Psi + Psi^T)`` symmetrisation can never drift apart.
    """
    if sp.issparse(q):
        qw = q.multiply(np.asarray(col_weights)[None, :]).tocsr()
        psi = np.asarray((qw @ q.T).todense(), dtype=np.float64)
    else:
        psi = (q * col_weights) @ q.T
    return 0.5 * (psi + psi.T)

#: densify ``Psi`` when twice the stored factor nonzeros exceed ``m^2``
#: (the break-even point between two factor GEMMs and one dense GEMM).
DENSIFY_FLOP_RATIO = 2.0


class _FusedTaylorApplyBase:
    """Shared chunked block-apply driver of the fused Taylor kernels.

    Subclasses (:class:`BlockedTaylorKernel`,
    :class:`~repro.linalg.taylor_gram.GramTaylorKernel`) provide
    ``_apply_chunk(block, degree, scale)`` plus ``dim``/``chunk_columns``/
    ``matvec_count`` attributes; this base owns the one implementation of
    input validation, the column-chunk loop, the model-level matvec
    bookkeeping, and the final fault hook and finiteness check
    (:meth:`_checked`), so the kernels cannot drift apart on those
    behaviours.
    """

    dim: int
    chunk_columns: int | None
    matvec_count: int

    #: Fault-injection / error-attribution site identifier; Gram-space
    #: subclasses override it so supervisors can tell the kernels apart.
    fault_site = "taylor_blocked.apply"

    #: Array backend executing the recurrence (constructors override).
    backend = NUMPY

    #: Working dtype of the recurrence buffers: the stack's dtype when it
    #: is float32, the reference float64 otherwise (constructors override).
    dtype: np.dtype = np.dtype(np.float64)

    def apply(
        self,
        block: np.ndarray,
        degree: int,
        scale: float = 1.0,
        chunk_columns: int | None = None,
    ) -> np.ndarray:
        """Apply ``sum_{i<degree} (scale * Psi)^i / i!`` to every column of ``block``.

        Parameters
        ----------
        block:
            ``(m, s)`` block (or a single ``(m,)`` vector) to transform.
        degree:
            Number of Taylor terms ``k`` (Lemma 4.2's
            :func:`~repro.linalg.taylor.taylor_degree`).
        scale:
            Scalar multiplier on ``Psi`` inside the exponential — the
            Theorem 4.1 oracle passes ``0.5`` so the result approximates
            ``exp(Psi/2) block``.
        chunk_columns:
            Process the block in column slices of this width, bounding peak
            memory; ``None`` uses the kernel default, ``0`` forces
            unchunked.  Columns are independent, so chunking changes the
            result only by last-ulp BLAS reordering effects.
        """
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        block = np.asarray(block, dtype=self.dtype)
        single = block.ndim == 1
        if single:
            block = block[:, None]
        if block.shape[0] != self.dim:
            raise InvalidProblemError(
                f"block must have {self.dim} rows, got {block.shape[0]}"
            )
        chunk = self.chunk_columns if chunk_columns is None else chunk_columns
        s = block.shape[1]
        if chunk and 0 < chunk < s:
            out = np.empty((self.dim, s), dtype=self.dtype)
            for lo in range(0, s, chunk):
                hi = min(lo + chunk, s)
                out[:, lo:hi] = self._apply_chunk(block[:, lo:hi], degree, scale)
        else:
            out = self._apply_chunk(block, degree, scale)
        self.matvec_count += s * (degree - 1)
        out = self._checked(out)
        return out[:, 0] if single else out

    def _checked(self, out: np.ndarray) -> np.ndarray:
        """The fault hook and finiteness check every kernel output passes."""
        fault_hook_array(self.fault_site, out)
        if not np.all(np.isfinite(out)):
            raise NumericalError(
                "fused Taylor expm evaluation overflowed; reduce the spectral "
                "norm of psi (e.g. by splitting exp(psi) = exp(psi/2)^2) or the degree",
                site=self.fault_site,
                kernel_mode=getattr(self, "mode", None),
            )
        return out

    def _apply_chunk(self, block: np.ndarray, degree: int, scale: float) -> np.ndarray:
        raise NotImplementedError  # pragma: no cover - subclasses implement


class BlockedTaylorKernel(_FusedTaylorApplyBase):
    """Fused block apply of the truncated Taylor series of ``exp(scale * Psi)``.

    The kernel represents a symmetric PSD operator
    ``Psi = Q diag(w) Q^T`` (factor form) or an explicit symmetric matrix
    ``Psi`` (matrix form) and evaluates

    .. math::

        \\hat B(s) \\; b \\;=\\; \\sum_{0 \\le i < k} \\frac{(s\\,\\Psi)^i}{i!}\\, b

    for an entire ``(m, s)`` block of vectors ``b`` at once — the Lemma 4.2
    truncated exponential that the Theorem 4.1 oracle pushes its sketch
    block through.  Construction chooses between the factor-space recurrence
    and a one-time densification of ``Psi`` by comparing their per-term GEMM
    cost (see the module docstring); both evaluate the identical polynomial.

    Parameters
    ----------
    q:
        Packed factor stack of shape ``(m, R)`` — a dense array or a scipy
        sparse matrix (the :attr:`PackedGramFactors.matrix` layout).
    col_weights:
        Per-*column* non-negative weights ``w`` of length ``R`` (the
        constraint weights already expanded by rank, e.g. via
        :meth:`PackedGramFactors.expand_weights`).
    chunk_columns:
        Default column-chunk size for :meth:`apply` (``None`` = unchunked).
    densify:
        Force (``True``) or forbid (``False``) the one-time materialisation
        of ``Psi``; ``None`` (default) keeps the legacy flop-ratio rule
        ``2 nnz(Q) > m^2``.  The rank-adaptive engine
        (:class:`~repro.linalg.taylor_gram.TaylorEngine`) passes an explicit
        choice from its measured-cost policy.

    Attributes
    ----------
    dim:
        Ambient dimension ``m``.
    matvec_count:
        Running count of (model-level) matrix–vector products performed by
        :meth:`apply` — ``s * (degree - 1)`` per call, the same unit
        :class:`~repro.linalg.taylor.TaylorExpmOperator` reports.
    uses_dense_psi:
        Whether construction materialised ``Psi`` (diagnostic; both modes
        produce the same values).
    """

    def __init__(
        self,
        q: np.ndarray | sp.spmatrix,
        col_weights: np.ndarray,
        chunk_columns: int | None = None,
        densify: bool | None = None,
        backend: "str | None" = None,
    ) -> None:
        self.backend = get_array_backend(backend)
        q, col_weights, m, r, self.dtype = _validated_stack(q, col_weights, self.backend)
        nnz = q.nnz if sp.issparse(q) else m * r
        self.dim = m
        self.total_rank = r
        self.matvec_count = 0
        self.chunk_columns = chunk_columns
        self._psi: np.ndarray | None = None
        self._psi_sparse: sp.csr_matrix | None = None
        self._q: np.ndarray | sp.csr_matrix | None = None
        self._qw: np.ndarray | sp.csr_matrix | None = None

        if densify is None:
            densify = DENSIFY_FLOP_RATIO * nnz > m * m
        if densify:
            # One (m, R) x (R, m) GEMM now — the cost of a single Taylor
            # term — buys an m^2-per-term recurrence instead of 2 m R.
            self._psi = self.backend.asarray(densified_psi(q, col_weights))
        elif sp.issparse(q):
            self._q = q
            self._qw = q.multiply(col_weights[None, :]).tocsr()
        else:
            self._q = self.backend.asarray(q)
            self._qw = self.backend.asarray(q * col_weights)

    # ------------------------------------------------------------------ alternates
    @classmethod
    def from_matrix(
        cls, psi: np.ndarray | sp.spmatrix, backend: "str | None" = None
    ) -> "BlockedTaylorKernel":
        """Kernel over an explicit symmetric matrix ``Psi`` (no factor form).

        Dense matrices use the fused dense recurrence directly; sparse
        matrices keep sparse matvecs (NumPy backend only).
        """
        kernel = cls.__new__(cls)
        kernel.backend = get_array_backend(backend)
        kernel.matvec_count = 0
        kernel.chunk_columns = None
        kernel._q = None
        kernel._qw = None
        kernel._psi = None
        kernel._psi_sparse = None
        if sp.issparse(psi):
            if not kernel.backend.is_numpy:
                raise InvalidProblemError(
                    "sparse psi matrices are NumPy-only; densify before "
                    "handing them to a non-NumPy backend"
                )
            kernel.dtype = np.dtype(np.float64)
            kernel._psi_sparse = psi.tocsr()
            kernel.dim = int(psi.shape[0])
        else:
            kernel.dtype = _stack_dtype(psi)
            psi = np.asarray(psi, dtype=kernel.dtype)
            kernel._psi = kernel.backend.asarray(psi)
            kernel.dim = int(psi.shape[0])
        kernel.total_rank = kernel.dim
        if psi.shape != (kernel.dim, kernel.dim):
            raise InvalidProblemError(f"psi must be square, got shape {psi.shape}")
        return kernel

    @classmethod
    def from_scaled_factors(
        cls,
        q: np.ndarray | sp.spmatrix,
        qw: np.ndarray | sp.spmatrix,
        chunk_columns: int | None = None,
        backend: "str | None" = None,
    ) -> "BlockedTaylorKernel":
        """Kernel over a stack whose weight fold ``Q diag(w)`` already exists.

        The :class:`~repro.linalg.taylor_gram.TaylorEngine` maintains the
        scaled stack across solver iterations by rescaling only the active
        columns; this constructor reuses it instead of re-folding the
        weights (an ``O(nnz)`` pass) on every call.  The factor recurrence
        is forced — no densification check — because the engine's selection
        policy already decided against the dense representation.
        """
        kernel = cls.__new__(cls)
        kernel.backend = get_array_backend(backend)
        kernel.matvec_count = 0
        kernel.chunk_columns = chunk_columns
        kernel._psi = None
        kernel._psi_sparse = None
        if sp.issparse(q) != sp.issparse(qw) or q.shape != qw.shape:
            raise InvalidProblemError(
                "q and qw must share storage kind and shape, got "
                f"{q.shape} and {qw.shape}"
            )
        if sp.issparse(q):
            if not kernel.backend.is_numpy:
                raise InvalidProblemError(
                    "sparse factor stacks are NumPy-only; densify the stack "
                    "before handing it to a non-NumPy backend"
                )
            kernel.dtype = np.dtype(np.float64)
            kernel._q = q.tocsr()
            kernel._qw = qw
        else:
            kernel.dtype = _stack_dtype(q)
            kernel._q = kernel.backend.asarray(np.asarray(q, dtype=kernel.dtype))
            kernel._qw = kernel.backend.asarray(np.asarray(qw, dtype=kernel.dtype))
        kernel.dim = int(q.shape[0])
        kernel.total_rank = int(q.shape[1])
        return kernel

    @property
    def uses_dense_psi(self) -> bool:
        """Whether the kernel runs the recurrence on a materialised ``Psi``."""
        return self._psi is not None

    @property
    def mode(self) -> str:
        """Representation tag in the engine's vocabulary (for error attribution)."""
        if self._psi is not None:
            return "dense-psi"
        if self._psi_sparse is not None:
            return "sparse-psi"
        if sp.issparse(self._q):
            return "sparse-factors"
        return "dense-factors"

    # ------------------------------------------------------------------ matvec
    def matvec(self, block: np.ndarray) -> np.ndarray:
        """``Psi @ block`` (unscaled) — used for spectral-norm estimation.

        Uses whichever representation the kernel holds; for the densified
        mode this is a single ``m^2``-madd product per column.
        """
        if self._psi_sparse is not None:
            return self._psi_sparse @ block
        if sp.issparse(self._q):
            return self._qw @ (self._q.T @ block)
        xp = self.backend
        b = xp.asarray(block, dtype=self.dtype)
        if self._psi is not None:
            return xp.to_numpy(xp.matmul(self._psi, b))
        return xp.to_numpy(xp.matmul(self._qw, xp.matmul(self._q.T, b)))

    # ------------------------------------------------------------------ apply
    # apply() is inherited from _FusedTaylorApplyBase; this kernel supplies
    # the per-chunk recurrence for whichever representation it holds.
    def _apply_chunk(self, block: np.ndarray, degree: int, scale: float) -> np.ndarray:
        if self._psi is not None:
            return self._apply_dense_psi(block, degree, scale)
        if self._psi_sparse is not None:
            return self._apply_sparse_op(self._psi_sparse, None, block, degree, scale)
        if sp.issparse(self._q):
            return self._apply_sparse_op(self._qw, self._q, block, degree, scale)
        return self._apply_dense_factors(block, degree, scale)

    def _apply_dense_psi(self, block: np.ndarray, degree: int, scale: float) -> np.ndarray:
        xp = self.backend
        acc = xp.copy(xp.asarray(block, dtype=self.dtype))
        term = xp.copy(acc)
        buf = xp.empty_like(term)
        for i in range(1, degree):
            xp.matmul(self._psi, term, out=buf)
            buf *= scale / i
            acc += buf
            term, buf = buf, term
        return xp.to_numpy(acc)

    def _apply_dense_factors(self, block: np.ndarray, degree: int, scale: float) -> np.ndarray:
        xp = self.backend
        acc = xp.copy(xp.asarray(block, dtype=self.dtype))
        term = xp.copy(acc)
        buf = xp.empty_like(term)
        inner = xp.empty((self.total_rank, block.shape[1]), dtype=self.dtype)
        qw_t = self._qw.T
        for i in range(1, degree):
            xp.matmul(qw_t, term, out=inner)
            xp.matmul(self._q, inner, out=buf)
            buf *= scale / i
            acc += buf
            term, buf = buf, term
        return xp.to_numpy(acc)

    @staticmethod
    def _apply_sparse_op(
        op: sp.csr_matrix,
        q: sp.csr_matrix | None,
        block: np.ndarray,
        degree: int,
        scale: float,
    ) -> np.ndarray:
        # scipy sparse products cannot write into preallocated buffers, so
        # this mode only folds the weights (op = Q diag(w)) and hoists the
        # finiteness check; the per-term product count matches the factored
        # reference.
        term = np.array(block, dtype=np.float64, copy=True)
        acc = term.copy()
        for i in range(1, degree):
            term = op @ (q.T @ term) if q is not None else op @ term
            term *= scale / i
            acc += term
        return acc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockedTaylorKernel(dim={self.dim}, R={self.total_rank}, mode={self.mode})"
        )


def blocked_taylor_apply(
    q: np.ndarray | sp.spmatrix,
    col_weights: np.ndarray,
    block: np.ndarray,
    degree: int,
    scale: float = 1.0,
    chunk_columns: int | None = None,
    backend: "str | None" = None,
) -> np.ndarray:
    """One-shot convenience wrapper around :class:`BlockedTaylorKernel`.

    Equivalent to ``BlockedTaylorKernel(q, col_weights).apply(block, degree,
    scale, chunk_columns)``; prefer constructing the kernel once when the
    same ``(q, w)`` pair is applied to several blocks (the densified ``Psi``
    and scaled factor copies are then reused across calls).
    """
    kernel = BlockedTaylorKernel(q, col_weights, backend=backend)
    return kernel.apply(block, degree, scale=scale, chunk_columns=chunk_columns)
