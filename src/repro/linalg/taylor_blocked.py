"""Blocked/fused truncated-Taylor kernel for the Lemma 4.2 apply.

:func:`repro.linalg.taylor.taylor_expm_apply` evaluates the degree-``k``
polynomial one *term* at a time through a matvec callable.  That is the
right reference implementation, but it pays a weight-broadcast pass, a
``scale`` copy, a division copy, and a full finiteness scan *per term*.
:class:`BlockedTaylorKernel` runs the same Horner-style forward recurrence
over a whole ``(m, s)`` block in two preallocated ping-pong buffers
(``matmul(..., out=...)``) and checks finiteness once at the end, in one of
three representations:

* a dense ``Psi`` (:meth:`BlockedTaylorKernel.from_matrix`): one fused
  ``m^2 s`` GEMM per term — for the degenerate-sketch regime of Theorem
  4.1 (``m ≲ 1000`` at tight eps, where the JL dimension reaches ``m`` and
  the "sketch" block is the full identity) the dominant-cost path;
* a sparse scaled factor stack ``Q diag(w)``
  (:meth:`BlockedTaylorKernel.from_scaled_factors`), two sparse products
  per term;
* an explicit sparse CSR ``Psi`` (:meth:`~BlockedTaylorKernel.from_matrix`
  again), one sparse product per term — what
  :func:`~repro.core.dotexp.big_dot_exp` runs on a sparse matrix ``phi``.

The rank-adaptive engine (:class:`~repro.linalg.taylor_gram.TaylorEngine`)
builds the first two past the Gram gate.

:func:`densified_psi` materialises ``Psi = Q diag(w) Q^T`` for the first.
Every representation evaluates *exactly the same polynomial* as
:func:`~repro.linalg.taylor.taylor_expm_apply`; results agree to floating-
point rounding (~1e-13), which the equivalence tests in
``tests/test_linalg_taylor_blocked.py`` pin down per column.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import InvalidProblemError, NumericalError
from repro.robustness.faultinject import fault_hook_array

__all__ = ["BlockedTaylorKernel", "densified_psi"]


def _stack_dtype(q: np.ndarray | sp.spmatrix) -> np.dtype:
    """The working dtype a kernel adopts for stack ``q``: ``float32`` stays
    ``float32`` (no silent upcast in the ping-pong buffers), everything
    else runs in the reference ``float64``."""
    dtype = np.dtype(getattr(q, "dtype", np.float64))
    return np.dtype(np.float32) if dtype == np.float32 else np.dtype(np.float64)


def _validated_stack(q, col_weights):
    """``(q, col_weights, m, R, dtype)`` of a factor stack, validated for a kernel.

    Sparse stacks become CSR and run in float64; dense float32 stacks keep
    their dtype (:func:`_stack_dtype`), and the weights follow the stack's
    dtype.
    """
    if sp.issparse(q):
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

    The one densification implementation: the rank-adaptive engine's
    ``dense-psi`` kernel build
    (:class:`~repro.linalg.taylor_gram.TaylorEngine`) and the kappa source
    of ``R > m`` stacks both use it, so the weight fold and the
    ``0.5 (Psi + Psi^T)`` symmetrisation can never drift apart.
    """
    if sp.issparse(q):
        qw = q.multiply(np.asarray(col_weights)[None, :]).tocsr()
        psi = np.asarray((qw @ q.T).todense(), dtype=np.float64)
    else:
        psi = (q * col_weights) @ q.T
    return 0.5 * (psi + psi.T)


class _FusedTaylorApplyBase:
    """Shared block-apply driver of the fused Taylor kernels.

    Subclasses (:class:`BlockedTaylorKernel`,
    :class:`~repro.linalg.taylor_gram.GramTaylorKernel`) provide
    ``_apply_block(block, degree, scale)`` plus ``dim``/``matvec_count``
    attributes; this base owns the one implementation of input validation,
    the model-level matvec bookkeeping, and the final fault hook and
    finiteness check (:meth:`_checked`), so the kernels cannot drift apart
    on those behaviours.
    """

    dim: int
    matvec_count: int

    #: Fault-injection / error-attribution site identifier; Gram-space
    #: subclasses override it so supervisors can tell the kernels apart.
    fault_site = "taylor_blocked.apply"

    #: Working dtype of the recurrence buffers: the stack's dtype when it
    #: is float32, the reference float64 otherwise (constructors override).
    dtype: np.dtype = np.dtype(np.float64)

    def apply(self, block: np.ndarray, degree: int, scale: float = 1.0) -> np.ndarray:
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
        out = self._apply_block(block, degree, scale)
        self.matvec_count += block.shape[1] * (degree - 1)
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

    def _apply_block(self, block: np.ndarray, degree: int, scale: float) -> np.ndarray:
        raise NotImplementedError  # pragma: no cover - subclasses implement


class BlockedTaylorKernel(_FusedTaylorApplyBase):
    """Fused block apply of the truncated Taylor series of ``exp(scale * Psi)``.

    The kernel holds ``Psi`` as a dense or CSR matrix, or as a sparse factor
    stack with its weight fold ``Q diag(w)``, and evaluates

    .. math::

        \\hat B(s) \\; b \\;=\\; \\sum_{0 \\le i < k} \\frac{(s\\,\\Psi)^i}{i!}\\, b

    for an entire ``(m, s)`` block of vectors ``b`` at once — the Lemma 4.2
    truncated exponential that the Theorem 4.1 oracle pushes its sketch
    block through.  Build one with :meth:`from_matrix` or
    :meth:`from_scaled_factors`; every representation evaluates the
    identical polynomial.

    Attributes
    ----------
    dim:
        Ambient dimension ``m``.
    matvec_count:
        Running count of (model-level) matrix–vector products performed by
        :meth:`apply` — ``s * (degree - 1)`` per call, the same unit
        :class:`~repro.linalg.taylor.TaylorExpmOperator` reports.
    host_psi:
        The host ``ndarray`` a dense :meth:`from_matrix` kernel was built
        from (the fast oracle's kappa source when ``R > m``); ``None`` for
        the sparse representations.
    """

    @classmethod
    def _empty(cls, dim: int, total_rank: int, dtype) -> "BlockedTaylorKernel":
        kernel = cls.__new__(cls)
        kernel.matvec_count = 0
        kernel.dim = dim
        kernel.total_rank = total_rank
        kernel.dtype = dtype
        kernel._psi = kernel._q = kernel._qw = kernel.host_psi = None
        return kernel

    @classmethod
    def from_matrix(cls, psi: np.ndarray | sp.spmatrix) -> "BlockedTaylorKernel":
        """Kernel over an explicit symmetric matrix ``Psi`` (no factor form).

        Dense matrices use the fused dense recurrence directly; sparse
        matrices keep sparse matvecs.
        """
        dim = int(psi.shape[0])
        if psi.shape != (dim, dim):
            raise InvalidProblemError(f"psi must be square, got shape {psi.shape}")
        if sp.issparse(psi):
            kernel = cls._empty(dim, dim, np.dtype(np.float64))
            kernel._psi = psi.tocsr()
        else:
            kernel = cls._empty(dim, dim, _stack_dtype(psi))
            kernel.host_psi = psi
            kernel._psi = np.asarray(psi, dtype=kernel.dtype)
        return kernel

    @classmethod
    def from_scaled_factors(
        cls, q: sp.spmatrix, qw: sp.spmatrix
    ) -> "BlockedTaylorKernel":
        """Kernel over a sparse stack ``Q`` and its weight fold ``Q diag(w)``.

        The :class:`~repro.linalg.taylor_gram.TaylorEngine` folds each
        call's weights into its cached CSC copy of the stack (one pass over
        ``nnz(Q)``) and hands both here.  Sparse stacks run in float64.
        """
        if not (sp.issparse(q) and sp.issparse(qw)) or q.shape != qw.shape:
            raise InvalidProblemError(
                "q and qw must be sparse stacks of one shape, got "
                f"{q.shape} and {qw.shape}"
            )
        kernel = cls._empty(int(q.shape[0]), int(q.shape[1]), np.dtype(np.float64))
        kernel._q = q.tocsr()
        kernel._qw = qw
        return kernel

    @property
    def mode(self) -> str:
        """Representation tag for error attribution.

        ``"dense-psi"`` and ``"sparse-factors"`` name the engine's modes;
        a kernel over an explicit CSR ``Psi`` reports ``"sparse-psi"``,
        which no engine builds.
        """
        if self._psi is None:
            return "sparse-factors"
        return "sparse-psi" if sp.issparse(self._psi) else "dense-psi"

    # ------------------------------------------------------------------ matvec
    def matvec(self, block: np.ndarray) -> np.ndarray:
        """``Psi @ block`` (unscaled) — used for spectral-norm estimation."""
        if self._psi is None:
            return self._qw @ (self._q.T @ block)
        if sp.issparse(self._psi):
            return self._psi @ block
        return self._psi @ np.asarray(block, dtype=self.dtype)

    # ------------------------------------------------------------------ apply
    # apply() is inherited from _FusedTaylorApplyBase; this kernel supplies
    # the recurrence for whichever representation it holds.
    def _apply_block(self, block: np.ndarray, degree: int, scale: float) -> np.ndarray:
        if self._psi is None:
            return self._apply_sparse_op(self._qw, self._q, block, degree, scale)
        if sp.issparse(self._psi):
            return self._apply_sparse_op(self._psi, None, block, degree, scale)
        return self._apply_dense_psi(block, degree, scale)

    def _apply_dense_psi(self, block: np.ndarray, degree: int, scale: float) -> np.ndarray:
        acc = np.array(block, dtype=self.dtype, copy=True)
        term = np.array(acc, copy=True)
        buf = np.empty_like(term)
        for i in range(1, degree):
            np.matmul(self._psi, term, out=buf)
            buf *= scale / i
            acc += buf
            term, buf = buf, term
        return acc

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
