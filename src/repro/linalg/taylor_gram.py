"""Rank-adaptive Gram-space exponential engine (Lemma 4.2, all representations).

:mod:`repro.linalg.taylor_blocked` evaluates the truncated exponential of
``Psi = Q diag(w) Q^T`` either through the factor stack (``2 m R s`` madds
per term) or through a one-time densification (``m^2 s`` per term).  Two
cheaper exact representations exist and this module adds both, plus the
policy that picks between all of them and an engine that reuses state
across the solver's mildly-changing weight iterates:

* **Gram-space kernel** (:class:`GramTaylorKernel`): with
  ``G = Q^T Q diag(w)`` (the ``R x R`` Gram matrix of the stacked factors,
  column-scaled by the weights) every power satisfies
  ``Psi^i = Q_w G^{i-1} Q^T`` (``Q_w = Q diag(w)``), so the truncated
  series collapses to

  .. math::

      p(s\\,\\Psi)\\,B \\;=\\; B + Q\\,\\bigl(w \\circ q(s G)\\,(Q^T B)\\bigr),
      \\qquad q(sG) = \\sum_{1 \\le i < k} \\frac{s^i}{i!} G^{i-1},

  i.e. two ``(m, R)`` projections bracketing a recurrence whose per-term
  cost is ``R^2 s`` instead of ``m^2 s`` or ``2 m R s`` — the win when the
  stacked rank satisfies ``2R <= m``.
* **Sparse-Psi accumulation** (:class:`SparsePsiAccumulator`): when the
  factors are sparse, ``Psi = (Q w) Q^T`` is assembled as a CSR matrix
  whose *symbolic* pattern is weight-independent; the accumulator maps
  column weights to the CSR value array through one sparse matrix ``M``
  (``values = M w_cols``), so rebuilding ``Psi`` for new weights — or
  updating it for a sparse weight delta — never repeats the symbolic
  product.  The Horner recurrence then runs with one sparse GEMM per term
  (``nnz(Psi) s`` madds) via
  :meth:`~repro.linalg.taylor_blocked.BlockedTaylorKernel.from_matrix`.
* **Selection policy** (:func:`select_taylor_mode`): compares the measured
  per-term costs of all applicable representations — Gram space, densified
  ``Psi``, sparse ``Psi`` (discounted by the measured throughput gap
  between sparse and dense GEMMs, :data:`SPARSE_GEMM_DISCOUNT`), and the
  factor recurrences — replacing the blocked kernel's single ``2R > m``
  densification rule.
* **Incremental engine** (:class:`TaylorEngine`): the decision solvers
  change only the qualifying weight coordinates per iteration, so the
  engine keeps the weight-*independent* artifacts (``Q^T Q``, the CSR
  pattern and its accumulator) forever and maintains the weight-*dependent*
  state (``G``, the CSR values, the densified ``Psi``, the scaled factor
  stack) by updating only the active columns — work proportional to the
  touched columns, charged to the
  :class:`~repro.parallel.backends.ExecutionBackend` under the
  ``taylor-engine-update`` label, never a silent full rebuild.

Every representation evaluates the *identical* Lemma 4.2 polynomial; the
modes differ only in floating-point rounding order, which the tests in
``tests/test_linalg_taylor_gram.py`` pin per column at 1e-10.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from repro.backend import NUMPY, get_array_backend
from repro.exceptions import InvalidProblemError
from repro.linalg.taylor_blocked import _FusedTaylorApplyBase, _stack_dtype

__all__ = [
    "GramTaylorKernel",
    "SparsePsiAccumulator",
    "TaylorEngine",
    "batched_gram_taylor_apply",
    "gram_taylor_apply",
    "select_taylor_mode",
    "taylor_mode_cost",
    "GRAM_HYSTERESIS",
    "REFINEMENT_MARGIN",
    "SPARSE_GEMM_DISCOUNT",
]

#: Effective throughput penalty of a scipy CSR x dense block product versus
#: a dense BLAS-3 GEMM, per multiply-add (measured at 6-12x on the target
#: container across ``m`` in 128..512 and densities in 2..20%; 8 is the
#: conservative midpoint).  The selection policy multiplies sparse-mode madd
#: counts by this factor so "fewer flops" only wins when it survives the
#: throughput gap.
SPARSE_GEMM_DISCOUNT = 8.0

#: Hysteresis margin on the Gram-space gate: the Gram recurrence is allowed
#: up to ``2R <= GRAM_HYSTERESIS * m`` instead of the sharp ``2R <= m``.  At
#: ``2R`` just past ``m`` the per-term cost ``R^2 ~ m^2/4`` still clearly
#: beats the densified recurrence's ``m^2`` (the two ``m x R`` projections
#: it adds amortise over the Taylor degree), so near-threshold adversary
#: stacks do not fall off a cliff onto the densified kernel for being a
#: few columns over the boundary.
#: Past ~1.1m the projection overhead and the Gram build's ``m R^2`` start
#: eating the margin, so the gate stays conservative.
GRAM_HYSTERESIS = 1.1

#: Required relative win before `auto_taylor_mode`'s two-stage refinement
#: builds the exact sparse-``Psi`` pattern: the candidate's optimistic cost
#: must undercut the current winner by at least this factor.  Refinement
#: that could at best *match* the already-selected kernel would pay the
#: pattern build only to flip-flop between equal-cost modes.
REFINEMENT_MARGIN = 0.9

#: Modes understood by :func:`select_taylor_mode` / :class:`TaylorEngine`.
_MODES = ("gram", "dense-psi", "sparse-psi", "dense-factors", "sparse-factors")


def taylor_mode_cost(
    mode: str,
    dim: int,
    total_rank: int,
    nnz: int,
    psi_nnz: int | None = None,
) -> float:
    """Estimated per-term cost (dense-madd units, per block column) of a mode.

    The single cost model behind :func:`select_taylor_mode` and the
    exact-pattern refinement in
    :meth:`~repro.operators.packed.PackedGramFactors.auto_taylor_mode`:

    * ``gram``: ``R^2``;
    * ``dense-psi``: ``m^2``;
    * ``dense-factors``: ``2 m R``;
    * ``sparse-factors``: ``2 nnz(Q)`` discounted by
      :data:`SPARSE_GEMM_DISCOUNT`;
    * ``sparse-psi``: ``nnz(Psi)`` with the same discount (``inf`` when
      ``psi_nnz`` is unknown).
    """
    if mode == "gram":
        return float(total_rank) * total_rank
    if mode == "dense-psi":
        return float(dim) * dim
    if mode == "dense-factors":
        return 2.0 * float(dim) * total_rank
    if mode == "sparse-factors":
        return SPARSE_GEMM_DISCOUNT * 2.0 * float(nnz)
    if mode == "sparse-psi":
        if psi_nnz is None:
            return float("inf")
        return SPARSE_GEMM_DISCOUNT * float(psi_nnz)
    raise InvalidProblemError(f"unknown taylor mode {mode!r}")


def select_taylor_mode(
    dim: int,
    total_rank: int,
    nnz: int,
    is_sparse: bool,
    psi_nnz: int | None = None,
) -> str:
    """Pick the cheapest exact Taylor representation for ``Psi = Q w Q^T``.

    Parameters
    ----------
    dim:
        Ambient dimension ``m``.
    total_rank:
        Stacked rank ``R`` of the factor matrix ``Q``.
    nnz:
        Stored nonzeros of ``Q`` (``m * R`` for a dense stack).
    is_sparse:
        Whether the stack is stored sparse (CSR/CSC).
    psi_nnz:
        Nonzero count (or a cheap upper bound, e.g.
        :meth:`~repro.operators.packed.PackedGramFactors.psi_nnz_bound`) of
        the assembled ``Psi``; only consulted for sparse stacks.  ``None``
        disables the sparse-``Psi`` candidate.

    Returns
    -------
    str
        One of ``"gram"``, ``"dense-psi"``, ``"sparse-psi"``,
        ``"sparse-factors"`` — the mode whose :func:`taylor_mode_cost` is
        smallest among the applicable candidates:

        * dense stacks: gram whenever ``2R <= GRAM_HYSTERESIS * dim``
          (``R^2 <= m^2/4`` at the nominal boundary beats both the dense
          recurrence and the ``2mR`` factor recurrence; the two ``m x R``
          projections it adds are one factor-term's worth of work,
          amortised over the degree — and the ~10% hysteresis keeps
          near-threshold stacks with ``2R`` just past ``m`` on the Gram
          path instead of dropping them onto the densified kernel at
          break-even), the densified recurrence otherwise;
        * sparse stacks: the argmin over gram (gated on the same
          hysteresis boundary, and costed at the *dense* ``R^2`` rate
          since ``G`` is materialised dense), densified ``Psi``, sparse
          ``Psi``, and the sparse factor recurrence — so a very sparse
          stack never pays a dense ``R x R`` Gram matrix its factor
          recurrence undercuts.

        Ties break toward the earlier entry in the order above (denser
        representations are preferred at equal cost: their constants are
        more predictable).  The decision depends only on the immutable
        shape quantities ``(m, R, nnz, nnz(Psi))``, so repeated calls for
        the same stack can never flip-flop between modes.
    """
    if dim < 0 or total_rank < 0:
        raise InvalidProblemError(
            f"dim and total_rank must be non-negative, got {dim}, {total_rank}"
        )
    if total_rank == 0:
        return "gram"
    gram_ok = 2 * total_rank <= GRAM_HYSTERESIS * dim
    if not is_sparse:
        return "gram" if gram_ok else "dense-psi"
    candidates = (["gram"] if gram_ok else []) + [
        "dense-psi",
        "sparse-psi",
        "sparse-factors",
    ]
    best_mode, best_cost = None, float("inf")
    for mode in candidates:
        cost = taylor_mode_cost(mode, dim, total_rank, nnz, psi_nnz=psi_nnz)
        if cost < best_cost:
            best_mode, best_cost = mode, cost
    return best_mode


def _validated_stack(q, col_weights):
    """Shared (q, col_weights) validation for the Gram kernel and engine.

    Dense float32 stacks keep their dtype (everything else is computed in
    float64) so the Gram recurrence never silently upcasts a float32
    workload — the same rule as
    :func:`repro.linalg.taylor_blocked._stack_dtype`.
    """
    if sp.issparse(q):
        q = q.tocsr()
        dtype = np.dtype(np.float64)
        m, r = q.shape
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


class GramTaylorKernel(_FusedTaylorApplyBase):
    """Gram-space block apply of the truncated Taylor series of ``exp(scale * Psi)``.

    Evaluates the same polynomial as
    :class:`~repro.linalg.taylor_blocked.BlockedTaylorKernel` through the
    identity ``p(s Psi) B = B + Q (w ∘ q(sG) (Q^T B))`` with the ``R x R``
    Gram matrix ``G = (Q^T Q) diag(w)``: one down-projection ``Q^T B``, a
    forward recurrence of ``R x R`` GEMMs in ping-pong buffers, and one
    up-projection.  Per-term cost ``R^2 s`` — the cheapest representation
    whenever ``2R <= m``.

    Parameters
    ----------
    q:
        Packed factor stack ``Q`` of shape ``(m, R)`` (dense or scipy
        sparse; the :attr:`~repro.operators.packed.PackedGramFactors.matrix`
        layout).
    col_weights:
        Per-column non-negative weights ``w`` of length ``R``.
    gram:
        Optional precomputed dense ``(R, R)`` matrix ``(Q^T Q) diag(w)``.
        :class:`TaylorEngine` maintains this across calls by rescaling only
        the active columns; when omitted it is computed here (one
        ``R x m x R`` product).
    chunk_columns:
        Default column-chunk size for :meth:`apply` (``None`` = unchunked).
    backend:
        Array backend spec (``None``/name/instance, resolved through
        :func:`repro.backend.get_array_backend`).  The recurrence and the
        two projections run on the backend; sparse stacks are NumPy-only.

    Attributes
    ----------
    dim, total_rank, matvec_count:
        Same conventions as the blocked kernel (``matvec_count`` grows by
        ``s * (degree - 1)`` per apply — the model-level product count).
    """

    def __init__(
        self,
        q: np.ndarray | sp.spmatrix,
        col_weights: np.ndarray,
        gram: np.ndarray | None = None,
        chunk_columns: int | None = None,
        backend=None,
    ) -> None:
        self.backend = get_array_backend(backend)
        q, col_weights, m, r = _validated_stack(q, col_weights)[:4]
        if sp.issparse(q) and not self.backend.is_numpy:
            raise InvalidProblemError(
                "sparse factor stacks are NumPy-only; densify the stack "
                "before handing it to a non-NumPy backend"
            )
        self.dtype = _stack_dtype(q) if not sp.issparse(q) else np.dtype(np.float64)
        self._q = q
        self._col_w = col_weights
        self.dim = m
        self.total_rank = r
        self.matvec_count = 0
        self.chunk_columns = chunk_columns
        if gram is None:
            if r == 0:
                gram = np.zeros((0, 0), dtype=self.dtype)
            elif sp.issparse(q):
                gram = np.asarray((q.T @ q).todense(), dtype=np.float64) * col_weights
            else:
                gram = (q.T @ q) * col_weights
        else:
            gram = np.asarray(gram, dtype=self.dtype)
            if gram.shape != (r, r):
                raise InvalidProblemError(
                    f"gram matrix must have shape {(r, r)}, got {gram.shape}"
                )
        self._g = gram
        # Lazily-transferred device copies of (q, gram, col_w); on the NumPy
        # backend asarray is a pass-through, so this is the host state itself.
        self._dev = None

    def _device_state(self):
        if self._dev is None:
            xp = self.backend
            q = self._q if sp.issparse(self._q) else xp.asarray(self._q)
            self._dev = (q, xp.asarray(self._g), xp.asarray(self._col_w))
        return self._dev

    @property
    def mode(self) -> str:
        """Representation tag (always ``"gram"``; mirrors the engine's vocabulary)."""
        return "gram"

    #: Gram-space apply failures are attributed to their own site so the
    #: supervisor can demote the Gram recurrence specifically.
    fault_site = "taylor_gram.apply"

    def matvec(self, block: np.ndarray) -> np.ndarray:
        """``Psi @ block`` (unscaled) through the factors — two projections."""
        if sp.issparse(self._q):
            inner = self._q.T @ block
            if inner.ndim == 1:
                return self._q @ (self._col_w * inner)
            return self._q @ (self._col_w[:, None] * inner)
        xp = self.backend
        q, _, col_w = self._device_state()
        b = xp.asarray(np.asarray(block, dtype=self.dtype))
        inner = xp.matmul(q.T, b)
        scaled = col_w * inner if inner.ndim == 1 else col_w[:, None] * inner
        return xp.to_numpy(xp.matmul(q, scaled))

    # apply() is inherited from _FusedTaylorApplyBase (the shared validation
    # + chunk-loop + finiteness driver); the Gram recurrence lives here.
    def _apply_chunk(self, block: np.ndarray, degree: int, scale: float) -> np.ndarray:
        if self.total_rank == 0 or degree == 1:
            return np.array(block, dtype=self.dtype, copy=True)
        xp = self.backend
        q, g, col_w = self._device_state()
        sparse_q = sp.issparse(self._q)
        # q(sG) C with C = Q^T B: u_1 = s C, u_{i} = (s / i) G u_{i-1}.
        if sparse_q:
            # Sparse stacks are NumPy-resident (xp is the NumPy backend).
            b = block
            inner = xp.asarray(np.asarray(self._q.T @ block, dtype=self.dtype))
        else:
            b = xp.asarray(block)
            inner = xp.matmul(q.T, b)
        term = scale * inner
        acc = xp.copy(term)
        buf = xp.empty_like(term)
        for i in range(2, degree):
            xp.matmul(g, term, out=buf)
            buf *= scale / i
            acc += buf
            term, buf = buf, term
        acc *= col_w[:, None]
        if sparse_q:
            return block + self._q @ xp.to_numpy(acc)
        return xp.to_numpy(b + xp.matmul(q, acc))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GramTaylorKernel(dim={self.dim}, R={self.total_rank})"


def gram_taylor_apply(
    q: np.ndarray | sp.spmatrix,
    col_weights: np.ndarray,
    block: np.ndarray,
    degree: int,
    scale: float = 1.0,
    chunk_columns: int | None = None,
    backend=None,
) -> np.ndarray:
    """One-shot convenience wrapper around :class:`GramTaylorKernel`.

    Equivalent to ``GramTaylorKernel(q, col_weights).apply(block, degree,
    scale, chunk_columns)``; prefer the kernel (or a
    :class:`TaylorEngine`) when the same stack is applied repeatedly so the
    Gram matrix is built once.
    """
    kernel = GramTaylorKernel(q, col_weights, backend=backend)
    return kernel.apply(block, degree, scale=scale, chunk_columns=chunk_columns)


def batched_gram_taylor_apply(
    q_stack: np.ndarray,
    inner_stack: np.ndarray,
    gram_stack: np.ndarray,
    colw_stack: np.ndarray,
    degrees: np.ndarray,
    scale: float = 0.5,
) -> np.ndarray:
    """Ragged-degree Gram-recurrence Taylor apply over a batch of instances.

    Runs the same accumulation as :meth:`GramTaylorKernel._apply_chunk` for
    ``B`` shape-homogeneous instances at once, with every multiply a single
    stacked GEMM.  ``q_stack`` is the ``(B, m, R)`` factor super-stack,
    ``inner_stack`` the precomputed ``(B, R, R)`` block of ``Q^T Q`` products
    (the sequential path's ``self._q.T @ block`` for ``block =
    dense_columns()``), ``gram_stack`` the per-instance weighted Gram matrices
    ``G = (Q^T Q) * w`` and ``colw_stack`` the ``(B, R)`` expanded column
    weights.  ``degrees`` holds each instance's Taylor degree; instances with
    shorter series simply stop accumulating while the shared ping-pong keeps
    rolling for the longest one, so the per-instance results match
    ``kernel.apply(dense_columns(), degree, scale)`` bitwise.

    Returns the ``(B, m, R)`` batch of transformed factor stacks.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if q_stack.ndim != 3 or inner_stack.ndim != 3 or gram_stack.ndim != 3:
        raise InvalidProblemError("batched Taylor apply expects 3-D stacks")
    if degrees.shape[0] != q_stack.shape[0]:
        raise InvalidProblemError("one Taylor degree per batched instance required")
    if q_stack.shape[2] < 1:
        raise InvalidProblemError("batched Taylor apply requires total rank >= 1")
    if degrees.size == 0 or int(degrees.min()) < 2:
        raise InvalidProblemError("batched Taylor apply requires degree >= 2")
    max_degree = int(degrees.max())
    # The fused batch path is NumPy-resident by contract (see
    # core.batch._fused_key); the stacked GEMMs route through the shared
    # NumPy backend object explicitly.
    xp = NUMPY
    term = scale * inner_stack
    acc = term.copy()
    buf = np.empty_like(term)
    for i in range(2, max_degree):
        xp.matmul(gram_stack, term, out=buf)
        buf *= scale / i
        idx = np.flatnonzero(degrees > i)
        if idx.size == degrees.size:
            acc += buf
        elif idx.size:
            acc[idx] += buf[idx]
        term, buf = buf, term
    acc *= colw_stack[:, :, None]
    return q_stack + xp.matmul(q_stack, acc)


class SparsePsiAccumulator:
    """Weight-to-CSR-values map for ``Psi = Q diag(w) Q^T`` with a fixed pattern.

    The symbolic pattern of ``Psi`` depends only on the sparsity structure
    of ``Q``: entry ``(i, j)`` can be nonzero iff some column of ``Q`` has
    nonzeros in both rows.  The accumulator computes that pattern once (a
    structural ``|Q| |Q|^T`` product) and assembles the sparse matrix

    .. math:: M \\in \\mathbb{R}^{\\mathrm{nnz}(\\Psi) \\times R},
        \\qquad M[e, c] = Q[i_e, c]\\, Q[j_e, c],

    mapping per-column weights to the CSR value array: ``values(w) = M w``.
    Rebuilding ``Psi`` for new weights is one SpMV over ``nnz(M) = sum_c
    nnz(Q_{:,c})^2`` entries, and updating it for a sparse weight delta
    touches only the active columns of ``M`` — the cross-iteration reuse
    the decision solvers exploit through :class:`TaylorEngine`.

    Parameters
    ----------
    q:
        Sparse ``(m, R)`` factor stack (any scipy format; converted to CSC).
    """

    def __init__(self, q: sp.spmatrix) -> None:
        if not sp.issparse(q):
            raise InvalidProblemError("SparsePsiAccumulator requires a sparse stack")
        q_csc = q.tocsc()
        m, r = q_csc.shape
        self.dim = int(m)
        self.total_rank = int(r)
        structure = abs(q_csc)
        pattern = (structure @ structure.T).tocsr()
        pattern.sort_indices()
        self._indptr = pattern.indptr.copy()
        self._indices = pattern.indices.copy()
        self.psi_nnz = int(self._indices.shape[0])
        # Composite row-major keys make the per-row sorted index arrays one
        # globally sorted array, so every (i, j) -> entry-id lookup is a
        # single vectorised searchsorted.
        entry_rows = np.repeat(np.arange(m, dtype=np.int64), np.diff(self._indptr))
        pattern_keys = entry_rows * m + self._indices.astype(np.int64)

        entry_ids: list[np.ndarray] = []
        col_ids: list[np.ndarray] = []
        data: list[np.ndarray] = []
        for c in range(r):
            lo, hi = q_csc.indptr[c], q_csc.indptr[c + 1]
            rows_c = q_csc.indices[lo:hi].astype(np.int64)
            vals_c = q_csc.data[lo:hi]
            k = rows_c.shape[0]
            if k == 0:
                continue
            ii = np.repeat(rows_c, k)
            jj = np.tile(rows_c, k)
            keys = ii * m + jj
            entry_ids.append(np.searchsorted(pattern_keys, keys))
            col_ids.append(np.full(k * k, c, dtype=np.int64))
            data.append(np.repeat(vals_c, k) * np.tile(vals_c, k))
        if entry_ids:
            coo = sp.coo_matrix(
                (
                    np.concatenate(data),
                    (np.concatenate(entry_ids), np.concatenate(col_ids)),
                ),
                shape=(self.psi_nnz, r),
            )
            self._m = coo.tocsc()
        else:
            self._m = sp.csc_matrix((self.psi_nnz, r), dtype=np.float64)

    @property
    def map_nnz(self) -> int:
        """Stored entries of the weight-to-values map ``M`` (build/update cost)."""
        return int(self._m.nnz)

    def column_cost(self, columns: np.ndarray) -> int:
        """Entries of ``M`` touched when updating the given weight columns."""
        columns = np.asarray(columns, dtype=np.int64)
        return int(
            np.sum(self._m.indptr[columns + 1] - self._m.indptr[columns])
        )

    def values(self, col_weights: np.ndarray) -> np.ndarray:
        """CSR value array of ``Psi`` for the given per-column weights."""
        col_weights = np.asarray(col_weights, dtype=np.float64).ravel()
        if col_weights.shape[0] != self.total_rank:
            raise InvalidProblemError(
                f"expected {self.total_rank} column weights, got {col_weights.shape[0]}"
            )
        return self._m @ col_weights

    def update_values(
        self, values: np.ndarray, columns: np.ndarray, delta: np.ndarray
    ) -> None:
        """In-place ``values += M[:, columns] @ delta`` (active columns only)."""
        if columns.shape[0] == 0:
            return
        values += self._m[:, columns] @ np.asarray(delta, dtype=np.float64)

    def psi(self, values: np.ndarray) -> sp.csr_matrix:
        """CSR ``Psi`` sharing the fixed pattern with the given value array."""
        return sp.csr_matrix(
            (values, self._indices, self._indptr), shape=(self.dim, self.dim)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparsePsiAccumulator(dim={self.dim}, R={self.total_rank}, "
            f"psi_nnz={self.psi_nnz}, map_nnz={self.map_nnz})"
        )


class TaylorEngine:
    """Incrementally-updated factory of Taylor kernels over one factor stack.

    One engine per oracle: each
    :class:`~repro.core.dotexp.FastDotExpOracle` constructs its own over the
    shared, immutable :class:`~repro.operators.packed.PackedGramFactors`
    view, so no solve ever sees another's weight-dependent buffers.
    Construction selects the representation once — the mode depends only on
    the weight-independent shape quantities ``(m, R, nnz, nnz(Psi))`` — and
    :meth:`kernel_for` then maintains the weight-dependent state across
    calls:

    ================  =======================================  =====================
    mode              persistent state                         per-active-column cost
    ========================================================================
    ``gram``          ``Q^T Q`` (immutable) + scaled ``G``     ``R`` (column rescale)
    ``dense-psi``     densified ``Psi`` buffer                 ``m^2`` (rank-1 update)
    ``sparse-psi``    CSR values via the accumulator           ``nnz(M[:, col])``
    ``*-factors``     scaled stack ``Q diag(w)``               column nnz (rescale)
    ========================================================================

    The first :meth:`kernel_for` call performs the one full build; every
    later call updates only the columns whose weights changed — there is no
    staleness detector that silently falls back to a full rebuild, and the
    :attr:`full_builds` / :attr:`columns_updated` counters (plus the
    ``taylor-engine-update`` work recorded on the backend's tracker) let
    regression tests assert exactly that.

    Parameters
    ----------
    packed:
        The :class:`~repro.operators.packed.PackedGramFactors` view whose
        stack the engine exponentiates.
    mode:
        ``"auto"`` (default) applies :func:`select_taylor_mode`; any
        explicit mode from that function's vocabulary (plus
        ``"dense-factors"``) forces the representation.
    """

    def __init__(self, packed, mode: str = "auto") -> None:
        self.packed = packed
        # The engine's host state (Gram buffers, CSR values, scaled stacks)
        # stays NumPy; the stack's array backend is only handed to the
        # kernels it builds, which transfer their inputs at construction.
        self.backend = getattr(packed, "backend", NUMPY)
        self.dim = int(packed.dim)
        self.total_rank = int(packed.total_rank)
        if mode == "auto":
            mode = packed.auto_taylor_mode()
        if mode not in _MODES:
            raise InvalidProblemError(
                f"unknown taylor mode {mode!r}; expected one of {_MODES} or 'auto'"
            )
        if mode in ("sparse-psi", "sparse-factors") and not packed.is_sparse:
            raise InvalidProblemError(f"mode {mode!r} requires a sparse factor stack")
        if mode == "dense-factors" and packed.is_sparse:
            raise InvalidProblemError("mode 'dense-factors' requires a dense stack")
        self.mode = mode
        self.full_builds = 0
        self.incremental_updates = 0
        self.columns_updated = 0
        self.charged_work = 0.0
        self._w_cols: np.ndarray | None = None
        # Weight-dependent state, populated by the first kernel_for call.
        self._gram: np.ndarray | None = None
        self._psi: np.ndarray | None = None
        self._psi_values: np.ndarray | None = None
        self._psi_csr: sp.csr_matrix | None = None
        self._qw: np.ndarray | sp.csc_matrix | None = None
        self._q_csc: sp.csc_matrix | None = (
            packed.matrix.tocsc() if packed.is_sparse else None
        )
        self._depth = math.log2(max(self.dim * max(self.total_rank, 1), 2))

    # ------------------------------------------------------------------ stats
    def stats(self) -> dict:
        """Counters for regression tests and solver metadata."""
        return {
            "mode": self.mode,
            "total_rank": self.total_rank,
            "full_builds": self.full_builds,
            "incremental_updates": self.incremental_updates,
            "columns_updated": self.columns_updated,
            "charged_work": self.charged_work,
        }

    @property
    def psi(self) -> np.ndarray | None:
        """The densified ``Psi`` buffer in ``dense-psi`` mode once built, else ``None``."""
        return self._psi if self.mode == "dense-psi" else None

    # ------------------------------------------------------------------ checkpointing
    def export_state(self) -> dict:
        """Checkpointable snapshot of the weight-dependent engine state.

        Only the genuinely path-dependent buffers are captured: the
        ``dense-psi`` matrix and ``sparse-psi`` value vector accumulate
        rank-1 bumps per iteration, so their bits depend on the update
        history and must round-trip exactly.  The ``gram``/factor-mode
        buffers are elementwise functions of the expanded column weights
        (full build and incremental update apply the same per-element
        product), so :meth:`import_state` rebuilds them from ``w_cols``
        bit-identically instead of storing them.
        """
        return {
            "mode": self.mode,
            "full_builds": int(self.full_builds),
            "incremental_updates": int(self.incremental_updates),
            "columns_updated": int(self.columns_updated),
            "charged_work": float(self.charged_work),
            "w_cols": None if self._w_cols is None else np.array(self._w_cols),
            "psi": (
                np.array(self._psi)
                if self.mode == "dense-psi" and self._psi is not None
                else None
            ),
            "psi_values": (
                np.array(self._psi_values)
                if self.mode == "sparse-psi" and self._psi_values is not None
                else None
            ),
        }

    def import_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        if state["mode"] != self.mode:
            raise InvalidProblemError(
                f"cannot import taylor-engine state for mode {state['mode']!r} "
                f"into an engine in mode {self.mode!r}"
            )
        w_cols = state.get("w_cols")
        self._w_cols = None if w_cols is None else np.array(w_cols, dtype=np.float64)
        if self._w_cols is not None:
            if self.mode == "dense-psi":
                self._psi = np.array(state["psi"], dtype=np.float64)
            elif self.mode == "sparse-psi":
                self._psi_values = np.array(state["psi_values"], dtype=np.float64)
                self._psi_csr = self.packed.psi_accumulator().psi(self._psi_values)
            else:
                self._full_build(self._w_cols)
        self.full_builds = int(state["full_builds"])
        self.incremental_updates = int(state["incremental_updates"])
        self.columns_updated = int(state["columns_updated"])
        self.charged_work = float(state["charged_work"])

    # ------------------------------------------------------------------ charging
    def _charge(self, work: float, backend) -> None:
        self.charged_work += work
        if backend is not None:
            backend.charge(work, self._depth, label="taylor-engine-update")

    # ------------------------------------------------------------------ builds
    def _full_build(self, col_w: np.ndarray) -> float:
        m, r = self.dim, self.total_rank
        packed = self.packed
        if self.mode == "gram":
            g0 = packed.gram_matrix()
            self._gram = g0 * col_w[None, :]
            return float(m) * r * r + float(r) * r
        if self.mode == "dense-psi":
            from repro.linalg.taylor_blocked import densified_psi

            self._psi = densified_psi(packed.matrix, col_w)
            return float(m) * m * r
        if self.mode == "sparse-psi":
            acc = packed.psi_accumulator()
            self._psi_values = acc.values(col_w)
            self._psi_csr = acc.psi(self._psi_values)
            return float(acc.map_nnz)
        # Factor modes: keep the scaled stack Q diag(w).
        if self.mode == "sparse-factors":
            qw = self._q_csc.copy()
            # Scale the data array per column in one vectorised pass so the
            # symbolic pattern (and therefore in-place column updates)
            # survives zero weights.
            qw.data *= np.repeat(col_w, np.diff(qw.indptr))
            self._qw = qw
            return float(self._q_csc.nnz)
        self._qw = packed.matrix * col_w
        return float(m) * r

    def _update(self, col_w: np.ndarray, active: np.ndarray, delta: np.ndarray) -> float:
        m = self.dim
        a = active.shape[0]
        if self.mode == "gram":
            g0 = self.packed.gram_matrix()
            self._gram[:, active] = g0[:, active] * col_w[active]
            return float(self.total_rank) * a
        if self.mode == "dense-psi":
            if self.packed.is_sparse:
                sub = self._q_csc[:, active]
                bump = (sub.multiply(delta[None, :]) @ sub.T).toarray()
            else:
                sub = self.packed.matrix[:, active]
                bump = (sub * delta) @ sub.T
            self._psi += 0.5 * (bump + bump.T)
            return float(m) * m * a
        if self.mode == "sparse-psi":
            acc = self.packed.psi_accumulator()
            acc.update_values(self._psi_values, active, delta)
            return float(acc.column_cost(active))
        if self.mode == "sparse-factors":
            q_csc, qw = self._q_csc, self._qw
            # One fancy-indexed pass over the active columns' data ranges —
            # the multi-range gather keeps the update off the Python
            # per-column path the packed kernels exist to avoid.
            starts = qw.indptr[active].astype(np.int64)
            widths = qw.indptr[active + 1].astype(np.int64) - starts
            touched = int(widths.sum())
            if touched:
                before = np.concatenate([[0], np.cumsum(widths)[:-1]])
                idx = np.arange(touched) + np.repeat(starts - before, widths)
                qw.data[idx] = q_csc.data[idx] * np.repeat(col_w[active], widths)
            return float(touched)
        self._qw[:, active] = self.packed.matrix[:, active] * col_w[active]
        return float(m) * a

    def update_weights(self, col_w: np.ndarray, backend=None) -> None:
        """Advance the weight-dependent state to ``col_w`` — no kernel built.

        The build/update bookkeeping of :meth:`kernel_for` factored out for
        callers that already hold the expanded column weights: the batched
        solver (:func:`repro.core.batch.solve_many`) expands and validates a
        whole instance group's weight stack in one pass, then advances each
        engine here and reads the Gram buffers as a stack, so counters and
        ``taylor-engine-update`` charges evolve exactly as under
        :meth:`kernel_for`.
        """
        if self._w_cols is None:
            cost = self._full_build(col_w)
            self.full_builds += 1
            self._charge(cost, backend)
        else:
            delta = col_w - self._w_cols
            active = np.flatnonzero(delta)
            if active.shape[0]:
                cost = self._update(col_w, active, delta[active])
                self.incremental_updates += 1
                self.columns_updated += int(active.shape[0])
                self._charge(cost, backend)
        self._w_cols = col_w

    # ------------------------------------------------------------------ kernels
    def kernel_for(self, weights: np.ndarray, backend=None):
        """A Taylor kernel for ``Psi = sum_i weights[i] Q_i Q_i^T``.

        On the first call the engine performs the one full build of its
        weight-dependent state; on every later call it updates only the
        columns whose expanded weights changed relative to the previous
        call, charging ``taylor-engine-update`` work proportional to those
        active columns on ``backend`` (when given).  The returned kernel is
        a lightweight view over the engine's buffers — use it before the
        next ``kernel_for`` call.
        """
        from repro.linalg.taylor_blocked import BlockedTaylorKernel

        col_w = self.packed.expand_weights(weights)
        self.update_weights(col_w, backend=backend)

        if self.mode == "gram":
            return GramTaylorKernel(
                self.packed.matrix, col_w, gram=self._gram, backend=self.backend
            )
        if self.mode == "dense-psi":
            return BlockedTaylorKernel.from_matrix(self._psi, backend=self.backend)
        if self.mode == "sparse-psi":
            # Sparse-Psi CSR recurrences are NumPy-only (and only reachable
            # with a NumPy-backed stack — non-NumPy stacks densify).
            return BlockedTaylorKernel.from_matrix(self._psi_csr)
        return BlockedTaylorKernel.from_scaled_factors(
            self.packed.matrix, self._qw, backend=self.backend
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TaylorEngine(dim={self.dim}, R={self.total_rank}, mode={self.mode}, "
            f"full_builds={self.full_builds}, updates={self.incremental_updates})"
        )
