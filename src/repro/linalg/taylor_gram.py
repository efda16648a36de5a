"""Rank-adaptive exponential engine (Lemma 4.2, all representations).

:mod:`repro.linalg.taylor_blocked` evaluates the truncated exponential of
``Psi = Q diag(w) Q^T`` by recurrence over a densified ``Psi`` (``m^2 s``
madds per term) or the sparse factor stack.  This module adds the
Gram-twin spectral kernel, the policy that picks between the
representations and an engine that builds each call's kernel from that
call's weights:

* **Gram-space spectral kernel** (:class:`GramTaylorKernel`): ``Psi`` and
  its ``R x R`` Gram twin ``S = W^{1/2} (Q^T Q) W^{1/2}`` (``W = diag(w)``)
  share their nonzero spectrum.  With ``S = V diag(lambda) V^T`` and
  ``B = Q W^{1/2}`` (so ``Psi = B B^T``), every polynomial with
  ``p(0) = 1`` satisfies

  .. math::

      p(s\\,\\Psi) \\;=\\; I + B\\,V \\operatorname{diag}\\bigl(r_s(\\lambda)\\bigr) V^T B^T,
      \\qquad r_s(\\lambda) = \\frac{p(s\\lambda) - 1}{\\lambda},

  so one ``R x R`` ``eigh`` per call replaces the degree-``k`` recurrence:
  a block apply is two ``(m, R)`` projections around ``R x R`` products at
  a cost independent of the degree, and the factor-column values
  ``||p(s Psi) q_c||^2`` need no ``m``-sized work at all
  (:func:`spectral_evaluation_row`).  The oracle builds it for a Gram-rung
  call off its flat pass (a reducing sketch, a demoted trace).  The win
  when the stacked rank satisfies ``2R <= GRAM_HYSTERESIS * m``.
* **Gram-space products** (:func:`product_evaluation`): the same column
  values and trace with ``r_s(S)`` as a matrix polynomial, five ``R x R``
  GEMMs at degree 8 and no eigensolver.  Every call of the oracle's flat
  pass and every row of the fused ``solve_many`` group evaluates this
  way.  Its degree needs only an upper bound on ``lambda_max(S)``: one
  Cholesky proves the floor degree, and when it cannot, one ``dsyevr``
  gives the top eigenvalue alone (:func:`gram_top_eigenvalue`).
* **Selection policy** (:func:`select_taylor_mode`): compares the modelled
  per-term costs of the applicable representations — Gram space, densified
  ``Psi`` and the sparse factor recurrence (discounted by the measured
  throughput gap between sparse and dense GEMMs,
  :data:`SPARSE_GEMM_DISCOUNT`) — from ``(m, R, nnz(Q))`` and the storage
  kind alone, so choosing builds nothing.
* **Engine** (:class:`TaylorEngine`): keeps only weight-*independent*
  artifacts (the packed view's ``Q^T Q``, a CSC copy of a sparse stack)
  and builds every kernel from the weights of the call that asks for it,
  so a kernel is a function of (stack, mode, weights) alone.  The
  densified ``Psi`` and the scaled sparse stack are rebuilt per call and
  their work charged to the
  :class:`~repro.parallel.backends.ExecutionBackend` under the
  ``taylor-engine-update`` label.  The Gram rung's kernel starts from the
  cached ``Q^T Q`` and charges nothing.

Every representation evaluates the *identical* Lemma 4.2 polynomial; the
modes differ only in floating-point rounding order, which the tests in
``tests/test_linalg_taylor_gram.py`` pin per column at 1e-10.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dsyevr

from repro.exceptions import InvalidProblemError, NumericalError
from repro.linalg.taylor_blocked import (
    BlockedTaylorKernel,
    _FusedTaylorApplyBase,
    _validated_stack,
    densified_psi,
)

__all__ = [
    "GramTaylorKernel",
    "TaylorEngine",
    "gram_eigenpairs",
    "gram_top_eigenvalue",
    "gram_twin",
    "product_evaluation",
    "select_taylor_mode",
    "spectral_evaluation_row",
    "taylor_mode_cost",
    "GRAM_HYSTERESIS",
    "SPARSE_GEMM_DISCOUNT",
]

#: Effective throughput penalty of a scipy CSR x dense block product versus
#: a dense BLAS-3 GEMM, per multiply-add (measured at 6-12x on the target
#: container across ``m`` in 128..512 and densities in 2..20%; 8 is the
#: conservative midpoint).  The selection policy multiplies sparse-mode madd
#: counts by this factor so "fewer flops" only wins when it survives the
#: throughput gap.
SPARSE_GEMM_DISCOUNT = 8.0

#: Hysteresis margin on the Gram-space gate: the Gram kernel is allowed up
#: to ``2R <= GRAM_HYSTERESIS * m`` instead of the sharp ``2R <= m``.  At
#: ``2R`` just past ``m`` the modelled per-term cost ``R^2 ~ m^2/4`` still
#: clearly beats the densified recurrence's ``m^2``, so near-threshold
#: adversary stacks do not fall off a cliff onto the densified kernel for
#: being a few columns over the boundary.  The gate stays at ~1.1m; moving
#: it would change which stacks run which kernel.
GRAM_HYSTERESIS = 1.1

#: Modes understood by :func:`select_taylor_mode` / :class:`TaylorEngine`.
_MODES = ("gram", "dense-psi", "sparse-factors")


def taylor_mode_cost(mode: str, dim: int, total_rank: int, nnz: int) -> float:
    """Estimated per-term cost (dense-madd units, per block column) of a mode.

    The single cost model behind :func:`select_taylor_mode`:

    * ``gram``: ``R^2``;
    * ``dense-psi``: ``m^2``;
    * ``sparse-factors``: ``2 nnz(Q)`` discounted by
      :data:`SPARSE_GEMM_DISCOUNT`.
    """
    if mode == "gram":
        return float(total_rank) * total_rank
    if mode == "dense-psi":
        return float(dim) * dim
    if mode == "sparse-factors":
        return SPARSE_GEMM_DISCOUNT * 2.0 * float(nnz)
    raise InvalidProblemError(f"unknown taylor mode {mode!r}")


def select_taylor_mode(dim: int, total_rank: int, nnz: int, is_sparse: bool) -> str:
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

    Returns
    -------
    str
        One of ``"gram"``, ``"dense-psi"``, ``"sparse-factors"`` — the
        mode whose :func:`taylor_mode_cost` is smallest among the
        applicable candidates:

        * dense stacks: gram whenever ``2R <= GRAM_HYSTERESIS * dim``
          (``R^2 <= m^2/4`` at the nominal boundary beats both the dense
          recurrence and the ``2mR`` factor recurrence — and the ~10%
          hysteresis keeps near-threshold stacks with ``2R`` just past
          ``m`` on the Gram path instead of dropping them onto the
          densified kernel at break-even), the densified recurrence
          otherwise;
        * sparse stacks: the argmin over gram (gated on the same
          hysteresis boundary, and costed at the *dense* ``R^2`` rate
          since ``G`` is materialised dense), densified ``Psi`` and the
          sparse factor recurrence — so a very sparse stack never pays a
          dense ``R x R`` Gram matrix its factor recurrence undercuts.

        Ties break toward the earlier entry in the order above (denser
        representations are preferred at equal cost: their constants are
        more predictable).  The decision depends only on the immutable
        shape quantities ``(m, R, nnz)`` and the storage kind, so choosing
        builds nothing and repeated calls for the same stack can never
        flip-flop between modes.
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
    candidates = (["gram"] if gram_ok else []) + ["dense-psi", "sparse-factors"]
    best_mode, best_cost = None, float("inf")
    for mode in candidates:
        cost = taylor_mode_cost(mode, dim, total_rank, nnz)
        if cost < best_cost:
            best_mode, best_cost = mode, cost
    return best_mode


def gram_twin(gram: np.ndarray, col_weights: np.ndarray) -> np.ndarray:
    """The symmetrised Gram twin ``S = W^{1/2} (Q^T Q) W^{1/2}`` of ``Psi``.

    Elementwise over any leading batch axes, so a batch row and the
    matching sequential call build the same bits.
    """
    root = np.sqrt(col_weights)
    weighted = gram * root[..., None, :] * root[..., :, None]
    return 0.5 * (weighted + weighted.mT)


def gram_eigenpairs(twin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(eigenvalues, eigenvectors)`` of one :func:`gram_twin`, eigenvalues clipped at 0.

    A failed eigensolver or a non-finite spectrum (``eigh`` returns ``nan``
    for a non-finite twin) raises :class:`~repro.exceptions.NumericalError`
    at ``taylor_gram.apply``, so the supervisor demotes the Gram rung like
    any other kernel failure.
    """
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(twin)
    except np.linalg.LinAlgError:
        eigenvalues = None
    if eigenvalues is None or not np.isfinite(eigenvalues).all():
        raise NumericalError(
            "Gram-twin eigendecomposition failed",
            site=GramTaylorKernel.fault_site,
            kernel_mode="gram",
        )
    # np.clip(x, 0.0, None) is this ufunc, without the wrapper's overhead.
    np.maximum(eigenvalues, 0.0, out=eigenvalues)
    return eigenvalues, eigenvectors


def gram_top_eigenvalue(twin: np.ndarray) -> np.ndarray:
    """The top eigenvalue of one :func:`gram_twin`, as a one-entry spectrum.

    One LAPACK ``dsyevr`` for the ``R``-th eigenvalue alone, without
    eigenvectors; it reads the upper triangle.  A NaN there makes it report
    ``info > 0`` with no eigenvalue found and ``0.0`` in the output slot, an
    inf a NaN eigenvalue, so anything but one finite eigenvalue with
    ``info == 0`` raises :class:`~repro.exceptions.NumericalError` at
    ``taylor_gram.apply``, the site of :func:`gram_eigenpairs`.  The entry
    is what :func:`~repro.linalg.norms.certified_kappa` reads.
    """
    r = twin.shape[-1]
    eigenvalues, _, found, _, info = dsyevr(twin, compute_v=0, range="I", il=r, iu=r)
    if info != 0 or found != 1 or not math.isfinite(eigenvalues[0]):
        raise NumericalError(
            "Gram-twin top eigenvalue failed",
            site=GramTaylorKernel.fault_site,
            kernel_mode="gram",
        )
    return eigenvalues[:1]


@functools.lru_cache(maxsize=64)
def _horner_coefficients(degree: int, scale: float) -> tuple[float, ...]:
    """``scale / i!`` for ``i = degree - 1, ..., 1``: the ratio series' Horner order."""
    coef, c = [], scale
    for i in range(1, degree):
        c /= i  # scale / i!; dividing by 1 is exact
        coef.append(c)
    return tuple(reversed(coef))


def _ratio_row(eigenvalues: np.ndarray, degree: int, scale: float) -> np.ndarray:
    """``r(lambda) = (p(scale * lambda) - 1) / lambda`` on a spectrum.

    Horner's rule on ``sum_{1 <= i < k} (scale / i!) y^(i-1)`` with
    ``y = scale * lambda``: non-negative terms for ``lambda >= 0``, so no
    cancellation, and ``r(0) = scale`` (``0`` at ``k = 1``).
    """
    y = eigenvalues * scale
    ratio = np.zeros(eigenvalues.shape, eigenvalues.dtype)
    for c in _horner_coefficients(degree, scale):
        ratio *= y
        ratio += c
    return ratio


def spectral_evaluation_row(
    gram: np.ndarray,
    col_weights: np.ndarray,
    eigenvalues: np.ndarray,
    eigenvectors: np.ndarray,
    degree: int,
    dim: int,
    scale: float = 0.5,
) -> tuple[np.ndarray, float]:
    """``(values, trace)`` of the Theorem 4.1 oracle, from ``eig(S)``.

    ``eigenvalues`` and ``eigenvectors`` are :func:`gram_eigenpairs` of
    the weights' :func:`gram_twin`.  With ``r`` from :func:`_ratio_row`,
    ``p = 1 + lambda r`` and ``f = p^2 = 1 + lambda h``,

    .. math:: \\|p(s\\Psi)\\,q_c\\|^2 = G_{cc} + \\sum_j h_j C_{jc}^2,
        \\qquad h = r\\,(1 + p), \\qquad C = V^T W^{1/2} G,

    and ``Tr[p(s Psi)^2] = (m - R) + sum_j p_j^2``: one ``R x R`` GEMM, no
    ``m``-sized work.  Non-finite results are left for the caller to
    detect.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = _ratio_row(eigenvalues, degree, scale)
        poly = 1.0 + eigenvalues * ratio
        h = ratio * (1.0 + poly)
        proj = eigenvectors.T @ (np.sqrt(col_weights)[:, None] * gram)
        values = gram.diagonal() + h @ (proj * proj)
        trace = float(dim - poly.shape[0]) + (poly * poly).sum()
    return values, float(trace)


@functools.lru_cache(maxsize=64)
def _block_coefficients(degree: int, scale: float) -> tuple[int, np.ndarray]:
    """``(s, table)``: the ratio series as a matrix polynomial, in Paterson–Stockmeyer blocks.

    In powers of ``lambda`` the ratio series is ``sum_j a_j lambda^j`` with
    ``a_j = scale^(j+1) / (j+1)!`` for ``j < n = degree - 1``.  With
    ``s = ceil(sqrt(n))``, row ``i`` of ``table`` holds the coefficients of
    ``I, S, ..., S^s`` in block ``i``, so that
    ``M = B_0 + S^s (B_1 + S^s (B_2 + ...))``.  A top block that is a
    multiple of the identity is folded into the row below it as its
    ``S^s`` coefficient.
    """
    a = [c * scale**j for j, c in enumerate(reversed(_horner_coefficients(degree, scale)))]
    n = len(a)
    s = math.isqrt(n - 1) + 1
    rows = [a[i:i + s] + [0.0] * (s + 1 - len(a[i:i + s])) for i in range(0, n, s)]
    if len(rows) > 1 and n % s == 1:
        top = rows.pop()
        rows[-1][s] = top[0]
    table = np.array(rows)
    table.flags.writeable = False
    return s, table


@functools.lru_cache(maxsize=8)
def _identity(r: int) -> np.ndarray:
    """A read-only ``r x r`` identity."""
    eye = np.eye(r)
    eye.flags.writeable = False
    return eye


def _add_identity(matrices: np.ndarray, value: float) -> None:
    """``matrices += value * I`` in place over the last two axes of a C-ordered stack."""
    r = matrices.shape[-1]
    matrices.reshape(*matrices.shape[:-2], -1)[..., :: r + 1] += value


def _matrix_polynomial(twin: np.ndarray, degree: int, scale: float) -> np.ndarray:
    """The ratio series ``M = r_s(S)`` of ``twin`` by Paterson–Stockmeyer.

    ``s - 1`` products build ``S^2, ..., S^s`` next to ``I`` and ``S``,
    one product of :func:`_block_coefficients`' table with that stack
    forms every block, and each block past the top one costs one more
    product with ``S^s``.  At degree 8 that is ``S^2``, ``S^3``, the
    block product and one Horner product.  Leading batch axes are allowed.
    """
    if degree <= 1:
        return np.zeros(twin.shape)
    s, table = _block_coefficients(degree, scale)
    r = twin.shape[-1]
    lead = twin.shape[:-2]
    powers = np.empty(lead + (s + 1, r, r))
    views = [powers[..., j, :, :] for j in range(s + 1)]
    views[0][...] = _identity(r)
    views[1][...] = twin
    for j in range(2, s + 1):
        np.matmul(views[j - 1], twin, out=views[j])
    blocks = (table @ powers.reshape(lead + (s + 1, r * r))).reshape(
        lead + (len(table), r, r)
    )
    out = blocks[..., -1, :, :]
    for i in range(len(table) - 2, -1, -1):
        out = views[s] @ out
        out += blocks[..., i, :, :]
    return out


def product_evaluation(
    gram: np.ndarray,
    col_weights: np.ndarray,
    twin: np.ndarray,
    degree: int,
    dim: int,
    scale: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """``(values, traces)`` of :func:`spectral_evaluation_row` by ``R x R`` products.

    The same polynomial without the spectrum.  With the ratio series as a
    matrix polynomial, ``M = r_s(S) = sum_{1 <= i < k} (s^i / i!) S^(i-1)``
    (:func:`_matrix_polynomial`), and ``Y = M W^{1/2} G``,
    ``p(s Psi) q_c = Q U_c`` for ``U = I + W^{1/2} Y``, and
    ``p(s S) = I + M S = I + Y W^{1/2}``, so

    .. math:: \\|p(s\\Psi)\\,q_c\\|^2 = (U^T G U)_{cc},
        \\qquad \\mathrm{Tr}[p(s\\Psi)^2] = (m - R) + \\|I + Y W^{1/2}\\|_F^2,

    five ``R x R`` GEMMs at degree 8 and no eigensolver.  ``twin`` is
    :func:`gram_twin` of the weights.  The arguments may carry a leading
    batch axis (one ``degree`` for every row); each row then equals the
    call on that row alone bitwise.  Non-finite results are left for the
    caller to detect.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        root = np.sqrt(col_weights)
        y = _matrix_polynomial(twin, degree, scale) @ (root[..., :, None] * gram)
        u = root[..., :, None] * y
        _add_identity(u, 1.0)
        gu = gram @ u
        gu *= u
        values = gu.sum(axis=-2)
        y *= root[..., None, :]
        _add_identity(y, 1.0)
        y *= y
        traces = float(dim - twin.shape[-1]) + y.sum(axis=(-2, -1))
    return values, traces


class GramTaylorKernel(_FusedTaylorApplyBase):
    """Gram-twin spectral evaluation of the truncated Taylor series of ``exp(scale * Psi)``.

    The same polynomial as
    :class:`~repro.linalg.taylor_blocked.BlockedTaylorKernel`, through
    ``S = V diag(lambda) V^T`` (:func:`gram_twin`):
    ``p(s Psi) B = B + Q W^{1/2} V diag(r) V^T W^{1/2} Q^T B`` with
    ``r = (p(s lambda) - 1) / lambda``.  The one ``eigh``, computed on first
    use, serves :attr:`spectrum` (the oracle's kappa), :meth:`apply`,
    :meth:`factor_column_values` and :meth:`exp_trace`; no cost depends on
    the degree.

    Parameters
    ----------
    q:
        Packed factor stack ``Q`` of shape ``(m, R)`` (dense or scipy
        sparse; the :attr:`~repro.operators.packed.PackedGramFactors.matrix`
        layout).
    col_weights:
        Per-column non-negative weights ``w`` of length ``R``.
    gram:
        Optional precomputed dense ``(R, R)`` weight-independent Gram matrix
        ``Q^T Q`` — :class:`TaylorEngine` passes the packed view's cached
        :meth:`~repro.operators.packed.PackedGramFactors.gram_matrix`; when
        omitted it is computed here (one ``R x m x R`` product).

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
    ) -> None:
        q, col_weights, m, r, self.dtype = _validated_stack(q, col_weights)
        self._q = q
        self._col_w = col_weights
        self.dim = m
        self.total_rank = r
        self.matvec_count = 0
        if gram is None:
            if sp.issparse(q):
                gram = (q.T @ q).toarray()
            else:
                gram = q.T @ q
        elif np.shape(gram) != (r, r):
            raise InvalidProblemError(
                f"gram matrix must have shape {(r, r)}, got {np.shape(gram)}"
            )
        self._qtq = np.asarray(gram, dtype=self.dtype)
        # Lazily computed (eigenvalues, eigenvectors) of the twin and the
        # last (degree, scale, trace) evaluated.
        self._eig = None
        self._trace = None

    def _eigenpairs(self):
        """``(lambda, V)`` of the Gram twin (:func:`gram_eigenpairs`), once per kernel."""
        if self._eig is None:
            self._eig = gram_eigenpairs(gram_twin(self._qtq, self._col_w))
        return self._eig

    @property
    def mode(self) -> str:
        """Representation tag (always ``"gram"``; mirrors the engine's vocabulary)."""
        return "gram"

    #: Gram-space failures are attributed to their own site so the
    #: supervisor can demote the Gram rung specifically.
    fault_site = "taylor_gram.apply"

    @property
    def stack(self) -> np.ndarray | sp.csr_matrix:
        """The factor stack ``Q`` the kernel was built over."""
        return self._q

    @property
    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of ``S`` clipped at 0 — ``Psi``'s nonzero spectrum."""
        return self._eigenpairs()[0]

    def matvec(self, block: np.ndarray) -> np.ndarray:
        """``Psi @ block`` (unscaled) through the factors — two projections."""
        if not sp.issparse(self._q):
            block = np.asarray(block, dtype=self.dtype)
        inner = self._q.T @ block
        if inner.ndim == 1:
            return self._q @ (self._col_w * inner)
        return self._q @ (self._col_w[:, None] * inner)

    def _evaluate(self, degree: int, scale: float) -> np.ndarray:
        """Column values at ``(degree, scale)``; keeps the trace for :meth:`exp_trace`."""
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        if self.total_rank == 0:
            values, trace = np.zeros(0, dtype=self.dtype), float(self.dim)
        else:
            values, trace = spectral_evaluation_row(
                self._qtq, self._col_w, *self._eigenpairs(), degree, self.dim, scale=scale
            )
        self._trace = (degree, scale, trace)
        return values

    def factor_column_values(self, degree: int, scale: float = 1.0) -> np.ndarray:
        """``||p(scale * Psi) q_c||^2`` for every column ``q_c`` of :attr:`stack`.

        The degenerate-sketch Theorem 4.1 estimates without pushing the
        ``(m, R)`` stack through the polynomial.  Counts ``R (degree - 1)``
        model matvecs and passes the same fault hook and finiteness check
        as :meth:`apply`.
        """
        values = self._evaluate(degree, scale)
        self.matvec_count += self.total_rank * (degree - 1)
        return self._checked(values)

    def exp_trace(self, degree: int, scale: float = 1.0) -> float:
        """``Tr[p(scale * Psi)^2]`` from the same evaluation as the column values."""
        if self._trace is None or self._trace[:2] != (degree, scale):
            self._evaluate(degree, scale)
        return self._trace[2]

    # apply() is inherited from _FusedTaylorApplyBase (the shared validation
    # and finiteness check); the spectral evaluation lives here.
    def _apply_block(self, block: np.ndarray, degree: int, scale: float) -> np.ndarray:
        if self.total_rank == 0 or degree == 1:
            return np.array(block, dtype=self.dtype, copy=True)
        eigenvalues, eigenvectors = self._eigenpairs()
        ratio = _ratio_row(eigenvalues, degree, scale)
        root = np.sqrt(self._col_w)
        # W^{1/2} V diag(r) V^T W^{1/2} (Q^T B)
        inner = eigenvectors.T @ (root[:, None] * (self._q.T @ block))
        inner = root[:, None] * (eigenvectors @ (ratio[:, None] * inner))
        return block + self._q @ inner

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GramTaylorKernel(dim={self.dim}, R={self.total_rank})"


class TaylorEngine:
    """Factory of Taylor kernels over one factor stack.

    One engine per oracle: each
    :class:`~repro.core.dotexp.FastDotExpOracle` constructs its own over the
    shared, immutable :class:`~repro.operators.packed.PackedGramFactors`
    view.  Construction selects the representation once — the mode depends
    only on the weight-independent shape quantities ``(m, R, nnz)`` and the
    storage kind — and :meth:`kernel_for` builds each kernel from the
    weights it is given and the engine's weight-independent caches:

    ==================  ====================================================  ==========
    mode                kernel built per call                                 charge
    ==================  ====================================================  ==========
    ``gram``            :class:`GramTaylorKernel` over the cached ``Q^T Q``   none
    ``dense-psi``       ``from_matrix(densified_psi(Q, w))``                  ``m^2 R``
    ``sparse-factors``  ``from_scaled_factors(Q, Q diag(w))``                 ``nnz(Q)``
    ==================  ====================================================  ==========

    The charge is recorded on the backend's tracker under the
    ``taylor-engine-update`` label.  No kernel depends on an earlier call,
    so a resumed or reordered run needs only the weights and the mode.

    Parameters
    ----------
    packed:
        The :class:`~repro.operators.packed.PackedGramFactors` view whose
        stack the engine exponentiates.
    mode:
        ``"auto"`` (default) applies :func:`select_taylor_mode`; any
        explicit mode from that function's vocabulary forces the
        representation.
    """

    def __init__(self, packed, mode: str = "auto") -> None:
        self.packed = packed
        self.dim = int(packed.dim)
        self.total_rank = int(packed.total_rank)
        if mode == "auto":
            mode = packed.auto_taylor_mode()
        if mode not in _MODES:
            raise InvalidProblemError(
                f"unknown taylor mode {mode!r}; expected one of {_MODES} or 'auto'"
            )
        if mode == "sparse-factors" and not packed.is_sparse:
            raise InvalidProblemError(f"mode {mode!r} requires a sparse factor stack")
        self.mode = mode
        self._q_csc = packed.matrix.tocsc() if mode == "sparse-factors" else None
        self._depth = math.log2(max(self.dim * max(self.total_rank, 1), 2))

    def stats(self) -> dict:
        """The engine's ``mode`` and ``total_rank`` for solver metadata."""
        return {"mode": self.mode, "total_rank": self.total_rank}

    # ------------------------------------------------------------------ checkpointing
    def export_state(self) -> dict:
        """Checkpointable snapshot: the mode, the engine's only state."""
        return {"mode": self.mode}

    def import_state(self, state: dict) -> None:
        """Check a snapshot produced by :meth:`export_state` against this engine.

        Version-1 snapshots may also carry an older engine's weight-dependent
        buffers (``w_cols``, ``psi``, ``psi_values``) and update counters.
        Kernels depend only on the weights, so those fields are ignored.
        """
        if state["mode"] != self.mode:
            raise InvalidProblemError(
                f"cannot import taylor-engine state for mode {state['mode']!r} "
                f"into an engine in mode {self.mode!r}"
            )

    # ------------------------------------------------------------------ kernels
    def kernel_for(self, weights: np.ndarray, backend=None):
        """A Taylor kernel for ``Psi = sum_i weights[i] Q_i Q_i^T``.

        Built from ``weights`` alone (see the class table).  Outside
        ``gram`` mode the build's work is charged to ``backend`` (when
        given) under ``taylor-engine-update``.
        """
        col_w = self.packed.expand_weights(weights)
        q = self.packed.matrix
        if self.mode == "gram":
            return GramTaylorKernel(q, col_w, gram=self.packed.gram_matrix())
        if self.mode == "dense-psi":
            kernel = BlockedTaylorKernel.from_matrix(densified_psi(q, col_w))
            cost = float(self.dim) * self.dim * self.total_rank
        else:
            # Scale the data array per column in one vectorised pass.
            qw = self._q_csc.copy()
            qw.data *= np.repeat(col_w, np.diff(qw.indptr))
            kernel = BlockedTaylorKernel.from_scaled_factors(q, qw)
            cost = float(self._q_csc.nnz)
        if cost and backend is not None:
            backend.charge(cost, self._depth, label="taylor-engine-update")
        return kernel

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TaylorEngine(dim={self.dim}, R={self.total_rank}, mode={self.mode})"
