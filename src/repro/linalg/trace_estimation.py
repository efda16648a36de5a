"""Structured estimation of the oracle's trace normalisation ``Tr[exp(Psi)]``.

Every iteration of the decision solver normalises the Theorem 4.1 estimates
by ``Tr[exp(Psi)]``.  In the *degenerate-sketch* regime — ``eps`` tight
enough that the JL dimension reaches the ambient dimension ``m``, which is
the default configuration for every ``m`` below several thousand — the
sketch is the identity, and reading the trace off it means pushing the
full ``(m, m)`` identity through the Lemma 4.2 Taylor polynomial once per
oracle call: ``Tr[p(Psi/2)^2] = || p(Psi/2) I ||_F^2``, the only dense
``O(m^2 . degree)`` object left on the matrix-free hot path.

This module avoids it whenever the stacked rank ``R`` stays below ``m``.
Both estimators target the *same* quantity the identity push measures —
``Tr[p(s Psi)^2]`` for the truncated polynomial
``p`` of degree ``k`` (``squared=False`` variants of the helpers return
``Tr[p(s Psi)]``) — so the oracle's normalisation semantics are unchanged:

* **Gram-spectrum path** (:func:`gram_exp_trace`, mode ``"gram"``) — exact.
  ``Psi = Q diag(w) Q^T`` and the symmetrised Gram matrix
  ``S = diag(sqrt(w)) (Q^T Q) diag(sqrt(w))`` share their nonzero spectrum
  (``AB`` and ``BA`` have the same nonzero eigenvalues), so

  .. math:: \\mathrm{Tr}[p(s\\Psi)^2] = (m - R) + \\sum_{j=1}^{R} p(s\\lambda_j)^2,
      \\qquad \\lambda = \\mathrm{eig}(S),

  one ``R x R`` symmetric eigendecomposition plus ``R`` scalar polynomial
  evaluations — ``O(R^3 + R k)`` instead of ``O(m^2 k)`` per column times
  ``m`` columns.  Selected whenever the stacked rank satisfies
  ``2R <= GRAM_HYSTERESIS * m`` (the same gate as the Gram-space Taylor
  kernel).  The largest ``lambda_j`` is ``||Psi||_2`` exactly, so the
  fast oracle takes its Lemma 4.2 ``kappa`` from the same spectrum
  (:attr:`TraceEstimator.spectrum`, set once per call by
  :meth:`TraceEstimator.bind`).  On the Gram Taylor rung that spectrum is
  the :class:`~repro.linalg.taylor_gram.GramTaylorKernel`'s own ``eigh``,
  which also yields the Theorem 4.1 estimates, so the call runs one
  eigendecomposition in all.
* **Deflated block-Krylov path** (mode ``"deflated"``) — exact.  Writing
  ``p(s Psi) = I + U``, the update ``U`` is symmetric with range contained
  in ``range(Q)`` — the one-step block Krylov subspace of the factor stack
  captures the *entire* non-identity part.  With ``T = p(s Psi) Q`` (the
  transformed factor block the structured estimates pass computes anyway)
  and the cached eigendecomposition of the weight-independent ``Q^T Q``,
  the projected ``S = V^T U V`` onto an orthonormal basis ``V`` of
  ``range(Q)`` costs one ``(R, m) x (m, R)`` GEMM, and

  .. math:: \\mathrm{Tr}[p(s\\Psi)^2] = m + 2\\,\\mathrm{Tr}[S] + \\|S\\|_F^2.

  Used when ``2R`` exceeds the Gram gate but ``R`` is still meaningfully
  below ``m`` (dense-``Psi`` / sparse-``Psi`` kernel regimes).

:func:`select_trace_mode` is the measured-cost policy (the companion of
:func:`~repro.linalg.taylor_gram.select_taylor_mode`): the structured modes
pay ``R`` polynomial columns (the factor stack, which also yields the
Theorem 4.1 estimates) instead of the ``m`` identity columns, so they win
exactly when ``R`` is sufficiently below ``m``; at ``R`` near or above
``m`` the identity push *is* optimal (it serves the estimates too) and the
policy keeps it.  Both structured modes are exact, so the estimator needs
no accuracy budget and draws no randomness.

``tests/test_linalg_trace_estimation.py`` pins every mode against the
dense-reference identity push across low-rank, sparse, and concentrated
stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.backend import NUMPY, get_array_backend
from repro.exceptions import CheckpointError, InvalidProblemError, NumericalError
from repro.linalg.norms import KAPPA_EIG_CUTOFF
from repro.linalg.taylor_blocked import densified_psi
from repro.linalg.taylor_gram import GRAM_HYSTERESIS, GramTaylorKernel, gram_twin
from repro.robustness.faultinject import fault_hook

__all__ = [
    "TraceEstimate",
    "TraceEstimator",
    "gram_exp_trace",
    "gram_spectrum",
    "lambda_max_source",
    "select_trace_mode",
    "spectrum_exp_trace",
    "truncated_exp_values",
    "TRACE_DEFLATED_SLACK",
    "TRACE_IDENTITY_MARGIN",
]

#: Required headroom before a structured mode replaces the identity push:
#: the structured estimate pass costs ``R`` polynomial columns, the
#: identity push ``m`` — and the identity's columns also carry the
#: Theorem 4.1 estimates, so the swap must win by a clear margin, and the
#: margined gate cannot flip-flop for stacks near the boundary.
TRACE_IDENTITY_MARGIN = 0.9

#: Extra columns charged against the deflated mode in its gate
#: ``R + TRACE_DEFLATED_SLACK <= TRACE_IDENTITY_MARGIN * m``.  The value is
#: the probe block of a stochastic trace estimator the gate was calibrated
#: with; it stays at 8 because moving it would switch the stacks next to
#: the boundary between the deflated projection and the identity push and
#: change their result bits.
TRACE_DEFLATED_SLACK = 8

_TRACE_MODES = ("gram", "deflated", "identity")

#: Relative eigenvalue cutoff for the deflated basis: directions of
#: ``Q^T Q`` below ``_BASIS_RTOL * mu_max`` are numerically rank-deficient
#: and are dropped from the projection (their ``U``-components are of the
#: same tiny order, so dropping them perturbs the trace at rounding level).
_BASIS_RTOL = 1e-12


def truncated_exp_values(x: np.ndarray, degree: int, scale: float = 1.0) -> np.ndarray:
    """Elementwise truncated exponential ``sum_{0 <= i < degree} (scale*x)^i / i!``.

    The scalar form of the Lemma 4.2 polynomial the Taylor kernels apply to
    blocks: evaluating it on the eigenvalues of ``Psi`` gives the exact
    eigenvalues of ``p(scale * Psi)``, which is how :func:`gram_exp_trace`
    turns the ``R x R`` Gram spectrum into the trace.
    """
    if degree < 1:
        raise InvalidProblemError(f"degree must be >= 1, got {degree}")
    x = np.asarray(x, dtype=np.float64) * float(scale)
    acc = np.ones_like(x)
    term = np.ones_like(x)
    for i in range(1, degree):
        term = term * x / i
        acc = acc + term
    return acc


def select_trace_mode(dim: int, total_rank: int) -> str:
    """Pick the trace estimator for a stack of shape ``(dim, total_rank)``.

    The decision mirrors :func:`~repro.linalg.taylor_gram.select_taylor_mode`:
    it depends only on immutable shape quantities, so repeated calls can
    never flip-flop.  The per-column polynomial cost cancels between the
    candidates (all push blocks through the same kernel), leaving a pure
    column-count comparison:

    * ``"gram"`` when ``2R <= GRAM_HYSTERESIS * dim`` — the exact Gram
      spectrum (``R^3`` eigendecomposition, no polynomial columns beyond
      the ``R`` the estimates already pay);
    * ``"deflated"`` when ``R + TRACE_DEFLATED_SLACK <=
      TRACE_IDENTITY_MARGIN * dim`` — the exact block-Krylov projection
      (one ``(R, m) x (m, R)`` GEMM over the transformed factor block);
    * ``"identity"`` otherwise — at ``R`` near or above ``m`` the identity
      push is optimal because its ``m`` columns also carry the Theorem 4.1
      estimates, which the structured modes would recompute from ``R >= m``
      factor columns.
    """
    if dim < 0 or total_rank < 0:
        raise InvalidProblemError(
            f"dim and total_rank must be non-negative, got {dim}, {total_rank}"
        )
    if total_rank == 0 or 2 * total_rank <= GRAM_HYSTERESIS * dim:
        return "gram"
    if total_rank + TRACE_DEFLATED_SLACK <= TRACE_IDENTITY_MARGIN * dim:
        return "deflated"
    return "identity"


def gram_spectrum(
    gram: np.ndarray, col_weights: np.ndarray, backend=None
) -> np.ndarray:
    """Nonzero spectrum of ``Psi = Q diag(w) Q^T`` from its ``R x R`` Gram twin.

    ``Psi`` and ``S = diag(sqrt(w)) (Q^T Q) diag(sqrt(w))`` share their
    nonzero eigenvalues (``AB`` and ``BA`` have the same nonzero spectrum),
    so one ``R x R`` ``eigvalsh`` of ``S`` gives them, in ascending order
    and clipped at 0 (``Psi`` is PSD; tiny negative values are rounding
    noise).  The largest is ``||Psi||_2`` exactly — the fast oracle's
    Lemma 4.2 ``kappa`` — and the same array feeds
    :func:`spectrum_exp_trace`.

    Parameters
    ----------
    gram:
        The weight-independent dense ``(R, R)`` Gram matrix ``Q^T Q``
        (:meth:`~repro.operators.packed.PackedGramFactors.gram_matrix`).
    col_weights:
        Per-column non-negative weights ``w`` of length ``R``.
    backend:
        Array backend spec for the ``R x R`` eigendecomposition; the
        weighted Gram build stays host-side.
    """
    col_weights = np.asarray(col_weights, dtype=np.float64).ravel()
    gram = np.asarray(gram, dtype=np.float64)
    r = col_weights.shape[0]
    if gram.shape != (r, r):
        raise InvalidProblemError(
            f"gram matrix must have shape {(r, r)}, got {gram.shape}"
        )
    if np.any(col_weights < 0):
        raise InvalidProblemError("column weights must be non-negative")
    if r == 0:
        return np.zeros(0)
    xp = get_array_backend(backend)
    eigenvalues = xp.to_numpy(xp.eigvalsh(xp.asarray(gram_twin(gram, col_weights))))
    np.clip(eigenvalues, 0.0, None, out=eigenvalues)
    return eigenvalues


def lambda_max_source(packed, weights: np.ndarray, matvec, psi: np.ndarray | None = None):
    """What :func:`~repro.linalg.norms.certified_lambda_max` reads for ``Psi = Q diag(w) Q^T``.

    While ``min(m, R) <= KAPPA_EIG_CUTOFF``, the smaller Gram twin: ``S``'s
    spectrum (:func:`gram_spectrum`) when ``R <= m``, else ``Psi`` itself
    (``psi`` if the caller holds it).  Above, ``matvec`` for seeded Lanczos.
    The fast oracle's kappa and the implicit psi state's bound share it.
    """
    m, r = packed.dim, packed.total_rank
    if min(m, r) > KAPPA_EIG_CUTOFF:
        return matvec
    if r <= m:
        return gram_spectrum(
            packed.gram_matrix(), packed.expand_weights(weights), backend=packed.backend
        )
    if psi is not None:
        return psi
    return densified_psi(packed.matrix, packed.expand_weights(weights))


def spectrum_exp_trace(
    eigenvalues: np.ndarray,
    dim: int,
    degree: int,
    scale: float = 1.0,
    squared: bool = True,
) -> float:
    """``Tr[p(scale * Psi)^2]`` (or ``Tr[p]``) from ``Psi``'s nonzero spectrum.

    The ``m - R`` eigenvalues of ``Psi`` missing from a Gram-twin spectrum
    of length ``R`` are 0, where ``p(0) = 1``, so the trace is
    ``(m - R) + sum_j p(scale * lambda_j)^(2 or 1)`` — exact up to
    rounding, never touching an ``(m, m)`` object.  Requires ``R <= m``.
    """
    r = eigenvalues.shape[0]
    if r > dim:
        raise InvalidProblemError(
            f"the Gram-spectrum trace requires R <= m, got R={r}, m={dim}"
        )
    values = truncated_exp_values(eigenvalues, degree, scale=scale)
    if squared:
        values = values * values
    return _finite_trace(float(dim - r) + float(values.sum()))


def _finite_trace(trace: float) -> float:
    """``trace``, or :class:`~repro.exceptions.NumericalError` if it overflowed."""
    if not np.isfinite(trace):
        raise NumericalError(
            "Gram-spectrum trace evaluation overflowed; reduce the spectral "
            "norm of psi or the degree",
            site="trace_estimation",
            kernel_mode="gram",
        )
    return trace


def gram_exp_trace(
    gram: np.ndarray,
    col_weights: np.ndarray,
    dim: int,
    degree: int,
    scale: float = 1.0,
    squared: bool = True,
    backend=None,
) -> float:
    """Exact ``Tr[p(scale * Psi)^2]`` (``Tr[p]`` unless ``squared``) of
    ``Psi = Q diag(w) Q^T`` in dimension ``dim``, from the Gram matrix
    ``Q^T Q`` and the column weights: :func:`gram_spectrum` followed by
    :func:`spectrum_exp_trace`."""
    return spectrum_exp_trace(
        gram_spectrum(gram, col_weights, backend=backend),
        dim, degree, scale=scale, squared=squared,
    )


@dataclass
class TraceEstimate:
    """One structured trace estimate.

    Attributes
    ----------
    value:
        The estimate of ``Tr[p(scale * Psi)^2]`` (exact up to rounding).
    mode:
        The mode that produced the value (``"gram"`` or ``"deflated"``).
    extra_work:
        Model work of the estimator beyond the shared polynomial columns
        (the ``R^3`` eigendecomposition or the projection GEMMs).
    """

    value: float
    mode: str
    extra_work: float = 0.0


class TraceEstimator:
    """Per-oracle structured estimator of ``Tr[p(s Psi)^2]`` with counters.

    One estimator is held by each :class:`~repro.core.dotexp.FastDotExpOracle`
    and engaged by :func:`~repro.core.dotexp.big_dot_exp` whenever the trace
    would otherwise require the full-identity Taylor apply (the
    degenerate-sketch regime and the ``use_sketch=False`` path).  The mode
    is resolved once at construction from the stack's immutable shape
    (:func:`select_trace_mode`); weight-dependent inputs are rebound per
    oracle call through :meth:`bind`.

    Parameters
    ----------
    packed:
        The :class:`~repro.operators.packed.PackedGramFactors` view whose
        ``Psi = sum_i x_i Q_i Q_i^T`` is being exponentiated.
    mode:
        ``"auto"`` (default) applies :func:`select_trace_mode`; an explicit
        ``"gram"``, ``"deflated"`` or ``"identity"`` forces the mode.
        ``"identity"`` makes :attr:`structured` false — the caller keeps
        the identity push and this object only counts.
    """

    def __init__(self, packed, mode: str = "auto") -> None:
        self.packed = packed
        # Adopt the stack's array backend for the eigendecompositions; all
        # other estimator state (counters, caches) is host NumPy regardless
        # of backend.
        self.backend = getattr(packed, "backend", NUMPY)
        self.dim = int(packed.dim)
        self.total_rank = int(packed.total_rank)
        if mode == "auto":
            mode = select_trace_mode(self.dim, self.total_rank)
        if mode not in _TRACE_MODES:
            raise InvalidProblemError(
                f"unknown trace mode {mode!r}; expected one of {_TRACE_MODES} or 'auto'"
            )
        if mode == "gram" and self.total_rank > self.dim:
            raise InvalidProblemError(
                "trace mode 'gram' requires R <= m "
                f"(got R={self.total_rank}, m={self.dim})"
            )
        self.mode = mode
        self.calls = 0
        self.identity_fallbacks = 0
        self.extra_work = 0.0
        self.last: TraceEstimate | None = None
        self._mode_counts: dict[str, int] = {}
        #: Gram-twin spectrum of ``Psi`` at the bound weights (mode
        #: ``"gram"`` only, else ``None``): the oracle's ``kappa`` reads its
        #: top entry and the Gram trace estimate reuses it.
        self.spectrum: np.ndarray | None = None
        self._gram_eig: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def structured(self) -> bool:
        """Whether this estimator replaces the identity push (mode != identity)."""
        return self.mode != "identity"

    def stats(self) -> dict:
        """Counters for regression tests and solver result metadata.

        The decision solvers surface this dict as
        ``result.metadata["trace_estimator"]`` next to the ``psi_state``
        and ``taylor_engine`` counters, so tests can assert the
        zero-identity-apply discipline.
        """
        return {
            "mode": self.mode,
            "calls": self.calls,
            "identity_fallbacks": self.identity_fallbacks,
            "extra_work": self.extra_work,
            "mode_counts": dict(self._mode_counts),
        }

    def demote_to_identity(self) -> None:
        """Drop to the exact identity push — the trace ladder's floor.

        Called by :class:`~repro.robustness.FastPathSupervisor` when a
        structured mode breaks (overflow, injected fault).  After demotion
        :attr:`structured` is ``False``, so
        :func:`~repro.core.dotexp.big_dot_exp` performs the identity push
        itself and this estimator is never consulted again; counters (and
        :attr:`identity_fallbacks`) are preserved for the run's metadata.
        """
        self.mode = "identity"
        self.identity_fallbacks += 1

    def export_state(self) -> dict:
        """Checkpointable snapshot of the estimator's mutable state.

        :attr:`spectrum` (rebound per oracle call) and the ``_gram_eig``
        cache (a deterministic function of the stack) are derived data and
        deliberately absent.
        """
        return {
            "mode": self.mode,
            "calls": int(self.calls),
            "identity_fallbacks": int(self.identity_fallbacks),
            "extra_work": float(self.extra_work),
            "mode_counts": dict(self._mode_counts),
        }

    def import_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`.

        The mode is restored too: a checkpoint captured after a
        ``demote_to_identity`` resumes on the identity floor, keeping the
        resumed run's ladder position (and therefore its arithmetic)
        identical to the interrupted one.  The stochastic estimator's probe
        tally and error bound, which version-1 snapshots also carry, are
        ignored; a snapshot taken in a mode this build does not provide
        (that removed estimator) raises
        :class:`~repro.exceptions.CheckpointError`.
        """
        mode = state["mode"]
        if mode not in _TRACE_MODES:
            raise CheckpointError(
                f"trace-estimator state is in mode {mode!r}, which no longer "
                "exists; re-solve instead"
            )
        self.mode = mode
        self.calls = int(state["calls"])
        self.identity_fallbacks = int(state["identity_fallbacks"])
        self.extra_work = float(state["extra_work"])
        self._mode_counts = dict(state["mode_counts"])
        self.last = None

    def bind(
        self, weights: np.ndarray, spectrum: np.ndarray | None = None
    ) -> "TraceEstimator":
        """Bind the per-constraint weights of the current oracle call.

        In mode ``"gram"`` this sets :attr:`spectrum` — from which the
        oracle takes its Lemma 4.2 ``kappa`` before the Taylor step and the
        Gram trace estimate its value after it: the given ``spectrum``
        (the Gram Taylor kernel's, on the Gram rung), else one ``R x R``
        ``eigvalsh``.  Returns ``self`` so the oracle can hand the bound
        estimator straight to :func:`~repro.core.dotexp.big_dot_exp`
        (which has no weight argument of its own — the weights are exactly
        what generated its ``phi``).
        """
        if self.mode != "gram":
            self.spectrum = None
        elif spectrum is not None:
            self.spectrum = spectrum
        else:
            self.spectrum = gram_spectrum(
                self.packed.gram_matrix(), self.packed.expand_weights(weights),
                backend=self.backend,
            )
        return self

    # ------------------------------------------------------------------ modes
    def _gram_estimate(self, kernel, degree: int, scale: float) -> TraceEstimate:
        if self.spectrum is None:
            raise InvalidProblemError(
                "bind(weights) must be called before a Gram trace estimate"
            )
        if isinstance(kernel, GramTaylorKernel):
            # The Gram rung's spectrum is the kernel's, which has already
            # evaluated p on it for the estimates.
            value = _finite_trace(kernel.exp_trace(degree, scale))
        else:
            value = spectrum_exp_trace(self.spectrum, self.dim, degree, scale=scale)
        r = self.total_rank
        return TraceEstimate(
            value=value, mode="gram", extra_work=float(r) ** 3 + float(r) * degree
        )

    def _basis(self) -> tuple[np.ndarray, np.ndarray]:
        """Kept eigenpairs of the weight-independent ``Q^T Q`` (cached)."""
        if self._gram_eig is None:
            xp = self.backend
            gram = self.packed.gram_matrix()
            mu, w = xp.eigh(xp.asarray(0.5 * (gram + gram.T)))
            mu, w = xp.to_numpy(mu), xp.to_numpy(w)
            keep = mu > _BASIS_RTOL * max(float(mu[-1]), 0.0) if mu.size else mu > 0
            self._gram_eig = (mu[keep], w[:, keep])
        return self._gram_eig

    def _deflated_estimate(
        self, kernel, degree: int, scale: float, transformed: np.ndarray | None
    ) -> TraceEstimate:
        stacked = self.packed.dense_columns()
        if transformed is None:
            transformed = kernel.apply(stacked, degree, scale=scale)
        q = self.packed.matrix
        # M = Q^T (p(sPsi) Q - Q) = Q^T U Q with U = p(sPsi) - I; U is
        # symmetric with range inside range(Q), so projecting onto an
        # orthonormal basis V of range(Q) loses nothing: S = V^T U V.
        update = transformed - stacked
        m_mat = np.asarray(q.T @ update, dtype=np.float64)
        mu, w = self._basis()
        if mu.size == 0:
            return TraceEstimate(value=float(self.dim), mode="deflated")
        inv_root = 1.0 / np.sqrt(mu)
        s = (w.T @ m_mat @ w) * inv_root[:, None] * inv_root[None, :]
        s = 0.5 * (s + s.T)
        value = float(self.dim) + 2.0 * float(np.trace(s)) + float(np.sum(s * s))
        if not np.isfinite(value):
            raise NumericalError(
                "deflated trace evaluation overflowed; reduce the spectral "
                "norm of psi or the degree",
                site="trace_estimation",
                kernel_mode="deflated",
            )
        r = self.total_rank
        return TraceEstimate(
            value=value,
            mode="deflated",
            extra_work=float(self.dim) * r * r + 2.0 * float(r) ** 3,
        )

    # ------------------------------------------------------------------ entry
    def estimate(
        self,
        kernel,
        degree: int,
        scale: float = 0.5,
        transformed_factors: np.ndarray | None = None,
    ) -> TraceEstimate:
        """Estimate ``Tr[p(scale * Psi)^2]`` for the currently-bound weights.

        Parameters
        ----------
        kernel:
            The Taylor kernel over the current ``Psi`` (any representation
            — the deflated mode uses its ``apply`` when no transformed
            block is given).
        degree:
            Taylor truncation degree of ``p``.
        scale:
            Scalar inside the polynomial (the oracle's ``0.5``).
        transformed_factors:
            Optional ``p(scale * Psi) Q`` block, when the caller has
            already computed it for the Theorem 4.1 estimates — the
            deflated mode then adds only one projection GEMM.

        Returns
        -------
        TraceEstimate
            Value, mode and extra model work; also stored as :attr:`last`
            for the oracle's work accounting.
        """
        fault_hook("trace_estimation", kernel_mode=self.mode)
        if self.mode == "identity":
            raise InvalidProblemError(
                "trace mode 'identity' keeps the identity push; the caller "
                "should not engage the estimator (structured is False)"
            )
        self.calls += 1
        if self.mode == "gram":
            result = self._gram_estimate(kernel, degree, scale)
        else:
            result = self._deflated_estimate(kernel, degree, scale, transformed_factors)
        return self._book(result)

    def record_gram_estimate(self, value: float, degree: int) -> TraceEstimate:
        """Account a Gram-mode trace computed externally (the batched path).

        :func:`~repro.core.batch.solve_many` computes a whole instance
        group's spectra in one stacked eigendecomposition
        (:func:`~repro.linalg.taylor_gram.batched_gram_eigh`) and their
        traces with :func:`~repro.linalg.taylor_gram.spectral_evaluation`,
        then books each row here so
        counters, work charges and :attr:`last` advance exactly as a
        :meth:`estimate` call in mode ``"gram"`` would have.
        """
        if self.mode != "gram":
            raise InvalidProblemError(
                f"record_gram_estimate requires trace mode 'gram', got {self.mode!r}"
            )
        self.calls += 1
        r = self.total_rank
        return self._book(
            TraceEstimate(
                value=float(value),
                mode="gram",
                extra_work=float(r) ** 3 + float(r) * degree,
            )
        )

    def _book(self, result: TraceEstimate) -> TraceEstimate:
        """Fold one estimate into the counters and :attr:`last`."""
        self.extra_work += result.extra_work
        self._mode_counts[result.mode] = self._mode_counts.get(result.mode, 0) + 1
        self.last = result
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraceEstimator(dim={self.dim}, R={self.total_rank}, "
            f"mode={self.mode}, calls={self.calls})"
        )
