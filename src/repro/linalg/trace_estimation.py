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
  kernel).
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
from repro.linalg.taylor_gram import GRAM_HYSTERESIS
from repro.robustness.faultinject import fault_hook

__all__ = [
    "TraceEstimate",
    "TraceEstimator",
    "batched_gram_exp_trace",
    "gram_exp_trace",
    "select_trace_mode",
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


def gram_exp_trace(
    gram: np.ndarray,
    col_weights: np.ndarray,
    dim: int,
    degree: int,
    scale: float = 1.0,
    squared: bool = True,
    backend=None,
) -> float:
    """Exact ``Tr[p(scale * Psi)^2]`` from the Gram spectrum of the stack.

    Parameters
    ----------
    gram:
        The weight-independent dense ``(R, R)`` Gram matrix ``Q^T Q``
        (:meth:`~repro.operators.packed.PackedGramFactors.gram_matrix`).
    col_weights:
        Per-column non-negative weights ``w`` of length ``R``.
    dim:
        Ambient dimension ``m`` of ``Psi = Q diag(w) Q^T``.
    degree:
        Taylor truncation degree ``k`` of ``p``.
    scale:
        Scalar multiplier on ``Psi`` inside the polynomial (the oracle
        passes ``0.5`` and squares, matching ``||p(Psi/2)||_F^2``).
    squared:
        Return ``Tr[p^2]`` (the oracle's normalisation) when ``True``,
        ``Tr[p]`` when ``False``.
    backend:
        Array backend spec for the ``R x R`` eigendecomposition; the
        weighted Gram build and the scalar polynomial stay host-side.

    Notes
    -----
    ``Psi`` and ``S = diag(sqrt(w)) gram diag(sqrt(w))`` share their
    nonzero spectrum, and the ``m - R`` remaining eigenvalues of ``Psi``
    are 0 where ``p(0) = 1``, so the trace is
    ``(m - R) + sum_j p(scale * lambda_j)^(1 or 2)`` — exact up to
    rounding, never touching an ``(m, m)`` object.  Requires ``R <= m``
    (guaranteed under the Gram gate of :func:`select_trace_mode`).
    """
    col_weights = np.asarray(col_weights, dtype=np.float64).ravel()
    gram = np.asarray(gram, dtype=np.float64)
    r = col_weights.shape[0]
    if gram.shape != (r, r):
        raise InvalidProblemError(
            f"gram matrix must have shape {(r, r)}, got {gram.shape}"
        )
    if r > dim:
        raise InvalidProblemError(
            f"the Gram-spectrum trace requires R <= m, got R={r}, m={dim}"
        )
    if np.any(col_weights < 0):
        raise InvalidProblemError("column weights must be non-negative")
    if r == 0:
        return float(dim)
    xp = get_array_backend(backend)
    root = np.sqrt(col_weights)
    weighted = gram * root[None, :] * root[:, None]
    eigenvalues = xp.to_numpy(xp.eigvalsh(xp.asarray(0.5 * (weighted + weighted.T))))
    # Psi is PSD; tiny negative eigenvalues are rounding noise.
    np.clip(eigenvalues, 0.0, None, out=eigenvalues)
    values = truncated_exp_values(eigenvalues, degree, scale=scale)
    if squared:
        values = values * values
    trace = float(dim - r) + float(values.sum())
    if not np.isfinite(trace):
        raise NumericalError(
            "Gram-spectrum trace evaluation overflowed; reduce the spectral "
            "norm of psi or the degree",
            site="trace_estimation",
            kernel_mode="gram",
        )
    return trace


def batched_gram_exp_trace(
    gram_stack: np.ndarray,
    colw_stack: np.ndarray,
    dim: int,
    degrees: np.ndarray,
    scale: float = 1.0,
    squared: bool = True,
) -> np.ndarray:
    """Vectorised :func:`gram_exp_trace` over a batch of weight vectors.

    Each row ``b`` of the result equals ``gram_exp_trace(gram_stack[b],
    colw_stack[b], dim, degrees[b], scale, squared)`` bitwise: the weighting
    and truncated-exponential evaluations are elementwise (identical
    floating-point sequences per row), ``np.linalg.eigvalsh`` on a stack
    runs the same LAPACK routine per slice, and the per-row reduction
    matches the 1-D sum.  Rows on which the scalar form would raise
    (negative weights, non-finite spectra, overflowed traces) come back as
    ``nan`` instead of raising, so one bad instance cannot poison its
    batchmates — the caller re-solves those rows sequentially to reproduce
    the exact error.
    """
    gram_stack = np.asarray(gram_stack, dtype=np.float64)
    colw_stack = np.asarray(colw_stack, dtype=np.float64)
    degrees = np.asarray(degrees, dtype=np.int64)
    if gram_stack.ndim != 3 or colw_stack.ndim != 2 or degrees.ndim != 1:
        raise InvalidProblemError(
            "batched_gram_exp_trace expects a (B, R, R) gram stack, a (B, R) "
            "weight stack and a (B,) degree vector"
        )
    batch, r = colw_stack.shape
    if gram_stack.shape != (batch, r, r) or degrees.shape[0] != batch:
        raise InvalidProblemError(
            f"inconsistent batch shapes: gram {gram_stack.shape}, "
            f"weights {colw_stack.shape}, degrees {degrees.shape}"
        )
    if r > dim:
        raise InvalidProblemError(
            f"the Gram-spectrum trace requires R <= m, got R={r}, m={dim}"
        )
    if np.any(degrees < 1):
        raise InvalidProblemError("every degree must be >= 1")
    if r == 0:
        return np.full(batch, float(dim))
    traces = np.full(batch, np.nan)
    bad = np.any(colw_stack < 0, axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        root = np.sqrt(colw_stack)
        weighted = gram_stack * root[:, None, :] * root[:, :, None]
    bad |= ~np.isfinite(weighted).all(axis=(1, 2))
    good = np.flatnonzero(~bad)
    if good.size == 0:
        return traces
    sym = 0.5 * (weighted[good] + weighted[good].transpose(0, 2, 1))
    # The fused batch path is NumPy-resident by contract; the stacked
    # eigendecomposition routes through the shared NumPy backend object.
    xp = NUMPY
    try:
        eigenvalues = xp.eigvalsh(sym)
    except np.linalg.LinAlgError:
        # Isolate non-converging slices so the rest of the batch survives.
        eigenvalues = np.zeros((good.size, r))
        keep = np.ones(good.size, dtype=bool)
        for j in range(good.size):
            try:
                eigenvalues[j] = xp.eigvalsh(sym[j])
            except np.linalg.LinAlgError:
                keep[j] = False
        good = good[keep]
        eigenvalues = eigenvalues[keep]
        if good.size == 0:
            return traces
    np.clip(eigenvalues, 0.0, None, out=eigenvalues)
    # truncated_exp_values with per-row degrees: run the shared recurrence
    # to the largest degree, snapshotting each row at its own truncation
    # point (the elementwise term/acc updates are row-independent).
    deg_good = degrees[good]
    with np.errstate(invalid="ignore", over="ignore"):
        x = eigenvalues * float(scale)
        acc = np.ones_like(x)
        term = np.ones_like(x)
        values = np.empty_like(x)
        sel = np.flatnonzero(deg_good == 1)
        if sel.size:
            values[sel] = acc[sel]
        for i in range(1, int(deg_good.max())):
            term = term * x / i
            acc = acc + term
            sel = np.flatnonzero(deg_good == i + 1)
            if sel.size:
                values[sel] = acc[sel]
        if squared:
            values = values * values
        traces[good] = float(dim - r) + values.sum(axis=1)
    traces[~np.isfinite(traces)] = np.nan
    return traces


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
        self._col_w: np.ndarray | None = None
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

        ``_col_w`` (rebound per oracle call) and the ``_gram_eig`` cache (a
        deterministic function of the stack) are derived data and
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

    def bind(self, weights: np.ndarray) -> "TraceEstimator":
        """Bind the per-constraint weights of the current oracle call.

        Returns ``self`` so the oracle can pass
        ``trace_estimator=estimator.bind(x)`` straight into
        :func:`~repro.core.dotexp.big_dot_exp` (which has no weight
        argument of its own — the weights are exactly what generated its
        ``phi``).
        """
        self._col_w = self.packed.expand_weights(weights)
        return self

    # ------------------------------------------------------------------ modes
    def _gram_estimate(self, degree: int, scale: float) -> TraceEstimate:
        if self._col_w is None:
            raise InvalidProblemError(
                "bind(weights) must be called before a Gram trace estimate"
            )
        value = gram_exp_trace(
            self.packed.gram_matrix(),
            self._col_w,
            self.dim,
            degree,
            scale=scale,
            squared=True,
            backend=self.backend,
        )
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
            result = self._gram_estimate(degree, scale)
        else:
            result = self._deflated_estimate(kernel, degree, scale, transformed_factors)
        return self._book(result)

    def record_gram_estimate(self, value: float, degree: int) -> TraceEstimate:
        """Account a Gram-mode trace computed externally (the batched path).

        :func:`~repro.core.batch.solve_many` evaluates
        :func:`batched_gram_exp_trace` across a whole instance group in one
        stacked eigendecomposition, then books each row here so counters,
        work charges and :attr:`last` advance exactly as a
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
