"""The oracle's trace normalisation ``Tr[exp(Psi)]`` from the smaller Gram twin.

Every iteration of the decision solver normalises the Theorem 4.1 estimates
by ``Tr[exp(Psi)]``.  In the *degenerate-sketch* regime — ``eps`` tight
enough that the JL dimension reaches the ambient dimension ``m``, which is
the default configuration for every ``m`` below several thousand — the
sketch is the identity, and reading the trace off it means pushing the
full ``(m, m)`` identity through the Lemma 4.2 Taylor polynomial once per
oracle call: ``Tr[p(Psi/2)^2] = || p(Psi/2) I ||_F^2``.

:func:`select_trace_mode` follows the smaller-twin rule that
:func:`lambda_max_source` uses too:

* **Gram spectrum** (mode ``"gram"``, whenever ``R <= m``) — exact.
  ``Psi = Q diag(w) Q^T`` and the symmetrised Gram matrix
  ``S = diag(sqrt(w)) (Q^T Q) diag(sqrt(w))`` share their nonzero spectrum
  (``AB`` and ``BA`` have the same nonzero eigenvalues), so

  .. math:: \\mathrm{Tr}[p(s\\Psi)^2] = (m - R) + \\sum_{j=1}^{R} p(s\\lambda_j)^2,
      \\qquad \\lambda = \\mathrm{eig}(S),

  one ``R x R`` symmetric eigendecomposition plus ``R`` scalar polynomial
  evaluations.  ``p(s lambda) = 1 + lambda r(lambda)`` comes from the Gram
  kernel's own ratio series
  (:func:`~repro.linalg.taylor_gram.spectral_evaluation_row`), so every
  representation evaluates the one scalar Lemma 4.2 polynomial.  The
  largest ``lambda_j`` is ``||Psi||_2`` exactly, so the fast oracle takes
  its Lemma 4.2 ``kappa`` from the same spectrum.  On the Gram rung the
  oracle's flat pass needs no spectrum: ``R x R`` products
  (:func:`~repro.linalg.taylor_gram.product_evaluation`) give the
  Theorem 4.1 estimates and the same trace, at the floor degree when the
  twin's square or one Cholesky proves it and otherwise at the degree the
  twin's top eigenvalue gives, from one ``dsyevr``.  It books the trace through
  :meth:`TraceEstimator.record_gram_estimate`, as the fused
  ``solve_many`` group does for each of its rows.  Off the Gram rung the
  spectrum is
  :attr:`TraceEstimator.spectrum`, one ``eigvalsh`` of the twin for the
  weights :meth:`TraceEstimator.bind` bound, and
  :meth:`TraceEstimator.estimate` evaluates the trace on it.
* **Identity push** (mode ``"identity"``, when ``R > m``) — the ``m``
  identity columns are fewer than the ``R`` factor columns and carry both
  the estimates and the trace.  It is also the floor the supervisor
  demotes a failing Gram trace to.

``tests/test_linalg_trace_estimation.py`` pins the Gram mode against the
identity push across low-rank, sparse, and concentrated stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import CheckpointError, InvalidProblemError, NumericalError
from repro.linalg.norms import KAPPA_EIG_CUTOFF
from repro.linalg.taylor_blocked import densified_psi
from repro.linalg.taylor_gram import _ratio_row, gram_twin
from repro.robustness.faultinject import fault_hook

__all__ = [
    "TraceEstimate",
    "TraceEstimator",
    "finite_trace",
    "gram_exp_trace",
    "gram_spectrum",
    "lambda_max_source",
    "select_trace_mode",
    "spectrum_exp_trace",
]

_TRACE_MODES = ("gram", "identity")


def select_trace_mode(dim: int, total_rank: int) -> str:
    """Pick the trace estimator for a stack of shape ``(dim, total_rank)``.

    The smaller twin, as in :func:`lambda_max_source`: ``"gram"`` (the exact
    ``R x R`` Gram spectrum) when ``R <= dim``, else ``"identity"`` (the
    push of the ``m < R`` identity columns, which also carry the Theorem 4.1
    estimates).  The decision depends only on the stack's shape, so
    repeated calls can never flip-flop.
    """
    if dim < 0 or total_rank < 0:
        raise InvalidProblemError(
            f"dim and total_rank must be non-negative, got {dim}, {total_rank}"
        )
    return "gram" if total_rank <= dim else "identity"


def gram_spectrum(gram: np.ndarray, col_weights: np.ndarray) -> np.ndarray:
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
    eigenvalues = np.linalg.eigvalsh(gram_twin(gram, col_weights))
    np.clip(eigenvalues, 0.0, None, out=eigenvalues)
    return eigenvalues


def lambda_max_source(packed, weights: np.ndarray, matvec, psi: np.ndarray | None = None):
    """``(source, work)``: what :func:`~repro.linalg.norms.certified_lambda_max`
    reads for ``Psi = Q diag(w) Q^T``, and the model work of one of its
    operator applications.

    While ``min(m, R) <= KAPPA_EIG_CUTOFF``, the smaller Gram twin: ``S``'s
    spectrum (:func:`gram_spectrum`) when ``R <= m``, else ``Psi`` itself
    (``psi`` if the caller holds it), at ``d^2`` per application for the
    ``d``-wide twin.  Above, ``matvec`` for seeded Lanczos, at
    ``max(2 nnz(Q), m)`` per sweep.  The fast oracle's kappa and the
    implicit psi state's bound share it.
    """
    m, r = packed.dim, packed.total_rank
    if min(m, r) > KAPPA_EIG_CUTOFF:
        return matvec, float(max(2 * packed.nnz, m, 1))
    if r <= m:
        source = gram_spectrum(packed.gram_matrix(), packed.expand_weights(weights))
    elif psi is not None:
        source = psi
    else:
        source = densified_psi(packed.matrix, packed.expand_weights(weights))
    return source, float(min(m, r)) ** 2


def spectrum_exp_trace(
    eigenvalues: np.ndarray, dim: int, degree: int, scale: float = 1.0
) -> float:
    """``Tr[p(scale * Psi)^2]`` from ``Psi``'s nonzero spectrum.

    The ``m - R`` eigenvalues of ``Psi`` missing from a Gram-twin spectrum
    of length ``R`` are 0, where ``p(0) = 1``, so the trace is
    ``(m - R) + sum_j (1 + lambda_j r_j)^2`` with ``r`` the Gram kernel's
    ratio series — the same arithmetic as
    :func:`~repro.linalg.taylor_gram.spectral_evaluation_row`, never touching
    an ``(m, m)`` object.  Requires ``R <= m``.
    """
    r = eigenvalues.shape[0]
    if r > dim:
        raise InvalidProblemError(
            f"the Gram-spectrum trace requires R <= m, got R={r}, m={dim}"
        )
    if degree < 1:
        raise InvalidProblemError(f"degree must be >= 1, got {degree}")
    with np.errstate(over="ignore", invalid="ignore"):
        poly = 1.0 + eigenvalues * _ratio_row(eigenvalues, degree, scale)
        trace = float(dim - r) + float((poly * poly).sum())
    return finite_trace(trace)


def finite_trace(trace: float) -> float:
    """``trace``, or :class:`~repro.exceptions.NumericalError` if it overflowed."""
    if not math.isfinite(trace):
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
) -> float:
    """Exact ``Tr[p(scale * Psi)^2]`` of ``Psi = Q diag(w) Q^T`` in dimension
    ``dim``, from the Gram matrix ``Q^T Q`` and the column weights:
    :func:`gram_spectrum` followed by :func:`spectrum_exp_trace`."""
    return spectrum_exp_trace(
        gram_spectrum(gram, col_weights), dim, degree, scale=scale
    )


@dataclass
class TraceEstimate:
    """One structured trace estimate.

    Attributes
    ----------
    value:
        The estimate of ``Tr[p(scale * Psi)^2]`` (exact up to rounding).
    mode:
        The mode that produced the value (``"gram"``).
    extra_work:
        Model work of the estimator beyond the shared polynomial columns
        (the ``R^3`` eigendecomposition and the ``R`` scalar evaluations).
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
    oracle call through :meth:`bind`.  Traces computed elsewhere from a
    Gram-twin spectrum (the oracle's flat Gram pass, the fused batch) are
    booked through :meth:`record_gram_estimate`.

    Parameters
    ----------
    packed:
        The :class:`~repro.operators.packed.PackedGramFactors` view whose
        ``Psi = sum_i x_i Q_i Q_i^T`` is being exponentiated.
    mode:
        ``"auto"`` (default) applies :func:`select_trace_mode`; an explicit
        ``"gram"`` or ``"identity"`` forces the mode.
        ``"identity"`` makes :attr:`structured` false — the caller keeps
        the identity push and this object only counts.
    """

    def __init__(self, packed, mode: str = "auto") -> None:
        self.packed = packed
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
        # The weights of the last bind() and their Gram-twin spectrum, which
        # the first read of `spectrum` computes.
        self._weights: np.ndarray | None = None
        self._spectrum: np.ndarray | None = None

    @property
    def structured(self) -> bool:
        """Whether this estimator replaces the identity push (mode != identity)."""
        return self.mode != "identity"

    def stats(self) -> dict:
        """Counters for regression tests and solver result metadata.

        The decision solvers surface this dict as
        ``result.metadata["trace_estimator"]`` next to the ``psi_state``
        counters and the ``taylor_engine`` mode, so tests can assert the
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

        The bound weights and :attr:`spectrum` (rebound per oracle call)
        are derived data and deliberately absent.
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
        (the removed stochastic and deflated estimators) raises
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

        Binding computes nothing: in mode ``"gram"`` the first read of
        :attr:`spectrum` after it runs the one ``R x R`` ``eigvalsh``.
        Returns ``self`` so the oracle can hand the bound estimator straight
        to :func:`~repro.core.dotexp.big_dot_exp` (which has no weight
        argument of its own — the weights are exactly what generated its
        ``phi``).
        """
        self._weights = weights
        self._spectrum = None
        return self

    @property
    def spectrum(self) -> np.ndarray | None:
        """Gram-twin spectrum of ``Psi`` at the bound weights (:func:`gram_spectrum`).

        ``None`` outside mode ``"gram"`` or before :meth:`bind`.  The
        oracle's ``kappa`` reads its top entry and the Gram trace estimate
        reuses it.
        """
        if self.mode != "gram" or self._weights is None:
            return None
        if self._spectrum is None:
            self._spectrum = gram_spectrum(
                self.packed.gram_matrix(), self.packed.expand_weights(self._weights)
            )
        return self._spectrum

    # ------------------------------------------------------------------ modes
    def _gram_estimate(self, degree: int, scale: float) -> TraceEstimate:
        spectrum = self.spectrum
        if spectrum is None:
            raise InvalidProblemError(
                "bind(weights) must be called before a Gram trace estimate"
            )
        value = spectrum_exp_trace(spectrum, self.dim, degree, scale=scale)
        r = self.total_rank
        return TraceEstimate(
            value=value, mode="gram", extra_work=float(r) ** 3 + float(r) * degree
        )

    # ------------------------------------------------------------------ entry
    def estimate(self, degree: int, scale: float = 0.5) -> TraceEstimate:
        """Estimate ``Tr[p(scale * Psi)^2]`` for the currently-bound weights.

        Parameters
        ----------
        degree:
            Taylor truncation degree of ``p``.
        scale:
            Scalar inside the polynomial (the oracle's ``0.5``).

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
        return self._book(self._gram_estimate(degree, scale))

    def record_gram_estimate(self, value: float, degree: int) -> TraceEstimate:
        """Account a Gram-mode trace computed from the Gram twin elsewhere.

        The fast oracle's flat Gram pass computes one call's trace with
        :func:`~repro.linalg.taylor_gram.product_evaluation`, at the floor
        degree when the twin's square or one Cholesky proves it and
        otherwise at the degree one ``dsyevr``'s top eigenvalue gives;
        :func:`~repro.core.batch.solve_many` runs the same route over a
        whole instance group, one batched product evaluation per degree.
        Both book each trace here so counters, work charges and
        :attr:`last` advance exactly as a :meth:`estimate` call in mode
        ``"gram"`` would have: the model charge stays ``R^3 + R k``
        whichever route ran.
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
