"""The exponential-dot-product oracle (Section 4, Theorem 4.1).

Each iteration of the decision solver needs the vector of normalized trace
products ``(exp(Psi) . A_i) / Tr[exp(Psi)]`` for every constraint.  Two
interchangeable oracle implementations are provided:

* :class:`ExactDotExpOracle` — one symmetric eigendecomposition of ``Psi``
  per call, then ``n`` dense trace products.  Cost ``O(m^3 + n m^2)`` work;
  this is the reference used for correctness.
* :class:`FastDotExpOracle` — the Theorem 4.1 algorithm ``bigDotExp``:
  writes ``exp(Phi) . A_i = || exp(Phi/2) Q_i ||_F^2`` for factorized
  constraints ``A_i = Q_i Q_i^T``, approximates ``exp(Phi/2)`` with the
  truncated Taylor polynomial of Lemma 4.2, and sketches the left factor
  with a Johnson–Lindenstrauss Gaussian matrix so that only
  ``O(eps^{-2} log m)`` rows ever pass through the polynomial.  Work is
  nearly linear in ``nnz(Phi) + q`` per call; the trace ``Tr[exp(Phi)]``
  comes from the transformed sketch block at no extra cost when the sketch
  genuinely reduces (``|| Pi exp(Phi/2) ||_F^2`` read directly off the
  block), and from the structured estimator of
  :mod:`repro.linalg.trace_estimation` in the degenerate-sketch regime —
  no identity block, dense or pseudo-factor, enters the polynomial on the
  default path; only the legacy sequence-of-factors path still appends an
  identity pseudo-factor to get it.

The standalone function :func:`big_dot_exp` exposes the Theorem 4.1
primitive directly (given ``Phi``, a norm bound ``kappa``, and the factors),
which is what the E3/E8 benchmarks exercise.

Packed fast path
----------------
``big_dot_exp`` accepts either a plain sequence of factors (the reference
per-factor loop, kept bit-for-bit as the correctness baseline) or a
:class:`repro.operators.packed.PackedGramFactors` view.  With the packed
view the estimate pass ``|| (Pi exp(Phi/2)) Q_i ||_F^2`` for *all* ``n``
constraints is one ``(d, m) x (m, R)`` GEMM followed by a segment sum over
the column blocks — the Python loop over factors disappears.  The trace
normalisation ``Tr[exp(Phi)] ≈ || Pi exp(Phi/2) ||_F^2`` is read directly
off the already-computed transformed sketch block (``Q = I`` makes the
estimate GEMM the identity), so the packed path never materialises the
dense ``np.eye(m)`` pseudo-factor the reference path appends.

:class:`FastDotExpOracle` uses the packed view by default (``packed=True``):
its ``Psi``-matvec becomes ``Q (w ∘ (Q^T v))`` — two GEMMs over the stacked
factor matrix instead of an ``n``-term loop — and its estimates use the
packed pass above.  In the work–depth model both paths charge identical
``O(q)``-work / polylog-depth costs; ``benchmarks/bench_e11_packed.py``
measures the wall-clock difference.

Rank-adaptive Taylor engine
---------------------------
The Taylor apply itself — pushing the sketch block through the Lemma 4.2
polynomial — dominates the oracle once the packed estimates are single
GEMMs, especially in the degenerate-sketch regime (``m ≲ 1000`` at tight
eps, where the JL dimension reaches ``m`` and the whole identity passes
through the polynomial).  With ``blocked=True`` (default) the packed
oracle evaluates the polynomial through a fused block kernel whose
representation is picked per factor stack by
:func:`~repro.linalg.taylor_gram.select_taylor_mode`: the ``R x R``
Gram-space recurrence when ``2R <= 1.1 m`` (the hysteresis-margined gate;
per-term cost ``R^2 s``), a
one-time densification of ``Psi`` (``m^2 s``), a sparse-CSR ``Psi``
accumulated with a reusable symbolic pattern (``nnz(Psi) s``), or the
factor recurrence (``2 nnz(Q) s``) — replacing PR 2's single ``2R > m``
densification rule.  With ``engine=True`` (default) the kernels come from
the oracle's own :class:`~repro.linalg.taylor_gram.TaylorEngine`, which
maintains the weight-dependent state (the Gram matrix ``G``, the CSR values, the
densified ``Psi``, the scaled stack) across oracle calls by updating only
the weight coordinates the solver actually changed, charging the backend
work proportional to the active columns.  Every representation evaluates
the identical polynomial, so ``blocked=False`` (the per-term matvec
recurrence) and ``engine=False`` (the PR-2 per-call blocked kernel)
differ only in floating-point rounding; all are kept so the regression
tests can certify identical decisions.  Work–depth charges are
*representation-invariant*: the model bills the factored Corollary 1.2
costs (the paper algorithm's work) no matter which kernel representation
executes, so reported work and depth stay comparable across every fast
path and the reference loops.  The Gram mode performs strictly less
arithmetic than the billed factor recurrence; the sparse-``Psi`` and
throughput-driven densified modes may perform *more* hardware madds than
the model bills — by at most the policy's
:data:`~repro.linalg.taylor_gram.SPARSE_GEMM_DISCOUNT` factor — whenever
that is measurably faster in wall clock, the same madds-for-throughput
trade dense BLAS kernels already make internally.

``big_dot_exp`` accepts a kernel directly as ``phi``; matrix-valued ``phi``
with a packed factor view is routed through a kernel automatically, while
matvec-callable ``phi`` and plain factor sequences keep the reference
per-term recurrence bit-for-bit.

Structured trace estimation
---------------------------
At tight ``eps`` the JL dimension reaches ``m`` (the default for every
``m`` below several thousand), the sketch degenerates to the identity, and
the legacy path pushed the full ``(m, m)`` identity through the polynomial
once per call to read both the estimates and the trace off it.  The
default kernel path now reads the estimates from the polynomial applied to
the ``(m, R)`` factor stack itself (mathematically identical — the
identity "sketch" is a no-op) and the trace from a structured
:class:`~repro.linalg.trace_estimation.TraceEstimator`: the exact
``R x R`` Gram-spectrum evaluation when ``2R`` is within the hysteresis
margin of ``m``, the exact deflated block-Krylov projection of the
already-transformed factor block while ``R`` stays meaningfully below
``m``, a certified Hutchinson sampler on request, and the legacy identity
push where ``R ~ m`` makes it genuinely optimal.  The
``identity_taylor_applies`` counter records every ``(m, m)`` identity that
does pass through the polynomial; the structured paths keep it at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import InvalidProblemError
from repro.instrumentation.counters import OracleCounters
from repro.linalg.expm import expm_normalized
from repro.linalg.norms import spectral_norm_power
from repro.linalg.sketching import gaussian_sketch, jl_dimension
from repro.linalg.taylor import taylor_degree, taylor_expm_apply
from repro.linalg.taylor_blocked import BlockedTaylorKernel
from repro.linalg.taylor_gram import GramTaylorKernel, TaylorEngine
from repro.linalg.trace_estimation import TraceEstimator
from repro.operators.collection import ConstraintCollection
from repro.operators.packed import PackedGramFactors, segment_sums
from repro.backend import get_array_backend
from repro.parallel.backends import ExecutionBackend
from repro.utils.random_utils import RandomState, as_generator


#: Mass of the fresh random direction blended into the warm-started power
#: iteration vector each call.  A pure warm start can lock onto a stale
#: eigendirection — if the solver's weight updates rotate ``Psi``'s dominant
#: eigenvector away from the previous one, the Rayleigh-quotient stopping
#: rule fires while the new dominant component (overlap ~machine noise) is
#: still growing, underestimating ``||Psi||`` and hence the Lemma 4.2
#: degree.  Mixing in a fresh Gaussian restores the random start's
#: ``Omega(1/sqrt(m))`` overlap with *every* eigendirection at the price of
#: a few extra iterations when the direction is unchanged.
NORM_RESTART_MIX = 0.05


@dataclass
class OracleOutput:
    """Result of one oracle call.

    Attributes
    ----------
    values:
        The vector ``(exp(Psi) . A_i) / Tr[exp(Psi)]`` (length ``n``).
    trace:
        The (possibly approximate, possibly rescaled) trace ``Tr[exp(Psi)]``
        used for the normalization.  For the exact oracle this is reported
        as 1.0 because the normalized density matrix is formed directly.
    work:
        Model work units charged for this call.
    """

    values: np.ndarray
    trace: float
    work: float


class DotExpOracle(Protocol):
    """Protocol for per-iteration oracles used by the decision solver.

    The solver supplies its weight matrix ``psi`` and the dual iterate
    ``x`` that generated it (``psi = sum_i x_i A_i``).  The exact oracle
    consumes ``psi`` directly; the fast (Theorem 4.1) oracle rebuilds the
    same operator from ``x`` through the constraint factors so it never
    touches a dense ``m x m`` matrix — it accepts ``psi=None``, and
    declares that through ``needs_dense_psi = False`` so the solver's
    matrix-free :class:`~repro.core.psi_state.ImplicitPsiState` can skip
    maintaining (or ever building) the dense matrix.  Oracles without the
    attribute are assumed to need ``psi`` (the solver then keeps the dense
    seed path).  When both arguments are given they must describe the same
    solver state.
    """

    counters: OracleCounters
    #: Whether the oracle consumes the dense ``psi`` argument.  ``False``
    #: lets the decision solvers run matrix-free and pass ``psi=None``.
    needs_dense_psi: bool

    def __call__(
        self, psi: np.ndarray | None, x: np.ndarray
    ) -> OracleOutput:  # pragma: no cover
        ...


def big_dot_exp(
    phi,
    factors: Sequence[np.ndarray | sp.spmatrix] | PackedGramFactors,
    kappa: float | None = None,
    eps: float = 0.1,
    rng: RandomState = None,
    sketch_constant: float = 8.0,
    use_sketch: bool = True,
    counters: OracleCounters | None = None,
    dim: int | None = None,
    return_trace: bool = False,
    trace_estimator=None,
) -> np.ndarray | tuple[np.ndarray, float]:
    """Approximate all ``exp(phi) . (Q_i Q_i^T)`` (Theorem 4.1's ``bigDotExp``).

    Parameters
    ----------
    phi:
        Symmetric PSD matrix to exponentiate (dense or sparse), a matvec
        callable ``v -> phi @ v`` (in which case ``dim`` is required and the
        matrix is never materialised — the setting of Corollary 1.2 where
        ``Psi = sum_i x_i Q_i Q_i^T`` is applied through the factors), or a
        Taylor kernel over ``phi`` — a
        :class:`~repro.linalg.taylor_blocked.BlockedTaylorKernel` or a
        :class:`~repro.linalg.taylor_gram.GramTaylorKernel`, whichever the
        rank-adaptive engine selected.
        Matrix inputs combined with packed ``factors`` are routed through a
        blocked kernel automatically; callables keep the per-term reference
        recurrence.
    factors:
        The Gram factors ``Q_i`` of the constraint matrices, each of shape
        ``(m, r_i)`` — either a plain sequence (reference per-factor loop)
        or a :class:`~repro.operators.packed.PackedGramFactors` view (the
        single-GEMM batched path).
    kappa:
        Upper bound on ``max(1, ||phi||_2)``; estimated by power iteration
        when omitted.
    eps:
        Relative accuracy of the returned approximations.  Half the budget
        goes to the Taylor truncation (Lemma 4.2) and half to the JL sketch.
    rng:
        Randomness source for the sketch.
    sketch_constant:
        Multiplier in the JL dimension rule (exposed for experiment E8).
    use_sketch:
        When ``False`` the JL step is skipped and the polynomial is applied
        to the factors directly (still avoids the eigendecomposition); used
        to separate the two error sources in tests and E3.
    counters:
        Optional operation counters to update.
    return_trace:
        When ``True`` the estimate of ``Tr[exp(phi)] = exp(phi) . I`` is
        returned alongside the values.  On the packed sketch path with a
        genuinely reducing sketch this is read directly off the transformed
        sketch block (``|| Pi exp(phi/2) ||_F^2``) at no extra cost.  In
        the degenerate-sketch regime (JL dimension at least ``dim``) and on
        the ``use_sketch=False`` path, a structured ``trace_estimator``
        (when provided) supplies it without any ``(m, m)`` identity ever
        entering the polynomial; without one, the identity block is pushed
        through the polynomial (counted under the
        ``identity_taylor_applies`` counter).  Only the legacy
        sequence-of-factors path still appends an identity pseudo-factor.
    trace_estimator:
        Optional :class:`~repro.linalg.trace_estimation.TraceEstimator`
        (already :meth:`~repro.linalg.trace_estimation.TraceEstimator.bind`-ed
        to the weights that generated ``phi``).  Engaged only where the
        trace would otherwise require a full-identity Taylor apply — the
        packed kernel path in the degenerate-sketch regime and the
        ``use_sketch=False`` packed path; the Theorem 4.1 estimates are
        then read from the polynomial applied to the factor stack itself
        (an ``(m, R)`` block — mathematically identical, since the
        identity "sketch" is a no-op) and the trace comes from the
        estimator's exact Gram-spectrum / deflated projection or its
        certified Hutchinson sampler.

    Returns
    -------
    numpy.ndarray or (numpy.ndarray, float)
        Vector of approximations to ``exp(phi) . Q_i Q_i^T``, plus the trace
        estimate when ``return_trace`` is set.
    """
    if eps <= 0 or eps >= 1:
        raise InvalidProblemError(f"eps must be in (0, 1), got {eps}")
    packed = factors if isinstance(factors, PackedGramFactors) else None
    if packed is None and not factors:
        raise InvalidProblemError("factors must be a non-empty sequence")
    kernel = phi if isinstance(phi, (BlockedTaylorKernel, GramTaylorKernel)) else None
    phi_is_callable = (
        kernel is None
        and callable(phi)
        and not isinstance(phi, np.ndarray)
        and not sp.issparse(phi)
    )
    if kernel is not None:
        dim = kernel.dim
    elif phi_is_callable:
        if dim is None:
            raise InvalidProblemError("dim is required when phi is a matvec callable")
    else:
        dim = phi.shape[0]
        if phi.shape != (dim, dim):
            raise InvalidProblemError(f"phi must be square, got shape {phi.shape}")
        if packed is not None:
            # Matrix input on the packed path: run the fused blocked
            # recurrence (same polynomial, fewer per-term passes).
            kernel = BlockedTaylorKernel.from_matrix(phi)

    if kappa is None:
        kappa = max(
            1.0,
            spectral_norm_power(
                kernel.matvec if kernel is not None else phi, dim=dim, rng=rng
            )
            * 1.05,
        )
    kappa = max(1.0, float(kappa))

    eps_taylor = eps / 2.0
    eps_sketch = eps / 2.0
    degree = taylor_degree(kappa / 2.0, eps_taylor)

    if counters is not None:
        counters.record_call()

    if use_sketch:
        # The JL dimension rule can exceed the ambient dimension for small m
        # or very small eps; sketching is then pointless (and noisier), so
        # fall back to the identity "sketch", which makes the left factor
        # exact and leaves only the Taylor truncation error.
        sketch_dim = min(jl_dimension(dim, eps_sketch, constant=sketch_constant), dim)
        if (
            sketch_dim >= dim
            and return_trace
            and packed is not None
            and kernel is not None
            and trace_estimator is not None
            and trace_estimator.structured
        ):
            # Degenerate-sketch regime with a structured trace estimator:
            # the identity "sketch" is a mathematical no-op (the left
            # factor is exact), so this call is exactly the
            # ``use_sketch=False`` packed path below — the Theorem 4.1
            # estimates read from the polynomial applied to the (m, R)
            # factor stack, the trace from the estimator, no full-identity
            # Taylor apply.  Fall through to that block instead of
            # duplicating it.
            use_sketch = False
        elif sketch_dim >= dim:
            sketch = np.eye(dim)
            if counters is not None:
                # The (m, m) identity is about to pass through the Taylor
                # polynomial — the counter the structured estimator's
                # regression tests assert stays at zero on its grids.
                counters.add("identity_taylor_applies")
        else:
            sketch = gaussian_sketch(sketch_dim, dim, rng=as_generator(rng))

    if use_sketch:
        # Rows of (Pi exp(phi/2)) = (exp(phi/2) Pi^T)^T because phi is symmetric.
        if kernel is not None:
            transformed = kernel.apply(sketch.T, degree, scale=0.5).T
        else:
            transformed = taylor_expm_apply(
                _half_matvec(phi), sketch.T.copy(), degree
            ).T
        if counters is not None:
            counters.matvecs += sketch_dim * (degree - 1)
        if packed is not None:
            results = packed.estimates_from_transform(transformed)
            if counters is not None:
                # One GEMM covers every constraint, but the count keeps the
                # reference path's per-constraint unit so counter reports
                # stay comparable across packed=True/False (the aggregate
                # nonzeros touched are identical).
                counters.factor_passes += len(packed) + (1 if return_trace else 0)
                counters.add("packed_estimate_gemms")
            if return_trace:
                # exp(phi) . I estimated from the already-computed block:
                # || Pi exp(phi/2) I ||_F^2 = || transformed ||_F^2.
                return results, float(np.sum(transformed * transformed))
            return results
        seq = list(factors) + ([np.eye(dim)] if return_trace else [])
        results = np.empty(len(seq), dtype=np.float64)
        for idx, factor in enumerate(seq):
            if sp.issparse(factor):
                sketched = np.asarray(transformed @ factor)
            else:
                sketched = transformed @ np.asarray(factor, dtype=np.float64)
            results[idx] = float(np.sum(sketched * sketched))
            if counters is not None:
                counters.factor_passes += 1
        if return_trace:
            return results[:-1], float(results[-1])
        return results

    if packed is not None:
        stacked = packed.dense_columns()
        if kernel is not None:
            transformed = kernel.apply(stacked, degree, scale=0.5)
        else:
            transformed = taylor_expm_apply(_half_matvec(phi), stacked, degree)
        col_vals = np.einsum("ij,ij->j", transformed, transformed)
        results = segment_sums(col_vals, packed.offsets)
        if counters is not None:
            counters.matvecs += packed.total_rank * (degree - 1)
            counters.factor_passes += len(packed)
            counters.add("packed_estimate_gemms")
        if return_trace:
            if (
                kernel is not None
                and trace_estimator is not None
                and trace_estimator.structured
            ):
                # `transformed` is already the polynomial applied to the
                # factor stack — exactly the block the deflated estimator
                # projects, so the structured trace costs no extra apply.
                estimate = trace_estimator.estimate(
                    kernel, degree, scale=0.5, transformed_factors=transformed
                )
                if counters is not None:
                    counters.matvecs += estimate.probes * (degree - 1)
                    counters.add("structured_trace_estimates")
                    if estimate.mode == "identity":
                        # Probe budget exhausted: the estimator ran the
                        # exact identity push, so charge its columns too.
                        counters.matvecs += dim * (degree - 1)
                        counters.factor_passes += 1
                        counters.add("identity_taylor_applies")
                return results, float(estimate.value)
            if kernel is not None:
                eye_transformed = kernel.apply(np.eye(dim), degree, scale=0.5)
            else:
                eye_transformed = taylor_expm_apply(_half_matvec(phi), np.eye(dim), degree)
            if counters is not None:
                counters.matvecs += dim * (degree - 1)
                counters.factor_passes += 1
                counters.add("identity_taylor_applies")
            return results, float(np.sum(eye_transformed * eye_transformed))
        return results

    seq = list(factors) + ([np.eye(dim)] if return_trace else [])
    results = np.empty(len(seq), dtype=np.float64)
    for idx, factor in enumerate(seq):
        dense_factor = factor.toarray() if sp.issparse(factor) else np.asarray(factor, dtype=np.float64)
        if kernel is not None:
            transformed = kernel.apply(dense_factor, degree, scale=0.5)
        else:
            transformed = taylor_expm_apply(_half_matvec(phi), dense_factor, degree)
        results[idx] = float(np.sum(transformed * transformed))
        if counters is not None:
            counters.matvecs += dense_factor.shape[1] * (degree - 1)
            counters.factor_passes += 1
    if return_trace:
        return results[:-1], float(results[-1])
    return results


def _half_matvec(phi):
    """Return a matvec callable for ``phi / 2`` (matrix or matvec input)."""
    if callable(phi) and not isinstance(phi, np.ndarray) and not sp.issparse(phi):
        return lambda block: 0.5 * phi(block)
    if sp.issparse(phi):
        half = phi.tocsr() * 0.5
        return lambda block: half @ block
    dense = 0.5 * np.asarray(phi, dtype=np.float64)
    return lambda block: dense @ block


class ExactDotExpOracle:
    """Reference oracle: exact density matrix via eigendecomposition.

    The per-iteration trace products ``A_i . W`` are the collection's own
    :meth:`~repro.operators.collection.ConstraintCollection.dots`: one GEMM
    plus a segment reduction when the Gram factors are exact, the
    per-constraint backend map otherwise, with identical work–depth charges
    either way.

    Parameters
    ----------
    constraints:
        The constraint collection whose trace products are needed.
    backend:
        Optional execution backend used for the trace products (and their
        work–depth accounting).
    """

    #: The exact oracle eigendecomposes the dense ``psi`` argument, so the
    #: decision solvers must maintain it (dense ``PsiState``).
    needs_dense_psi = True

    def __init__(
        self,
        constraints: ConstraintCollection,
        backend: ExecutionBackend | None = None,
    ) -> None:
        self.constraints = constraints
        self.backend = backend
        self.counters = OracleCounters()

    def __call__(self, psi: np.ndarray, x: np.ndarray) -> OracleOutput:
        if psi is None:
            raise InvalidProblemError(
                "the exact oracle needs the dense psi matrix "
                "(needs_dense_psi = True); only the fast oracle accepts psi=None"
            )
        self.counters.record_call()
        self.counters.eigendecompositions += 1
        m = self.constraints.dim
        density = expm_normalized(psi)
        values = self.constraints.dots(density, backend=self.backend)
        work = float(m**3 + self.constraints.total_nnz)
        self.counters.flops_estimate += work
        return OracleOutput(values=values, trace=1.0, work=work)

    def export_state(self) -> dict:
        """Checkpointable snapshot (the exact oracle is stateless bar counters)."""
        return {"kind": "exact", "counters": self.counters.export_state()}

    def import_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        if state.get("kind") != "exact":
            raise InvalidProblemError(
                f"cannot import oracle state of kind {state.get('kind')!r} "
                "into an ExactDotExpOracle"
            )
        self.counters.import_state(state["counters"])


class FastDotExpOracle:
    """Theorem 4.1 oracle: truncated Taylor + JL sketch on factorized constraints.

    The oracle's normalization ``Tr[exp(Psi)]`` depends on the regime: with
    a genuinely reducing sketch it is read off the transformed sketch block
    at no extra cost (``|| Pi exp(Psi/2) ||_F^2``); in the degenerate-sketch
    regime (JL dimension at least ``m`` — the default configuration for
    every ``m`` below several thousand) the default kernel path hands it to
    a structured :class:`~repro.linalg.trace_estimation.TraceEstimator`
    (exact Gram-spectrum / deflated block-Krylov projection, or the
    certified Hutchinson sampler) so no ``(m, m)`` identity ever passes
    through the Taylor polynomial; the legacy per-factor path instead
    treats the identity as an extra factor (``exp(Psi) . I``).  Every
    variant estimates the same quantity, so the returned values are
    directly comparable to the exact oracle's.

    The oracle rebuilds ``Psi`` from ``x`` through the constraint factors
    and never reads the ``psi`` argument — ``needs_dense_psi = False``, and
    calls may pass ``psi=None`` (the decision solvers do exactly that when
    their matrix-free :class:`~repro.core.psi_state.ImplicitPsiState` is
    active, so no dense ``sum_i x_i A_i`` is ever assembled for the
    oracle's sake).  The positional ``psi`` slot is kept for backward
    compatibility with the :class:`DotExpOracle` protocol.

    Parameters
    ----------
    constraints:
        Constraint collection; Gram factors are extracted once and cached.
    eps:
        Relative accuracy of the oracle (values are within ``(1 +- eps)`` of
        the exact ratios with high probability).  The decision solver's
        threshold test tolerates a constant-factor slack in ``eps``.
    kappa_bound:
        Optional a-priori bound on ``||Psi||_2`` (e.g. the Lemma 3.2 bound
        ``(1 + 10 eps) K``); when omitted the norm is estimated per call by
        power iteration.
    sketch_constant:
        JL dimension multiplier.
    rng:
        Randomness source (a fresh sketch is drawn every call).
    packed:
        When ``True`` (default) the oracle uses the collection's cached
        :class:`~repro.operators.packed.PackedGramFactors` view: the
        ``Psi``-matvec and the estimate pass become single GEMMs over the
        stacked factor matrix, and the trace estimate is read off the
        transformed sketch block instead of a dense identity pseudo-factor.
        ``False`` keeps the seed per-factor loop (the reference the packed
        path is benchmarked and tested against).
    blocked:
        When ``True`` (default, packed path only) the Lemma 4.2 Taylor
        apply runs through a fused block kernel built from the packed
        factors and the current weights instead of the per-term matvec
        recurrence (``False``; same polynomial — the paths differ only in
        floating-point rounding and wall clock; see
        ``benchmarks/bench_e12_taylor.py``).
    engine:
        When ``True`` (default, with ``packed`` and ``blocked``) kernels
        come from the oracle's own rank-adaptive
        :class:`~repro.linalg.taylor_gram.TaylorEngine`, built on the first
        call over the collection's packed view: the representation
        (Gram-space / densified ``Psi`` / sparse-CSR ``Psi`` / factor
        recurrence) is selected once per stack by measured ``nnz`` and
        stacked rank, and the weight-dependent state is maintained across
        oracle calls by updating only the active columns (work charged to
        ``backend`` under ``taylor-engine-update``).  ``False`` rebuilds a
        PR-2 style :class:`~repro.linalg.taylor_blocked.BlockedTaylorKernel`
        (single ``2R > m`` densification rule, no cross-call reuse) every
        call — the reference the engine is benchmarked against in
        ``benchmarks/bench_e13_gram.py``.
    taylor_chunk_columns:
        Optional column-chunk size forwarded to the kernels to bound
        their peak memory on wide sketch blocks (``None`` = unchunked).
    trace_mode:
        Trace-normalisation strategy for the degenerate-sketch regime
        (packed kernel path only).  ``"auto"`` (default) applies
        :func:`~repro.linalg.trace_estimation.select_trace_mode` —
        the exact Gram-spectrum path when ``2R`` is within the hysteresis
        margin of ``m``, the exact deflated block-Krylov projection while
        ``R`` stays meaningfully below ``m``, the legacy identity push
        otherwise (at ``R ~ m`` its columns carry the estimates too, so it
        is genuinely optimal).  Explicit values force a mode
        (``"gram"``/``"deflated"``/``"hutchinson"``/``"identity"``);
        ``"identity"`` reproduces the pre-estimator reference bit-for-bit
        and exists for benchmarking and regression testing.
    trace_seed:
        Deterministic seed of the Hutchinson probe stream (default 0).
        The probes never touch the oracle's ``rng``, so enabling or
        disabling the structured trace cannot shift the sketch stream —
        the fixed-seed decision-equivalence regressions rely on this.
    """

    #: The fast oracle reads ``x`` only; the decision solvers may therefore
    #: run matrix-free and pass ``psi=None``.
    needs_dense_psi = False

    def __init__(
        self,
        constraints: ConstraintCollection,
        eps: float = 0.05,
        kappa_bound: float | None = None,
        sketch_constant: float = 8.0,
        rng: RandomState = None,
        backend: ExecutionBackend | None = None,
        packed: bool = True,
        blocked: bool = True,
        engine: bool = True,
        taylor_chunk_columns: int | None = None,
        trace_mode: str = "auto",
        trace_seed: int | None = None,
        array_backend=None,
    ) -> None:
        if eps <= 0 or eps >= 1:
            raise InvalidProblemError(f"eps must be in (0, 1), got {eps}")
        self.constraints = constraints
        self.eps = float(eps)
        self.kappa_bound = kappa_bound
        self.sketch_constant = float(sketch_constant)
        self.rng = as_generator(rng)
        self.backend = backend
        self.blocked = bool(blocked)
        self.engine = bool(engine)
        self.taylor_chunk_columns = taylor_chunk_columns
        self.counters = OracleCounters()
        self._engine: TaylorEngine | None = None
        # Converged power-iteration vector of the previous call: the
        # solver's Psi changes mildly per iteration, so warm-starting the
        # per-call norm estimate cuts it from hundreds of cold iterations
        # to a handful.
        self._norm_vector: np.ndarray | None = None
        if packed:
            # The packed view carries the array backend; the Taylor engine
            # and trace estimator adopt it from there.
            self._packed: PackedGramFactors | None = constraints.packed(
                backend=array_backend
            )
            self._factors: list | None = None
            self._identity: np.ndarray | None = None
        else:
            if not get_array_backend(array_backend).is_numpy:
                raise InvalidProblemError(
                    "the per-factor reference path (packed=False) is "
                    "NumPy-only; use packed=True with a non-NumPy backend"
                )
            self._packed = None
            self._factors = constraints.gram_factors()
            self._identity = np.eye(constraints.dim)
        # Structured degenerate-regime trace estimator (kernel path only).
        # The sketch half of the eps budget funds the Hutchinson
        # certification: the degenerate regime's identity "sketch" is
        # exact, so that half is otherwise unused there.
        if self._packed is not None and self.blocked and trace_mode != "identity":
            self._trace_estimator: TraceEstimator | None = TraceEstimator(
                self._packed,
                eps=self.eps / 2.0,
                mode=trace_mode,
                seed=0 if trace_seed is None else trace_seed,
            )
        else:
            self._trace_estimator = None

    @property
    def packed(self) -> PackedGramFactors | None:
        """The packed factor view when the fast path is enabled."""
        return self._packed

    @property
    def taylor_engine(self) -> TaylorEngine | None:
        """The incremental Taylor engine, once the first call has built it.

        The decision solvers read its :meth:`~repro.linalg.taylor_gram.TaylorEngine.stats`
        into the result metadata so regressions can assert the
        active-column update discipline.
        """
        return self._engine

    @property
    def trace_estimator(self) -> TraceEstimator | None:
        """The structured degenerate-regime trace estimator (kernel path).

        ``None`` on the reference paths (``packed=False``, ``blocked=False``,
        or ``trace_mode="identity"``).  The decision solvers read its
        :meth:`~repro.linalg.trace_estimation.TraceEstimator.stats` into
        the result metadata next to the ``psi_state`` counters so
        regressions can assert the zero-identity-apply discipline.
        """
        return self._trace_estimator

    def _factored_matvec(self, x: np.ndarray):
        """Matvec ``v -> Psi v = sum_i x_i Q_i (Q_i^T v)`` applied through the
        factors — the Corollary 1.2 representation, O(q) per (block) matvec,
        never materialising the dense ``Psi``.  With the packed view this is
        ``Q (x_cols ∘ (Q^T v))``: two GEMMs over the stacked matrix."""
        if self._packed is not None:
            return self._packed.matvec_fn(x)
        active = [(float(xi), q) for xi, q in zip(x, self._factors) if xi != 0.0]

        def matvec(block: np.ndarray) -> np.ndarray:
            out = np.zeros_like(block, dtype=np.float64)
            for weight, factor in active:
                out += weight * (factor @ (factor.T @ block))
            return out

        return matvec

    def __call__(self, psi: np.ndarray | None = None, x: np.ndarray | None = None) -> OracleOutput:
        if x is None:
            raise InvalidProblemError(
                "the fast oracle requires the weight vector x (psi may be None)"
            )
        m = self.constraints.dim
        weights = np.asarray(x, dtype=np.float64)
        if self._packed is not None and self.blocked:
            # Fused block-kernel path: the kernel is built from x rather
            # than from the caller's psi — callers may legitimately pass a
            # placeholder psi (the fast oracle is documented to read x
            # only, and the E11-E13 benchmarks do exactly that) — and also
            # serves as the matvec for the norm estimate.  With the engine
            # (default) the representation is rank-adaptive and the
            # weight-dependent state carries over from the previous call,
            # so only the changed weight coordinates are touched; without
            # it a PR-2 blocked kernel is rebuilt per call.
            if self.engine:
                if self._engine is None:
                    self._engine = TaylorEngine(
                        self._packed, chunk_columns=self.taylor_chunk_columns
                    )
                operator = self._engine.kernel_for(weights, backend=self.backend)
            else:
                operator = self._packed.taylor_kernel(
                    weights,
                    chunk_columns=self.taylor_chunk_columns,
                    mode="legacy",
                )
            matvec = operator.matvec
        else:
            operator = None
            matvec = self._factored_matvec(weights)
        kappa = self.kappa_bound
        if kappa is None:
            # One fresh draw per call (the cold start's exact rng
            # consumption, so fast-path variants stay stream-identical),
            # blended into the previous call's converged vector: warm where
            # Psi's dominant direction persists, never blind where it moved.
            fresh = self.rng.standard_normal(m)
            if self._norm_vector is not None and m > 0:
                fresh_norm = float(np.linalg.norm(fresh))
                if fresh_norm > 0:
                    fresh = self._norm_vector + NORM_RESTART_MIX * (fresh / fresh_norm)
            estimate, self._norm_vector = spectral_norm_power(
                matvec,
                dim=m,
                v0=fresh if m > 0 else None,
                rng=self.rng,
                return_vector=True,
            )
            kappa = max(1.0, estimate * 1.05)
            self.counters.add("norm_estimates")
        tracer = self._trace_estimator if operator is not None else None
        trace_calls_before = tracer.calls if tracer is not None else 0
        if self._packed is not None:
            estimates, trace_estimate = big_dot_exp(
                operator if operator is not None else matvec,
                self._packed,
                kappa=kappa,
                eps=self.eps,
                rng=self.rng,
                sketch_constant=self.sketch_constant,
                counters=self.counters,
                dim=m,
                return_trace=True,
                trace_estimator=tracer.bind(weights) if tracer is not None else None,
            )
        else:
            raw = big_dot_exp(
                matvec,
                list(self._factors) + [self._identity],
                kappa=kappa,
                eps=self.eps,
                rng=self.rng,
                sketch_constant=self.sketch_constant,
                counters=self.counters,
                dim=m,
            )
            estimates, trace_estimate = raw[:-1], float(raw[-1])
        if trace_estimate <= 0:
            raise InvalidProblemError(
                "sketched trace estimate is non-positive; increase the sketch dimension"
            )
        values = estimates / trace_estimate
        sketch_dim = min(jl_dimension(m, self.eps / 2.0, constant=self.sketch_constant), m)
        degree = taylor_degree(kappa / 2.0, self.eps / 2.0)
        # Work in the Corollary 1.2 units: each of the `degree` polynomial
        # steps applies Psi to the block through the factors (O(q) per
        # column), plus one pass over the factor nonzeros for the estimates.
        # When the structured trace estimator handled the degenerate-regime
        # normalisation, the block is the (m, R) factor stack plus any
        # Hutchinson probes — not the (m, m) identity — and the estimator's
        # own model work (eigendecomposition / projection GEMMs / fallback
        # push) rides along, so the charge reflects what actually ran.
        q = self.constraints.total_nnz
        trace_info = (
            tracer.last
            if tracer is not None and tracer.calls > trace_calls_before
            else None
        )
        if trace_info is not None:
            columns = self._packed.total_rank + trace_info.probes
            work = float(columns * degree * max(q, m) + q + trace_info.extra_work)
        else:
            work = float(sketch_dim * degree * max(q, m) + q)
        self.counters.flops_estimate += work
        return OracleOutput(values=values, trace=trace_estimate, work=work)

    def export_state(self) -> dict:
        """Checkpointable snapshot of everything a resumed call sequence reads.

        Captures the sketch rng (``bit_generator.state``), the
        power-iteration warm-start vector, the counters, and — when built —
        the Taylor engine's mode/buffers and the trace estimator's state.
        The ladder flags (``engine``/``blocked``) ride along so a resume
        lands on the exact demotion rung the checkpoint was captured on.
        """
        return {
            "kind": "fast",
            "engine_enabled": bool(self.engine),
            "blocked": bool(self.blocked),
            "rng": dict(self.rng.bit_generator.state),
            "norm_vector": (
                None if self._norm_vector is None
                else np.array(self._norm_vector, dtype=np.float64)
            ),
            "counters": self.counters.export_state(),
            "engine": (
                None if self._engine is None else self._engine.export_state()
            ),
            "trace": (
                None if self._trace_estimator is None
                else self._trace_estimator.export_state()
            ),
        }

    def import_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`.

        The Taylor engine is rebuilt at the checkpointed mode and its
        buffers restored from the snapshot, so the resumed oracle never
        aliases the interrupted run's engine, whose buffers have advanced
        past the checkpoint.
        """
        if state.get("kind") != "fast":
            raise InvalidProblemError(
                f"cannot import oracle state of kind {state.get('kind')!r} "
                "into a FastDotExpOracle"
            )
        self.engine = bool(state["engine_enabled"])
        self.blocked = bool(state["blocked"])
        self.rng.bit_generator.state = state["rng"]
        vec = state.get("norm_vector")
        self._norm_vector = None if vec is None else np.array(vec, dtype=np.float64)
        self.counters.import_state(state["counters"])
        engine_state = state.get("engine")
        if engine_state is None:
            self._engine = None
        else:
            if self._packed is None:
                raise InvalidProblemError(
                    "checkpoint carries taylor-engine state but the oracle "
                    "was built with packed=False"
                )
            self._engine = TaylorEngine(
                self._packed,
                chunk_columns=self.taylor_chunk_columns,
                mode=engine_state["mode"],
            )
            self._engine.import_state(engine_state)
        trace_state = state.get("trace")
        if trace_state is not None:
            if self._trace_estimator is None:
                self._trace_estimator = TraceEstimator(
                    self._packed,
                    eps=self.eps / 2.0,
                    mode=trace_state["mode"],
                )
            self._trace_estimator.import_state(trace_state)
        elif self._trace_estimator is not None and state.get("trace") is None:
            # The checkpointed run had no estimator (identity reference
            # path); mirror that so the resumed arithmetic matches.
            self._trace_estimator = None

    def fused_update_weights(self, col_w: np.ndarray) -> None:
        """Advance the engine to one call's expanded weights (batched path).

        Exactly the kernel-construction step of :meth:`__call__` on the
        default engine path, minus the kernel view the batched solver never
        needs: ``repro.core.batch.solve_many`` expands and validates the
        whole group's weight stack in one pass, then advances each
        instance's engine here so its counters, charges and Gram buffer
        evolve exactly as they would under sequential solves (the batched
        GEMMs read the Gram stack directly instead of through a kernel).
        """
        if self._engine is None:
            self._engine = TaylorEngine(
                self._packed, chunk_columns=self.taylor_chunk_columns
            )
        self._engine.update_weights(col_w, backend=self.backend)

    def fused_power_v0(self) -> np.ndarray:
        """Draw one call's warm-started power-iteration start vector.

        Reproduces the kappa chain's rng consumption and warm-start blend
        from :meth:`__call__` bit-for-bit: one fresh ``standard_normal(m)``
        draw, blended into the previous call's converged norm vector when
        one exists.  The batched solver stacks these rows as ``v0`` for
        :func:`~repro.linalg.norms.batched_spectral_norm_power`.
        """
        m = self.constraints.dim
        fresh = self.rng.standard_normal(m)
        if self._norm_vector is not None and m > 0:
            fresh_norm = float(np.linalg.norm(fresh))
            if fresh_norm > 0:
                fresh = self._norm_vector + NORM_RESTART_MIX * (fresh / fresh_norm)
        return fresh

    def fused_norm_result(self, estimate: float, vector: np.ndarray) -> float:
        """Record one batched power-iteration result; returns the call's kappa.

        Stores the converged vector as the next call's warm start, books the
        ``norm_estimates`` counter, and applies the same ``max(1, est *
        1.05)`` safety margin as :meth:`__call__`.
        """
        self._norm_vector = vector
        kappa = max(1.0, estimate * 1.05)
        self.counters.add("norm_estimates")
        return kappa

    def record_fused_call(self, degree: int, trace_estimate) -> float:
        """Book one batched-solver oracle pass against this oracle's counters.

        ``repro.core.batch.solve_many`` runs the degenerate structured-path
        estimate (stacked Taylor apply + squared column norms + structured
        trace) as batched GEMMs outside :meth:`__call__`, but each instance
        must record exactly the counters and Corollary 1.2 work charge a
        sequential call would have.  ``trace_estimate`` is the
        :class:`~repro.linalg.trace_estimation.TraceEstimate` the instance's
        own estimator returned for this pass (the estimator updates its own
        call/extra-work tallies inside ``estimate``); the norm-estimate
        counter is booked separately by the batched kappa chain.  Returns
        the work charge in model units.
        """
        packed = self._packed
        self.counters.record_call()
        self.counters.matvecs += packed.total_rank * (degree - 1)
        self.counters.factor_passes += len(packed)
        self.counters.add("packed_estimate_gemms")
        self.counters.matvecs += trace_estimate.probes * (degree - 1)
        self.counters.add("structured_trace_estimates")
        q = self.constraints.total_nnz
        m = self.constraints.dim
        columns = packed.total_rank + trace_estimate.probes
        work = float(columns * degree * max(q, m) + q + trace_estimate.extra_work)
        self.counters.flops_estimate += work
        return work


def oracle_engine_metadata(oracle) -> dict:
    """Result-metadata fragment with the oracle's engine/estimator counters.

    Returns ``{"taylor_engine": stats}`` when ``oracle`` is a fast oracle
    whose rank-adaptive engine has been built, plus
    ``{"trace_estimator": stats}`` when it carries a structured trace
    estimator — the one helper both decision solvers merge into their
    result metadata so regressions can assert the incremental-update and
    zero-identity-apply disciplines.
    """
    out: dict = {}
    engine = getattr(oracle, "taylor_engine", None)
    if engine is not None:
        out["taylor_engine"] = engine.stats()
    tracer = getattr(oracle, "trace_estimator", None)
    if tracer is not None:
        out["trace_estimator"] = tracer.stats()
    return out


def make_oracle(
    constraints: ConstraintCollection,
    kind: str = "exact",
    eps: float = 0.05,
    kappa_bound: float | None = None,
    rng: RandomState = None,
    backend: ExecutionBackend | None = None,
    packed: bool = True,
    blocked: bool = True,
    engine: bool = True,
    trace_mode: str = "auto",
    trace_seed: int | None = None,
    array_backend=None,
) -> DotExpOracle:
    """Factory for the decision solver's oracle (``"exact"`` or ``"fast"``).

    ``packed``/``blocked``/``engine``/``trace_mode`` configure the fast
    oracle's single-GEMM estimate pass, fused Taylor kernels, the
    rank-adaptive incremental engine, and the structured degenerate-regime
    trace estimator (``trace_seed`` its deterministic probe stream).
    All default to the fast paths; the ``False`` / ``"identity"`` settings
    reproduce the reference loops bit-for-bit and exist for benchmarking
    and regression testing.  ``array_backend`` selects the array backend
    of the fast oracle's packed kernels (``None``/``"numpy"``/``"torch"``
    or an :class:`~repro.backend.ArrayBackend` instance); the exact oracle
    is NumPy-resident and rejects non-NumPy backends.
    """
    kind = kind.lower()
    if kind == "exact":
        if not get_array_backend(array_backend).is_numpy:
            raise InvalidProblemError(
                "the exact oracle is NumPy-resident; use kind='fast' with a "
                "non-NumPy array backend"
            )
        return ExactDotExpOracle(constraints, backend=backend)
    if kind == "fast":
        return FastDotExpOracle(
            constraints,
            eps=eps,
            kappa_bound=kappa_bound,
            rng=rng,
            backend=backend,
            packed=packed,
            blocked=blocked,
            engine=engine,
            trace_mode=trace_mode,
            trace_seed=trace_seed,
            array_backend=array_backend,
        )
    raise InvalidProblemError(f"unknown oracle kind {kind!r}; expected 'exact' or 'fast'")
