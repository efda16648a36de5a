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
  :mod:`repro.linalg.trace_estimation` in the degenerate-sketch regime.

The standalone function :func:`big_dot_exp` exposes the Theorem 4.1
primitive directly (given ``Phi``, a norm bound ``kappa``, and the factors),
which is what the E3/E8 benchmarks exercise.

Certified kappa
---------------
Lemma 4.2's degree ``k = max(e^2 kappa, ln(2/eps))`` is only valid for
``kappa >= ||Phi||_2``, so every ``kappa`` comes from an exact eigenvalue
(:func:`~repro.linalg.norms.certified_kappa`).  Each fast-oracle call runs
eig → kappa → degree → apply → trace.  On the Gram rung's flat pass one
Cholesky may prove ``||Psi||_2 < FLOOR_LAMBDA_MAX``, which fixes the
degree at its floor without an eigenvalue; when it cannot, one ``dsyevr``
gives the ``R x R`` twin's top eigenvalue alone.  Off that pass, in Gram
trace mode, the kappa and the trace share one ``R x R``
eigendecomposition.  Without a spectrum of its own a call reads
:func:`~repro.linalg.trace_estimation.lambda_max_source`, the rule the
implicit psi state's ``lambda_max`` bound reads too, and its
work charge includes that eigensolve or Lanczos at the psi state's rates.

Packed estimates
----------------
``big_dot_exp`` works on a :class:`repro.operators.packed.PackedGramFactors`
view; a plain sequence of factors is packed once at entry.  The estimate
pass ``|| (Pi exp(Phi/2)) Q_i ||_F^2`` for *all* ``n`` constraints is one
``(d, m) x (m, R)`` GEMM followed by a segment sum over the column blocks,
and the trace normalisation ``Tr[exp(Phi)] ≈ || Pi exp(Phi/2) ||_F^2`` is
read directly off the already-computed transformed sketch block.  The
oracle's ``Psi``-matvec is ``Q (w ∘ (Q^T v))`` — two GEMMs over the stacked
factor matrix.

Rank-adaptive Taylor engine
---------------------------
The Taylor step itself — pushing the sketch block through the Lemma 4.2
polynomial — dominates the oracle, especially in the degenerate-sketch
regime (``m ≲ 1000`` at tight eps, where the JL dimension reaches ``m``).
:class:`FastDotExpOracle` evaluates the polynomial through a kernel from
its own :class:`~repro.linalg.taylor_gram.TaylorEngine`, whose
representation is picked once per factor stack by
:func:`~repro.linalg.taylor_gram.select_taylor_mode`: the ``R x R``
Gram-twin spectrum when ``2R <= 1.1 m`` (the hysteresis-margined gate),
a one-time densification of ``Psi`` (``m^2 s`` per term), or the sparse
factor recurrence (``2 nnz(Q) s``), chosen from ``(m, R, nnz(Q))`` alone.
On the Gram rung the ``R x R`` twin ``S = W^{1/2} Q^T Q W^{1/2}`` gives
the kappa, the trace and all ``n`` estimates, with no ``m``-sized work.
With the Gram trace and a degenerate sketch (every benchmarked input) the
call is one flat pass that builds no kernel object and books exactly what
one row of the fused ``solve_many`` group books: the twin, then one
Cholesky that proves the floor degree or, when the proof fails, one
``dsyevr`` for the top eigenvalue, kappa and the degree; then ``R x R``
products that evaluate the polynomial at that degree, and the checks.
The other representations (the densified ``Psi``, the scaled stack) are
built from each call's weights, and the build's work is charged to the
backend.  No kernel carries state from one call to the next.
Every representation evaluates the identical polynomial, so the
:class:`~repro.robustness.FastPathSupervisor` can demote a failing kernel
to another one — down to the per-term matvec recurrence, the
``reference`` floor — at the cost of rounding only.  Work–depth charges
are *representation-invariant*: the model bills the factored
Corollary 1.2 costs (the paper algorithm's work) no matter which kernel
representation executes.  The Gram mode performs strictly less arithmetic
than the billed factor recurrence; the throughput-driven densified mode
may perform *more* hardware madds than the model bills — by at most the
policy's :data:`~repro.linalg.taylor_gram.SPARSE_GEMM_DISCOUNT` factor —
whenever that is measurably faster in wall clock, the same
madds-for-throughput trade dense BLAS kernels already make internally.

``big_dot_exp`` accepts a kernel directly as ``phi``; matrix-valued ``phi``
is routed through a blocked kernel automatically, while matvec-callable
``phi`` runs the per-term recurrence.

Structured trace estimation
---------------------------
At tight ``eps`` the JL dimension reaches ``m`` (the default for every
``m`` below several thousand) and the sketch degenerates to the identity.
The kernel path then reads the estimates from the polynomial applied to
the ``(m, R)`` factor stack itself (mathematically identical — the
identity "sketch" is a no-op) and, whenever ``R <= m``, the trace from the
exact ``R x R`` Gram spectrum: the Gram rung's own, booked with the
:class:`~repro.linalg.trace_estimation.TraceEstimator`, or off that rung
the estimator's; for ``R > m`` the ``m`` identity columns are the smaller
block and carry both.  The
``identity_taylor_applies`` counter records every ``(m, m)`` identity that
does pass through the polynomial; the Gram trace keeps it at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import CheckpointError, InvalidProblemError
from repro.instrumentation.counters import OracleCounters
from repro.linalg.expm import expm_normalized
from repro.linalg.norms import (
    KAPPA_SLACK,
    certified_kappa,
    certified_lambda_max,
    proves_lambda_max_below,
)
# Nothing here calls the power iteration any more; the name stays importable
# because perfbench/tracing.py patches it at this module.
from repro.linalg.norms import spectral_norm_power  # noqa: F401
from repro.linalg.sketching import gaussian_sketch, jl_dimension
from repro.linalg.taylor import taylor_degree, taylor_expm_apply
from repro.linalg.taylor_blocked import BlockedTaylorKernel, checked_kernel_output
from repro.linalg.taylor_gram import (
    GramTaylorKernel,
    TaylorEngine,
    gram_top_eigenvalue,
    gram_twin,
    product_evaluation,
)
from repro.linalg.trace_estimation import TraceEstimator, finite_trace, lambda_max_source
from repro.operators.collection import ConstraintCollection
from repro.operators.packed import PackedGramFactors
from repro.parallel.backends import ExecutionBackend
from repro.robustness.faultinject import fault_hook
from repro.utils.random_utils import RandomState, as_generator

#: Below this ``lambda_max(Psi)`` the certified kappa ``(1 + KAPPA_SLACK)
#: lambda`` is under 2, so a call's Taylor degree
#: ``taylor_degree(kappa / 2, eps / 2)`` is its floor
#: ``taylor_degree(1, eps / 2)``.
FLOOR_LAMBDA_MAX = 2.0 / (1.0 + KAPPA_SLACK)


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
        rank-adaptive engine selected.  A Gram kernel over the factors' own
        stack reads the no-sketch estimates off its eigendecomposition.
        Matrix inputs are routed through a blocked kernel automatically;
        callables run the per-term recurrence.
    factors:
        The Gram factors ``Q_i`` of the constraint matrices, each of shape
        ``(m, r_i)`` — either a plain sequence (packed once at entry) or a
        :class:`~repro.operators.packed.PackedGramFactors` view.  Their
        ``m`` must match the dimension of ``phi``.
    kappa:
        Upper bound on ``max(1, ||phi||_2)``; when omitted it is
        :func:`~repro.linalg.norms.certified_kappa` of ``phi`` — one
        ``eigvalsh`` of a matrix ``phi`` of size at most
        :data:`~repro.linalg.norms.KAPPA_EIG_CUTOFF`, Lanczos with the
        residual bound for kernels, callables and larger matrices.
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
        returned alongside the values.  With a genuinely reducing sketch
        this is read directly off the transformed sketch block
        (``|| Pi exp(phi/2) ||_F^2``) at no extra cost.  In the
        degenerate-sketch regime (JL dimension at least ``dim``) and on the
        ``use_sketch=False`` path, a structured ``trace_estimator`` (when
        provided) supplies it without any ``(m, m)`` identity ever entering
        the polynomial; without one, the identity block is pushed through
        the polynomial (counted under the ``identity_taylor_applies``
        counter).
    trace_estimator:
        Optional :class:`~repro.linalg.trace_estimation.TraceEstimator`
        (already :meth:`~repro.linalg.trace_estimation.TraceEstimator.bind`-ed
        to the weights that generated ``phi``).  Engaged only on the kernel
        path where the trace would otherwise require a full-identity Taylor
        apply — the degenerate-sketch regime and ``use_sketch=False``; the
        Theorem 4.1 estimates are then read from the polynomial applied to
        the factor stack itself (an ``(m, R)`` block — mathematically
        identical, since the identity "sketch" is a no-op) and the trace
        comes from the estimator's exact Gram spectrum.

    Returns
    -------
    numpy.ndarray or (numpy.ndarray, float)
        Vector of approximations to ``exp(phi) . Q_i Q_i^T``, plus the trace
        estimate when ``return_trace`` is set.
    """
    if eps <= 0 or eps >= 1:
        raise InvalidProblemError(f"eps must be in (0, 1), got {eps}")
    packed = (
        factors if isinstance(factors, PackedGramFactors)
        else PackedGramFactors(list(factors))
    )
    kernel = phi if isinstance(phi, (BlockedTaylorKernel, GramTaylorKernel)) else None
    if kernel is not None:
        dim = kernel.dim
    elif callable(phi) and not isinstance(phi, np.ndarray) and not sp.issparse(phi):
        if dim is None:
            raise InvalidProblemError("dim is required when phi is a matvec callable")
    else:
        dim = phi.shape[0]
        if phi.shape != (dim, dim):
            raise InvalidProblemError(f"phi must be square, got shape {phi.shape}")
        # Matrix input: run the fused blocked recurrence (same polynomial,
        # fewer per-term passes).
        kernel = BlockedTaylorKernel.from_matrix(phi)
    if packed.dim != dim:
        raise InvalidProblemError(
            f"phi has dimension {dim} but the factors have {packed.dim} rows"
        )

    if kappa is None:
        kappa = certified_kappa(
            phi.matvec if phi is kernel else phi, dim=dim, rng=rng
        )
    kappa = max(1.0, float(kappa))

    eps_taylor = eps / 2.0
    eps_sketch = eps / 2.0
    degree = taylor_degree(kappa / 2.0, eps_taylor)

    if counters is not None:
        counters.record_call()
    # Whether a structured estimator supplies the trace in place of the
    # full-identity push (kernel path only).
    structured_trace = (
        return_trace
        and kernel is not None
        and trace_estimator is not None
        and trace_estimator.structured
    )

    def transform(block: np.ndarray) -> np.ndarray:
        """``p(phi / 2) block`` through the kernel or the matvec callable."""
        if kernel is not None:
            return kernel.apply(block, degree, scale=0.5)
        return taylor_expm_apply(lambda b: 0.5 * phi(b), block, degree)

    if use_sketch:
        # The JL dimension rule can exceed the ambient dimension for small m
        # or very small eps; sketching is then pointless (and noisier), so
        # fall back to the identity "sketch", which makes the left factor
        # exact and leaves only the Taylor truncation error.
        sketch_dim = min(jl_dimension(dim, eps_sketch, constant=sketch_constant), dim)
        if sketch_dim >= dim and structured_trace:
            # Degenerate-sketch regime with a structured trace estimator:
            # the identity "sketch" is a mathematical no-op (the left
            # factor is exact), so this call is exactly the
            # ``use_sketch=False`` path below — the Theorem 4.1 estimates
            # read from the polynomial applied to the (m, R) factor stack,
            # the trace from the estimator, no full-identity Taylor apply.
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
        transformed = transform(sketch.T).T
        results = packed.estimates_from_transform(transformed)
        if counters is not None:
            counters.matvecs += sketch_dim * (degree - 1)
            # One GEMM covers every constraint; the count keeps one pass
            # per constraint (plus one for the trace) so counter reports
            # stay in per-factor units.
            counters.factor_passes += len(packed) + (1 if return_trace else 0)
            counters.add("packed_estimate_gemms")
        if return_trace:
            # exp(phi) . I estimated from the already-computed block:
            # || Pi exp(phi/2) I ||_F^2 = || transformed ||_F^2.
            return results, float(np.sum(transformed * transformed))
        return results

    if isinstance(kernel, GramTaylorKernel) and kernel.stack is packed.matrix:
        # ||p(phi/2) q_c||^2 on the Gram-twin spectrum: no (m, R) block.
        col_vals = kernel.factor_column_values(degree, scale=0.5)
    else:
        transformed = transform(packed.dense_columns())
        col_vals = np.einsum("ij,ij->j", transformed, transformed)
    results = packed.constraint_sums(col_vals)
    if counters is not None:
        counters.matvecs += packed.total_rank * (degree - 1)
        counters.factor_passes += len(packed)
        counters.add("packed_estimate_gemms")
    if not return_trace:
        return results
    if structured_trace:
        estimate = trace_estimator.estimate(degree, scale=0.5)
        if counters is not None:
            counters.add("structured_trace_estimates")
        return results, float(estimate.value)
    eye_transformed = transform(np.eye(dim))
    if counters is not None:
        counters.matvecs += dim * (degree - 1)
        counters.factor_passes += 1
        counters.add("identity_taylor_applies")
    return results, float(np.sum(eye_transformed * eye_transformed))


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

    Each call takes its Lemma 4.2 ``kappa`` from an exact spectrum (see
    :meth:`_kappa`) before it picks the degree and applies the polynomial.

    The oracle's normalization ``Tr[exp(Psi)]`` depends on the regime: with
    a genuinely reducing sketch it is read off the transformed sketch block
    at no extra cost (``|| Pi exp(Psi/2) ||_F^2``); in the degenerate-sketch
    regime (JL dimension at least ``m`` — the default configuration for
    every ``m`` below several thousand) it comes from the exact Gram
    spectrum whenever ``R <= m``, so no ``(m, m)`` identity passes through
    the Taylor polynomial unless ``R > m`` makes the identity push the
    smaller block.  Every variant estimates the same quantity, so the
    returned values are directly comparable to the exact oracle's.

    A call on the Gram rung with the Gram trace and a degenerate sketch
    takes one flat pass (:meth:`_gram_call`): one Cholesky of the Gram
    twin proves the floor degree, or else one ``dsyevr`` of the twin
    gives its top eigenvalue, kappa and the degree; ``R x R`` products
    then give the estimates and the trace, with the checks, counters and
    work charge of the kernel route and no kernel object.
    Whether the sketch degenerates is decided at construction; it
    reads only ``m``, ``eps`` and the sketch constant.  Every other case
    (the dense-psi, sparse-factors and reference rungs, a demoted trace, a
    reducing sketch, ``R = 0``) builds its kernel through the engine and
    runs :func:`big_dot_exp`, with the trace from a bound
    :class:`~repro.linalg.trace_estimation.TraceEstimator`.

    The oracle rebuilds ``Psi`` from ``x`` through the collection's cached
    :class:`~repro.operators.packed.PackedGramFactors` view and never reads
    the ``psi`` argument — ``needs_dense_psi = False``, and calls may pass
    ``psi=None`` (the decision solvers do exactly that when their
    matrix-free :class:`~repro.core.psi_state.ImplicitPsiState` is active,
    so no dense ``sum_i x_i A_i`` is ever assembled for the oracle's sake).
    The positional ``psi`` slot is kept for backward compatibility with the
    :class:`DotExpOracle` protocol.

    The Taylor kernels come from the oracle's own rank-adaptive
    :class:`~repro.linalg.taylor_gram.TaylorEngine`, built on the first
    call: the representation (Gram-twin spectrum / densified ``Psi`` /
    sparse factor recurrence) is selected once per stack from its
    dimension, stacked rank and ``nnz``, and each call off the flat pass
    builds its kernel from that call's ``x`` (outside the Gram rung, the
    build's work is charged to ``backend`` under ``taylor-engine-update``).
    The
    :class:`~repro.robustness.FastPathSupervisor` demotes a failing
    representation and, at the floor of its ladder, sets :attr:`reference`:
    the per-term matvec recurrence through the packed factors with the
    identity trace push.

    Parameters
    ----------
    constraints:
        Constraint collection; Gram factors are extracted once and cached.
    eps:
        Relative accuracy of the oracle (values are within ``(1 +- eps)`` of
        the exact ratios with high probability).  The decision solver's
        threshold test tolerates a constant-factor slack in ``eps``.
    sketch_constant:
        JL dimension multiplier.
    rng:
        Randomness source (a fresh sketch is drawn every call).
    backend:
        Optional execution backend charged with the engine's kernel builds
        (``taylor-engine-update``).
    """

    #: The fast oracle reads ``x`` only; the decision solvers may therefore
    #: run matrix-free and pass ``psi=None``.
    needs_dense_psi = False

    def __init__(
        self,
        constraints: ConstraintCollection,
        eps: float = 0.05,
        sketch_constant: float = 8.0,
        rng: RandomState = None,
        backend: ExecutionBackend | None = None,
    ) -> None:
        if eps <= 0 or eps >= 1:
            raise InvalidProblemError(f"eps must be in (0, 1), got {eps}")
        self.constraints = constraints
        self.eps = float(eps)
        self.sketch_constant = float(sketch_constant)
        self.rng = as_generator(rng)
        self.backend = backend
        #: The Taylor ladder's floor: ``True`` once the supervisor has
        #: demoted every engine representation, after which each call runs
        #: the per-term recurrence through the packed matvec.
        self.reference = False
        self.counters = OracleCounters()
        self._engine: TaylorEngine | None = None
        self._packed = constraints.packed()
        self._trace_estimator = TraceEstimator(self._packed)
        m = constraints.dim
        # Rows of the JL sketch; at m the sketch is the identity, and the
        # estimates come off the factor stack itself.
        self._sketch_dim = (
            min(jl_dimension(m, self.eps / 2.0, constant=self.sketch_constant), m)
            if m else 0
        )
        #: Whether a call on the Gram rung with the Gram trace takes the
        #: flat pass (:meth:`_gram_call`): the sketch is degenerate and the
        #: stack is not empty.
        self._flat_gram = self._sketch_dim == m and self._packed.total_rank > 0
        #: The Taylor degree of a call with ``lambda_max < FLOOR_LAMBDA_MAX``.
        self.floor_degree = taylor_degree(1.0, self.eps / 2.0)

    @property
    def packed(self) -> PackedGramFactors:
        """The collection's packed factor view the oracle works on."""
        return self._packed

    @property
    def taylor_engine(self) -> TaylorEngine | None:
        """The Taylor engine, once the first call has built it.

        The decision solvers read its :meth:`~repro.linalg.taylor_gram.TaylorEngine.stats`
        (mode and stacked rank) into the result metadata.
        """
        return self._engine

    @property
    def trace_estimator(self) -> TraceEstimator:
        """The structured degenerate-regime trace estimator.

        The decision solvers read its
        :meth:`~repro.linalg.trace_estimation.TraceEstimator.stats` into
        the result metadata next to the ``psi_state`` counters so
        regressions can assert the zero-identity-apply discipline.
        """
        return self._trace_estimator

    def __call__(self, psi: np.ndarray | None = None, x: np.ndarray | None = None) -> OracleOutput:
        if x is None:
            raise InvalidProblemError(
                "the fast oracle requires the weight vector x (psi may be None)"
            )
        weights = np.asarray(x, dtype=np.float64)
        spectrum_work = 0.0
        if self.reference:
            # Ladder floor: the per-term recurrence through the factored
            # matvec Q (w ∘ (Q^T v)), with the identity trace push.
            operator = host_psi = None
            matvec = self._packed.matvec_fn(weights)
            tracer = spectrum = None
        else:
            if self._engine is None:
                self._engine = TaylorEngine(self._packed)
            if (
                self._flat_gram
                and self._engine.mode == "gram"
                and self._trace_estimator.mode == "gram"
            ):
                return self._gram_call(weights)
            # The kernel is built from x rather than from the caller's psi
            # (callers may pass psi=None).  A Gram kernel's one eigh is the
            # call's spectrum; otherwise the bound tracer's, in Gram trace
            # mode, and a dense-psi kernel's host Psi is the kappa source
            # when R > m.
            operator = self._engine.kernel_for(weights, backend=self.backend)
            matvec = operator.matvec
            tracer = self._trace_estimator.bind(weights)
            if isinstance(operator, GramTaylorKernel):
                spectrum, host_psi = operator.spectrum, None
            else:
                spectrum, host_psi = tracer.spectrum, operator.host_psi
            if spectrum is not None:
                # The kernel's R x R eigh or the tracer's eigvalsh: R
                # applications at R^2 each, the twin rate lambda_max_source
                # uses.
                spectrum_work = float(spectrum.size) ** 3
        kappa, kappa_work = self._kappa(weights, matvec, spectrum, host_psi)
        trace_calls_before = tracer.calls if tracer is not None else 0
        estimates, trace_estimate = big_dot_exp(
            operator if operator is not None else matvec,
            self._packed,
            kappa=kappa,
            eps=self.eps,
            rng=self.rng,
            sketch_constant=self.sketch_constant,
            counters=self.counters,
            dim=self.constraints.dim,
            return_trace=True,
            trace_estimator=tracer,
        )
        _check_positive(trace_estimate)
        values = estimates / trace_estimate
        degree = taylor_degree(kappa / 2.0, self.eps / 2.0)
        # When the structured trace estimator handled the degenerate-regime
        # normalisation, the block is the (m, R) factor stack — not the
        # (m, m) identity — and the estimator's own model work (the R x R
        # eigendecomposition) rides along, so the charge reflects what
        # actually ran; so does a kappa eigensolve or Lanczos of its own,
        # and without a trace estimate the eigensolve kappa read, the Gram
        # kernel's or the tracer's.
        if tracer is not None and tracer.calls > trace_calls_before:
            work = self._model_work(self._packed.total_rank, degree, tracer.last.extra_work)
        else:
            work = self._model_work(self._sketch_dim, degree, spectrum_work)
        work += kappa_work
        self.counters.flops_estimate += work
        return OracleOutput(values=values, trace=trace_estimate, work=work)

    def _gram_call(self, weights: np.ndarray) -> OracleOutput:
        """One call on the Gram rung with the Gram trace and a degenerate sketch.

        The kernel route (``kernel_for`` → :class:`GramTaylorKernel` →
        ``bind`` → :func:`big_dot_exp` → ``estimate``) flattened, with each
        of its checks at the same fault site.  The Gram twin gives the
        degree (:meth:`gram_degree`), and
        :func:`~repro.linalg.taylor_gram.product_evaluation` gives the
        column values and the trace from ``R x R`` products at that degree.
        The trace, the counters and the work are booked as for one row of
        the fused ``solve_many`` group.
        """
        packed = self._packed
        gram = packed.gram_matrix()
        col_w = packed.expand_weights(weights)
        twin = gram_twin(gram, col_w)
        degree = self.gram_degree(twin)
        col_vals, trace = product_evaluation(gram, col_w, twin, degree, packed.dim)
        trace = float(trace)
        checked_kernel_output(col_vals, GramTaylorKernel.fault_site, "gram")
        estimates = packed.constraint_sums(col_vals)
        fault_hook("trace_estimation", kernel_mode="gram")
        _check_positive(finite_trace(trace))
        estimate = self._trace_estimator.record_gram_estimate(trace, degree)
        work = self._book_gram_call(degree, estimate)
        return OracleOutput(values=estimates / trace, trace=trace, work=work)

    def gram_degree(self, twin: np.ndarray) -> int:
        """The Lemma 4.2 degree of a flat Gram pass whose twin is ``twin``.

        The floor degree when one Cholesky proves
        ``lambda_max < FLOOR_LAMBDA_MAX``
        (:func:`~repro.linalg.norms.proves_lambda_max_below`).  Otherwise
        one ``dsyevr`` gives the twin's top eigenvalue alone
        (:func:`~repro.linalg.taylor_gram.gram_top_eigenvalue`, which raises
        at ``taylor_gram.apply`` on a failure), and the degree follows from
        its certified kappa.  The fused ``solve_many`` group calls this for
        each row, so its degrees are the sequential calls'.
        """
        if proves_lambda_max_below(twin, FLOOR_LAMBDA_MAX):
            return self.floor_degree
        kappa = certified_kappa(gram_top_eigenvalue(twin))
        return taylor_degree(kappa / 2.0, self.eps / 2.0)

    def _model_work(self, columns: int, degree: int, extra: float = 0.0) -> float:
        """A call's work in the Corollary 1.2 units, plus ``extra``.

        Each of the ``degree`` polynomial steps applies ``Psi`` to the
        ``columns``-wide block through the factors (``O(q)`` per column),
        plus one pass over the factor nonzeros for the estimates.
        """
        q = self.constraints.total_nnz
        return float(columns * degree * max(q, self.constraints.dim) + q + extra)

    def _book_gram_call(self, degree: int, trace_estimate) -> float:
        """The counters and work charge of one Gram-rung pass, flat or fused.

        ``trace_estimate`` is the pass's booked
        :class:`~repro.linalg.trace_estimation.TraceEstimate`.  Returns the
        work in model units.
        """
        packed = self._packed
        counters = self.counters
        counters.add("norm_estimates")
        counters.record_call()
        counters.matvecs += packed.total_rank * (degree - 1)
        counters.factor_passes += len(packed)
        counters.add("packed_estimate_gemms")
        counters.add("structured_trace_estimates")
        work = self._model_work(packed.total_rank, degree, trace_estimate.extra_work)
        counters.flops_estimate += work
        return work

    def _kappa(
        self, weights: np.ndarray, matvec, spectrum, psi: np.ndarray | None
    ) -> tuple[float, float]:
        """Lemma 4.2's ``kappa`` for this call, from an exact spectrum, and its work.

        With the call's Gram-twin ``spectrum`` (the Gram kernel's, or the
        bound tracer's in Gram trace mode) it is its top entry, and the
        caller bills that eigensolve.  Otherwise
        :func:`~repro.linalg.trace_estimation.lambda_max_source` picks the
        smaller Gram twin (``psi``, the host ``Psi`` this call's dense-psi
        kernel was built from, when there is one) or, above the cutoff,
        Lanczos on ``matvec`` from one ``standard_normal(m)`` draw of the
        oracle's rng; the work is its operator applications at the source's
        per-application cost.  See :func:`~repro.linalg.norms.certified_kappa`.
        """
        if spectrum is not None:
            kappa, work = certified_kappa(spectrum), 0.0
        else:
            source, matvec_work = lambda_max_source(self._packed, weights, matvec, psi=psi)
            info: dict = {}
            bound = certified_lambda_max(source, dim=self._packed.dim, rng=self.rng, info=info)
            kappa, work = max(1.0, bound), info["matvecs"] * matvec_work
        self.counters.add("norm_estimates")
        return kappa, work

    def export_state(self) -> dict:
        """Checkpointable snapshot of everything a resumed call sequence reads.

        Captures the sketch rng (``bit_generator.state``), the counters,
        the trace estimator's state and — when built — the Taylor engine's
        mode.  The ladder floor rides along (as the
        ``engine_enabled``/``blocked`` pair of checkpoint format version 1)
        so a resume lands on the exact demotion rung the checkpoint was
        captured on.  Version 1 also has a ``norm_vector`` slot, the warm
        start of a power-iteration kappa that no longer exists; it is
        written as ``None`` and ignored on import.
        """
        return {
            "kind": "fast",
            "engine_enabled": not self.reference,
            "blocked": not self.reference,
            "rng": dict(self.rng.bit_generator.state),
            "norm_vector": None,
            "counters": self.counters.export_state(),
            "engine": (
                None if self._engine is None else self._engine.export_state()
            ),
            "trace": self._trace_estimator.export_state(),
        }

    def import_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`.

        The Taylor engine is rebuilt at the checkpointed mode; its kernels
        depend only on the weights, so nothing else of it is restored.
        Snapshots that only a removed oracle option could have produced
        (the per-call blocked kernel, a missing trace estimator, an engine
        mode that no longer exists such as ``dense-factors``) raise
        :class:`~repro.exceptions.CheckpointError`.
        """
        if state.get("kind") != "fast":
            raise InvalidProblemError(
                f"cannot import oracle state of kind {state.get('kind')!r} "
                "into a FastDotExpOracle"
            )
        blocked = bool(state["blocked"])
        if blocked and not state["engine_enabled"]:
            raise CheckpointError(
                "checkpoint was captured on the per-call blocked Taylor kernel, "
                "which no longer exists; re-solve instead"
            )
        trace_state = state.get("trace")
        if trace_state is None:
            raise CheckpointError(
                "checkpoint was captured by a fast oracle without a trace "
                "estimator, which no longer exists; re-solve instead"
            )
        self.reference = not blocked
        self.rng.bit_generator.state = state["rng"]
        self.counters.import_state(state["counters"])
        engine_state = state.get("engine")
        self._engine = None
        if engine_state is not None:
            try:
                self._engine = TaylorEngine(self._packed, mode=engine_state["mode"])
            except InvalidProblemError as exc:
                raise CheckpointError(
                    f"cannot restore the checkpoint's Taylor engine: {exc}"
                ) from exc
            self._engine.import_state(engine_state)
        self._trace_estimator.import_state(trace_state)

    def record_fused_call(self, degree: int, trace_estimate) -> float:
        """Book one batched-solver oracle pass against this oracle's counters.

        ``repro.core.batch.solve_many`` runs the degenerate structured-path
        estimate (each row's :meth:`gram_degree`, then one batched product
        evaluation of the column values and traces per degree) as batched
        kernels outside
        :meth:`__call__`, but each instance
        must record exactly the counters and Corollary 1.2 work charge a
        sequential call would have — the kappa's ``norm_estimates`` tally
        included.  ``trace_estimate`` is the
        :class:`~repro.linalg.trace_estimation.TraceEstimate` the instance's
        own estimator booked for this pass
        (:meth:`~repro.linalg.trace_estimation.TraceEstimator.record_gram_estimate`).
        Returns the work charge in model units.  The first pass builds the
        engine, as the first sequential call does, so the ``taylor_engine``
        metadata matches.
        """
        if self._engine is None:
            self._engine = TaylorEngine(self._packed)
        return self._book_gram_call(degree, trace_estimate)


def _check_positive(trace: float) -> None:
    """Reject a non-positive trace normalisation."""
    if trace <= 0:
        raise InvalidProblemError(
            "sketched trace estimate is non-positive; increase the sketch dimension"
        )


def oracle_engine_metadata(oracle) -> dict:
    """Result-metadata fragment with the oracle's engine/estimator stats.

    Returns ``{"taylor_engine": stats}`` (mode and stacked rank) when
    ``oracle`` is a fast oracle whose rank-adaptive engine has been built,
    plus ``{"trace_estimator": stats}`` when it carries a trace estimator —
    the one helper both decision solvers merge into their result metadata
    so regressions can assert the selected mode and the zero-identity-apply
    discipline.
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
    rng: RandomState = None,
    backend: ExecutionBackend | None = None,
) -> DotExpOracle:
    """Factory for the decision solver's oracle (``"exact"`` or ``"fast"``)."""
    kind = kind.lower()
    if kind == "exact":
        return ExactDotExpOracle(constraints, backend=backend)
    if kind == "fast":
        return FastDotExpOracle(constraints, eps=eps, rng=rng, backend=backend)
    raise InvalidProblemError(f"unknown oracle kind {kind!r}; expected 'exact' or 'fast'")
