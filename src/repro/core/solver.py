"""The full (1+ε)-approximate positive-SDP optimizer (``approxPSDP``).

Theorem 1.1 / Lemma 2.2: a positive SDP can be approximated to relative
error ``eps`` with ``O(log n)`` calls to the ε-decision problem by binary
searching over the objective value.  This module implements that outer
loop:

1. normalize the input program to the Figure 2 form (Appendix A,
   :func:`repro.core.normalize.normalize_sdp`) — skipped when the caller
   already provides a :class:`~repro.core.problem.NormalizedPackingSDP`;
2. compute crude lower/upper bounds on the shared optimum ``OPT``
   (:meth:`NormalizedPackingSDP.value_bounds`), plus an explicit feasible
   covering matrix realising the upper bound so the search always has a
   primal certificate in hand;
3. repeatedly pick the geometric midpoint ``theta`` of the current bracket,
   scale the constraints by ``theta`` (so the question becomes "is
   ``OPT >= theta``?"), and run :func:`~repro.core.decision.decision_psdp`;
   every operator scales within its own representation, so factorized
   input keeps its exact factors and each decision call runs matrix-free;
4. use the *measured* certificate of whichever side the decision solver
   returned to shrink the bracket: a dual vector ``x`` rescaled by a
   certified ``lambda_max`` bound gives the certified lower bound
   ``theta ||x||_1 / lambda_max``; a primal matrix with measured
   ``min_i A_i . Y = mu`` gives the certified upper bound ``theta / mu``;
5. stop when the bracket's relative width is at most ``eps``.

Because every bracket update is justified by an explicitly verified
certificate, the outer loop is correct even when the decision solver uses
early exits or the randomized fast oracle.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.exceptions import InvalidProblemError, SolverError
from repro.instrumentation.counters import OracleCounters
from repro.operators.collection import ConstraintCollection
from repro.parallel.workdepth import WorkDepthTracker
from repro.core.certificates import verify_dual, verify_primal
from repro.core.decision import DecisionOptions, decision_psdp
from repro.core.normalize import NormalizationMap, normalize_sdp
from repro.core.problem import NormalizedPackingSDP, PositiveSDP
from repro.core.result import DecisionResult, SolveResult


@dataclass
class SolverOptions:
    """Options of the outer binary-search solver.

    Attributes
    ----------
    epsilon:
        Target relative accuracy of the returned bounds.
    decision_epsilon:
        Accuracy passed to each decision call (defaults to ``epsilon / 4``,
        which leaves room for the decision solver's own constant-factor
        slack).
    max_decision_calls:
        Safety cap on the number of decision invocations.
    decision_options:
        Template :class:`~repro.core.decision.DecisionOptions` applied to
        every decision call (the epsilon field is overridden per call).
    """

    epsilon: float = 0.2
    decision_epsilon: float | None = None
    max_decision_calls: int = 60
    decision_options: DecisionOptions = field(default_factory=DecisionOptions)


def _initial_primal_certificate(constraints: ConstraintCollection) -> tuple[np.ndarray, float]:
    """A feasible covering matrix and its objective value.

    ``Y0 = sum_i B_i / ||B_i||_F^2`` satisfies ``B_i . Y0 >= B_i . B_i /
    ||B_i||_F^2 = 1`` for every ``i`` (all cross terms are non-negative
    because trace products of PSD matrices are non-negative), so it is
    always feasible; its trace gives an explicit upper bound on ``OPT``.
    """
    dim = constraints.dim
    y0 = np.zeros((dim, dim), dtype=np.float64)
    for op in constraints:
        dense = op.to_dense()
        fro2 = float(np.sum(dense * dense))
        if fro2 <= 0:
            raise InvalidProblemError("constraint matrices must be nonzero")
        y0 += dense / fro2
    return y0, float(np.trace(y0))


def approx_psdp(
    problem: PositiveSDP | NormalizedPackingSDP,
    epsilon: float | None = None,
    options: SolverOptions | None = None,
    **decision_overrides: Any,
) -> SolveResult:
    """Compute a (1+ε)-approximation of a positive SDP (Theorem 1.1).

    Parameters
    ----------
    problem:
        Either a general :class:`~repro.core.problem.PositiveSDP` (which is
        normalized internally) or an already-normalized
        :class:`~repro.core.problem.NormalizedPackingSDP`.
    epsilon:
        Target relative accuracy (overrides ``options.epsilon``).
    options:
        Solver options.
    decision_overrides:
        Extra keyword arguments forwarded to every decision call (e.g.
        ``oracle="fast"``, ``strict=True``, ``collect_history=True``) —
        any field of :class:`~repro.core.decision.DecisionOptions`.  An
        already-constructed oracle object cannot be reused across calls
        here because each decision call re-scales the constraints; use
        string oracle kinds and ``oracle_eps`` to tune accuracy.  The
        scaled constraints keep the input's representation, so factorized
        input with ``oracle="fast"`` runs every call matrix-free.

    Returns
    -------
    SolveResult
        Certified two-sided bounds on the optimum with feasible primal and
        dual solutions in normalized (and, when applicable, original)
        variables.
    """
    opts = options or SolverOptions()
    if epsilon is not None:
        # Copy before overriding: the caller's options object must not be
        # silently mutated across calls.
        opts = dataclasses.replace(opts, epsilon=float(epsilon))
    eps = opts.epsilon
    if not (0 < eps < 1):
        raise InvalidProblemError(f"epsilon must be in (0, 1), got {eps}")
    eps_dec = opts.decision_epsilon if opts.decision_epsilon is not None else min(eps / 4.0, 0.2)

    mapping: NormalizationMap | None = None
    if isinstance(problem, PositiveSDP):
        normalized, mapping = normalize_sdp(problem)
    elif isinstance(problem, NormalizedPackingSDP):
        normalized = problem
    else:
        raise InvalidProblemError(
            f"expected PositiveSDP or NormalizedPackingSDP, got {type(problem)!r}"
        )

    constraints = normalized.constraints
    lower, upper = normalized.value_bounds()

    # Explicit certificates backing the initial bracket.
    best_primal, primal_value = _initial_primal_certificate(constraints)
    upper = min(upper, primal_value)
    norms = constraints.spectral_norms()
    best_index = int(np.argmax(1.0 / norms))
    best_dual = np.zeros(len(constraints))
    best_dual[best_index] = 1.0 / norms[best_index]
    lower = max(lower, float(best_dual.sum()))
    if lower > upper:
        upper = lower

    total_counters = OracleCounters()
    total_tracker = WorkDepthTracker()
    decision_results: list[DecisionResult] = []
    total_iterations = 0
    calls = 0
    # The certified bracket [lower, upper] only moves when an explicitly
    # verified certificate backs the move; the search bracket below steers the
    # choice of theta and may also react to unverified decision outcomes.
    search_lo, search_hi = lower, upper

    while upper / lower > 1.0 + eps and calls < opts.max_decision_calls:
        calls += 1
        if search_hi / search_lo <= 1.0 + eps / 4.0:
            search_lo, search_hi = lower, upper
        theta = math.sqrt(search_lo * search_hi)
        scaled = normalized.scaled(theta)
        dec_opts = DecisionOptions(**{**opts.decision_options.__dict__, **decision_overrides})
        dec_opts.epsilon = eps_dec
        result = decision_psdp(scaled, options=dec_opts)
        decision_results.append(result)
        total_iterations += result.iterations
        total_counters.merge(result.counters)
        if result.work_depth is not None:
            total_tracker.work += result.work_depth.work
            total_tracker.depth += result.work_depth.depth
            total_tracker.events += result.work_depth.events

        # Dual side: x rescaled by a certified lambda_max bound is feasible for
        # the theta-scaled instance -> theta * ||x||_1 is a certified lower bound.
        if result.dual_x is not None and result.dual_value > 0:
            candidate = theta * result.dual_x / max(result.dual_lambda_max, 1.0)
            cert = verify_dual(constraints, candidate)
            if cert.feasible and cert.value > lower:
                lower = cert.value
                best_dual = candidate
            elif not cert.feasible and cert.scaled_value > lower:
                lower = cert.scaled_value
                best_dual = candidate / max(cert.lambda_max, 1.0)
        # Primal side: Y with measured min dot mu for the scaled instance ->
        # theta * Y / mu is feasible for the unscaled instance with value
        # theta * Tr[Y] / mu, a certified upper bound.
        if result.primal_y is not None and np.isfinite(result.primal_min_dot) and result.primal_min_dot > 0:
            candidate_y = theta * result.primal_y / result.primal_min_dot
            cert_p = verify_primal(constraints, candidate_y)
            value = cert_p.scaled_value if not cert_p.feasible else cert_p.value
            if np.isfinite(value) and lower <= value < upper:
                upper = value
                best_primal = candidate_y if cert_p.feasible else candidate_y / cert_p.min_dot

        # Steer the next theta with the (unverified) decision outcome; the
        # certified bracket above is unaffected by this heuristic.
        if result.is_dual:
            search_lo = min(max(search_lo, theta), search_hi)
        else:
            search_hi = max(min(search_hi, theta), search_lo)
        search_lo = max(search_lo, lower)
        search_hi = min(max(search_hi, search_lo), upper)

    if upper / lower > 1.0 + eps:
        raise SolverError(
            f"binary search did not reach the target accuracy within "
            f"{opts.max_decision_calls} decision calls: bracket [{lower:.6g}, {upper:.6g}]"
        )

    original_dual = None
    original_primal = None
    if mapping is not None:
        original_dual = mapping.dual_to_original(best_dual)
        original_primal = mapping.primal_to_original(best_primal)

    return SolveResult(
        optimum_lower=float(lower),
        optimum_upper=float(upper),
        dual_x=best_dual,
        primal_y=best_primal,
        original_dual=original_dual,
        original_primal=original_primal,
        decision_calls=calls,
        total_iterations=total_iterations,
        epsilon=eps,
        decision_results=decision_results,
        counters=total_counters,
        work_depth=total_tracker.report(),
        metadata={"decision_epsilon": eps_dec},
    )
