"""Phase-based variant of the decision solver (ablation for experiment E9).

The SPAA 2012 conference version of the algorithm organised the iterations
into *phases*; the arXiv v3 analysis reproduced in this repository removes
the phases ("Our modified analysis is for a simplified pseudocode of the
algorithm from [PT12] that removes these phases.  However, the phase-based
version can be analyzed similarly.").  The exact conference pseudocode is
not included in the paper text we reproduce from, so this module implements
the natural *lazy-weight-update* phase structure that the phase mechanism
buys in practice and that experiment E9 ablates:

* a phase fixes the weight matrix ``W = exp(Psi)`` (one oracle call);
* within the phase, the qualifying set ``B = {i : W . A_i <= (1+eps) Tr W}``
  is updated repeatedly — the selected coordinates keep being multiplied by
  ``(1 + alpha)`` — until either the phase's ℓ1-growth budget
  ``(1 + eps)`` is exhausted or the set would change the spectrum too much;
* then ``W`` is recomputed and the next phase begins.

The variant performs (many) fewer matrix exponentials per unit of ℓ1
progress at the cost of using slightly stale penalties; every returned
certificate is still verified exactly like the phase-less solver's, so the
comparison in E9 is about iteration/oracle counts, not correctness.

Like the phase-less solver, the iteration core is matrix-free on the
fast-oracle path: ``Psi`` lives behind a
:class:`~repro.core.psi_state.PsiState`, and with the implicit state the
phase boundaries estimate the density's trace products from the oracle's
engine-applied factor stack (the values vector) and ``lambda_max`` as the
certified bound from the smaller Gram twin — the per-phase
``O(m^3)`` ``expm_normalized`` of the dense path disappears, and
``primal_y`` is densified at most once, on demand, when read off the
result.  The fast oracle's structured trace estimator
(:mod:`repro.linalg.trace_estimation`) completes the picture: its
counters appear in ``result.metadata["trace_estimator"]`` and its
column-accurate work rides in the per-phase oracle charge, exactly as in
the phase-less solver.

The function below is only the phase structure: construction, supervised
calls, tracking, exits, captures and the result itself are the shared
:class:`~repro.core.decision.DecisionRun`'s.
"""

from __future__ import annotations

from typing import Any

from repro.exceptions import BudgetExhaustedError
from repro.operators.collection import ConstraintCollection
from repro.core.checkpoint import SolverCheckpoint
from repro.core.decision import DecisionOptions, DecisionRun, resolve_decision_options
from repro.core.problem import NormalizedPackingSDP
from repro.core.result import DecisionResult


def decision_psdp_phased(
    problem: NormalizedPackingSDP | ConstraintCollection | list,
    epsilon: float | None = None,
    options: DecisionOptions | None = None,
    phase_growth: float | None = None,
    *,
    resume_from: "SolverCheckpoint | None" = None,
    **overrides: Any,
) -> DecisionResult:
    """Phase-based (lazy weight update) variant of :func:`decision_psdp`.

    Parameters
    ----------
    problem, epsilon, options, overrides:
        As in :func:`repro.core.decision.decision_psdp`.
    phase_growth:
        Multiplicative ℓ1-growth budget of a phase (default ``1 + eps``):
        a phase ends when ``||x||_1`` has grown by this factor since the
        last weight-matrix recomputation.
    resume_from:
        A :class:`~repro.core.checkpoint.SolverCheckpoint` captured by an
        earlier (interrupted) run of this solver on the same instance and
        options.  Mid-phase checkpoints carry the active qualifying mask
        and the phase's growth position, so the resumed run re-enters the
        interrupted phase exactly where it stopped — bit-identically to an
        uninterrupted run on the same seed.
    """
    run = DecisionRun(
        problem, resolve_decision_options(epsilon, options, overrides),
        solver="phased", phase_growth=phase_growth,
    )
    interrupted = run.resume(resume_from)
    try:
        while run.running():
            if interrupted is not None:
                # Re-enter the interrupted phase: no phase increment, no
                # oracle call — the qualifying set stays fixed until this
                # phase's ℓ1-growth budget is spent, exactly as in the
                # uninterrupted run.
                mask, values = interrupted["mask"], interrupted["values"]
                start = interrupted["phase_start_norm"]
                interrupted = None
            else:
                result = run.budget_exit({"phases": run.phases, "mask": None})
                if result is not None:
                    return result
                run.phases += 1
                values, _ = run.oracle_values()
                run.track(values)
                mask = values <= 1.0 + run.eps
                if not mask.any():
                    return run.density_exit()
                start = float(run.x.sum())
            # Inner loop: reuse the stale qualifying set until the phase
            # budget is spent.  Budgets are checked per inner iteration (a
            # long phase must not overshoot a wall-clock budget), and a
            # mid-phase capture carries the mask so a resume skips the
            # weight-matrix recompute.
            while run.running() and float(run.x.sum()) < run.phase_growth * start:
                phase = {
                    "phases": run.phases, "mask": mask,
                    "phase_start_norm": start, "values": values,
                }
                result = run.budget_exit(phase)
                if result is not None:
                    return result
                run.t += 1
                run.update(mask)
                if run.history is not None:
                    run.record(values, mask.sum())
                run.tick(phase)
            # Optional early dual certificate at phase boundaries (through
            # the factored matvec on the matrix-free path).
            if not run.opts.strict:
                result = run.certificate_exit(primal=False)
                if result is not None:
                    return result
        return run.loop_exit()
    except BudgetExhaustedError:
        return run.failed()
