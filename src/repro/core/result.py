"""Result objects returned by the decision solver and the full solver."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.instrumentation.counters import OracleCounters
from repro.instrumentation.history import ConvergenceHistory
from repro.parallel.workdepth import WorkDepthReport


class DecisionOutcome(str, enum.Enum):
    """Which side of the ε-decision problem the solver certified."""

    DUAL = "dual"
    """A packing vector ``x`` with large ``||x||_1`` and ``sum x_i A_i <= I``
    was found: the scaled optimum is at least ``1 - eps``."""

    PRIMAL = "primal"
    """A covering matrix ``Y`` with ``Tr[Y] = 1`` and ``A_i . Y >= 1`` (up to
    the measured slack) was found: the scaled optimum is at most ~1."""


class SolveStatus(str, enum.Enum):
    """How much of the paper's guarantee a :class:`DecisionResult` carries.

    The contract (see ``docs/ROBUSTNESS.md``): a certificate is only ever
    reported when it was *exactly verified* on the returned object — never
    extrapolated from a partial run.  Degradation changes which kernel
    computed the numbers, never what the numbers mean.
    """

    CERTIFIED = "certified"
    """The full Algorithm 3.1 guarantee holds and no fast-path kernel had to
    be demoted during the run."""

    DEGRADED = "degraded"
    """The certificate is exactly verified, but one or more fast-path
    kernels failed mid-run and the supervisor demoted them to slower exact
    rungs (see ``metadata["recovery_events"]``).  The result is as
    trustworthy as :attr:`CERTIFIED`; the flag records that the happy path
    did not survive."""

    BUDGET_EXHAUSTED = "budget_exhausted"
    """A wall-clock or iteration budget ran out before either ε-decision
    certificate was reached.  The returned dual vector is still *feasible*
    (``sum_i x_i A_i <= I`` holds by the final rescale with a certified
    ``lambda_max`` bound) — only its value is smaller than the
    Algorithm 3.1 target, so the run proves a weaker lower bound rather
    than deciding the ε-question."""

    FAILED = "failed"
    """Recovery itself ran out (``max_recoveries`` exceeded, or the bottom
    ladder rung also failed).  The result carries whatever partial dual
    could still be exactly verified; unverifiable fields are ``nan``.  The
    solver returns this instead of raising so batch drivers can triage."""


@dataclass
class DecisionResult:
    """Output of :func:`repro.core.decision.decision_psdp`.

    Exactly one of :attr:`dual_x` / :attr:`primal_y` is the certified object
    (according to :attr:`outcome`), but both are populated when available so
    callers can inspect the non-certified side too.

    Attributes
    ----------
    outcome:
        Which certificate terminated the run.
    dual_x:
        The dual (packing) vector, already rescaled to satisfy
        ``sum_i x_i A_i <= I`` (per Lemma 3.2 / Equation 3.4).
    primal_y:
        The primal (covering) matrix ``Y`` (trace exactly 1).  On the
        exact-oracle (dense ``PsiState``) path this is the running average
        of the probability matrices ``P(t)``, materialised eagerly as
        before.  On the matrix-free fast-oracle path the solver never
        forms a density matrix during the run: reading this attribute
        triggers the one deferred build (``exp(Psi)/Tr[exp(Psi)]`` of the
        final iterate via :attr:`primal_builder`) — a solve whose
        ``primal_y`` is never read performs zero ``O(m^3)``
        eigendecompositions and zero dense ``Psi`` materialisations.
        ``None`` when no primal candidate exists (e.g. a fast-path dual
        outcome).  Note that *any* read resolves the build — including
        indirect ones such as ``dataclasses.asdict``/``replace`` or
        ``==`` on the result — and the first read also refreshes
        :attr:`primal_min_dot` from the oracle's sketched estimate to the
        exact trace products of the returned matrix.
    dual_value:
        ``||dual_x||_1`` (0 if no dual vector was produced).
    primal_min_dot:
        ``min_i A_i . Y`` for the returned ``Y`` (``nan`` if no ``Y``).
    dual_lambda_max:
        Certified bound on ``lambda_max(sum_i dual_x_i A_i)`` — the feasibility margin.
    iterations:
        Number of iterations executed.
    max_iterations:
        The cap ``R`` that was in force.
    epsilon:
        Accuracy parameter the run used.
    early_exit:
        True if the run stopped on an early certificate check rather than on
        the while-loop condition of Algorithm 3.1.
    history:
        Optional per-iteration records (``None`` unless requested).
    counters:
        Oracle operation counters.
    work_depth:
        Work–depth report of the run (model units).
    """

    outcome: DecisionOutcome
    dual_x: np.ndarray | None
    primal_y: np.ndarray | None = field(repr=False)
    dual_value: float
    primal_min_dot: float
    dual_lambda_max: float
    iterations: int
    max_iterations: int
    epsilon: float
    early_exit: bool = False
    #: Guarantee level of this result — see :class:`SolveStatus`.  Anything
    #: other than :attr:`SolveStatus.CERTIFIED` means the run was supervised
    #: through faults or budgets; ``metadata["recovery_events"]`` has the
    #: per-event detail.
    status: SolveStatus = SolveStatus.CERTIFIED
    history: ConvergenceHistory | None = None
    counters: OracleCounters = field(default_factory=OracleCounters)
    work_depth: WorkDepthReport | None = None
    #: Free-form run facts.  The decision solvers record the Algorithm 3.1
    #: constants (``K``/``alpha``/``R``), the oracle kind, and the
    #: fast-path discipline counters: ``psi_state`` (matrix-free
    #: densify/matvec counts), ``taylor_engine`` (incremental-update
    #: counts), and ``trace_estimator`` (structured-trace mode, calls,
    #: identity fallbacks, extra model work).  A
    #: ``BUDGET_EXHAUSTED`` result (and a ``FAILED`` one, when periodic
    #: captures were on via ``DecisionOptions.checkpoint_every``) also
    #: carries ``metadata["checkpoint"]`` — a
    #: :class:`~repro.core.checkpoint.SolverCheckpoint` that
    #: ``decision_psdp(..., resume_from=...)`` continues bit-identically.
    metadata: dict[str, Any] = field(default_factory=dict)
    #: Deferred builder for :attr:`primal_y` (matrix-free path only): called
    #: at most once, on first read, then discarded.  It returns the matrix
    #: and its exact ``min_i A_i . Y``, which replaces the sketched
    #: :attr:`primal_min_dot`.
    primal_builder: Callable[[], tuple[np.ndarray, float]] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def is_dual(self) -> bool:
        """Whether the certified outcome is the dual (packing) side."""
        return self.outcome is DecisionOutcome.DUAL

    @property
    def is_primal(self) -> bool:
        """Whether the certified outcome is the primal (covering) side."""
        return self.outcome is DecisionOutcome.PRIMAL


def _primal_y_get(self: "DecisionResult") -> np.ndarray | None:
    """Resolve :attr:`DecisionResult.primal_y`, running the deferred build once."""
    value = self.__dict__.get("_primal_y_value")
    if value is None and self.primal_builder is not None:
        build, self.primal_builder = self.primal_builder, None
        value, self.primal_min_dot = build()
        self.__dict__["_primal_y_value"] = value
    return value


def _primal_y_set(self: "DecisionResult", value: np.ndarray | None) -> None:
    """Store an eagerly-built primal matrix (the dense-path assignment)."""
    self.__dict__["_primal_y_value"] = value


# The dataclass-generated __init__ assigns `self.primal_y = ...`; routing the
# field through a property keeps that assignment working while making *reads*
# trigger the deferred matrix-free build exactly once.
DecisionResult.primal_y = property(_primal_y_get, _primal_y_set)  # type: ignore[assignment]


@dataclass
class SolveResult:
    """Output of :func:`repro.core.solver.approx_psdp` (the full optimizer).

    The optimizer binary-searches the decision problem (Lemma 2.2) and
    returns two-sided bounds on the shared optimum of the normalized
    primal/dual pair together with explicit certificates in both the
    normalized and the original variable spaces.

    Attributes
    ----------
    optimum_lower / optimum_upper:
        Certified bounds on the normalized optimum ``OPT`` (the packing
        value = covering value).  Their ratio is at most ``1 + epsilon`` on
        success.
    dual_x:
        Feasible packing vector for the normalized program achieving
        :attr:`optimum_lower`.
    primal_y:
        Feasible covering matrix for the normalized program achieving
        :attr:`optimum_upper`.
    original_dual / original_primal:
        The same certificates mapped back to the original
        :class:`~repro.core.problem.PositiveSDP` variables (``None`` when the
        solver was given an already-normalized instance).
    decision_calls:
        Number of ε-decision invocations performed by the binary search.
    total_iterations:
        Total decision-solver iterations across all calls.
    epsilon:
        Target relative accuracy.
    """

    optimum_lower: float
    optimum_upper: float
    dual_x: np.ndarray
    primal_y: np.ndarray
    original_dual: np.ndarray | None
    original_primal: np.ndarray | None
    decision_calls: int
    total_iterations: int
    epsilon: float
    decision_results: list[DecisionResult] = field(default_factory=list)
    counters: OracleCounters = field(default_factory=OracleCounters)
    work_depth: WorkDepthReport | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def optimum_estimate(self) -> float:
        """Geometric midpoint of the certified bounds."""
        return float(np.sqrt(self.optimum_lower * self.optimum_upper))

    @property
    def relative_gap(self) -> float:
        """``optimum_upper / optimum_lower - 1`` (the certified relative error)."""
        if self.optimum_lower <= 0:
            return float("inf")
        return self.optimum_upper / self.optimum_lower - 1.0

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"OPT in [{self.optimum_lower:.6g}, {self.optimum_upper:.6g}] "
            f"(gap {self.relative_gap:.3%}), {self.decision_calls} decision calls, "
            f"{self.total_iterations} iterations"
        )
