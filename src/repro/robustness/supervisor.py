"""Fault supervision for the decision solvers' fast paths.

:class:`FastPathSupervisor` sits between the solver loop and the numerical
kernels and implements the kernel-demotion ladder: when a fast-path
computation breaks — non-finite GEMM output, Taylor-degree overflow, an
injected or organic eigensolver failure, a trace-estimator failure —
the failing computation is retried one rung down a ladder of
strictly-more-conservative implementations, and the event is recorded in a
structured :attr:`~FastPathSupervisor.recovery_events` log that the solvers
surface as ``DecisionResult.metadata["recovery_events"]``.

The ladders (see ``docs/ROBUSTNESS.md`` for the full diagram):

* **Taylor kernel**: ``gram`` → ``dense-psi`` → ``reference``, the
  per-term matvec apply with the identity trace push (``dense-psi`` and
  ``sparse-factors`` fall straight to ``reference``).  Every rung evaluates the *same* Lemma 4.2
  polynomial, so demotion changes rounding at worst — never the certified
  decision.
* **Trace estimator**: ``gram`` → the exact identity push.
* **lambda_max**: the certified bound (Gram-twin / ``Psi`` ``eigvalsh``,
  or seeded Lanczos above the cutoff) → exact dense ``eigvalsh``.
* **PsiState**: implicit (matrix-free) → dense maintenance.

Budgets ride along: ``wall_clock_budget`` / ``iteration_budget`` are
checked once per solver iteration, and ``max_recoveries`` caps the total
demotion count.  Exhaustion surfaces as
:class:`~repro.exceptions.BudgetExhaustedError`, which the solvers convert
into a best-effort ``DecisionResult`` (``SolveStatus.BUDGET_EXHAUSTED`` /
``FAILED``) instead of raising.

The supervisor's happy-path overhead is one ``try`` frame plus an
``O(n)`` finiteness scan per oracle call — measured under 2% end to end by
``benchmarks/bench_e16_robustness.py``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.config import get_config
from repro.exceptions import BudgetExhaustedError, NumericalError

__all__ = ["RecoveryEvent", "FastPathSupervisor"]

#: Sites attributed to the fused Taylor kernels (demote the kernel ladder).
_TAYLOR_SITES = frozenset({"taylor_gram.apply", "taylor_blocked.apply", "taylor.reference"})
#: Site attributed to the structured trace estimator (demote to identity).
_TRACE_SITE = "trace_estimation"
#: Exceptions the supervisor treats as recoverable numerical breakdowns.
#: InvalidProblemError (bad input) deliberately stays outside the net.
_RECOVERABLE = (NumericalError, FloatingPointError, np.linalg.LinAlgError)


@dataclass
class RecoveryEvent:
    """One demotion performed by the supervisor.

    Attributes
    ----------
    site:
        The failing site (``"taylor_gram.apply"``, ``"lanczos"``, ...;
        ``"unknown"`` when the exception carried no attribution).
    kind:
        Failure class — the injected fault's name for chaos runs, the
        exception class name for organic failures.
    from_mode / to_mode:
        The ladder rung that failed and the rung retried.
    iteration:
        Solver iteration the failure occurred at (0 for pre/post-loop).
    detail:
        The stringified exception message.
    """

    site: str
    kind: str
    from_mode: str
    to_mode: str
    iteration: int
    detail: str

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict form for ``DecisionResult.metadata`` (JSON-friendly)."""
        return {
            "site": self.site,
            "kind": self.kind,
            "from_mode": self.from_mode,
            "to_mode": self.to_mode,
            "iteration": self.iteration,
            "detail": self.detail,
        }


class FastPathSupervisor:
    """Demotion-ladder supervisor wrapped around one decision-solver run.

    Parameters
    ----------
    oracle:
        The solver's oracle.  Fast oracles are demoted through their Taylor
        engine, their ``reference`` floor flag and their trace estimator;
        oracles without those attributes (the exact oracle, user oracles)
        simply have no kernel rungs, so their failures fall through to
        ``FAILED``.
    state:
        The solver's :class:`~repro.core.psi_state.PsiState`.  The
        supervisor *owns* this reference — an implicit→dense demotion
        rebinds :attr:`state`, and the solver re-reads it after every
        supervised call.
    constraints:
        The constraint collection (needed to rebuild a dense state).
    tracker:
        The run's :class:`~repro.parallel.workdepth.WorkDepthTracker`;
        recovery work (discarded attempts, state rebuilds) is charged under
        the ``"recovery"`` label.
    log_depth:
        The run's model depth per charged step.
    eig_rng:
        Generator handed to a rebuilt dense state's eigenvalue estimator.
    wall_clock_budget:
        Optional seconds cap for the whole solve (checked per iteration).
    iteration_budget:
        Optional iteration cap, tighter than the paper's ``R``.
    max_recoveries:
        Cap on total demotions (``None`` uses ``ReproConfig.max_recoveries``).
    clock:
        Injectable monotonic clock (tests pin it for determinism).
    """

    def __init__(
        self,
        oracle: Any,
        state: Any,
        constraints: Any,
        tracker: Any,
        log_depth: float,
        eig_rng: Any = None,
        wall_clock_budget: float | None = None,
        iteration_budget: int | None = None,
        max_recoveries: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.oracle = oracle
        self.state = state
        self.constraints = constraints
        self.tracker = tracker
        self.log_depth = float(log_depth)
        self._eig_rng = eig_rng
        self.wall_clock_budget = wall_clock_budget
        self.iteration_budget = iteration_budget
        self.max_recoveries = (
            get_config().max_recoveries if max_recoveries is None else int(max_recoveries)
        )
        self._clock = clock
        self._start = clock()
        self.recovery_events: list[RecoveryEvent] = []

    # ------------------------------------------------------------------ budgets
    def elapsed(self) -> float:
        """Seconds since the supervisor (solve) started."""
        return self._clock() - self._start

    def budget_exhausted(self, iteration: int) -> str | None:
        """Which budget (if any) is spent before running ``iteration + 1``.

        Returns ``"iterations"`` / ``"wall_clock"`` or ``None``.  The
        solvers call this at the top of every loop pass and convert a
        non-``None`` answer into a ``SolveStatus.BUDGET_EXHAUSTED`` result.
        """
        if self.iteration_budget is not None and iteration >= self.iteration_budget:
            return "iterations"
        if self.wall_clock_budget is not None and self.elapsed() >= self.wall_clock_budget:
            return "wall_clock"
        return None

    # ------------------------------------------------------------------ events
    def event_dicts(self) -> list[dict[str, Any]]:
        """The recovery log as plain dicts (for result metadata)."""
        return [event.as_dict() for event in self.recovery_events]

    def stats(self) -> dict[str, Any]:
        """Summary surfaced in result metadata next to the event list."""
        return {
            "recoveries": len(self.recovery_events),
            "max_recoveries": self.max_recoveries,
            "wall_clock_budget": self.wall_clock_budget,
            "iteration_budget": self.iteration_budget,
            "elapsed": self.elapsed(),
        }

    # ------------------------------------------------------------------ checkpointing
    def export_state(self) -> dict:
        """Checkpointable snapshot: the recovery log plus elapsed wall clock.

        The ladder *position* (which kernel/trace/psi rung is active) lives
        on the oracle and state objects and is captured by their own
        ``export_state`` methods; this snapshot carries the supervisor's
        bookkeeping so a resumed run reports the full recovery-event trail
        and keeps charging wall-clock budgets against the total time the
        solve has consumed across interruptions.
        """
        return {
            "events": self.event_dicts(),
            "elapsed": float(self.elapsed()),
        }

    def import_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`.

        Re-dates ``_start`` so :meth:`elapsed` continues from the
        checkpointed value — a resumed solve with a ``wall_clock_budget``
        gets only the *remaining* budget, not a fresh one.
        """
        self.recovery_events = [RecoveryEvent(**event) for event in state["events"]]
        self._start = self._clock() - float(state["elapsed"])

    def _record(
        self,
        exc: BaseException,
        iteration: int,
        site: str,
        from_mode: str,
        to_mode: str,
    ) -> None:
        """Count one demotion, enforcing ``max_recoveries``; log the event."""
        if len(self.recovery_events) >= self.max_recoveries:
            raise BudgetExhaustedError(
                f"recovery budget exhausted ({self.max_recoveries} demotions) "
                f"while handling {site!r}: {exc}",
                budget="recoveries",
            ) from exc
        kind = getattr(getattr(exc, "kind", None), "name", None) or type(exc).__name__
        self.recovery_events.append(
            RecoveryEvent(
                site=site,
                kind=kind,
                from_mode=from_mode,
                to_mode=to_mode,
                iteration=int(iteration),
                detail=str(exc),
            )
        )
        # Charge the discarded attempt at one pass over the factor nonzeros
        # (the dominant cost of the failed kernel call).
        self.tracker.charge(
            float(getattr(self.constraints, "total_nnz", 0) or 1),
            self.log_depth,
            label="recovery",
        )

    # ------------------------------------------------------------------ ladders
    def _demote_taylor(self) -> tuple[str, str] | None:
        """Move the oracle's Taylor kernel one rung down; ``None`` if at floor."""
        oracle = self.oracle
        packed = getattr(oracle, "packed", None)
        if packed is None or getattr(oracle, "reference", True):
            return None  # already on the floor (or not a fast oracle)
        engine = getattr(oracle, "_engine", None)
        current = engine.mode if engine is not None else packed.auto_taylor_mode()
        if current == "gram":
            from repro.linalg.taylor_gram import TaylorEngine

            oracle._engine = TaylorEngine(packed, mode="dense-psi")
            return (current, "dense-psi")
        # Floor: the per-term reference apply through the packed matvec,
        # which also disengages the structured tracer.
        oracle.reference = True
        oracle._engine = None
        return (current, "reference")

    def _demote_trace(self) -> tuple[str, str] | None:
        """Drop the structured trace estimator to the exact identity push."""
        tracer = getattr(self.oracle, "_trace_estimator", None)
        if tracer is None or not getattr(tracer, "structured", False):
            return None
        from_mode = tracer.mode
        tracer.demote_to_identity()
        return (from_mode, "identity")

    def demote_psi_state(self) -> tuple[str, str] | None:
        """Rebuild the solver's ``Psi`` state densely (implicit → dense)."""
        if getattr(self.state, "mode", "dense") != "implicit":
            return None
        from repro.core.psi_state import DensePsiState

        old = self.state
        self.state = DensePsiState(self.constraints, old.x, eig_rng=self._eig_rng)
        # Carry the counters so the run's metadata reflects total activity.
        self.state.matvec_count = old.matvec_count
        self.state.densify_count = old.densify_count
        self.state.lambda_max_calls = old.lambda_max_calls
        self.state.lambda_max_matvecs = old.lambda_max_matvecs
        self.tracker.charge(self.state.init_work, self.log_depth, label="recovery")
        return ("implicit", "dense")

    def _dispatch(self, exc: BaseException) -> tuple[str, str, str] | None:
        """Pick and perform the demotion for ``exc``; ``None`` when out of rungs.

        Returns ``(site, from_mode, to_mode)`` on success.
        """
        if getattr(getattr(exc, "kind", None), "fatal", False):
            # Crash-style injected faults model a died worker, not a
            # numerical breakdown: no rung can absorb them, so the solve
            # fails (and the serving layer's retry/backoff takes over).
            return None
        site = getattr(exc, "site", None)
        if site == _TRACE_SITE:
            action = self._demote_trace()
            return (site, *action) if action else None
        if site == "psi_state.matvec":
            action = self.demote_psi_state()
            return (site, *action) if action else None
        # Taylor sites — and unattributed failures, which most likely came
        # out of the kernel GEMM chain — walk the kernel ladder first.
        action = self._demote_taylor()
        if action is not None:
            return (site or "unknown", *action)
        if site is None:
            action = self._demote_trace()
            if action is not None:
                return ("unknown", *action)
            action = self.demote_psi_state()
            if action is not None:
                return ("unknown", *action)
        return None

    # ------------------------------------------------------------------ wrappers
    def oracle_call(self, iteration: int = 0) -> Any:
        """One supervised oracle evaluation at the current state.

        Retries down the ladders until the call returns finite estimates;
        raises :class:`~repro.exceptions.BudgetExhaustedError`
        (``budget="recoveries"``) when demotions run out or no rung is left.
        The solver must re-read :attr:`state` afterwards (a
        ``psi_state.matvec`` recovery may have rebound it).
        """
        while True:
            try:
                output = self.oracle(self.state.oracle_psi(), self.state.x)
                values = np.asarray(output.values, dtype=np.float64)
                if not (np.isfinite(values).all() and math.isfinite(output.trace)):
                    raise NumericalError(
                        "oracle produced non-finite estimates",
                        site=None,
                    )
                return output
            except _RECOVERABLE as exc:
                handled = self._dispatch(exc)
                if handled is None:
                    raise BudgetExhaustedError(
                        f"no demotion rung left for {getattr(exc, 'site', None)!r}: {exc}",
                        budget="recoveries",
                    ) from exc
                self._record(exc, iteration, *handled)

    def lambda_max(self, final: bool = False, iteration: int = 0) -> tuple[float, float]:
        """Supervised ``lambda_max``: certified bound → exact ``eigvalsh``.

        A ``psi_state.matvec`` failure demotes the state to dense and
        retries the *same* rung (the dense state's matvec no longer routes
        through the corrupted path); any other failure of the certified
        rung falls to the exact one.  Returns
        ``(value, model_work_of_the_successful_attempt)``; failed attempts
        are charged under ``"recovery"`` as they happen.
        """
        exact = False
        while True:
            try:
                if exact:
                    return self.state.lambda_max_exact(final=final)
                return self.state.lambda_max(final=final, iteration=iteration)
            except _RECOVERABLE as exc:
                if getattr(getattr(exc, "kind", None), "fatal", False):
                    # Crash-style faults are not absorbed by the rung
                    # ladder (same policy as _dispatch).
                    raise BudgetExhaustedError(
                        f"fatal fault during lambda_max: {exc}",
                        budget="recoveries",
                    ) from exc
                site = getattr(exc, "site", None)
                if site == "psi_state.matvec":
                    action = self.demote_psi_state()
                    if action is not None:
                        self._record(exc, iteration, site, *action)
                        continue
                if exact:
                    raise BudgetExhaustedError(
                        f"exact lambda_max rung failed: {exc}", budget="recoveries"
                    ) from exc
                self._record(
                    exc, iteration, site or "psi_state.lambda_max", "certified", "exact"
                )
                exact = True
