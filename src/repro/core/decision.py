"""The parallel packing-SDP decision solver (Algorithm 3.1, ``decisionPSDP``).

Given constraint matrices ``A_1, ..., A_n`` (already scaled so the
interesting threshold is 1) and an accuracy parameter ``eps``, the solver
answers the ε-decision problem of Section 2.2: it returns either

* a **dual** vector ``x >= 0`` with ``||x||_1 >= 1 - O(eps)`` and
  ``sum_i x_i A_i <= I`` (certifying that the packing optimum is at least
  ``1 - O(eps)``), or
* a **primal** matrix ``Y >= 0`` with ``Tr[Y] = 1`` and ``A_i . Y`` large
  for every ``i`` (certifying that the packing optimum is at most ~1).

The implementation follows the paper's pseudocode exactly in *strict* mode:

* ``K = (1 + ln n) / eps``, ``alpha = eps / (K (1 + 10 eps))``,
  ``R = 32 ln(n) / (eps alpha)`` — the width-independent iteration bound of
  Theorem 3.1;
* ``x_i(0) = 1 / (n Tr[A_i])`` (Claim 3.3's initialisation);
* every iteration computes ``W = exp(Psi)`` with ``Psi = sum_i x_i A_i``,
  selects ``B = {i : W . A_i <= (1 + eps) Tr[W]}`` in parallel, and
  multiplies those coordinates by ``(1 + alpha)``.

Two engineering additions (both certificate-checked, i.e. they can only
make the solver stop earlier with a *verified* answer, never change what it
certifies):

* if the update set ``B`` is empty, the current density matrix ``P``
  already satisfies ``A_i . P > 1 + eps`` for every ``i`` and is therefore a
  valid primal certificate — the solver returns it immediately instead of
  idling until the iteration cap;
* in the default (non-strict) mode the solver periodically checks whether
  the current iterate already yields a primal or dual certificate
  (``certificate_check_every`` iterations) and exits early when it does.
  Experiment E9 quantifies how much this helps in practice.

One run object, three loops
---------------------------
:class:`DecisionRun` is one solve's plumbing, loop state and exit policy.
:func:`decision_psdp`, the phased variant
(:func:`~repro.core.decision_phased.decision_psdp_phased`) and the fused
lockstep group of :func:`~repro.core.batch.solve_many` are step loops over
run objects; what each exit charges, records, captures and returns is
decided here, once.

Matrix-free iteration core
--------------------------
The solver's ``Psi`` lives behind a :class:`~repro.core.psi_state.PsiState`.
With the exact oracle (or any oracle that consumes the dense matrix) the
dense state reproduces the seed semantics bit-for-bit.  With the fast
oracle on exact-factor collections the *implicit* state is selected
automatically (``DecisionOptions.psi_state = "auto"``): the loop then
never materialises ``Psi`` — weight updates are ``O(n)`` vector updates,
history records and certificate checks estimate ``lambda_max`` by Lanczos
through the factored matvec at ``O((mR + nnz) * sweeps)`` with a
warm-started vector carried across iterations, primal tracking accumulates
the oracle's *dots vector* (the segment-summed ``||Pi exp(Psi/2) Q_i||_F^2``
estimates of ``constraints.dots(P(t))``) instead of ``(m, m)`` densities,
and ``primal_y`` is densified at most once, on demand, when a caller
actually reads it off the result.  ``benchmarks/bench_e14_matrixfree.py``
measures the end-to-end effect on large-``m`` low-rank/sparse instances.

The fast oracle's degenerate-sketch trace normalisation is likewise
structured (:mod:`repro.linalg.trace_estimation`): no ``(m, m)`` identity
passes through the Taylor polynomial on the default path, the oracle's
per-call work charge reflects the ``(m, R)`` factor-stack columns that
actually ran, and the estimator's counters are surfaced as
``result.metadata["trace_estimator"]`` next to the ``psi_state`` ones.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.config import get_config
from repro.exceptions import BudgetExhaustedError, InvalidProblemError
from repro.instrumentation.history import ConvergenceHistory, IterationRecord
from repro.linalg.expm import expm_normalized
from repro.operators.collection import ConstraintCollection
from repro.utils.random_utils import spawn_generators
from repro.parallel.backends import ExecutionBackend, SerialBackend
from repro.parallel.workdepth import WorkDepthTracker
from repro.core.checkpoint import SolverCheckpoint, capture_checkpoint, restore_checkpoint
from repro.core.dotexp import DotExpOracle, make_oracle, oracle_engine_metadata
from repro.core.problem import NormalizedPackingSDP
from repro.core.psi_state import make_psi_state
from repro.core.result import DecisionOutcome, DecisionResult, SolveStatus
from repro.robustness.supervisor import FastPathSupervisor
from repro.utils.random_utils import RandomState


@dataclass
class DecisionOptions:
    """Tuning knobs for :func:`decision_psdp`.

    Every solve runs under a :class:`~repro.robustness.FastPathSupervisor`:
    numerical breakdowns in the fast-path kernels demote one ladder rung
    and retry instead of raising, the budgets below are enforced, and
    ``result.status`` / ``result.metadata["recovery_events"]`` report what
    happened.

    Attributes
    ----------
    epsilon:
        Accuracy parameter ``eps`` of the decision problem.
    oracle:
        ``"exact"``, ``"fast"``, or an already-constructed oracle object
        implementing the :class:`~repro.core.dotexp.DotExpOracle` protocol.
        An object with a ``constraints`` attribute must have been built
        over the collection being solved (``InvalidProblemError``
        otherwise).
    oracle_eps:
        Accuracy of the fast oracle (defaults to ``epsilon / 4``).
    strict:
        ``True`` runs the paper's pseudocode with no early certificate
        exits (the empty-update-set shortcut is kept because it returns a
        fully certified primal solution and avoids an idle spin).
    certificate_check_every:
        Cadence of early certificate checks in non-strict mode
        (``0`` disables them; ``None`` uses the package default).
    max_iterations:
        Override for the iteration cap ``R`` (``None`` uses the paper's
        formula).
    collect_history:
        Record an :class:`~repro.instrumentation.history.IterationRecord`
        per iteration.
    track_primal_average:
        Maintain the running average of the density matrices ``P(t)``
        needed for the primal return value.  ``None`` means "automatic":
        on for the exact oracle, off for the fast oracle (where the
        average would require an extra eigendecomposition per iteration).
        On the matrix-free path the average is tracked through the dots
        vector (the oracle's per-iteration trace-product estimates), never
        through ``(m, m)`` matrices; those estimates are *sketched*, so
        the implicit state reports them but never uses them for the early
        primal-certificate exit (a verified certificate needs the exact
        trace products the dense state computes) — a dense-state run with
        ``track_primal_average=True`` may therefore stop at a primal
        check the implicit state deliberately skips.  The phased variant
        ignores this knob: it always averages its phase densities on the
        dense path.
    backend:
        Execution backend for the batched per-constraint operations.  A
        *string* here is interpreted as an array-backend name and moved to
        ``array_backend`` (``DecisionOptions(backend="torch")`` reads
        naturally and cannot collide: execution backends are objects).
    array_backend:
        Array backend for the fast oracle's packed kernels — ``"numpy"``
        (default), ``"torch"``, or an :class:`~repro.backend.ArrayBackend`
        instance.  Work–depth charges are shape-derived and identical
        across array backends; only the
        kernel arithmetic (and its rounding) moves.  Ignored when
        ``oracle`` is a pre-built oracle object (the object already fixed
        its backend at construction).
    rng:
        Randomness source (the fast oracle's sketches; a spawned child
        seeds the eigenvalue estimator).
    psi_state:
        Representation of the solver's weight matrix
        (:mod:`repro.core.psi_state`): ``"auto"`` (default) picks the
        matrix-free implicit state when the oracle declares
        ``needs_dense_psi = False``, carries a packed factor view, and the
        collection's factors are exact, falling back to the dense seed
        semantics otherwise; ``"dense"``/``"implicit"`` force one (the
        latter raises on inexact-factor collections).
    wall_clock_budget:
        Optional seconds cap on the solve.  Checked at every iteration
        boundary: when it trips, the solver returns a best-effort result
        with ``status = SolveStatus.BUDGET_EXHAUSTED`` and the current
        (exactly rescaled, genuinely feasible) partial dual — it never
        raises and never reports an unverified certificate.
    iteration_budget:
        Optional iteration cap tighter than the paper's ``R``; same
        exhaustion contract as ``wall_clock_budget``.
    max_recoveries:
        Cap on fault-recovery demotions per solve (``None`` uses
        ``ReproConfig.max_recoveries``).  On exhaustion the solver returns
        ``status = SolveStatus.FAILED`` with whatever could still be
        verified exactly (``nan`` elsewhere).
    checkpoint_every:
        Capture a :class:`~repro.core.checkpoint.SolverCheckpoint` every
        this many iterations (``None``/unset disables periodic captures).
        The latest capture rides on a ``FAILED`` result's
        ``metadata["checkpoint"]`` so even a crashed solve is resumable;
        budget exhaustion always attaches a fresh capture regardless of
        this setting.
    heartbeat:
        Optional callback ``heartbeat(checkpoint, instance)`` invoked on
        every periodic capture (so it fires at the ``checkpoint_every``
        cadence; never without one).  ``instance`` is the per-instance rng
        index inside a fused :func:`~repro.core.batch.solve_many` group and
        ``None`` for a solo solve.  The executor uses this as the worker
        liveness/progress channel: each beat ships the freshest resumable
        state and re-dates the watchdog.  Exceptions raised by the callback
        propagate out of the solver — that is the cooperative-cancellation
        mechanism.  Excluded from options-identity comparisons (like
        ``rng``): it affects observability, never result bits.

    Budgets and the checkpoint cadence are validated at construction:
    negative ``wall_clock_budget``/``iteration_budget``/``max_recoveries``
    and non-positive ``checkpoint_every`` raise
    :class:`~repro.exceptions.InvalidProblemError` immediately instead of
    misbehaving iterations deep into a solve.
    """

    epsilon: float = 0.2
    oracle: str | DotExpOracle = "exact"
    oracle_eps: float | None = None
    strict: bool = False
    certificate_check_every: int | None = None
    max_iterations: int | None = None
    collect_history: bool = False
    track_primal_average: bool | None = None
    backend: ExecutionBackend | None = None
    array_backend: Any = "numpy"
    rng: RandomState = None
    psi_state: str = "auto"
    wall_clock_budget: float | None = None
    iteration_budget: int | None = None
    max_recoveries: int | None = None
    checkpoint_every: int | None = None
    heartbeat: Callable[[Any, Any], None] | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if isinstance(self.backend, str):
            # DecisionOptions(backend="torch") selects the array backend;
            # execution backends are always objects, so a bare name cannot
            # be one.
            self.array_backend = self.backend
            self.backend = None
        if self.wall_clock_budget is not None and self.wall_clock_budget < 0:
            raise InvalidProblemError(
                f"wall_clock_budget must be >= 0 seconds, got {self.wall_clock_budget}"
            )
        if self.iteration_budget is not None and self.iteration_budget < 0:
            raise InvalidProblemError(
                f"iteration_budget must be >= 0 iterations, got {self.iteration_budget}"
            )
        if self.max_recoveries is not None and self.max_recoveries < 0:
            raise InvalidProblemError(
                f"max_recoveries must be >= 0, got {self.max_recoveries}"
            )
        if self.checkpoint_every is not None and self.checkpoint_every <= 0:
            raise InvalidProblemError(
                f"checkpoint_every must be a positive iteration count, "
                f"got {self.checkpoint_every}"
            )


@dataclass(frozen=True)
class DecisionParameters:
    """The derived constants of Algorithm 3.1 for a given ``(n, eps)``."""

    n: int
    epsilon: float
    K: float
    alpha: float
    R: int

    @staticmethod
    def from_instance(n: int, epsilon: float) -> "DecisionParameters":
        """Compute ``K``, ``alpha`` and ``R`` exactly as defined in Algorithm 3.1."""
        if n < 1:
            raise InvalidProblemError(f"need at least one constraint, got n={n}")
        if not (0 < epsilon < 1):
            raise InvalidProblemError(f"epsilon must be in (0, 1), got {epsilon}")
        log_n = math.log(max(n, 2))
        K = (1.0 + log_n) / epsilon
        alpha = epsilon / (K * (1.0 + 10.0 * epsilon))
        R = int(math.ceil(32.0 * log_n / (epsilon * alpha)))
        return DecisionParameters(n=n, epsilon=epsilon, K=K, alpha=alpha, R=R)


def resolve_decision_options(
    epsilon: float | None,
    options: DecisionOptions | None,
    overrides: dict[str, Any],
) -> DecisionOptions:
    """Merge the ``(epsilon, options, **overrides)`` calling convention.

    Shared by every entry point so a batched or phased solve resolves its
    options (including override validation and the no-mutation copy
    semantics) exactly like a sequential one.
    """
    opts = options or DecisionOptions()
    if overrides:
        valid = {f.name for f in opts.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(overrides) - valid
        if unknown:
            raise TypeError(f"unknown decision options: {sorted(unknown)}")
        opts = DecisionOptions(**{**opts.__dict__, **overrides})
    if epsilon is not None:
        # Copy before overriding: the caller's options object must not be
        # silently mutated across calls.
        opts = dataclasses.replace(opts, epsilon=float(epsilon))
    return opts


def _resolve_constraints(problem) -> ConstraintCollection:
    if isinstance(problem, NormalizedPackingSDP):
        return problem.constraints
    if isinstance(problem, ConstraintCollection):
        return problem
    return ConstraintCollection(problem)


def _final_density(state, constraints: ConstraintCollection) -> Callable[[], tuple]:
    """Deferred ``primal_y`` build of the matrix-free path.

    The one densification + eigendecomposition of an implicit-state run,
    executed only when a caller reads ``primal_y``.  Returns the matrix and
    its exact ``min_i A_i . Y`` (replacing the sketched estimate).  The
    closure holds the state and the collection but never the result, so a
    dropped result is freed without the cyclic collector.
    """

    def build() -> tuple[np.ndarray, float]:
        y = expm_normalized(state.densify())
        return y, float(constraints.dots(y).min(initial=np.inf))

    return build


class DecisionRun:
    """One Algorithm 3.1 solve: its plumbing, loop state and exit policy.

    The step loops (:func:`decision_psdp`, the phased variant, and the
    fused group of :func:`~repro.core.batch.solve_many`, which holds one
    run per instance) decide *when* to call the oracle, select, update,
    check and capture; the run owns *how*: the supervised oracle and
    ``lambda_max`` calls, primal tracking and history, budget exits,
    periodic capture plus heartbeat, resume, and :meth:`result`, the only
    place a result is made.

    Construction order is part of the bit-identity contract — traces →
    oracle → spawned ``eig_rng`` → psi state → supervisor — because the
    oracle and the spawn consume the caller's rng.  A resume constructs in
    the same order, then :meth:`resume` overwrites the state.

    Parameters
    ----------
    problem:
        Anything :func:`decision_psdp` accepts.
    opts:
        Resolved :class:`DecisionOptions`.
    solver:
        ``"psdp"`` or ``"phased"``: the checkpoint tag, and the phased
        variant's primal and metadata conventions.
    phase_growth:
        The phased variant's ℓ1-growth budget per phase (default
        ``1 + eps``).
    instance:
        The ``instance`` argument of heartbeats (``None`` for a solo solve).
    """

    def __init__(
        self,
        problem: Any,
        opts: DecisionOptions,
        *,
        solver: str = "psdp",
        phase_growth: float | None = None,
        instance: int | None = None,
    ) -> None:
        self.opts = opts
        self.solver = solver
        self.instance = instance
        constraints = self.constraints = _resolve_constraints(problem)
        eps = self.eps = float(opts.epsilon)
        n, m = self.n, self.m = len(constraints), constraints.dim
        self.params = DecisionParameters.from_instance(n, eps)
        self.phase_growth = None
        if solver == "phased":
            growth = float(phase_growth) if phase_growth is not None else 1.0 + eps
            if growth <= 1.0:
                raise InvalidProblemError(f"phase_growth must be > 1, got {growth}")
            self.phase_growth = growth

        traces = constraints.traces()
        if np.any(traces <= 0):
            raise InvalidProblemError(
                "every constraint matrix must have a positive trace (remove zero matrices)"
            )

        tracker = WorkDepthTracker()
        backend = opts.backend or SerialBackend(tracker=tracker)
        if backend.tracker is None:
            backend.tracker = tracker
        else:
            tracker = backend.tracker
        self.tracker = tracker

        if isinstance(opts.oracle, str):
            self.oracle = make_oracle(
                constraints,
                kind=opts.oracle,
                eps=opts.oracle_eps if opts.oracle_eps is not None else eps / 4.0,
                # The Lemma 3.2 bound (1 + 10 eps) K would be a valid kappa,
                # but it is very pessimistic early in the run; letting the
                # fast oracle estimate ||Psi||_2 per call keeps the Taylor
                # degree proportional to the *current* spectral norm.
                kappa_bound=None,
                rng=opts.rng,
                backend=backend,
                array_backend=opts.array_backend,
            )
            self.oracle_kind = opts.oracle
        else:
            built_over = getattr(opts.oracle, "constraints", constraints)
            if built_over is not constraints:
                raise InvalidProblemError(
                    "the oracle was built over a different constraint "
                    "collection than the one being solved; build it over "
                    "this collection or pass oracle='exact'/'fast'"
                )
            self.oracle, self.oracle_kind = opts.oracle, type(opts.oracle).__name__

        check_every = opts.certificate_check_every
        if check_every is None:
            check_every = 0 if opts.strict else get_config().certificate_check_every
        self.check_every = check_every
        self.max_iterations = (
            opts.max_iterations if opts.max_iterations is not None else self.params.R
        )
        self.history = ConvergenceHistory() if opts.collect_history else None
        self.log_depth = math.log2(max(n, 2)) + math.log2(max(m, 2))

        # Top-eigenvalue estimation (certificate checks, history, final dual
        # rescaling) lives on the PsiState and is charged at its *measured*
        # sweep count.  The generator is spawned, not shared: consuming the
        # oracle's stream here would make sketch draws depend on
        # history/certificate cadence.
        self.eig_rng = spawn_generators(opts.rng, 1)[0]
        # --- initialisation (Claim 3.3): x_i(0) = 1 / (n Tr[A_i]) ------------
        state = make_psi_state(
            constraints, 1.0 / (n * traces), oracle=self.oracle,
            eig_rng=self.eig_rng, mode=opts.psi_state,
        )
        # The primal-tracking branch stays frozen at its start-of-run value:
        # the dots-vector accumulators remain valid after an implicit→dense
        # demotion, only lambda_max/densify follow the demoted state.
        self.implicit = state.mode == "implicit"
        tracker.charge(state.init_work, self.log_depth, label="init-psi")
        # The supervisor owns the mutable PsiState reference (an
        # implicit-state matvec failure rebuilds it densely mid-run), which
        # is why `state` and `x` below are read through it.
        self.supervisor = FastPathSupervisor(
            oracle=self.oracle,
            state=state,
            constraints=constraints,
            tracker=tracker,
            log_depth=self.log_depth,
            eig_rng=self.eig_rng,
            wall_clock_budget=opts.wall_clock_budget,
            iteration_budget=opts.iteration_budget,
            max_recoveries=opts.max_recoveries,
        )
        if solver == "phased":
            self.track_primal = not self.implicit
        elif opts.track_primal_average is None:
            self.track_primal = self.oracle_kind == "exact"
        else:
            self.track_primal = bool(opts.track_primal_average)

        # Loop state.  Matrix-free primal tracking sums the oracle's values
        # vector — the Theorem 4.1 estimate of constraints.dots(P(t)) — so
        # no (m, m) density matrix is formed during an implicit run.
        self.t = 0
        self.phases = 0
        self.primal_sum = None if self.implicit else np.zeros((m, m), dtype=np.float64)
        self.primal_rounds = 0
        self.last_density: np.ndarray | None = None
        self.dots_sum = np.zeros(n, dtype=np.float64) if self.implicit else None
        self.last_values: np.ndarray | None = None
        self.latest_checkpoint: SolverCheckpoint | None = None

    # ------------------------------------------------------------------ state
    @property
    def state(self):
        """The current :class:`~repro.core.psi_state.PsiState`."""
        return self.supervisor.state

    @property
    def x(self) -> np.ndarray:
        """The current weight vector ``x(t)``."""
        return self.supervisor.state.x

    def running(self) -> bool:
        """Algorithm 3.1's loop condition: ``||x||_1 <= K`` and ``t < R``."""
        return float(self.x.sum()) <= self.params.K and self.t < self.max_iterations

    def current_primal(self) -> np.ndarray | None:
        """The tracked primal candidate of the dense path (average, else last density)."""
        if self.primal_rounds > 0:
            return self.primal_sum / self.primal_rounds
        return self.last_density

    def resume(self, ckpt: SolverCheckpoint | None) -> dict | None:
        """Overlay ``ckpt`` (if any); returns an interrupted phase's position."""
        return None if ckpt is None else restore_checkpoint(ckpt, self)

    # ------------------------------------------------------------------ steps
    def oracle_values(self) -> tuple[np.ndarray, float]:
        """Supervised oracle call at the current iterate: ``(values, work)``."""
        output = self.supervisor.oracle_call(iteration=self.t)
        self.tracker.charge(output.work, self.log_depth, label="oracle")
        return np.asarray(output.values, dtype=np.float64), output.work

    def track(self, values: np.ndarray) -> None:
        """Record the iterate's primal candidate: densities, or the dots vector."""
        if self.implicit:
            self.last_values = values
            if self.track_primal:
                self.dots_sum += values
                self.primal_rounds += 1
        elif self.track_primal:
            self.last_density = expm_normalized(self.state.densify())
            self.primal_sum += self.last_density
            self.primal_rounds += 1

    def select(self, values: np.ndarray) -> np.ndarray:
        """Line 5: ``B(t) = {i : W . A_i <= (1 + eps) Tr[W]}``, i.e. ``P . A_i <= 1 + eps``."""
        self.track(values)
        self.tracker.charge(float(self.n), math.log2(max(self.n, 2)), label="select")
        return values <= 1.0 + self.eps

    def record(
        self, values: np.ndarray, updated: int, oracle_work: float = 0.0,
        lam: float = float("nan"),
    ) -> None:
        """Append this iteration's :class:`IterationRecord` to the history."""
        self.history.append(
            IterationRecord(
                iteration=self.t,
                x_norm=float(self.x.sum()),
                updated=int(updated),
                min_value=float(values.min(initial=np.inf)),
                max_value=float(values.max(initial=-np.inf)),
                psi_lambda_max=lam,
                oracle_work=oracle_work,
            )
        )

    def update(self, mask: np.ndarray) -> None:
        """Line 6: multiply the selected coordinates by ``(1 + alpha)``.

        The dense state also maintains ``psi + weighted_sum(delta)`` (one
        GEMM over the active packed columns, charged for those only); the
        implicit state touches only the weight vector.
        """
        delta = np.where(mask, self.params.alpha * self.x, 0.0)
        work = self.state.add_delta(delta, mask)
        self.tracker.charge(work, self.log_depth, label="update")

    def tick(self, phase: dict | None = None) -> None:
        """Periodic capture plus heartbeat at the ``checkpoint_every`` cadence."""
        every = self.opts.checkpoint_every
        if every and self.t % every == 0:
            self.latest_checkpoint = capture_checkpoint(self, self.t, phase)
            if self.opts.heartbeat is not None:
                self.opts.heartbeat(self.latest_checkpoint, self.instance)

    # ------------------------------------------------------------------ exits
    def budget_exit(self, phase: dict | None = None) -> DecisionResult | None:
        """``BUDGET_EXHAUSTED`` result once a budget is spent, else ``None``.

        Budgets never raise from the public entry points: the result carries
        the exactly verified partial dual and a capture taken *before* the
        final ``lambda_max`` touches the state, which makes the exhausted
        budget a continuation point rather than wasted work.
        """
        if self.supervisor.budget_exhausted(self.t) is None:
            return None
        checkpoint = capture_checkpoint(self, self.t, phase)
        result = self.result(
            DecisionOutcome.DUAL, early=True, status=SolveStatus.BUDGET_EXHAUSTED
        )
        result.metadata["checkpoint"] = checkpoint
        return result

    def failed(self) -> DecisionResult:
        """The ``FAILED`` exit after a supervised call ran out of recoveries."""
        return self.result(DecisionOutcome.DUAL, early=True, status=SolveStatus.FAILED)

    def density_exit(self) -> DecisionResult:
        """Empty ``B(t)``: the current density ``P`` is a primal certificate.

        Every constraint already has ``A_i . P > 1 + eps`` and ``Tr P = 1``.
        The matrix-free path builds ``P`` lazily from the final iterate.
        """
        if not self.implicit:
            density = self.last_density
            if density is None:
                density = expm_normalized(self.state.densify())
            self.primal_sum, self.primal_rounds = density.copy(), 1
            self.last_density = density
        return self.result(DecisionOutcome.PRIMAL, early=True, primal_final=True)

    def certificate_exit(
        self, measured: tuple[float, float] | None = None, primal: bool = True
    ) -> DecisionResult | None:
        """Early certificate check: the measured dual, then the tracked primal.

        ``measured`` is a ``(lambda_max, work)`` pair the caller already
        took; ``primal=False`` skips the primal-average check (the phased
        variant only tests the dual side).  The matrix-free path never
        tests its sketched primal estimates.
        """
        lam, eig_work = measured or self.supervisor.lambda_max(iteration=self.t)
        self.tracker.charge(eig_work, self.log_depth, label="certificate-check")
        if lam > 0 and float(self.x.sum()) / lam >= 1.0 - self.eps:
            return self.result(DecisionOutcome.DUAL, early=True)
        candidate = self.current_primal() if primal and not self.implicit else None
        if candidate is not None and float(
            self.constraints.dots(candidate).min(initial=np.inf)
        ) >= 1.0:
            return self.result(DecisionOutcome.PRIMAL, early=True)
        return None

    def loop_exit(self) -> DecisionResult:
        """Lines 7-10, once the loop condition fails.

        ``||x||_1 > K`` returns the dual (rescaled by the measured
        ``lambda_max``, which Lemma 3.2 bounds by ``(1 + 10 eps) K``, so the
        value is at least the paper's ``1 - 10 eps``); hitting ``R``
        returns the averaged densities as the primal (the final iterate's
        density when nothing was averaged).
        """
        if float(self.x.sum()) > self.params.K:
            return self.result(DecisionOutcome.DUAL, early=False)
        return self.result(DecisionOutcome.PRIMAL, early=False, primal_final=True)

    def result(
        self,
        outcome: DecisionOutcome,
        early: bool,
        status: SolveStatus | None = None,
        primal_final: bool = False,
    ) -> DecisionResult:
        """Make the run's :class:`DecisionResult`; every exit ends here.

        Always reports a *feasible* dual candidate by rescaling ``x`` with
        the measured ``lambda_max``: if ``lambda_max(sum_i x_i A_i) = lam >
        0`` then ``x / lam`` is feasible with value ``||x||_1 / lam`` — for
        budget-exhausted partial duals too.  The certificate is measured on
        the returned object, never extrapolated; if even the exact rung
        fails the dual side is reported ``nan`` and the status ``FAILED``.

        ``primal_final`` makes the current iterate's density the primal
        candidate when no average was tracked (built on demand on the
        matrix-free path).  The phased variant always reports one.
        """
        primal_final = primal_final or self.solver == "phased"
        try:
            lam, eig_work = self.supervisor.lambda_max(final=True, iteration=self.t)
        except BudgetExhaustedError:
            lam, eig_work, status = float("nan"), 0.0, SolveStatus.FAILED
        self.tracker.charge(eig_work, self.log_depth, label="dual-rescale")
        state, x = self.state, self.x
        verified = bool(np.isfinite(lam))
        scale = lam if lam > 0 else 1.0
        dual_x = x / scale

        primal_y = None
        min_dot = float("nan")
        if self.implicit:
            # The certificate is the final iterate's density: its trace
            # products are the oracle's last estimates until primal_y's
            # deferred build replaces them with exact ones.
            if primal_final and self.last_values is not None:
                min_dot = float(self.last_values.min(initial=np.inf))
            elif self.primal_rounds > 0:
                min_dot = float((self.dots_sum / self.primal_rounds).min(initial=np.inf))
        else:
            primal_y = self.current_primal()
            if primal_y is None and primal_final:
                primal_y = expm_normalized(state.densify())
            if primal_y is not None:
                min_dot = float(self.constraints.dots(primal_y).min(initial=np.inf))

        if status is None:
            # Demotions with a still exactly verified certificate: same
            # guarantee, slower rungs.
            status = (
                SolveStatus.DEGRADED if self.supervisor.recovery_events
                else SolveStatus.CERTIFIED
            )
        if self.solver == "phased":
            variant = {
                "phases": self.phases, "phase_growth": self.phase_growth,
                "variant": "phased",
            }
        else:
            variant = {"oracle": self.oracle_kind, "strict": self.opts.strict}
        result = DecisionResult(
            outcome=outcome,
            dual_x=dual_x,
            primal_y=primal_y,
            dual_value=float(dual_x.sum()) if verified else float("nan"),
            primal_min_dot=min_dot,
            dual_lambda_max=lam / scale if verified else float("nan"),
            iterations=self.t,
            max_iterations=self.max_iterations,
            epsilon=self.eps,
            early_exit=early,
            status=status,
            history=self.history,
            counters=self.oracle.counters,
            work_depth=self.tracker.report(),
            metadata={
                "K": self.params.K,
                "alpha": self.params.alpha,
                "R": self.params.R,
                **variant,
                "solve_status": status.value,
                # Partial-dual mass before rescaling: budget-exhaustion
                # tests assert this grows monotonically with the budget.
                "x_l1": float(x.sum()),
                # Matrix-free discipline counters (snapshot at result build:
                # a deferred primal build afterwards is *meant* to densify).
                "psi_state": state.stats(),
                # Rank-adaptive Taylor-engine counters (fast oracle only).
                **oracle_engine_metadata(self.oracle),
                "recovery_events": self.supervisor.event_dicts(),
                "supervisor": self.supervisor.stats(),
                **self.opts.metadata,
            },
            primal_builder=(
                _final_density(state, self.constraints)
                if self.implicit and primal_final else None
            ),
        )
        if status is SolveStatus.FAILED and self.latest_checkpoint is not None:
            # A crashed solve is still resumable from the latest periodic
            # capture (budget exhaustion attaches a fresh one instead).
            result.metadata["checkpoint"] = self.latest_checkpoint
        return result


def decision_psdp(
    problem: NormalizedPackingSDP | ConstraintCollection | list,
    epsilon: float | None = None,
    options: DecisionOptions | None = None,
    *,
    resume_from: "SolverCheckpoint | None" = None,
    **overrides: Any,
) -> DecisionResult:
    """Solve the ε-decision problem for a packing SDP (Algorithm 3.1).

    Parameters
    ----------
    problem:
        A :class:`~repro.core.problem.NormalizedPackingSDP`, a
        :class:`~repro.operators.ConstraintCollection`, or a plain list of
        PSD matrices.  The constraints are interpreted against the threshold
        1 (i.e. the question is whether the packing optimum is above or
        below 1).
    epsilon:
        Accuracy parameter; overrides the one in ``options``.
    options:
        A :class:`DecisionOptions` bundle; individual fields can also be
        overridden with keyword arguments (e.g. ``oracle="fast"``,
        ``strict=True``, ``collect_history=True``).
    resume_from:
        A :class:`~repro.core.checkpoint.SolverCheckpoint` captured by an
        earlier (interrupted) run of this solver on the *same instance with
        the same options*.  The solve continues from the checkpointed
        iteration bit-identically: an interrupt-at-``k``-then-resume run
        returns the same certified decision, dual witness and history as an
        uninterrupted run on the same seed.  Mismatched checkpoints raise
        :class:`~repro.exceptions.CheckpointError`.

    Returns
    -------
    DecisionResult
        The certified outcome together with both candidate solutions,
        iteration statistics, oracle counters and a work–depth report.

    Notes
    -----
    ``oracle="exact"`` is the reference: one eigendecomposition per
    iteration.  ``oracle="fast"`` runs the Theorem 4.1 oracle over the
    collection's packed factors.  Both certify identical decisions on the
    fixed-seed grid of ``tests/test_oracle_differential.py``.  A pre-built
    oracle passed as ``options.oracle`` must have been built over the same
    collection being solved::

        oracle = FastDotExpOracle(constraints, eps=0.05, rng=0)
        decision_psdp(constraints, epsilon=0.2, oracle=oracle)
    """
    run = DecisionRun(problem, resolve_decision_options(epsilon, options, overrides))
    run.resume(resume_from)
    try:
        while run.running():
            result = run.budget_exit()
            if result is not None:
                return result
            run.t += 1
            values, work = run.oracle_values()
            mask = run.select(values)
            if run.history is not None:
                lam, _ = run.supervisor.lambda_max(iteration=run.t)
                run.record(values, mask.sum(), work, lam)
            if not mask.any():
                return run.density_exit()
            run.update(mask)
            if run.check_every and run.t % run.check_every == 0:
                result = run.certificate_exit()
                if result is not None:
                    return result
            run.tick()
        return run.loop_exit()
    except BudgetExhaustedError:
        return run.failed()
