"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so that callers
can catch the whole family with a single ``except`` clause while still being
able to discriminate between input problems (:class:`InvalidProblemError`,
:class:`NotPositiveSemidefiniteError`), numerical issues
(:class:`NumericalError`), and solver-state issues
(:class:`SolverError`, :class:`CertificateError`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class InvalidProblemError(ReproError, ValueError):
    """The supplied problem data does not describe a valid positive SDP/LP.

    Raised for shape mismatches, negative right-hand sides, empty constraint
    sets, non-symmetric matrices, and similar structural defects detected
    during problem construction or validation.
    """


class NotPositiveSemidefiniteError(InvalidProblemError):
    """A matrix that must be positive semidefinite is not.

    The offending minimum eigenvalue (when available) is stored in
    :attr:`min_eigenvalue` to aid debugging of nearly-PSD inputs.
    """

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class NumericalError(ReproError, ArithmeticError):
    """A numerical routine failed to reach its required accuracy.

    Examples: a truncated Taylor series whose requested degree cannot meet
    the error target, a power iteration that fails to converge, or a
    Cholesky/eigen factorization that breaks down on an ill-conditioned
    matrix.

    When the failure happens inside one of the supervised fast-path kernels
    the raising site attaches structured attributes so that
    :class:`repro.robustness.FastPathSupervisor` can dispatch a targeted
    demotion instead of pattern-matching on the message:

    Attributes
    ----------
    site:
        Stable dotted identifier of the failing computation (e.g.
        ``"taylor_gram.apply"``, ``"lanczos"``, ``"trace_estimation"``), or
        ``None`` when the failure predates the supervision layer.
    kernel_mode:
        The kernel/estimator mode that was active when the failure occurred
        (e.g. ``"gram"``, ``"sparse-psi"``, ``"dense-psi"``), when known.
    """

    def __init__(
        self,
        message: str,
        site: str | None = None,
        kernel_mode: str | None = None,
    ):
        super().__init__(message)
        self.site = site
        self.kernel_mode = kernel_mode


class FaultInjected(NumericalError):
    """A deterministic fault planted by :mod:`repro.robustness.faultinject`.

    Subclasses :class:`NumericalError` so the supervision layer handles
    injected faults through exactly the same recovery path as organic
    numerical breakdowns — chaos tests therefore exercise the production
    dispatch logic, not a parallel test-only code path.

    Attributes
    ----------
    site:
        The instrumented site the fault fired at (inherited).
    kind:
        The :mod:`~repro.robustness.faultinject` fault kind that was
        injected (e.g. ``NaN``, ``NonConvergent``).
    """

    def __init__(
        self,
        message: str,
        site: str | None = None,
        kernel_mode: str | None = None,
        kind: object | None = None,
    ):
        super().__init__(message, site=site, kernel_mode=kernel_mode)
        self.kind = kind


class SerializationError(ReproError, ValueError):
    """A file produced or consumed by :mod:`repro.io.serialization` is bad.

    Raised when a payload is truncated, has the wrong archive kind or
    format version, is missing required entries, or carries arrays whose
    shape/dtype/finiteness fail validation.  The loaders raise this instead
    of letting ``zipfile``/``KeyError`` internals escape so that callers
    (and the serving layer) can distinguish "bad file" from "bad code".
    """


class CheckpointError(SerializationError):
    """A :class:`~repro.core.checkpoint.SolverCheckpoint` is unusable.

    Raised when a checkpoint file is truncated or fails its checksum, when
    its payload fails shape/dtype validation, or when a checkpoint is
    resumed against a solver/instance/options combination it was not
    captured from (wrong solver variant, mismatched dimensions or epsilon).
    """


class SolverError(ReproError, RuntimeError):
    """A solver failed to produce a solution within its resource limits."""


class BudgetExhaustedError(SolverError):
    """A wall-clock / iteration / recovery budget ran out mid-solve.

    The public solvers never let this escape: budget exhaustion is converted
    into a best-effort :class:`~repro.core.result.DecisionResult` with
    ``status`` :attr:`~repro.core.result.SolveStatus.BUDGET_EXHAUSTED` (or
    ``FAILED`` when recoveries ran out).  The exception exists as the
    internal control-flow signal between the supervisor and the solver loop,
    and for callers that drive the supervisor directly.
    """

    def __init__(self, message: str, budget: str | None = None):
        super().__init__(message)
        #: Which budget ran out: ``"wall_clock"``, ``"iterations"``, or
        #: ``"recoveries"``.
        self.budget = budget


class InfeasibleError(SolverError):
    """The problem instance was detected to be infeasible (or unbounded)."""


class CertificateError(ReproError, RuntimeError):
    """A returned solution failed certificate verification.

    The solvers in :mod:`repro.core` verify their outputs (primal feasibility,
    dual feasibility, approximation ratio) before returning.  This error is
    raised when verification fails, which indicates either a bug or a
    numerically pathological instance.
    """


class BackendError(ReproError, RuntimeError):
    """A parallel execution backend failed or was misconfigured."""
