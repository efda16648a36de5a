"""Solver-side representations of the weight matrix ``Psi = sum_i x_i A_i``.

Corollary 1.2's whole point is that the decision solver only ever needs
``Psi`` through Gram-factor products — yet until this module existed both
decision solvers rebuilt a dense ``(m, m)`` ``Psi`` every iteration (the
``psi = psi + weighted_sum(delta)`` maintenance), ran dense Lanczos on it
for history records and certificate checks, and handed it to the
``O(m^3)`` :func:`~repro.linalg.expm.expm_normalized` for primal tracking.
:class:`PsiState` abstracts that state behind the four operations the
solvers actually perform, with two interchangeable implementations:

* :class:`DensePsiState` — the seed semantics, bit-for-bit: a dense
  ``Psi`` maintained incrementally (``psi + weighted_sum(delta)``), and an
  eager density matrix for primal tracking.  This is the reference the
  matrix-free path is certified against, and the only state the exact
  oracle (which consumes ``Psi`` directly) can run on.
* :class:`ImplicitPsiState` — matrix-free: holds only the weight vector
  ``x`` plus the collection's packed
  :class:`~repro.operators.packed.PackedGramFactors` view.  ``matvec`` is
  two GEMMs against the stacked factors (``O(mR + nnz)`` per block
  column), ``add_delta`` touches only ``x`` (``O(n)``), and ``densify()``
  — the *only* way a dense ``(m, m)`` matrix can appear — is lazy,
  cached, counted, and invalidated by ``add_delta``.  The decision
  solvers build their ``primal_y`` through it at most once, on demand, at
  result build.

Every ``lambda_max`` — history records, certificate checks and the final
dual rescale — is the certified *upper* bound ``(1 + KAPPA_SLACK) lambda``
of :func:`~repro.linalg.norms.certified_lambda_max`, so ``x / lambda_max``
is feasible without any tolerance.  The dense state takes ``lambda`` from
an ``eigvalsh`` of its ``Psi``; the implicit state from the smaller Gram
twin by the fast oracle's own kappa rule
(:func:`~repro.linalg.trace_estimation.lambda_max_source`); both run one
cold Lanczos plus its residual above
:data:`~repro.linalg.norms.KAPPA_EIG_CUTOFF`.  The Lanczos start is seeded
by ``(run seed, iteration)`` alone, so every bound is a function of ``x``,
the seed and the iteration, whatever ``lambda_max`` calls (history
records, certificate checks) came before it.

Both states expose the same counters (:meth:`PsiState.stats`) which the
solvers surface in ``DecisionResult.metadata["psi_state"]`` so regression
tests can assert the matrix-free discipline: a fast-path solve with
history and certificate checks enabled performs **zero** dense ``Psi``
materialisations (``densifies == 0``) and zero ``expm_normalized`` calls
unless ``primal_y`` is actually read.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidProblemError, NumericalError
from repro.linalg.norms import certified_lambda_max
from repro.linalg.trace_estimation import lambda_max_source
from repro.robustness.faultinject import fault_hook, fault_hook_array
from repro.operators.collection import ConstraintCollection
from repro.utils.random_utils import RandomState, as_generator

__all__ = ["PsiState", "DensePsiState", "ImplicitPsiState", "make_psi_state"]


class PsiState:
    """Common interface of the solver's ``Psi`` representations.

    Concrete subclasses implement the four primitives the decision solvers
    need — ``matvec``, ``add_delta``, ``lambda_max``, ``densify`` — plus
    ``oracle_psi`` (what to pass as the oracle's ``psi`` argument).  Work
    quantities are returned to the caller (never charged internally) so the
    solvers keep full control of their work–depth accounting.

    Attributes
    ----------
    x:
        The current weight vector (owned by the state; the solvers read it
        and mutate it only through :meth:`add_delta`).
    matvec_count:
        Block matvec applications performed (each ``O(m^2)`` dense /
        ``O(mR + nnz)`` implicit).
    densify_count:
        Dense ``(m, m)`` materialisations performed by :meth:`densify`
        (always 0 for the dense state, whose matrix exists by
        construction).
    lambda_max_calls / lambda_max_matvecs:
        Number of :meth:`lambda_max` calls and the total measured operator
        applications they consumed.
    """

    mode: str = "abstract"

    def __init__(
        self,
        constraints: ConstraintCollection,
        x0: np.ndarray,
        eig_rng: RandomState = None,
    ) -> None:
        self.constraints = constraints
        self.dim = int(constraints.dim)
        self.x = np.asarray(x0, dtype=np.float64).copy()
        # Spawned generator whose seed sequence seeds the Lanczos starts
        # above the eigensolver cutoff (never shared with the oracle's
        # sketch stream).
        self._eig_rng = as_generator(eig_rng)
        self.matvec_count = 0
        self.densify_count = 0
        self.lambda_max_calls = 0
        self.lambda_max_matvecs = 0
        self.init_work = 0.0

    # ------------------------------------------------------------------ interface
    def matvec(self, block: np.ndarray) -> np.ndarray:
        """``Psi @ block`` for the current weights."""
        raise NotImplementedError  # pragma: no cover - subclasses implement

    def add_delta(self, delta: np.ndarray, mask: np.ndarray | None = None) -> float:
        """Apply the solver update ``x <- x + delta``; return the model work.

        ``mask`` is the qualifying set that generated ``delta`` (used by the
        dense state to charge only the active factor columns, exactly as
        the pre-``PsiState`` solvers did).
        """
        raise NotImplementedError  # pragma: no cover - subclasses implement

    def lambda_max(self, final: bool = False, iteration: int = 0) -> tuple[float, float]:
        """``(bound, measured model work)``, ``bound >= lambda_max(Psi)``.

        The bound is :func:`~repro.linalg.norms.certified_lambda_max`'s
        ``(1 + KAPPA_SLACK) lambda``.  ``final=True`` marks the one
        result-build (dual-rescale) call: the dense state then recomputes
        ``Psi`` fresh from ``x`` (the seed semantics).  ``iteration`` seeds
        the Lanczos start (:meth:`_lanczos_seed`), so calls at one
        iteration return the same bound for the same ``x``.
        """
        raise NotImplementedError  # pragma: no cover - subclasses implement

    def densify(self) -> np.ndarray:
        """The dense ``(m, m)`` matrix ``Psi`` (lazy and cached when implicit)."""
        raise NotImplementedError  # pragma: no cover - subclasses implement

    def _lanczos_seed(self, iteration: int) -> np.random.SeedSequence:
        """The Lanczos start's seed at ``iteration``: the spawned stream's own
        seed sequence extended by the iteration (its ``iteration``-th child).

        Nothing is drawn from the stream itself, so no call shifts a later
        call's start.
        """
        seq = self._eig_rng.bit_generator.seed_seq
        return np.random.SeedSequence(
            seq.entropy, spawn_key=tuple(seq.spawn_key) + (int(iteration),),
            pool_size=seq.pool_size,
        )

    def _certified(
        self, source, work_per_matvec: float, iteration: int
    ) -> tuple[float, float]:
        """The certified rung's bound from ``source``, and its model work.

        ``psi_state.lambda_max`` is the rung's one fault site; it fires on
        the eigensolver and on the Lanczos branch alike.
        """
        self.lambda_max_calls += 1
        fault_hook("psi_state.lambda_max")
        info: dict = {}
        value = certified_lambda_max(
            source, dim=self.dim, rng=self._lanczos_seed(iteration), info=info
        )
        self.lambda_max_matvecs += info["matvecs"]
        return value, info["matvecs"] * work_per_matvec

    def lambda_max_exact(self, final: bool = False) -> tuple[float, float]:
        """The bound from a dense ``eigvalsh`` of ``Psi`` — the ladder's bottom rung.

        Returns ``(value, model_work)`` with the work charged at the dense
        ``O(m^3)`` eigendecomposition cost.  Always converges (up to LAPACK
        failure on non-finite input, which the supervisor treats as
        unrecoverable for this site).  ``final=True`` recomputes ``Psi``
        fresh from ``x``, matching :meth:`lambda_max`'s final semantics.
        """
        if self.dim == 0:
            return 0.0, 0.0
        self.lambda_max_calls += 1
        matrix = self.constraints.weighted_sum(self.x) if final else self.densify()
        value = certified_lambda_max(np.linalg.eigvalsh(matrix))
        self.lambda_max_matvecs += self.dim
        return value, float(self.dim) ** 3

    def oracle_psi(self) -> np.ndarray | None:
        """The ``psi`` argument for the oracle call (``None`` when implicit)."""
        raise NotImplementedError  # pragma: no cover - subclasses implement

    def stats(self) -> dict:
        """Counter snapshot surfaced in ``DecisionResult.metadata["psi_state"]``."""
        return {
            "mode": self.mode,
            "matvecs": self.matvec_count,
            "densifies": self.densify_count,
            "lambda_max_calls": self.lambda_max_calls,
            "lambda_max_matvecs": self.lambda_max_matvecs,
        }

    def export_state(self) -> dict:
        """Checkpointable snapshot of the state (weights + counters).

        Subclasses extend this with whatever incrementally-maintained
        buffers they carry (the dense ``Psi``).  Arrays are copied so later
        ``add_delta`` calls cannot mutate a captured checkpoint.
        """
        return {
            "mode": self.mode,
            "x": np.array(self.x, dtype=np.float64),
            "matvec_count": int(self.matvec_count),
            "densify_count": int(self.densify_count),
            "lambda_max_calls": int(self.lambda_max_calls),
            "lambda_max_matvecs": int(self.lambda_max_matvecs),
        }

    def import_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        self.x = np.array(state["x"], dtype=np.float64)
        self.matvec_count = int(state["matvec_count"])
        self.densify_count = int(state["densify_count"])
        self.lambda_max_calls = int(state["lambda_max_calls"])
        self.lambda_max_matvecs = int(state["lambda_max_matvecs"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(dim={self.dim}, n={len(self.x)}, "
            f"densifies={self.densify_count})"
        )


class DensePsiState(PsiState):
    """Dense ``Psi`` maintenance — the exact-oracle / seed semantics.

    ``Psi`` is built once from the initial weights and updated with
    ``psi + weighted_sum(delta)`` per iteration, in exactly the floating
    point sequence the pre-refactor solvers used, so every fixed-seed
    regression against the seed path stays bit-for-bit.

    Parameters
    ----------
    constraints:
        The constraint collection.
    x0:
        Initial weight vector (Claim 3.3's ``1 / (n Tr[A_i])``).
    eig_rng:
        Spawned generator for the Lanczos start vectors above
        :data:`~repro.linalg.norms.KAPPA_EIG_CUTOFF` (never shared with the
        oracle's sketch stream).
    """

    mode = "dense"

    def __init__(
        self,
        constraints: ConstraintCollection,
        x0: np.ndarray,
        eig_rng: RandomState = None,
    ) -> None:
        super().__init__(constraints, x0, eig_rng)
        self._psi = constraints.weighted_sum(self.x)
        self.init_work = float(constraints.total_nnz)

    def matvec(self, block: np.ndarray) -> np.ndarray:
        """``Psi @ block`` against the materialised matrix."""
        self.matvec_count += 1
        return self._psi @ block

    def add_delta(self, delta: np.ndarray, mask: np.ndarray | None = None) -> float:
        """``x += delta`` and ``Psi += weighted_sum(delta)`` (seed arithmetic)."""
        self.x = self.x + delta
        # weighted_sum routes through the packed Gram-factor view when the
        # factors are exact: a single GEMM over the active columns only.
        self._psi = self._psi + self.constraints.weighted_sum(delta)
        n = len(self.x)
        if self.constraints.has_exact_factors and mask is not None:
            packed_view = self.constraints.packed()
            if packed_view.total_rank > 0:
                # Charge only the touched share of the factor nonzeros.
                active_cols = int(packed_view.ranks[mask].sum())
                return (
                    self.constraints.total_nnz * active_cols / packed_view.total_rank + n
                )
        return float(self.constraints.total_nnz + n)

    def lambda_max(self, final: bool = False, iteration: int = 0) -> tuple[float, float]:
        """The certified bound from ``eigvalsh`` of ``Psi`` (Lanczos above the cutoff).

        ``m <= KAPPA_EIG_CUTOFF`` takes one ``eigvalsh`` of ``Psi``; above
        it, one Lanczos from the ``iteration``'s seeded start plus its
        residual.  The work is the measured operator applications times
        the dense per-matvec cost ``m^2``.
        """
        if self.dim == 0:
            return 0.0, 0.0
        matrix = self.constraints.weighted_sum(self.x) if final else self._psi
        return self._certified(matrix, float(self.dim) ** 2, iteration)

    def densify(self) -> np.ndarray:
        """The maintained dense matrix (already materialised; not counted)."""
        return self._psi

    def oracle_psi(self) -> np.ndarray:
        """The dense ``Psi`` the exact oracle consumes."""
        return self._psi

    def export_state(self) -> dict:
        """Snapshot including the incrementally-maintained dense ``Psi``.

        ``Psi`` accumulates one ``psi + weighted_sum(delta)`` per iteration,
        so it is floating-point path dependent and must be restored bitwise
        rather than rebuilt from ``x`` (a rebuild would be the ``final=True``
        arithmetic, not the running matrix).
        """
        out = super().export_state()
        out["psi"] = np.array(self._psi, dtype=np.float64)
        return out

    def import_state(self, state: dict) -> None:
        """Restore weights, counters and the running dense ``Psi``."""
        super().import_state(state)
        self._psi = np.array(state["psi"], dtype=np.float64)


class ImplicitPsiState(PsiState):
    """Matrix-free ``Psi``: the weight vector plus the packed factor view.

    Never materialises ``Psi`` during the iteration: ``matvec`` is
    ``Q (w_cols ∘ (Q^T v))`` through the stacked factors, ``add_delta`` is
    an ``O(n)`` vector update (the oracle's
    :class:`~repro.linalg.taylor_gram.TaylorEngine` builds its kernels
    from the weights on its own), and ``lambda_max``
    reads the smaller Gram twin, or runs Lanczos through the factored
    matvec above the cutoff.  ``densify()`` is the single deliberate escape
    hatch — lazy, cached until the next ``add_delta``, and counted so
    regressions can assert it never runs during a solve.

    Requires every operator's Gram factor to be exact (``Q Q^T = A`` by
    construction), the same gate that sends the collection's
    ``weighted_sum``/``dots`` through its packed view —
    otherwise the factored ``Psi`` would differ from the operator-sum
    semantics of the reference path.
    """

    mode = "implicit"

    def __init__(
        self,
        constraints: ConstraintCollection,
        x0: np.ndarray,
        eig_rng: RandomState = None,
    ) -> None:
        if not constraints.has_exact_factors:
            raise InvalidProblemError(
                "the implicit PsiState requires exact Gram factors "
                "(Q Q^T = A by construction); dense/sparse eigh-derived "
                "collections must keep the dense state"
            )
        super().__init__(constraints, x0, eig_rng)
        self._packed = constraints.packed()
        self.init_work = float(len(self.x))
        self._matvec_fn = None
        self._dense: np.ndarray | None = None

    def _apply(self):
        # The weight-expanded matvec is cached until the next add_delta; the
        # counting wrapper is rebuilt per call so the state never stores a
        # closure over itself (which would keep a dropped solve alive until
        # the cyclic collector runs).
        if self._matvec_fn is None:
            self._matvec_fn = self._packed.matvec_fn(self.x)
        base = self._matvec_fn

        def counting(block: np.ndarray) -> np.ndarray:
            self.matvec_count += 1
            out = base(block)
            fault_hook_array("psi_state.matvec", out)
            if not np.all(np.isfinite(out)):
                # Catch the corruption here, attributed, before ARPACK
                # turns it into an opaque convergence failure.
                raise NumericalError(
                    "implicit Psi matvec produced non-finite output",
                    site="psi_state.matvec",
                )
            return out

        return counting

    def matvec(self, block: np.ndarray) -> np.ndarray:
        """``Psi @ block`` through the packed factors — two GEMMs, no ``Psi``."""
        return self._apply()(block)

    def add_delta(self, delta: np.ndarray, mask: np.ndarray | None = None) -> float:
        """``x += delta``; invalidates the matvec closure and dense cache."""
        self.x = self.x + delta
        self._matvec_fn = None
        self._dense = None
        return float(len(self.x))

    def lambda_max(self, final: bool = False, iteration: int = 0) -> tuple[float, float]:
        """The certified bound by the fast oracle's kappa rule.

        :func:`~repro.linalg.trace_estimation.lambda_max_source` picks the
        source: the Gram twin's spectrum (``R <= m``) or ``Psi`` itself
        (``m < R``) while ``min(m, R) <= KAPPA_EIG_CUTOFF``, charged as one
        dense eigendecomposition of that size; above it, Lanczos from the
        ``iteration``'s seeded start through the factored matvec, charged
        per sweep.  No state carries over between calls, so ``final``
        changes nothing here.
        """
        if self.dim == 0:
            return 0.0, 0.0
        source, work = lambda_max_source(self._packed, self.x, self._apply())
        return self._certified(source, work, iteration)

    def densify(self) -> np.ndarray:
        """Materialise ``Psi`` once, on demand (cached until ``add_delta``)."""
        if self._dense is None:
            self._dense = self.constraints.weighted_sum(self.x)
            self.densify_count += 1
        return self._dense

    def oracle_psi(self) -> None:
        """The fast oracle reads ``x`` only — no dense argument is built."""
        return None

    def import_state(self, state: dict) -> None:
        """Restore weights and counters; drop the derived caches.

        Version-1 payloads may carry the retired Lanczos warm-start vectors
        (``eig_vector``, ``final_v0``); they are ignored.
        """
        super().import_state(state)
        self._matvec_fn = None
        self._dense = None


def make_psi_state(
    constraints: ConstraintCollection,
    x0: np.ndarray,
    oracle=None,
    eig_rng: RandomState = None,
    mode: str = "auto",
) -> PsiState:
    """Pick the ``Psi`` representation for a decision-solver run.

    Parameters
    ----------
    constraints, x0, eig_rng:
        Forwarded to the chosen state.
    oracle:
        The solver's oracle.  ``mode="auto"`` selects the implicit state
        exactly when the oracle declares it never consumes a dense ``psi``
        (``needs_dense_psi = False``, e.g.
        :class:`~repro.core.dotexp.FastDotExpOracle`), it carries a packed
        factor view, and the collection's factors are exact; every other
        combination — the exact oracle, eigh-derived factors, user oracles
        without the attributes — keeps the dense seed semantics.
    mode:
        ``"auto"`` (default), ``"dense"``, or ``"implicit"`` (which raises
        when the collection's factors are inexact).
    """
    if mode not in ("auto", "dense", "implicit"):
        raise InvalidProblemError(
            f"unknown psi_state mode {mode!r}; expected 'auto', 'dense' or 'implicit'"
        )
    if mode == "auto":
        implicit_ok = (
            oracle is not None
            and getattr(oracle, "needs_dense_psi", True) is False
            and getattr(oracle, "packed", None) is not None
            and constraints.has_exact_factors
        )
        mode = "implicit" if implicit_ok else "dense"
    if mode == "implicit":
        return ImplicitPsiState(constraints, x0, eig_rng=eig_rng)
    return DensePsiState(constraints, x0, eig_rng=eig_rng)
