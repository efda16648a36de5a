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
  ``Psi`` maintained incrementally (``psi + weighted_sum(delta)``), dense
  Lanczos for ``lambda_max``, and an eager density matrix for primal
  tracking.  This is the reference the matrix-free path is certified
  against, and the only state the exact oracle (which consumes ``Psi``
  directly) can run on.
* :class:`ImplicitPsiState` — matrix-free: holds only the weight vector
  ``x`` plus the collection's packed
  :class:`~repro.operators.packed.PackedGramFactors` view.  ``matvec`` is
  two GEMMs against the stacked factors (``O(mR + nnz)`` per block
  column), ``add_delta`` touches only ``x`` (``O(n)``), ``lambda_max``
  runs Lanczos through the factored matvec with the previous call's
  converged eigenvector carried across iterations as a warm start, and
  ``densify()`` — the *only* way a dense ``(m, m)`` matrix can appear —
  is lazy, cached, counted, and invalidated by ``add_delta``.  The
  decision solvers build their ``primal_y`` through it at most once, on
  demand, at result build.

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
from repro.linalg.norms import top_eigenvalue
from repro.robustness.faultinject import fault_hook_array
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

    def __init__(self, constraints: ConstraintCollection, x0: np.ndarray) -> None:
        self.constraints = constraints
        self.dim = int(constraints.dim)
        self.x = np.asarray(x0, dtype=np.float64).copy()
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

    def lambda_max(self, final: bool = False) -> tuple[float, float]:
        """``(lambda_max(Psi), measured model work)`` for the current weights.

        ``final=True`` marks the one result-build (dual-rescale) call: the
        dense state then recomputes ``Psi`` fresh from ``x`` (the seed
        semantics), and the implicit state skips its warm start so the
        returned value cannot depend on how many history/certificate calls
        preceded it.
        """
        raise NotImplementedError  # pragma: no cover - subclasses implement

    def densify(self) -> np.ndarray:
        """The dense ``(m, m)`` matrix ``Psi`` (lazy and cached when implicit)."""
        raise NotImplementedError  # pragma: no cover - subclasses implement

    def reset_warm_start(self) -> None:
        """Drop any cross-iteration eigenvector warm start.

        The middle rung of the Lanczos demotion ladder
        (:class:`~repro.robustness.FastPathSupervisor`): a non-converged
        warm-started call is retried cold before falling back to the exact
        ``eigvalsh`` rung.  No-op for states without a warm start.
        """

    def lambda_max_exact(self, final: bool = False) -> tuple[float, float]:
        """Exact ``lambda_max`` via dense ``eigvalsh`` — the ladder's bottom rung.

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
        value = float(np.linalg.eigvalsh(matrix)[-1])
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
        buffers they carry (the dense ``Psi``, the implicit warm-start
        vectors).  Arrays are copied so later ``add_delta`` calls cannot
        mutate a captured checkpoint.
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
        Spawned generator for the eigenvalue estimator's fallback path
        (never shared with the oracle's sketch stream).
    """

    mode = "dense"

    def __init__(
        self,
        constraints: ConstraintCollection,
        x0: np.ndarray,
        eig_rng: RandomState = None,
    ) -> None:
        super().__init__(constraints, x0)
        self._eig_rng = eig_rng
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

    def lambda_max(self, final: bool = False) -> tuple[float, float]:
        """Dense-matrix ``lambda_max`` (Lanczos above the tiny-``m`` cutoff).

        The work is the *measured* operator applications times the dense
        per-matvec cost ``m^2``, replacing the old pessimistic
        ``m^2 * maxiter`` constant.
        """
        if self.dim == 0:
            return 0.0, 0.0
        self.lambda_max_calls += 1
        matrix = self.constraints.weighted_sum(self.x) if final else self._psi
        info: dict = {}
        value = top_eigenvalue(matrix, rng=self._eig_rng, info=info)
        matvecs = int(info.get("matvecs", self.dim))
        self.lambda_max_matvecs += matvecs
        return float(value), float(matvecs) * self.dim * self.dim

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
    an ``O(n)`` vector update (the engine's own incremental state is
    maintained separately by the oracle's
    :class:`~repro.linalg.taylor_gram.TaylorEngine`), and ``lambda_max``
    runs Lanczos through the factored matvec at ``O((mR + nnz) * sweeps)``
    with the previous call's converged eigenvector carried as a warm
    start.  ``densify()`` is the single deliberate escape hatch — lazy,
    cached until the next ``add_delta``, and counted so regressions can
    assert it never runs during a solve.

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
        super().__init__(constraints, x0)
        self._eig_rng = as_generator(eig_rng)
        self._packed = constraints.packed()
        self.init_work = float(len(self.x))
        # Per-block-matvec model cost: two passes over the stacked factor
        # nonzeros (the Corollary 1.2 representation).
        self._matvec_work = float(max(2 * self._packed.nnz, self.dim, 1))
        self._matvec_fn = None
        self._dense: np.ndarray | None = None
        # Converged eigenvector of the previous lambda_max call: Psi moves
        # mildly per iteration, so warm-starting Lanczos cuts the sweep
        # count from dozens to a handful (convergence stays certified by
        # the Ritz residual, so a stale vector costs sweeps, not accuracy).
        self._eig_vector: np.ndarray | None = None
        # Start vector for the one final (dual-rescale) call, drawn at
        # construction: a start drawn at call time would advance with every
        # cold history/certificate-check call, making the reported
        # certificate depend on how many of them ran before result build.
        # A vector fixed per run keeps the final estimate deterministic and
        # call-history independent while retaining the random start's
        # overlap guarantee.
        self._final_v0: np.ndarray | None = (
            self._eig_rng.standard_normal(self.dim) if self.dim else None
        )

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

    def lambda_max(self, final: bool = False) -> tuple[float, float]:
        """Warm-started Lanczos through the factored matvec.

        ``final=True`` (the one dual-rescale call at result build) ignores
        the warm vector and starts from a vector drawn once at state
        construction, so the returned value is independent of how many
        history/certificate-check calls ran before it — turning history
        collection on cannot perturb the reported certificate.
        """
        if self.dim == 0:
            return 0.0, 0.0
        self.lambda_max_calls += 1
        info: dict = {}
        value, vector = top_eigenvalue(
            self._apply(),
            dim=self.dim,
            v0=self._final_v0 if final else self._eig_vector,
            rng=self._eig_rng,
            info=info,
            return_vector=True,
        )
        if not final and vector is not None:
            self._eig_vector = vector
        matvecs = int(info.get("matvecs", 0))
        self.lambda_max_matvecs += matvecs
        return float(value), float(matvecs) * self._matvec_work

    def reset_warm_start(self) -> None:
        """Forget the carried eigenvector so the next Lanczos call starts cold."""
        self._eig_vector = None

    def densify(self) -> np.ndarray:
        """Materialise ``Psi`` once, on demand (cached until ``add_delta``)."""
        if self._dense is None:
            self._dense = self.constraints.weighted_sum(self.x)
            self.densify_count += 1
        return self._dense

    def oracle_psi(self) -> None:
        """The fast oracle reads ``x`` only — no dense argument is built."""
        return None

    def export_state(self) -> dict:
        """Snapshot including the Lanczos warm-start vectors.

        ``_eig_vector`` (the carried converged eigenvector) and
        ``_final_v0`` (the per-run dual-rescale start vector, drawn once at
        construction) both feed future ``lambda_max`` calls, so a resumed
        run must replay them exactly.  The matvec closure and dense cache
        are derived data and are rebuilt on demand.
        """
        out = super().export_state()
        out["eig_vector"] = (
            None if self._eig_vector is None
            else np.array(self._eig_vector, dtype=np.float64)
        )
        out["final_v0"] = (
            None if self._final_v0 is None
            else np.array(self._final_v0, dtype=np.float64)
        )
        return out

    def import_state(self, state: dict) -> None:
        """Restore weights, counters and warm-start vectors; drop caches."""
        super().import_state(state)
        vec = state.get("eig_vector")
        self._eig_vector = None if vec is None else np.array(vec, dtype=np.float64)
        v0 = state.get("final_v0")
        self._final_v0 = None if v0 is None else np.array(v0, dtype=np.float64)
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
