"""Tests for the decision solver (Algorithm 3.1) and its phased variant."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import InvalidProblemError
from repro.linalg.psd import random_psd
from repro.operators.collection import ConstraintCollection
from repro.core.certificates import verify_dual, verify_primal
from repro.core.decision import DecisionOptions, DecisionParameters, decision_psdp
from repro.core.decision_phased import decision_psdp_phased
from repro.core.problem import NormalizedPackingSDP
from repro.core.result import DecisionOutcome


class TestDecisionParameters:
    def test_formulas(self):
        params = DecisionParameters.from_instance(10, 0.2)
        log_n = math.log(10)
        assert params.K == pytest.approx((1 + log_n) / 0.2)
        assert params.alpha == pytest.approx(0.2 / (params.K * 3.0))
        assert params.R == math.ceil(32 * log_n / (0.2 * params.alpha))

    def test_iteration_bound_scaling(self):
        """R = O(eps^-3 log^2 n): quadrupling accuracy multiplies R by ~64."""
        r_loose = DecisionParameters.from_instance(50, 0.4).R
        r_tight = DecisionParameters.from_instance(50, 0.1).R
        ratio = r_tight / r_loose
        # R ~ (1 + 10 eps) (1 + ln n) ln n / eps^3: the eps^-3 factor gives 64,
        # damped by the (1 + 10 eps) factor (2/5), so ~25.6 here.
        assert 15 < ratio < 130

    def test_log_squared_scaling_in_n(self):
        r_small = DecisionParameters.from_instance(4, 0.2).R
        r_large = DecisionParameters.from_instance(4**4, 0.2).R
        # log^2 growth: (4 log 4)^2 / (log 4)^2 = 16, within rounding slack.
        assert 8 < r_large / r_small < 32

    def test_invalid_inputs(self):
        with pytest.raises(InvalidProblemError):
            DecisionParameters.from_instance(0, 0.1)
        with pytest.raises(InvalidProblemError):
            DecisionParameters.from_instance(3, 1.5)


class TestDecisionSolver:
    def test_dual_outcome_on_feasible_instance(self, rng):
        """An instance whose optimum is far above 1 must produce a dual certificate."""
        # Tiny matrices: sum_i x_i A_i stays far below I even for large x.
        mats = [random_psd(4, rng=rng, scale=0.05) for _ in range(4)]
        problem = NormalizedPackingSDP(mats)
        result = decision_psdp(problem, epsilon=0.2)
        assert result.outcome is DecisionOutcome.DUAL
        cert = verify_dual(problem.constraints, result.dual_x)
        assert cert.feasible
        assert cert.value >= 1.0 - 1e-9

    def test_primal_outcome_on_infeasible_instance(self, rng):
        """An instance whose optimum is far below 1 must produce a primal certificate."""
        mats = [random_psd(4, rng=rng, scale=50.0) for _ in range(4)]
        problem = NormalizedPackingSDP(mats)
        result = decision_psdp(problem, epsilon=0.2)
        assert result.outcome is DecisionOutcome.PRIMAL
        assert result.primal_y is not None
        assert np.trace(result.primal_y) == pytest.approx(1.0, abs=1e-8)
        assert result.primal_min_dot >= 1.0

    def test_dual_candidate_always_feasible(self, small_problem):
        result = decision_psdp(small_problem, epsilon=0.25)
        cert = verify_dual(small_problem.constraints, result.dual_x)
        assert cert.feasible

    @pytest.mark.parametrize(
        "m, n, oracle, budget",
        [(80, 10, "fast", None), (24, 16, "fast", None), (24, 8, "exact", None),
         (260, 66, "fast", 3)],
        ids=["gram-twin", "psi-twin", "dense-state", "lanczos"],
    )
    def test_dual_is_feasible_without_tolerance(self, m, n, oracle, budget):
        # Every lambda_max is a certified upper bound, so the rescaled dual's
        # top eigenvalue sits below 1 by the bound's slack, not at 1 +- ulp.
        # The branches: the R x R twin (R = 20 <= m), Psi itself
        # (m = 24 < R = 32), the dense state's Psi, and seeded Lanczos
        # (min(m, R) = 132 > KAPPA_EIG_CUTOFF).
        from helpers import factorized_family

        coll = factorized_family(3, n=n, m=m, rank=2, scale=0.3)
        result = decision_psdp(
            coll, epsilon=0.3, oracle=oracle, rng=5, iteration_budget=budget
        )
        assert result.metadata["psi_state"]["mode"] == (
            "dense" if oracle == "exact" else "implicit"
        )
        assert np.linalg.eigvalsh(coll.weighted_sum(result.dual_x))[-1] <= 1.0 - 5e-10

    def test_primal_candidate_is_density(self, small_problem):
        result = decision_psdp(small_problem, epsilon=0.25)
        if result.primal_y is not None:
            assert np.trace(result.primal_y) == pytest.approx(1.0, abs=1e-6)
            assert np.linalg.eigvalsh(result.primal_y)[0] >= -1e-9

    def test_strict_mode_runs_without_early_exit(self, rng):
        mats = [random_psd(3, rng=rng, scale=0.1) for _ in range(3)]
        problem = NormalizedPackingSDP(mats)
        result = decision_psdp(problem, epsilon=0.3, strict=True)
        # Strict mode only stops on the paper's loop conditions (or the
        # certified empty-update-set shortcut).
        assert result.metadata["strict"] is True
        cert = verify_dual(problem.constraints, result.dual_x)
        assert cert.feasible

    def test_early_exit_is_faster_than_strict(self, rng):
        mats = [random_psd(3, rng=rng, scale=0.1) for _ in range(3)]
        problem = NormalizedPackingSDP(mats)
        fast = decision_psdp(problem, epsilon=0.3, certificate_check_every=10)
        strict = decision_psdp(problem, epsilon=0.3, strict=True)
        assert fast.iterations <= strict.iterations

    def test_history_collection(self, small_problem):
        result = decision_psdp(small_problem, epsilon=0.3, collect_history=True)
        assert result.history is not None
        assert len(result.history) == result.iterations
        norms = result.history.x_norms()
        assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_no_history_by_default(self, small_problem):
        result = decision_psdp(small_problem, epsilon=0.3)
        assert result.history is None

    def test_iteration_cap_respected(self, small_problem):
        result = decision_psdp(small_problem, epsilon=0.3, max_iterations=5, certificate_check_every=0)
        assert result.iterations <= 5

    def test_work_depth_report_present(self, small_problem):
        result = decision_psdp(small_problem, epsilon=0.3)
        assert result.work_depth is not None
        assert result.work_depth.work > 0
        assert result.work_depth.depth > 0
        assert result.work_depth.depth <= result.work_depth.work

    def test_epsilon_validation(self, small_problem):
        with pytest.raises(InvalidProblemError):
            decision_psdp(small_problem, epsilon=0.0)

    def test_unknown_option_rejected(self, small_problem):
        with pytest.raises(TypeError):
            decision_psdp(small_problem, epsilon=0.3, bogus_option=1)

    def test_non_execution_backend_rejected(self):
        # A name is not an execution backend; it must fail here, not when
        # the solve first reads ``backend.tracker``.
        with pytest.raises(InvalidProblemError, match="ExecutionBackend"):
            DecisionOptions(backend="numpy")

    def test_zero_trace_constraint_rejected(self):
        problem = NormalizedPackingSDP([np.zeros((3, 3)), np.eye(3)], validate=False)
        with pytest.raises(InvalidProblemError):
            decision_psdp(problem, epsilon=0.2)

    def test_accepts_plain_matrix_list(self, rng):
        mats = [random_psd(3, rng=rng, scale=0.2) for _ in range(3)]
        result = decision_psdp(mats, epsilon=0.3)
        assert result.iterations > 0

    def test_fast_oracle_agrees_on_outcome(self, rng):
        mats = [random_psd(4, rng=rng, scale=0.05) for _ in range(3)]
        problem = NormalizedPackingSDP(mats)
        exact = decision_psdp(problem, epsilon=0.25, oracle="exact")
        fast = decision_psdp(problem, epsilon=0.25, oracle="fast", rng=7)
        assert exact.outcome == fast.outcome == DecisionOutcome.DUAL
        cert = verify_dual(problem.constraints, fast.dual_x)
        assert cert.feasible

    def test_spectrum_bound_lemma32(self, rng):
        """Lemma 3.2: Psi(t) <= (1 + 10 eps) K I throughout the run."""
        eps = 0.25
        mats = [random_psd(4, rng=rng, scale=float(rng.uniform(0.5, 1.5))) for _ in range(4)]
        problem = NormalizedPackingSDP(mats)
        result = decision_psdp(problem, epsilon=eps, collect_history=True, strict=True)
        K = result.metadata["K"]
        bound = (1 + 10 * eps) * K
        lam_max_seen = max(r.psi_lambda_max for r in result.history)
        assert lam_max_seen <= bound + 1e-6

    def test_lanczos_solves_repeat_bit_for_bit(self):
        # m = 136 puts every lambda_max of the dense state on the Lanczos
        # path; its cold start is drawn from the run's spawned generator, so
        # two solves of the same instance and seed return identical bits.
        from helpers import factorized_family

        def solve():
            return decision_psdp(
                factorized_family(3, n=8, m=136), epsilon=0.25, oracle="exact",
                rng=5, collect_history=True, max_iterations=30,
            )

        first, second = solve(), solve()
        assert np.array_equal(first.dual_x, second.dual_x)
        assert first.metadata["psi_state"] == second.metadata["psi_state"]

    def test_oracle_built_over_another_collection_rejected(self):
        # An oracle answers for the collection it was built over: handed
        # another instance it would certify a wrong outcome (here DUAL for
        # an instance whose exact answer is PRIMAL).
        from helpers import factorized_family

        from repro.core.batch import solve_many
        from repro.core.dotexp import ExactDotExpOracle

        a = factorized_family(1, n=8, m=24, rank=2, scale=0.35)
        b = factorized_family(2, n=8, m=24, rank=2, scale=0.9)
        with pytest.raises(InvalidProblemError, match="different constraint collection"):
            decision_psdp(b, epsilon=0.25, oracle=ExactDotExpOracle(a), rng=1)
        with pytest.raises(InvalidProblemError, match="different constraint collection"):
            solve_many([a, b], oracle=ExactDotExpOracle(a))
        own = decision_psdp(b, epsilon=0.25, oracle=ExactDotExpOracle(b), rng=1)
        assert own.outcome == DecisionOutcome.PRIMAL


class TestSolvedInstancesAreFreed:
    """Dropping a result and its collection frees them by reference count.

    With the cyclic collector off, a reference cycle anywhere between the
    result, the psi state, the deferred primal build, the packed view and
    the Taylor engine would keep the solved collection or its packed
    stack alive.
    """

    @staticmethod
    def _collection_survives(solve, scale):
        import gc
        import weakref

        from helpers import factorized_family

        gc.collect()
        gc.disable()
        try:
            collection = factorized_family(0, n=8, m=32, scale=scale)
            alive = weakref.ref(collection)
            result = solve(collection)
            view = weakref.ref(collection.packed_view)
            outcome = result.outcome
            del result, collection
            return outcome, alive() is not None or view() is not None
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "scale, expected",
        [(0.35, DecisionOutcome.DUAL), (1.0, DecisionOutcome.PRIMAL)],
    )
    @pytest.mark.parametrize("solver", ["psdp", "phased", "solve_many"])
    def test_collection_freed_without_gc(self, solver, scale, expected):
        from repro.core.batch import solve_many

        solve = {
            "psdp": lambda c: decision_psdp(c, epsilon=0.25, oracle="fast", rng=1),
            "phased": lambda c: decision_psdp_phased(c, epsilon=0.25, oracle="fast", rng=1),
            # m = 32 puts the instance on the fused lockstep path.
            "solve_many": lambda c: solve_many([c], epsilon=0.25, oracle="fast", rng=1)[0],
        }[solver]
        outcome, survives = self._collection_survives(solve, scale)
        assert outcome == expected
        assert not survives


class TestPhasedVariant:
    def test_same_outcome_as_phaseless(self, rng):
        mats = [random_psd(4, rng=rng, scale=0.1) for _ in range(3)]
        problem = NormalizedPackingSDP(mats)
        plain = decision_psdp(problem, epsilon=0.25)
        phased = decision_psdp_phased(problem, epsilon=0.25)
        assert plain.outcome == phased.outcome
        cert = verify_dual(problem.constraints, phased.dual_x)
        assert cert.feasible

    def test_fewer_oracle_calls_than_iterations(self, rng):
        mats = [random_psd(4, rng=rng, scale=0.1) for _ in range(4)]
        problem = NormalizedPackingSDP(mats)
        result = decision_psdp_phased(problem, epsilon=0.25, strict=True)
        assert result.counters.calls <= result.iterations
        assert result.metadata["phases"] >= 1

    def test_invalid_phase_growth(self, small_problem):
        with pytest.raises(InvalidProblemError):
            decision_psdp_phased(small_problem, epsilon=0.2, phase_growth=0.9)

    def test_primal_outcome_infeasible_instance(self, rng):
        mats = [random_psd(3, rng=rng, scale=40.0) for _ in range(3)]
        problem = NormalizedPackingSDP(mats)
        result = decision_psdp_phased(problem, epsilon=0.25)
        assert result.outcome is DecisionOutcome.PRIMAL
        cert = verify_primal(problem.constraints, result.primal_y / max(result.primal_min_dot, 1e-12))
        assert cert.feasible or result.primal_min_dot > 0
