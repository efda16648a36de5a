"""Tests for the full optimizer approx_psdp (Theorem 1.1 / Lemma 2.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidProblemError
from repro.linalg.psd import random_psd
from repro.baselines.exact import exact_packing_value
from repro.core.certificates import verify_dual, verify_primal
from repro.core.problem import NormalizedPackingSDP, PositiveSDP
from repro.core.solver import SolverOptions, approx_psdp
from repro.problems.random_instances import (
    random_factorized_packing_sdp,
    random_packing_sdp,
    random_positive_sdp,
)


class TestApproxPSDPOnNormalizedInstances:
    def test_bracket_is_certified(self, rng):
        problem = random_packing_sdp(4, 5, rng=rng)
        result = approx_psdp(problem, epsilon=0.3)
        assert result.optimum_lower <= result.optimum_upper
        assert result.relative_gap <= 0.3 + 1e-9
        dual_cert = verify_dual(problem.constraints, result.dual_x)
        assert dual_cert.feasible
        assert dual_cert.value == pytest.approx(result.optimum_lower, rel=1e-6)
        primal_cert = verify_primal(problem.constraints, result.primal_y)
        assert primal_cert.feasible
        assert primal_cert.value == pytest.approx(result.optimum_upper, rel=1e-6)

    def test_brackets_true_optimum(self, rng):
        problem = random_packing_sdp(4, 4, rng=rng)
        result = approx_psdp(problem, epsilon=0.25)
        exact = exact_packing_value(problem).value
        assert result.optimum_lower <= exact * (1 + 1e-6)
        assert result.optimum_upper >= exact * (1 - 1e-6)

    def test_epsilon_controls_gap(self, rng):
        problem = random_packing_sdp(3, 4, rng=rng)
        loose = approx_psdp(problem, epsilon=0.5)
        tight = approx_psdp(problem, epsilon=0.15)
        assert tight.relative_gap <= 0.15 + 1e-9
        assert loose.relative_gap <= 0.5 + 1e-9
        assert tight.relative_gap <= loose.relative_gap + 1e-9

    def test_summary_and_estimate(self, rng):
        problem = random_packing_sdp(3, 4, rng=rng)
        result = approx_psdp(problem, epsilon=0.4)
        assert "OPT in [" in result.summary()
        assert result.optimum_lower <= result.optimum_estimate <= result.optimum_upper

    def test_counters_and_workdepth_aggregate(self, rng):
        problem = random_packing_sdp(3, 4, rng=rng)
        result = approx_psdp(problem, epsilon=0.4)
        assert result.decision_calls == len(result.decision_results)
        assert result.total_iterations >= sum(0 for _ in result.decision_results)
        assert result.work_depth is not None and result.work_depth.work > 0

    def test_invalid_epsilon(self, rng):
        problem = random_packing_sdp(3, 3, rng=rng)
        with pytest.raises(InvalidProblemError):
            approx_psdp(problem, epsilon=1.5)

    def test_invalid_problem_type(self):
        with pytest.raises(InvalidProblemError):
            approx_psdp([np.eye(3)], epsilon=0.2)  # must be wrapped in a problem class

    def test_single_constraint_instance(self, rng):
        mat = random_psd(4, rng=rng, scale=2.0)
        problem = NormalizedPackingSDP([mat])
        result = approx_psdp(problem, epsilon=0.3)
        # With one constraint the optimum is exactly 1 / ||A||_2 = 0.5.
        assert result.optimum_lower <= 0.5 + 1e-9 <= result.optimum_upper * (1 + 1e-9)

    def test_decision_overrides_forwarded(self, rng):
        problem = random_packing_sdp(3, 4, rng=rng)
        result = approx_psdp(problem, epsilon=0.4, collect_history=True)
        assert all(dec.history is not None for dec in result.decision_results)


class TestApproxPSDPOnFactorizedInstances:
    def test_factorized_input_solves_matrix_free(self):
        # Each theta-scaled decision call keeps the factors, so the fast
        # oracle runs the implicit psi state and never densifies Psi.
        eps = 0.5
        problem = random_factorized_packing_sdp(16, 64, rank=2, density=1.0, rng=11)
        result = approx_psdp(problem, epsilon=eps, oracle="fast", rng=3)
        assert result.decision_results
        for decision in result.decision_results:
            assert decision.metadata["psi_state"]["mode"] == "implicit"
            assert decision.metadata["psi_state"]["densifies"] == 0
        dual = verify_dual(problem.constraints, result.dual_x)
        primal = verify_primal(problem.constraints, result.primal_y)
        assert dual.feasible and primal.feasible
        assert dual.value == pytest.approx(result.optimum_lower, rel=1e-9)
        assert primal.value == pytest.approx(result.optimum_upper, rel=1e-9)
        assert primal.value <= (1.0 + eps) * dual.value


class TestApproxPSDPOnGeneralInstances:
    def test_general_instance_maps_back(self, rng):
        problem = random_positive_sdp(3, 4, rng=rng)
        result = approx_psdp(problem, epsilon=0.35)
        assert result.original_dual is not None
        assert result.original_primal is not None
        # The mapped-back primal must be feasible for the original program and
        # its objective must equal the certified upper bound.
        assert problem.primal_feasible(result.original_primal, tol=1e-5)
        assert problem.objective_value(result.original_primal) == pytest.approx(
            result.optimum_upper, rel=1e-5
        )

    def test_beamforming_instance(self, rng):
        from repro.problems.beamforming import beamforming_sdp

        problem = beamforming_sdp(3, 4, rng=rng)
        result = approx_psdp(problem, epsilon=0.3)
        assert result.relative_gap <= 0.3 + 1e-9
        assert problem.primal_feasible(result.original_primal, tol=1e-5)

    def test_normalized_instances_have_no_original_solutions(self, rng):
        problem = random_packing_sdp(3, 3, rng=rng)
        result = approx_psdp(problem, epsilon=0.4)
        assert result.original_dual is None
        assert result.original_primal is None


class TestSolverOptions:
    def test_max_decision_calls_cap(self, rng):
        problem = random_packing_sdp(3, 4, rng=rng)
        options = SolverOptions(epsilon=0.3, max_decision_calls=50)
        result = approx_psdp(problem, options=options)
        assert result.decision_calls <= 50

    def test_decision_epsilon_override(self, rng):
        problem = random_packing_sdp(3, 4, rng=rng)
        options = SolverOptions(epsilon=0.3, decision_epsilon=0.15)
        result = approx_psdp(problem, options=options)
        assert result.metadata["decision_epsilon"] == pytest.approx(0.15)
        assert all(dec.epsilon == pytest.approx(0.15) for dec in result.decision_results)
