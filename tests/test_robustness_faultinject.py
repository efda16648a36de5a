"""Chaos suite for the robustness subsystem (fault injection + budgets).

Every test here drives the deterministic fault injector of
:mod:`repro.robustness.faultinject` against the decision solvers and
asserts the supervision contract:

* each injected fault class recovers via the kernel-demotion ladder to the
  *identical* fixed-seed certified decision, with the event recorded in
  ``result.metadata["recovery_events"]`` and ``status == DEGRADED``;
* solve budgets (wall-clock / iteration / recovery caps) turn exhaustion
  into a best-effort ``DecisionResult`` with an explicit
  :class:`~repro.core.result.SolveStatus` instead of raising or hanging;
* input hardening rejects non-finite data at construction time.

``REPRO_CHAOS_SEED`` (environment) re-seeds the injector's corrupted-entry
draws so CI can run the suite under several seeds.
"""

import os
import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.batch import instance_rng, solve_many
from repro.core.decision import decision_psdp
from repro.core.decision_phased import decision_psdp_phased
from repro.core.mmw import MatrixMultiplicativeWeights
from repro.core.result import SolveStatus
from repro.exceptions import FaultInjected, InvalidProblemError, NumericalError
from repro.operators.collection import ConstraintCollection
from repro.operators.factorized import FactorizedPSDOperator
from repro.robustness import (
    Crash,
    NaN,
    NonConvergent,
    Overflow,
    clear_faults,
    inject,
)
from repro.robustness.faultinject import _PLAN, fault_hook, fault_hook_array

from helpers import assert_results_identical, factorized_family

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    yield
    clear_faults()
    assert not _PLAN


def gram_collection(m=24, n=6, rank=1, scale=0.3, seed=7):
    """Low total rank (< m) so the Taylor engine auto-selects gram mode."""
    return factorized_family(seed + CHAOS_SEED, n=n, m=m, rank=rank, scale=scale)


def dense_psi_collection(m=12, n=8, rank=2, scale=0.4, seed=7):
    """Total rank > m so the engine auto-selects dense-psi (blocked site)."""
    return factorized_family(seed + CHAOS_SEED, n=n, m=m, rank=rank, scale=scale)


def big_collection(m=80, n=10, rank=2, scale=0.2, seed=7):
    """m above the dense cutoff (64) so lambda_max runs warm-started Lanczos."""
    return factorized_family(seed + CHAOS_SEED, n=n, m=m, rank=rank, scale=scale)


def assert_recovered(clean, faulty, site):
    """The chaos contract: same fixed-seed decision, event recorded."""
    assert faulty.status == SolveStatus.DEGRADED
    assert faulty.outcome == clean.outcome
    np.testing.assert_allclose(faulty.dual_value, clean.dual_value, rtol=1e-6)
    events = faulty.metadata["recovery_events"]
    assert events and any(e["site"] == site for e in events)
    assert faulty.metadata["supervisor"]["recoveries"] == len(events)


class TestChaosRecovery:
    """Every fault class recovers to the identical fixed-seed decision."""

    @pytest.mark.parametrize("kind", [NaN, Overflow], ids=["nan", "overflow"])
    def test_taylor_gram_corruption_demotes(self, kind):
        coll = gram_collection()
        clean = decision_psdp(coll, epsilon=0.25, oracle="fast", rng=3)
        assert clean.status == SolveStatus.CERTIFIED
        with inject("taylor_gram.apply", kind, at_call=2, seed=CHAOS_SEED) as spec:
            faulty = decision_psdp(coll, epsilon=0.25, oracle="fast", rng=3)
        assert spec.fires == 1
        assert_recovered(clean, faulty, "taylor_gram.apply")
        event = next(e for e in faulty.metadata["recovery_events"] if e["site"] == "taylor_gram.apply")
        assert event["from_mode"] == "gram"

    def test_taylor_blocked_corruption_demotes(self):
        coll = dense_psi_collection()
        clean = decision_psdp(coll, epsilon=0.25, oracle="fast", rng=3)
        with inject("taylor_blocked.apply", NaN, at_call=2, seed=CHAOS_SEED) as spec:
            faulty = decision_psdp(coll, epsilon=0.25, oracle="fast", rng=3)
        assert spec.fires == 1
        assert_recovered(clean, faulty, "taylor_blocked.apply")

    def test_multi_rung_descent_to_reference_kernel(self):
        """Persistent faults on every engine rung walk the full ladder down
        to the reference (legacy per-term) kernel and still certify."""
        coll = gram_collection()
        clean = decision_psdp(coll, epsilon=0.25, oracle="fast", rng=3)
        with inject("taylor_gram.apply", NaN, at_call=1, times=10**6, seed=CHAOS_SEED), \
             inject("taylor_blocked.apply", NaN, at_call=1, times=10**6, seed=CHAOS_SEED):
            faulty = decision_psdp(coll, epsilon=0.25, oracle="fast", rng=3)
        assert faulty.status == SolveStatus.DEGRADED
        assert faulty.outcome == clean.outcome
        np.testing.assert_allclose(faulty.dual_value, clean.dual_value, rtol=1e-6)
        modes = [(e["from_mode"], e["to_mode"]) for e in faulty.metadata["recovery_events"]]
        assert ("gram", "dense-psi") in modes
        assert any(to == "reference" for _, to in modes)

    def test_lanczos_nonconvergence_demotes_to_cold_start(self):
        coll = big_collection()
        clean = decision_psdp(coll, epsilon=0.3, oracle="fast", rng=5)
        with inject("lanczos", NonConvergent, at_call=1, seed=CHAOS_SEED) as spec:
            faulty = decision_psdp(coll, epsilon=0.3, oracle="fast", rng=5)
        assert spec.fires == 1
        assert_recovered(clean, faulty, "lanczos")
        event = next(e for e in faulty.metadata["recovery_events"] if e["site"] == "lanczos")
        assert (event["from_mode"], event["to_mode"]) == ("warm", "cold")

    def test_lanczos_persistent_failure_falls_back_to_exact(self):
        coll = big_collection()
        clean = decision_psdp(coll, epsilon=0.3, oracle="fast", rng=5)
        with inject("lanczos", NonConvergent, at_call=1, times=2, seed=CHAOS_SEED) as spec:
            faulty = decision_psdp(coll, epsilon=0.3, oracle="fast", rng=5)
        assert spec.fires == 2
        assert_recovered(clean, faulty, "lanczos")
        modes = [(e["from_mode"], e["to_mode"]) for e in faulty.metadata["recovery_events"]]
        assert ("cold", "exact") in modes

    def test_trace_estimation_fault_demotes_to_identity(self):
        coll = gram_collection()
        clean = decision_psdp(coll, epsilon=0.25, oracle="fast", rng=3)
        assert clean.metadata["trace_estimator"]["mode"] == "gram"
        with inject("trace_estimation", NonConvergent, at_call=2, seed=CHAOS_SEED) as spec:
            faulty = decision_psdp(coll, epsilon=0.25, oracle="fast", rng=3)
        assert spec.fires == 1
        assert_recovered(clean, faulty, "trace_estimation")
        events = faulty.metadata["recovery_events"]
        assert [(e["from_mode"], e["to_mode"]) for e in events] == [("gram", "identity")]
        assert events[0]["kind"] == "non-convergent"
        assert faulty.metadata["trace_estimator"]["mode"] == "identity"

    def test_psi_state_matvec_corruption_densifies(self):
        coll = big_collection()
        clean = decision_psdp(coll, epsilon=0.3, oracle="fast", rng=5)
        assert clean.metadata["psi_state"]["mode"] == "implicit"
        with inject("psi_state.matvec", NaN, at_call=3, seed=CHAOS_SEED) as spec:
            faulty = decision_psdp(coll, epsilon=0.3, oracle="fast", rng=5)
        assert spec.fires == 1
        assert_recovered(clean, faulty, "psi_state.matvec")
        assert faulty.metadata["psi_state"]["mode"] == "dense"
        event = next(e for e in faulty.metadata["recovery_events"] if e["site"] == "psi_state.matvec")
        assert (event["from_mode"], event["to_mode"]) == ("implicit", "dense")

    def test_phased_solver_recovers_identically(self):
        coll = gram_collection()
        clean = decision_psdp_phased(coll, epsilon=0.25, oracle="fast", rng=3)
        with inject("taylor_gram.apply", NaN, at_call=1, seed=CHAOS_SEED) as spec:
            faulty = decision_psdp_phased(coll, epsilon=0.25, oracle="fast", rng=3)
        assert spec.fires == 1
        assert_recovered(clean, faulty, "taylor_gram.apply")

    def test_recovery_work_is_charged(self):
        coll = gram_collection()
        with inject("taylor_gram.apply", NaN, at_call=2, seed=CHAOS_SEED):
            faulty = decision_psdp(coll, epsilon=0.25, oracle="fast", rng=3)
        assert faulty.metadata["supervisor"]["recoveries"] == 1
        assert "recovery" in faulty.work_depth.by_label


class TestBudgets:
    """Budget exhaustion returns best-effort results, never raises."""

    def test_iteration_budget_returns_partial_dual(self):
        coll = gram_collection(m=30, n=12, rank=2, scale=0.05)
        result = decision_psdp(coll, epsilon=0.2, oracle="fast", rng=3, iteration_budget=3)
        assert result.status == SolveStatus.BUDGET_EXHAUSTED
        assert result.iterations == 3
        # The partial dual is exactly verified feasible (measured rescale).
        assert np.isfinite(result.dual_value)
        assert result.metadata["solve_status"] == "budget_exhausted"

    def test_partial_dual_grows_monotonically_with_budget(self):
        coll = gram_collection(m=30, n=12, rank=2, scale=0.05)
        masses = []
        for budget in (2, 5, 10):
            result = decision_psdp(
                coll, epsilon=0.2, oracle="fast", rng=3, iteration_budget=budget
            )
            assert result.status == SolveStatus.BUDGET_EXHAUSTED
            masses.append(result.metadata["x_l1"])
        assert masses == sorted(masses)

    def test_wall_clock_budget_respected(self):
        coll = gram_collection(m=30, n=12, rank=2, scale=0.05)
        budget = 0.05
        start = time.monotonic()
        result = decision_psdp(
            coll, epsilon=0.02, oracle="fast", rng=3, wall_clock_budget=budget
        )
        elapsed = time.monotonic() - start
        if result.status == SolveStatus.BUDGET_EXHAUSTED:
            # The acceptance bound: return within 1.5x the requested budget
            # (generous slack for the in-flight iteration and result build).
            assert elapsed <= 10 * budget
            assert np.isfinite(result.dual_value)
        else:
            # The solve legitimately finished inside the budget.
            assert result.status == SolveStatus.CERTIFIED

    def test_tiny_wall_clock_budget_exhausts(self):
        coll = gram_collection(m=30, n=12, rank=2, scale=0.05)
        result = decision_psdp(
            coll, epsilon=0.02, oracle="fast", rng=3, wall_clock_budget=1e-9
        )
        assert result.status == SolveStatus.BUDGET_EXHAUSTED

    def test_recoveries_exhausted_returns_failed(self):
        coll = gram_collection()
        with inject("taylor_gram.apply", NaN, at_call=1, times=10**6, seed=CHAOS_SEED):
            result = decision_psdp(
                coll, epsilon=0.25, oracle="fast", rng=3, max_recoveries=0
            )
        assert result.status == SolveStatus.FAILED
        assert result.metadata["solve_status"] == "failed"

    def test_phased_iteration_budget(self):
        coll = gram_collection()
        result = decision_psdp_phased(
            coll, epsilon=0.25, oracle="fast", rng=3, iteration_budget=1
        )
        assert result.status == SolveStatus.BUDGET_EXHAUSTED
        assert result.iterations == 1

    def test_happy_path_is_certified_with_no_events(self):
        coll = gram_collection()
        result = decision_psdp(coll, epsilon=0.25, oracle="fast", rng=3)
        assert result.status == SolveStatus.CERTIFIED
        assert result.metadata["recovery_events"] == []
        assert result.metadata["supervisor"]["recoveries"] == 0


class TestChaosBatch:
    """Fault supervision composed with the batched lockstep solver.

    A fault that lands inside a ``solve_many`` group must demote *only*
    the instance whose stack slice it corrupted — the batchmates keep
    their pristine certified results — and budget exhaustion must come
    back as a per-instance :class:`SolveStatus`, exactly as sequential.
    """

    def _batch(self, size=4):
        return [gram_collection(seed=7 + 11 * i) for i in range(size)]

    def _sequential(self, size=4, **overrides):
        return [
            decision_psdp(
                coll, epsilon=0.25, oracle="fast", rng=instance_rng(3, i), **overrides
            )
            for i, coll in enumerate(self._batch(size))
        ]

    def test_mid_batch_fault_ejects_only_the_faulted_instance(self):
        clean = self._sequential()
        assert all(r.status == SolveStatus.CERTIFIED for r in clean)
        with inject("taylor_gram.apply", NaN, at_call=2, seed=CHAOS_SEED) as spec:
            faulty = solve_many(self._batch(), epsilon=0.25, oracle="fast", rng=3)
        assert spec.fires == 1
        degraded = [i for i, r in enumerate(faulty) if r.status == SolveStatus.DEGRADED]
        assert len(degraded) == 1
        hit = degraded[0]
        events = faulty[hit].metadata["recovery_events"]
        assert len(events) == 1
        assert events[0]["kind"] == "BatchEjection"
        assert (events[0]["from_mode"], events[0]["to_mode"]) == ("batched", "sequential")
        assert events[0]["site"] == "taylor_gram.apply"
        assert faulty[hit].metadata["supervisor"]["recoveries"] == 1
        # The ejection re-solve replays the instance's own rng stream and
        # the one-shot fault was consumed by the discarded batched attempt,
        # so the decision itself is the clean sequential one.
        assert faulty[hit].outcome == clean[hit].outcome
        assert faulty[hit].dual_value == clean[hit].dual_value
        np.testing.assert_array_equal(faulty[hit].dual_x, clean[hit].dual_x)
        for i, result in enumerate(faulty):
            if i == hit:
                continue
            assert result.status == SolveStatus.CERTIFIED
            assert result.metadata["recovery_events"] == []
            assert result.metadata["supervisor"]["recoveries"] == 0
            assert result.dual_value == clean[i].dual_value
            np.testing.assert_array_equal(result.dual_x, clean[i].dual_x)

    def test_batch_budget_exhaustion_is_per_instance(self):
        clean = self._sequential(size=3, iteration_budget=3)
        batched = solve_many(
            self._batch(size=3), epsilon=0.25, oracle="fast", rng=3,
            iteration_budget=3,
        )
        for sequential, result in zip(clean, batched):
            assert result.status == SolveStatus.BUDGET_EXHAUSTED
            assert result.iterations == 3
            assert result.metadata["solve_status"] == "budget_exhausted"
            assert result.dual_value == sequential.dual_value
            np.testing.assert_array_equal(result.dual_x, sequential.dual_x)


class TestFaultInjector:
    """The injector itself: determinism, addressing, accounting."""

    def test_non_corrupting_fault_raises_fault_injected(self):
        with inject("lanczos", NonConvergent):
            with pytest.raises(FaultInjected) as excinfo:
                fault_hook("lanczos")
        assert excinfo.value.site == "lanczos"
        assert isinstance(excinfo.value, NumericalError)

    def test_at_call_addressing(self):
        with inject("lanczos", NonConvergent, at_call=3) as spec:
            fault_hook("lanczos")
            fault_hook("lanczos")
            assert spec.fires == 0
            with pytest.raises(FaultInjected):
                fault_hook("lanczos")
            fault_hook("lanczos")  # times=1: armed once only
        assert spec.fires == 1
        assert spec.calls_seen == 4

    def test_corruption_is_deterministic_in_seed(self):
        outs = []
        for _ in range(2):
            with inject("taylor_gram.apply", NaN, seed=11):
                arr = np.ones(32)
                fault_hook_array("taylor_gram.apply", arr)
                outs.append(arr.copy())
        np.testing.assert_array_equal(outs[0], outs[1])
        assert np.isnan(outs[0]).sum() == 1

    def test_overflow_kind_poisons_with_inf(self):
        with inject("taylor_gram.apply", Overflow, seed=2):
            arr = np.ones(16)
            fault_hook_array("taylor_gram.apply", arr)
        assert np.isinf(arr).sum() == 1

    def test_site_isolation(self):
        with inject("trace_estimation", NonConvergent):
            fault_hook("lanczos")  # different site: no fire
            arr = np.ones(8)
            fault_hook_array("taylor_gram.apply", arr)
            assert np.all(np.isfinite(arr))

    def test_clear_faults_disarms(self):
        ctx = inject("lanczos", NonConvergent)
        ctx.__enter__()
        clear_faults()
        fault_hook("lanczos")  # must not raise


class TestInputHardening:
    """Construction-time rejection of non-finite / degenerate inputs."""

    def test_mmw_rejects_non_finite_gain(self):
        mmw = MatrixMultiplicativeWeights(dim=3, eps0=0.25, validate_gains=True)
        gain = np.eye(3) * 0.5
        gain[1, 1] = np.nan
        with pytest.raises(InvalidProblemError, match="non-finite"):
            mmw.update(gain)

    def test_mmw_rejects_nan_gain_without_validation(self):
        # The NaN check is unconditional: NaN slips through the
        # lambda_max comparison (NaN compares False), so even
        # validate_gains=False must reject it.
        mmw = MatrixMultiplicativeWeights(dim=3, eps0=0.25, validate_gains=False)
        gain = np.full((3, 3), np.nan)
        with pytest.raises(InvalidProblemError, match="non-finite"):
            mmw.update(gain)

    def test_sparse_factor_rejects_nan(self):
        factor = sp.csr_matrix(np.array([[1.0, 0.0], [np.nan, 2.0]]))
        with pytest.raises(InvalidProblemError, match="NaN or infinite"):
            FactorizedPSDOperator(factor)

    def test_collection_rejects_zero_rank_operator(self):
        ops = [
            FactorizedPSDOperator(np.ones((4, 1))),
            FactorizedPSDOperator(np.zeros((4, 0))),
        ]
        with pytest.raises(InvalidProblemError, match="zero-rank"):
            ConstraintCollection(ops)

    def test_weighted_sum_rejects_non_finite_weights(self):
        coll = gram_collection()
        weights = np.ones(len(coll))
        weights[2] = np.nan
        with pytest.raises(InvalidProblemError, match="non-finite"):
            coll.weighted_sum(weights)

    def test_scaled_rejects_non_finite_coefficients(self):
        coll = gram_collection()
        coeffs = np.ones(len(coll))
        coeffs[0] = np.inf
        with pytest.raises(InvalidProblemError, match="finite"):
            coll.scaled(coeffs)


class TestCrashFaults:
    """Crash-style (fatal) faults: not absorbed by the demotion ladder."""

    def test_crash_fails_instead_of_recovering(self):
        with inject("lanczos", Crash, at_call=1, seed=CHAOS_SEED) as spec:
            result = decision_psdp(big_collection(), epsilon=0.25, oracle="fast", rng=3)
        assert spec.fires >= 1
        assert result.status == SolveStatus.FAILED
        assert result.metadata["solve_status"] == "failed"

    def test_crash_before_first_capture_has_no_checkpoint(self):
        with inject("lanczos", Crash, at_call=1, seed=CHAOS_SEED):
            result = decision_psdp(
                big_collection(), epsilon=0.25, oracle="fast", rng=3,
                checkpoint_every=1000,
            )
        assert result.status == SolveStatus.FAILED
        assert "checkpoint" not in result.metadata

    def test_crash_after_periodic_capture_resumes_identically(self):
        # Crash at the 7th Lanczos call: the periodic capture from an
        # earlier iteration survives on the FAILED result, and a clean
        # resume lands on the uninterrupted run's bits.
        baseline = decision_psdp(
            big_collection(), epsilon=0.25, oracle="fast", rng=3,
            collect_history=True,
        )
        with inject("lanczos", Crash, at_call=7, seed=CHAOS_SEED):
            crashed = decision_psdp(
                big_collection(), epsilon=0.25, oracle="fast", rng=3,
                checkpoint_every=2, collect_history=True,
            )
        assert crashed.status == SolveStatus.FAILED
        ckpt = crashed.metadata["checkpoint"]
        resumed = decision_psdp(
            big_collection(), epsilon=0.25, oracle="fast", rng=3,
            collect_history=True, resume_from=ckpt,
        )
        assert_results_identical(resumed, baseline, label="crash-resume")

    def test_at_time_arming_defers_fault(self):
        from repro.service import VirtualClock

        clock = VirtualClock()
        with inject(
            "chaos.site", NonConvergent, at_call=1, seed=CHAOS_SEED,
            at_time=5.0, clock=clock,
        ) as spec:
            fault_hook("chaos.site")  # before at_time: not even counted
            assert spec.calls_seen == 0
            clock.advance(6.0)
            with pytest.raises(FaultInjected):
                fault_hook("chaos.site")
            assert spec.fires == 1


class TestCheckpointChaos:
    """Interrupt/resume bit-equality under the chaos seed."""

    def test_interrupt_every_iteration_resumes_identically(self):
        baseline = decision_psdp(
            gram_collection(), epsilon=0.25, oracle="fast", rng=3,
            collect_history=True,
        )
        assert baseline.status == SolveStatus.CERTIFIED
        for k in range(1, baseline.iterations):
            partial = decision_psdp(
                gram_collection(), epsilon=0.25, oracle="fast", rng=3,
                collect_history=True, iteration_budget=k,
            )
            assert partial.status == SolveStatus.BUDGET_EXHAUSTED, f"k={k}"
            resumed = decision_psdp(
                gram_collection(), epsilon=0.25, oracle="fast", rng=3,
                collect_history=True,
                resume_from=partial.metadata["checkpoint"],
            )
            assert_results_identical(resumed, baseline, label=f"chaos-resume@{k}")

    def test_phased_interrupt_every_iteration_resumes_identically(self):
        baseline = decision_psdp_phased(
            gram_collection(), epsilon=0.25, oracle="fast", rng=3,
            collect_history=True,
        )
        assert baseline.status == SolveStatus.CERTIFIED
        for k in range(1, baseline.iterations):
            partial = decision_psdp_phased(
                gram_collection(), epsilon=0.25, oracle="fast", rng=3,
                collect_history=True, iteration_budget=k,
            )
            assert partial.status == SolveStatus.BUDGET_EXHAUSTED, f"k={k}"
            resumed = decision_psdp_phased(
                gram_collection(), epsilon=0.25, oracle="fast", rng=3,
                collect_history=True,
                resume_from=partial.metadata["checkpoint"],
            )
            assert_results_identical(
                resumed, baseline, label=f"chaos-phased-resume@{k}"
            )

    def test_resume_mid_demotion_ladder(self):
        # The fault demotes the gram kernel early; the interrupt lands
        # *after* the demotion.  The checkpoint must carry the ladder
        # position (and the recorded event), so the clean resume matches
        # the uninterrupted degraded run — not a pristine one.
        def solve(**overrides):
            return decision_psdp(
                gram_collection(), epsilon=0.25, oracle="fast", rng=3,
                collect_history=True, **overrides,
            )

        with inject("taylor_gram.apply", NaN, at_call=2, seed=CHAOS_SEED):
            baseline = solve()
        assert baseline.status == SolveStatus.DEGRADED
        with inject("taylor_gram.apply", NaN, at_call=2, seed=CHAOS_SEED):
            partial = solve(iteration_budget=5)
        assert partial.status == SolveStatus.BUDGET_EXHAUSTED
        events = partial.metadata["recovery_events"]
        assert events and events[0]["site"] == "taylor_gram.apply"
        resumed = solve(resume_from=partial.metadata["checkpoint"])
        assert_results_identical(resumed, baseline, label="mid-ladder-resume")
        assert resumed.status == SolveStatus.DEGRADED

    def test_resume_on_reference_floor(self):
        # Persistent kernel faults walk the Taylor ladder to the reference
        # floor.  The floor flag rides in the checkpoint as the version-1
        # engine_enabled/blocked pair, so a clean resume stays on the floor
        # and matches the uninterrupted degraded run.
        def solve(**overrides):
            return decision_psdp(
                gram_collection(), epsilon=0.25, oracle="fast", rng=3,
                collect_history=True, **overrides,
            )

        with inject("taylor_gram.apply", NaN, at_call=1, times=10**6, seed=CHAOS_SEED), \
             inject("taylor_blocked.apply", NaN, at_call=1, times=10**6, seed=CHAOS_SEED):
            baseline = solve()
            partial = solve(iteration_budget=5)
        assert any(e["to_mode"] == "reference" for e in baseline.metadata["recovery_events"])
        ckpt = partial.metadata["checkpoint"]
        assert (ckpt.oracle["engine_enabled"], ckpt.oracle["blocked"]) == (False, False)
        resumed = solve(resume_from=ckpt)
        assert_results_identical(resumed, baseline, label="floor-resume")


class TestServiceChaos:
    """Service retry/backoff determinism under ``REPRO_CHAOS_SEED``."""

    def _run(self):
        from repro.core.decision import DecisionOptions
        from repro.service import RequestOutcome, SolveService, VirtualClock

        clock = VirtualClock()
        service = SolveService(
            options=DecisionOptions(epsilon=0.25, oracle="fast", max_recoveries=0),
            seed=CHAOS_SEED,
            clock=clock,
        )
        with inject(
            "taylor_gram.apply", NaN, at_call=1, times=10**6, seed=CHAOS_SEED
        ):
            rid = service.submit(gram_collection(), max_attempts=3)
            schedule = []
            while service.response(rid) is None:
                service.step()
                schedule.append((clock(), service.next_ready_time()))
                nxt = service.next_ready_time()
                if nxt is not None and nxt > clock():
                    clock.advance(nxt - clock())
        clear_faults()
        return service.response(rid), schedule

    def test_retry_backoff_schedule_is_deterministic(self):
        from repro.service import RequestOutcome

        response_a, schedule_a = self._run()
        response_b, schedule_b = self._run()
        assert response_a.outcome is RequestOutcome.RETRY_EXHAUSTED
        assert response_a.outcome is response_b.outcome
        assert response_a.attempts == response_b.attempts == 3
        assert schedule_a == schedule_b

    def test_crashing_service_request_is_typed_not_raised(self):
        from repro.core.decision import DecisionOptions
        from repro.service import RequestOutcome, SolveService, VirtualClock

        service = SolveService(
            options=DecisionOptions(epsilon=0.25, oracle="fast"),
            seed=CHAOS_SEED,
            clock=VirtualClock(),
        )
        with inject("lanczos", Crash, at_call=1, times=2, seed=CHAOS_SEED):
            rid = service.submit(big_collection(), max_attempts=3)
            responses = service.drain()
        response = responses[rid]
        # Both crash fires can be consumed within one attempt (the cert
        # check and the final dual rescale both call the site), so the
        # retry either succeeds or exhausts — but it is always typed.
        assert response.outcome in (
            RequestOutcome.COMPLETED,
            RequestOutcome.DEGRADED,
            RequestOutcome.RETRY_EXHAUSTED,
        )
        assert response.attempts >= 1
